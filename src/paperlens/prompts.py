"""Assembly of the three prompt kinds from plain-text template sections.

Templates live as named section files (``annotation/persona.txt`` etc.)
so prompt provenance stays auditable; nothing is interpolated into a
section. The packaged defaults target mathematical explanation in research
papers; point ``templates_dir`` at your own directory with the same layout
to annotate a different concept.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .atomic import PaperlensError, read_text
from .provider import estimate_tokens


class PromptError(PaperlensError):
    """Raised for missing template sections or invalid prompt inputs."""


class PromptKind(enum.Enum):
    ANNOTATION = "annotation"
    FILTER = "filter"
    QUERY = "query"


#: Section files expected per prompt kind, relative to the templates root.
SECTION_FILES: dict[PromptKind, tuple[str, ...]] = {
    PromptKind.ANNOTATION: ("persona", "phenomena", "proof_types", "instructions"),
    PromptKind.FILTER: ("body",),
    PromptKind.QUERY: ("framing",),
}

_DEFAULT_ASSET_DESCRIPTION = (
    "an excerpt from Mancosu et al.'s survey article, 'Mathematical Explanation'"
)

_CONTEXT_INTRO = (
    "The remainder of the prompt is {description}. It provides further context "
    "on the target concept(s) of explanation. Don't discuss this article or the "
    "examples it contains in your analysis of the texts. "
    "BEGINNING OF CONTEXT EXCERPT:"
)


@dataclass(frozen=True)
class ContextAsset:
    """A user-supplied context document appended to the annotation prompt.

    The survey excerpt used for concept context is not shipped with the
    tool; supply your own file to ``from_file``, which reads it once.
    """

    text: str
    description: str = _DEFAULT_ASSET_DESCRIPTION

    @classmethod
    def from_file(cls, path: str | Path, description: str | None = None) -> "ContextAsset":
        return cls(text=read_text(path, PromptError), description=description or _DEFAULT_ASSET_DESCRIPTION)


@dataclass(frozen=True)
class PromptBundle:
    """A fully assembled prompt ready to send: its text, and the refs that name its payload."""

    kind: PromptKind
    text: str
    payload_refs: tuple[str, ...] = ()

    @property
    def estimated_tokens(self) -> int:
        return estimate_tokens(self.text)

    def with_payload_refs(self, refs: tuple[str, ...] | list[str]) -> "PromptBundle":
        return replace(self, payload_refs=tuple(refs))


def _join(*parts: str) -> str:
    """The non-empty parts in send order, separated by blank lines."""
    return "\n\n".join(part for part in parts if part)


def _read_section(kind: PromptKind, name: str, templates_dir: str | Path | None) -> str:
    root = resources.files("paperlens") / "templates" if templates_dir is None else Path(templates_dir)
    return read_text(root / kind.value / f"{name}.txt", PromptError).strip()


def load_sections(kind: PromptKind, templates_dir: str | Path | None = None) -> dict[str, str]:
    """Load a prompt kind's sections, from ``templates_dir`` or the packaged defaults."""
    return {name: _read_section(kind, name, templates_dir) for name in SECTION_FILES[kind]}


def build_annotation_prompt(
    asset: ContextAsset | None = None,
    templates_dir: str | Path | None = None,
) -> PromptBundle:
    """Assemble the annotation prompt, optionally with a context excerpt."""
    sections = load_sections(PromptKind.ANNOTATION, templates_dir)
    instructions = "\n\n".join(
        sections[name] for name in ("phenomena", "proof_types", "instructions")
    )
    context = ""
    if asset is not None and asset.text:
        context = _CONTEXT_INTRO.format(description=asset.description) + "\n\n" + asset.text
    return PromptBundle(PromptKind.ANNOTATION, _join(sections["persona"], instructions, context))


def build_filter_prompt(
    batch_output_text: str,
    templates_dir: str | Path | None = None,
) -> PromptBundle:
    """Assemble the strict quality-filter prompt around one batch output."""
    if not batch_output_text:
        raise PromptError("filter prompt needs non-empty batch output text")
    sections = load_sections(PromptKind.FILTER, templates_dir)
    return PromptBundle(PromptKind.FILTER, _join(sections["body"], batch_output_text))


def build_query_prompt(
    dataset_path: str | Path,
    question: str,
    templates_dir: str | Path | None = None,
) -> PromptBundle:
    """Assemble a follow-up query over a previously produced dataset.

    The dataset text itself is supplied as the payload at completion time;
    the bundle frames it as prior analysis output and appends the question.
    """
    if not question or not question.strip():
        raise PromptError("query question must be non-empty")
    sections = load_sections(PromptKind.QUERY, templates_dir)
    return PromptBundle(
        PromptKind.QUERY,
        sections["framing"] + "\n\n" + question.strip(),
        payload_refs=(Path(dataset_path).name,),
    )
