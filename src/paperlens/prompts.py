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


@dataclass(frozen=True)
class PromptBundle:
    """A fully assembled prompt ready to send: its text, and the refs that name its payload."""

    kind: PromptKind
    text: str
    payload_refs: tuple[str, ...] = ()

    @property
    def estimated_tokens(self) -> int:
        return estimate_tokens(self.text)

    def with_payload(self, *parts: str, refs: tuple[str, ...] = ()) -> "PromptBundle":
        """The request sending this prompt, then each non-empty part after one
        ``PAYLOAD_SEPARATOR``; ``refs`` name the parts. No other code joins a payload on."""
        return replace(self, text=_join(self.text, *parts), payload_refs=refs)


#: What separates a prompt and each part of its payload in a request.
PAYLOAD_SEPARATOR = "\n\n"


def _join(*parts: str) -> str:
    """The non-empty parts in send order, separated by blank lines."""
    return PAYLOAD_SEPARATOR.join(part for part in parts if part)


def _read_section(kind: PromptKind, name: str, templates_dir: str | Path | None) -> str:
    root = resources.files("paperlens") / "templates" if templates_dir is None else Path(templates_dir)
    return read_text(root / kind.value / f"{name}.txt", PromptError).strip()


def load_sections(kind: PromptKind, templates_dir: str | Path | None = None) -> dict[str, str]:
    """Load a prompt kind's sections, from ``templates_dir`` or the packaged defaults."""
    return {name: _read_section(kind, name, templates_dir) for name in SECTION_FILES[kind]}


def _assemble(kind: PromptKind, templates_dir: str | Path | None, *extra: str) -> PromptBundle:
    """The one rule every prompt is built by: its sections in ``SECTION_FILES`` order, then ``extra``."""
    return PromptBundle(kind, _join(*load_sections(kind, templates_dir).values(), *extra))


def build_annotation_prompt(excerpt: str = "", templates_dir: str | Path | None = None) -> PromptBundle:
    """Assemble the annotation prompt. A context excerpt that is not blank goes
    last, exactly as given, behind the ``context_intro`` section."""
    if not excerpt.strip():
        return _assemble(PromptKind.ANNOTATION, templates_dir)
    intro = _read_section(PromptKind.ANNOTATION, "context_intro", templates_dir)
    return _assemble(PromptKind.ANNOTATION, templates_dir, intro, excerpt)


def filter_template(templates_dir: str | Path | None = None) -> PromptBundle:
    """The strict quality-filter prompt without a batch output; ``with_payload`` adds one."""
    return _assemble(PromptKind.FILTER, templates_dir)


def build_filter_prompt(
    batch_output_text: str,
    templates_dir: str | Path | None = None,
) -> PromptBundle:
    """Assemble the strict quality-filter prompt around one batch output."""
    if not batch_output_text:
        raise PromptError("filter prompt needs non-empty batch output text")
    return filter_template(templates_dir).with_payload(batch_output_text)


def build_query_prompt(question: str, templates_dir: str | Path | None = None) -> PromptBundle:
    """Assemble a follow-up question behind the framing that presents a dataset
    as prior analysis output; ``run_query`` puts the dataset text behind it with ``with_payload``."""
    if not question or not question.strip():
        raise PromptError("query question must be non-empty")
    return _assemble(PromptKind.QUERY, templates_dir, question.strip())
