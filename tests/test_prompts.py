"""Prompt assembly tests: defaults, templates directories, context excerpts, golden files."""

from pathlib import Path

import pytest

from paperlens.prompts import (
    PromptBundle,
    PromptError,
    PromptKind,
    build_annotation_prompt,
    build_filter_prompt,
    build_query_prompt,
    load_sections,
)
from paperlens.provider import estimate_tokens

GOLDEN = Path(__file__).parent / "golden"


# --- annotation --------------------------------------------------------------


def test_default_contains_key_instruction_sentences():
    text = build_annotation_prompt().text
    assert "Do not hallucinate content, confuse sources or make up quotes." in text
    assert "Give the filename, title, author and page number" in text
    assert "You are a skilled and insightful research assistant" in text


def test_default_annotation_is_byte_stable():
    expected = (GOLDEN / "annotation_default.txt").read_text(encoding="utf-8")
    assert build_annotation_prompt().text == expected
    assert build_annotation_prompt().text == expected  # second assembly identical


def test_empty_asset_adds_nothing():
    with_empty = build_annotation_prompt("")
    without = build_annotation_prompt()
    assert "BEGINNING OF CONTEXT EXCERPT" not in with_empty.text
    assert with_empty.estimated_tokens == without.estimated_tokens
    assert with_empty.text == without.text


@pytest.mark.parametrize("excerpt", ["\n", " \t\n"])
def test_blank_excerpt_adds_nothing(excerpt):
    # A whitespace-only excerpt file (`echo > excerpt.txt`) added the intro with nothing after it.
    assert build_annotation_prompt(excerpt).text == build_annotation_prompt().text


def test_asset_appended_after_instructions():
    bundle = build_annotation_prompt("Historical overview of the target concept.")
    text = bundle.text
    assert text.startswith(build_annotation_prompt().text + "\n\nThe remainder of the prompt is an excerpt")
    assert text.endswith("BEGINNING OF CONTEXT EXCERPT:\n\nHistorical overview of the target concept.")
    assert bundle.estimated_tokens > build_annotation_prompt().estimated_tokens


def test_annotation_with_excerpt_is_byte_stable():
    excerpt = (GOLDEN / "context_excerpt.txt").read_text(encoding="utf-8")
    expected = (GOLDEN / "annotation_with_excerpt.txt").read_text(encoding="utf-8")
    assert build_annotation_prompt(excerpt).text == expected


ANNOTATION_SECTIONS = ("persona", "phenomena", "proof_types", "instructions")


def _annotation_templates(root, **texts):
    """An annotation templates directory holding ``texts``, else ``[name]``, for each section."""
    directory = root / "annotation"
    directory.mkdir()
    for name in ANNOTATION_SECTIONS:
        (directory / f"{name}.txt").write_text(texts.get(name, f"[{name}]"), encoding="utf-8")
    return root


def test_templates_dir_override(tmp_path):
    bundle = build_annotation_prompt(templates_dir=_annotation_templates(tmp_path))
    assert bundle.text == "[persona]\n\n[phenomena]\n\n[proof_types]\n\n[instructions]"


def test_templates_dir_context_intro_is_read_only_with_an_excerpt(tmp_path):
    templates = _annotation_templates(tmp_path)
    without = build_annotation_prompt(templates_dir=templates).text
    assert build_annotation_prompt(" \n", templates_dir=templates).text == without
    with pytest.raises(PromptError, match=r"cannot read .*context_intro\.txt"):
        build_annotation_prompt("An excerpt.", templates_dir=templates)
    (templates / "annotation" / "context_intro.txt").write_text("[intro]\n", encoding="utf-8")
    with_excerpt = build_annotation_prompt("An excerpt.\n", templates_dir=templates).text
    assert with_excerpt == without + "\n\n[intro]\n\nAn excerpt.\n"


@pytest.mark.parametrize("empty", ANNOTATION_SECTIONS)
def test_empty_section_is_left_out(tmp_path, empty):
    # An empty phenomena.txt left a doubled blank line in the prompt.
    bundle = build_annotation_prompt(templates_dir=_annotation_templates(tmp_path, **{empty: ""}))
    assert bundle.text == "\n\n".join(f"[{name}]" for name in ANNOTATION_SECTIONS if name != empty)


def test_templates_dir_missing_section(tmp_path):
    (tmp_path / "annotation").mkdir()
    with pytest.raises(PromptError, match=r"cannot read .*persona\.txt"):
        build_annotation_prompt(templates_dir=tmp_path)


# --- filter ------------------------------------------------------------------


def test_filter_contains_quota_and_calibration():
    bundle = build_filter_prompt("some batch text")
    text = bundle.text
    assert "You MUST exclude at least 50-60% of the original examples" in text
    assert "Be ruthless in your exclusions." in text
    assert "KEEP:" in text and "DISCARD:" in text
    assert 'new "batch_n_output.txt" file' in text


def test_filter_body_byte_stable():
    expected = (GOLDEN / "filter_body.txt").read_text(encoding="utf-8")
    assert load_sections(PromptKind.FILTER)["body"] == expected


def test_filter_payload_preserved_byte_for_byte():
    payload = "Exact é bytes\n\twith tabs and “quotes”"
    bundle = build_filter_prompt(payload)
    assert bundle.text == load_sections(PromptKind.FILTER)["body"] + "\n\n" + payload
    assert bundle.text.endswith(payload)


def test_filter_kind_and_empty_input():
    assert build_filter_prompt("x").kind is PromptKind.FILTER
    with pytest.raises(PromptError, match="non-empty"):
        build_filter_prompt("")


def test_estimated_tokens_monotone_in_payload():
    small = build_filter_prompt("x")
    large = build_filter_prompt("x" * 5000)
    assert large.estimated_tokens > small.estimated_tokens


# --- query -------------------------------------------------------------------


def test_query_framing_then_question():
    bundle = build_query_prompt("find tradeoff cases")
    framing = (GOLDEN / "query_framing.txt").read_text(encoding="utf-8")
    assert bundle.text == framing + "\n\nfind tradeoff cases"
    assert bundle.kind is PromptKind.QUERY


def test_query_empty_question_is_error():
    with pytest.raises(PromptError, match="non-empty"):
        build_query_prompt("   ")


def test_query_pure():
    assert build_query_prompt("same question") == build_query_prompt("same question")


# --- bundle invariants -------------------------------------------------------


def test_estimated_tokens_positive_when_text_present():
    for bundle in (
        build_annotation_prompt(),
        build_filter_prompt("payload"),
    ):
        assert bundle.estimated_tokens > 0


def test_estimated_tokens_of_a_bundle_built_directly_count_its_text():
    text = "You are a test assistant.\n\nWatch for the target concept."
    bundle = PromptBundle(kind=PromptKind.ANNOTATION, text=text)
    assert bundle.estimated_tokens == estimate_tokens(text) == 16
