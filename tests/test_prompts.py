"""Prompt assembly tests: defaults, templates directories, context assets, golden files."""

from pathlib import Path

import pytest

from paperlens.prompts import (
    ContextAsset,
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


def test_empty_asset_adds_nothing(tmp_path):
    asset_file = tmp_path / "excerpt.txt"
    asset_file.write_text("", encoding="utf-8")
    asset = ContextAsset.from_file(asset_file)
    with_empty = build_annotation_prompt(asset=asset)
    without = build_annotation_prompt()
    assert "BEGINNING OF CONTEXT EXCERPT" not in with_empty.text
    assert with_empty.estimated_tokens == without.estimated_tokens
    assert with_empty.text == without.text


def test_asset_appended_after_instructions(tmp_path):
    asset_file = tmp_path / "excerpt.txt"
    asset_file.write_text("Historical overview of the target concept.", encoding="utf-8")
    asset = ContextAsset.from_file(asset_file, description="a survey excerpt")
    bundle = build_annotation_prompt(asset=asset)
    text = bundle.text
    assert text.endswith("Historical overview of the target concept.")
    assert "The remainder of the prompt is a survey excerpt." in text
    assert bundle.estimated_tokens > build_annotation_prompt().estimated_tokens


def test_missing_asset_file_is_error(tmp_path):
    with pytest.raises(PromptError, match=r"cannot read .*nope\.txt"):
        ContextAsset.from_file(tmp_path / "nope.txt")


def test_templates_dir_override(tmp_path):
    for name in ("persona", "phenomena", "proof_types", "instructions"):
        d = tmp_path / "annotation"
        d.mkdir(exist_ok=True)
        (d / f"{name}.txt").write_text(f"[{name} replaced]", encoding="utf-8")
    bundle = build_annotation_prompt(templates_dir=tmp_path)
    assert bundle.text == (
        "[persona replaced]\n\n[phenomena replaced]\n\n[proof_types replaced]\n\n[instructions replaced]"
    )


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


def test_query_framing_then_question(tmp_path):
    ds = tmp_path / "data.records.jsonl"
    ds.write_text("{}", encoding="utf-8")
    bundle = build_query_prompt(ds, "find tradeoff cases")
    text = bundle.text
    framing = (GOLDEN / "query_framing.txt").read_text(encoding="utf-8")
    assert text.startswith(framing)
    assert text.endswith("find tradeoff cases")
    assert bundle.kind is PromptKind.QUERY
    assert bundle.payload_refs == ("data.records.jsonl",)


def test_query_empty_question_is_error(tmp_path):
    ds = tmp_path / "data.records.jsonl"
    ds.write_text("{}", encoding="utf-8")
    with pytest.raises(PromptError, match="non-empty"):
        build_query_prompt(ds, "   ")


def test_query_pure(tmp_path):
    ds = tmp_path / "data.records.jsonl"
    ds.write_text("{}", encoding="utf-8")
    a = build_query_prompt(ds, "same question")
    b = build_query_prompt(ds, "same question")
    assert a == b


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
