"""Tag-to-area classification tests."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from paperlens.taxonomy import (
    DEFAULT_TABLE,
    MAIN_AREAS,
    SubjectArea,
    TaxonomyError,
    classify_tag,
    load_table,
)

# The full grouping: every tag in the embedded table, by area.
GROUPED_TAGS = {
    SubjectArea.GEOMETRY: ["math.AG", "math.DG", "math.MG", "math.SG"],
    SubjectArea.ALGEBRA: ["math.AC", "math.CT", "math.GR", "math.OA", "math.QA", "math.RA", "math.RT"],
    SubjectArea.ANALYSIS: ["math.AP", "math.CA", "math.CV", "math.DS", "math.FA", "math.NA"],
    SubjectArea.TOPOLOGY: ["math.AT", "math.GN", "math.GT"],
    SubjectArea.COMBINATORICS: ["math.CO"],
    SubjectArea.NUMBER_THEORY: ["math.NT"],
    SubjectArea.PROBABILITY_STATISTICS: ["math.PR", "math.ST"],
    SubjectArea.LOGIC_SET_THEORY: ["math.LO"],
}

TABLE_CASES = [(tag, area) for area, tags in GROUPED_TAGS.items() for tag in tags]


@pytest.mark.parametrize("tag,area", TABLE_CASES)
def test_grouped_tags_classify_exactly(tag, area):
    assert classify_tag(tag) is area


def test_table_is_complete():
    assert len(TABLE_CASES) == len(DEFAULT_TABLE) == 25


@pytest.mark.parametrize(
    "tag", ["math.GM", "math.HO", "math.IT", "math.KT", "math.OC", "math.SP", "math.MP", "cs.LG"]
)
def test_ungrouped_tags_fall_to_other(tag):
    assert classify_tag(tag) is SubjectArea.OTHER


def test_unknown_sentinel_is_other():
    assert classify_tag(None) is SubjectArea.OTHER
    assert classify_tag("") is SubjectArea.OTHER
    assert classify_tag("   ") is SubjectArea.OTHER


def test_cross_lists_are_other():
    assert classify_tag("math.AG math.CO") is SubjectArea.OTHER
    assert classify_tag("math.AG,math.CO") is SubjectArea.OTHER


def test_case_and_whitespace_insensitive():
    assert classify_tag(" MATH.ag ") is SubjectArea.GEOMETRY
    assert classify_tag("Math.Co") is SubjectArea.COMBINATORICS


@given(st.text(max_size=40))
def test_totality(tag):
    assert classify_tag(tag) in SubjectArea


def test_partition_preimages_disjoint():
    # Every table entry maps to exactly one area; construction rejects dupes,
    # and the main areas plus Other cover the enum.
    seen = {}
    for tag, area in DEFAULT_TABLE.items():
        assert tag not in seen
        seen[tag] = area
        assert area in MAIN_AREAS
    assert set(MAIN_AREAS) | {SubjectArea.OTHER} == set(SubjectArea)


def test_area_labels():
    assert SubjectArea.PROBABILITY_STATISTICS.label == "Probability and statistics"
    assert SubjectArea.LOGIC_SET_THEORY.label == "Logic and set theory"
    assert SubjectArea.NUMBER_THEORY.label == "Number theory"


def test_override_table(tmp_path):
    cfg = tmp_path / "areas.json"
    cfg.write_text(json.dumps({"geometry": ["phys.GE"], "other": ["misc.XX"]}))
    table = load_table(cfg)
    assert classify_tag("phys.GE", table) is SubjectArea.GEOMETRY
    assert classify_tag("misc.XX", table) is SubjectArea.OTHER
    assert classify_tag("math.AG", table) is SubjectArea.OTHER  # default table replaced


def test_override_rejects_unknown_area(tmp_path):
    cfg = tmp_path / "areas.json"
    cfg.write_text(json.dumps({"geometria": ["math.AG"]}))
    with pytest.raises(TaxonomyError, match="unknown area"):
        load_table(cfg)


@pytest.mark.parametrize("tags", ["math.AG", {"math.AG": 1}, ["math.AG", 5]])
def test_override_rejects_area_not_mapped_to_a_list_of_tags(tmp_path, tags):
    cfg = tmp_path / "areas.json"
    cfg.write_text(json.dumps({"geometry": tags}))
    with pytest.raises(TaxonomyError, match="must map to a list of tag strings"):
        load_table(cfg)


def test_override_rejects_duplicate_tag(tmp_path):
    cfg = tmp_path / "areas.json"
    cfg.write_text(json.dumps({"geometry": ["x.AA"], "algebra": ["x.AA"]}))
    with pytest.raises(TaxonomyError, match="more than one area"):
        load_table(cfg)
