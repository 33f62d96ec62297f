"""Mapping from arXiv subcategory tags to top-level subject areas.

The default table groups the mathematics subcategories into eight named
areas; every tag outside the table (including cross-list strings and the
unknown sentinel) falls into ``Other`` so that distribution denominators
stay honest. The table can be replaced wholesale from a config file for
corpora outside mathematics.
"""

from __future__ import annotations

import enum
from pathlib import Path

from .atomic import read_json


class TaxonomyError(Exception):
    """Raised for unreadable or malformed taxonomy override files."""


class SubjectArea(enum.Enum):
    """Closed set of subject areas used by distribution and richness tables."""

    GEOMETRY = "geometry"
    ALGEBRA = "algebra"
    ANALYSIS = "analysis"
    TOPOLOGY = "topology"
    COMBINATORICS = "combinatorics"
    NUMBER_THEORY = "number theory"
    PROBABILITY_STATISTICS = "probability and statistics"
    LOGIC_SET_THEORY = "logic and set theory"
    OTHER = "other"

    @property
    def label(self) -> str:
        """Display form, e.g. ``Probability and statistics``."""
        return self.value[0].upper() + self.value[1:]


#: The eight named areas, in report order. ``Other`` is displayed separately.
MAIN_AREAS: tuple[SubjectArea, ...] = (
    SubjectArea.GEOMETRY,
    SubjectArea.ALGEBRA,
    SubjectArea.ANALYSIS,
    SubjectArea.TOPOLOGY,
    SubjectArea.COMBINATORICS,
    SubjectArea.NUMBER_THEORY,
    SubjectArea.PROBABILITY_STATISTICS,
    SubjectArea.LOGIC_SET_THEORY,
)

_DEFAULT_GROUPS: dict[SubjectArea, tuple[str, ...]] = {
    SubjectArea.GEOMETRY: ("math.AG", "math.DG", "math.MG", "math.SG"),
    SubjectArea.ALGEBRA: (
        "math.AC",
        "math.CT",
        "math.GR",
        "math.OA",
        "math.QA",
        "math.RA",
        "math.RT",
    ),
    SubjectArea.ANALYSIS: (
        "math.AP",
        "math.CA",
        "math.CV",
        "math.DS",
        "math.FA",
        "math.NA",
    ),
    SubjectArea.TOPOLOGY: ("math.AT", "math.GN", "math.GT"),
    SubjectArea.COMBINATORICS: ("math.CO",),
    SubjectArea.NUMBER_THEORY: ("math.NT",),
    SubjectArea.PROBABILITY_STATISTICS: ("math.PR", "math.ST"),
    SubjectArea.LOGIC_SET_THEORY: ("math.LO",),
}


def _build_table(groups: dict[SubjectArea, tuple[str, ...]]) -> dict[str, SubjectArea]:
    table: dict[str, SubjectArea] = {}
    for area, tags in groups.items():
        for tag in tags:
            key = tag.strip().lower()
            if key in table:
                raise TaxonomyError(f"tag {tag!r} assigned to more than one area")
            table[key] = area
    return table


#: Lowercased tag -> area lookup built from the default grouping.
DEFAULT_TABLE: dict[str, SubjectArea] = _build_table(_DEFAULT_GROUPS)


def classify_tag(tag: str | None, table: dict[str, SubjectArea] | None = None) -> SubjectArea:
    """Classify a category tag into a subject area.

    Total over all inputs: the unknown sentinel (``None``), empty strings,
    cross-list strings and any tag missing from the table classify as
    ``Other``. Matching is case-insensitive after trimming whitespace.
    """
    if tag is None:
        return SubjectArea.OTHER
    key = tag.strip().lower()
    if not key:
        return SubjectArea.OTHER
    lookup = DEFAULT_TABLE if table is None else table
    return lookup.get(key, SubjectArea.OTHER)


def load_table(path: str | Path) -> dict[str, SubjectArea]:
    """Load a replacement tag table from a JSON config file.

    The file maps area names (the nine ``SubjectArea`` values) to lists of
    tags, e.g. ``{"geometry": ["math.AG", ...], ...}``. Unknown area names
    and tags assigned to more than one area are rejected.
    """
    raw = read_json(path, TaxonomyError)
    by_value = {area.value: area for area in SubjectArea}
    groups: dict[SubjectArea, tuple[str, ...]] = {}
    for name, tags in raw.items():
        area = by_value.get(str(name).strip().lower())
        if area is None:
            known = ", ".join(sorted(by_value))
            raise TaxonomyError(f"{path}: unknown area {name!r} (known areas: {known})")
        if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
            raise TaxonomyError(f"{path}: area {name!r} must map to a list of tag strings")
        groups[area] = tuple(tags)
    return _build_table(groups)
