"""Parser, renderer, and persistence tests.

The WORKED_ITEMS fixtures re-type real model-output items (the exact label
shapes the annotation runs produce, including the Example/Finding synonym
variation) and anchor the parser against them.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_record, traced_peak
from paperlens.records import (
    DOC_HEADER,
    Dataset,
    DatasetError,
    ExampleRecord,
    export_document,
    load_dataset,
    parse_batch_output,
    render_record,
    save_dataset,
)
from paperlens.verify import VerificationResult

# --- worked model-output items ------------------------------------------------

VAN_DER_KALLEN_ITEM = """\
- **Title:** From Mennicke Symbols to Euler Class Groups
- **Example:** An analogy with topology is cited as providing an explanation for an algebraic structure.
- **Quote:** "Let us now take A to be the Banach algebra of continuous real valued functions on some finite d-dimensional CW complex X. Then one knows that for n >= 3 the orbit set Um_n(A)/E_n(A) is in bijective correspondence with the set [X, R^n - 0] of homotopy classes of maps from X to R^n - 0 = Um_n(R). This gives a topological explanation why for 2 <= d <= 2n-4 one has a group structure on Um_n(A)/E_n(A)" (p. 10).
- **Context:** Discussing orbit sets over Banach algebras A = C(X). The author explicitly labels the connection to homotopy theory as a "topological explanation" for the existence of a group structure.
"""

VERLINDE_ITEM = """\
- **Title:** Formulas of Verlinde Type for Non-Simply Connected Groups
- **Example:** Page 1 (Introduction): States the motivation is to apply the fixed point formula from the companion paper to understand Verlinde's formula for geometric quantization of moduli spaces, connecting index theory on loop group spaces to formulas arising in conformal field theory and algebraic geometry.
- **Quote:** "In this paper we give applications of the fixed point formula proved in the companion paper. Our original motivation was to understand a formula of E. Verlinde for the geometric quantization of the moduli space of flat connections on a Riemann surface. In particular A. Szenes suggested to us that the Verlinde formula should follow from an equivariant index theorem, much as the Weyl or Steinberg formulas can be interpreted as fixed point formulas for flag varieties" (p. 1).
- **Context:** This explicitly frames the work as seeking an explanation ("understand a formula of E. Verlinde") by deriving it from a more general principle (equivariant index theorem / fixed point formula), thus providing deeper insight into the Verlinde formula's origins and connections, explaining why it holds.
"""

MODULAR_DATA_ITEM = """\
- **Title:** Modular Data: The Algebraic Combinatorics of Conformal Field Theory
- **Finding:** Discussion of seeking underlying reasons for observed patterns.
- **Quote:** "Patterns such as A-D-E are usually explained by identifying an underlying combinatorial fact which is responsible for its various incarnations. The A-D-E combinatorial fact is probably the classification of symmetric matrices over Z_>= ... Perhaps the only A-D-E classification which still resists this 'explanation' is that of A_1^(1) modular invariants" (p. 29).
- **Context:** The author discusses the recurrence of A-D-E classification schemes in various mathematical contexts and notes that these patterns are typically *explained* by finding a common underlying combinatorial structure. The quote highlights the search for such an explanation for the A_1^(1) modular invariants, noting it as a current explanatory gap.
"""

COMPOSITION_SUM_ITEM = """\
- **Title:** Composition Sum Identities Related to the Distribution of Coordinate Values in a Discrete Simplex
- **Finding:** Explaining the reason behind a mathematical property (exact solvability) by relating it to a known structure or equivalence.
- **Quote:** "Interesting composition sum identities will appear in the present context when we consider exactly-solvable differential equations. We present three such examples below, and discuss the enumerative interpretations in the next section. In each case the exact solvability comes about because the equation is gauge-equivalent to either the hypergeometric, or the confluent hypergeometric equation" (p. 8).
- **Context:** Introducing three examples of second-order differential equations whose series solutions lead to composition sum identities (Propositions 4.2, 4.3, 4.4). The author explains *why* these specific equations are exactly solvable, attributing it to their gauge-equivalence to standard, well-understood hypergeometric equations.
"""

THOM_CLASSES_ITEM = """\
- **Title:** Combinatorial Formulas for Products of Thom Classes
- **Finding:** The authors are discussing the organization of the paper and highlighting a particularly interesting aspect of their formula (1.11) for Thom classes in equivariant cohomology.
- **Quote:** "In Section 5 we will attempt to demystify what is perhaps the most puzzling feature of the formula (1.11), the fact that all the summands are rational functions (elements of the quotient field, Q(g*)), whereas the sum itself is a polynomial. This indicates that a lot of mysterious cancellations are occurring in this summation; and we will show how these cancellations occur in a few simple but enlightening examples" (p. 6).
- **Context:** The terms "demystify", "puzzling feature", "mysterious cancellations", and "enlightening examples" strongly indicate a concern for explanation. The authors acknowledge that the formula, while correct, has a feature that lacks immediate understanding (why rational functions sum to a polynomial). They explicitly aim to provide insight into the *reason why* this happens by analyzing the cancellation mechanism in simple cases, moving beyond just knowing *that* the formula yields a polynomial to understanding *how/why* it does.
"""

WORKED_ITEMS = [
    (VAN_DER_KALLEN_ITEM, "From Mennicke Symbols to Euler Class Groups", 10),
    (VERLINDE_ITEM, "Formulas of Verlinde Type for Non-Simply Connected Groups", 1),
    (MODULAR_DATA_ITEM, "Modular Data: The Algebraic Combinatorics of Conformal Field Theory", 29),
    (COMPOSITION_SUM_ITEM,
     "Composition Sum Identities Related to the Distribution of Coordinate Values in a Discrete Simplex", 8),
    (THOM_CLASSES_ITEM, "Combinatorial Formulas for Products of Thom Classes", 6),
]


@pytest.mark.parametrize("text,title,page", WORKED_ITEMS)
def test_worked_items_parse(text, title, page):
    records, warnings = parse_batch_output(text, batch_index=3)
    assert len(records) == 1
    record = records[0]
    assert record.title == title
    assert record.page == page
    assert record.quote and len(record.quote) > 50
    assert record.finding
    assert record.commentary
    assert record.batch_index == 3
    assert warnings == []


def test_worked_item_quote_extraction():
    records, _ = parse_batch_output(VAN_DER_KALLEN_ITEM)
    quote = records[0].quote
    assert quote.startswith("Let us now take A")
    assert quote.endswith("group structure on Um_n(A)/E_n(A)")
    assert "(p. 10)" not in quote


def test_all_worked_items_in_one_batch():
    text = "\n".join(item for item, _, _ in WORKED_ITEMS)
    records, warnings = parse_batch_output(text, 0)
    assert [r.title for r in records] == [title for _, title, _ in WORKED_ITEMS]
    assert warnings == []


# --- parser tolerance ---------------------------------------------------------


def test_empty_input():
    assert parse_batch_output("", 0) == ([], [])


def test_no_relevant_examples_statement():
    records, warnings = parse_batch_output(
        "After reviewing all 25 papers in this batch, I found no relevant examples "
        "of the target concept.\n",
        4,
    )
    assert records == []
    assert warnings == []


def test_missing_quote_warns_with_ordinal():
    text = (
        "- **Title:** First item\n"
        '- **Quote:** "something quoted"\n'
        "- **Context:** fine\n"
        "\n"
        "- **Title:** Second item\n"
        "- **Finding:** no quote here\n"
        "- **Context:** still fine\n"
    )
    records, warnings = parse_batch_output(text, batch_index=7)
    assert len(records) == 2
    assert records[1].quote is None
    assert len(warnings) == 1
    assert "batch 7" in warnings[0] and "item 2" in warnings[0]


def test_label_synonyms_and_reordering():
    text = (
        "* Context: commentary first\n"
        "* Example: the finding text\n"
        "* Title: Out of Order\n"
        '* Quote: "q text"\n'
    )
    records, _ = parse_batch_output(text, 0)
    assert len(records) == 1
    assert records[0].commentary == "commentary first"
    assert records[0].finding == "the finding text"
    assert records[0].title == "Out of Order"


def test_filename_extraction_from_file_label():
    text = (
        "**File: math0003117-math.CO.pdf**\n"
        "- **Title:** Some Paper\n"
        '- **Quote:** "q"\n'
    )
    records, _ = parse_batch_output(text, 0)
    assert records[0].source_doc_id == "math0003117-math.CO"


def test_file_header_scopes_following_items():
    text = (
        "paper-a.pdf\n"
        "- Title: One\n"
        '- Quote: "qa"\n'
        "\n"
        "- Title: Two\n"
        '- Quote: "qb"\n'
        "\n"
        "paper-b.pdf\n"
        "- Title: Three\n"
        '- Quote: "qc"\n'
    )
    records, _ = parse_batch_output(text, 0)
    assert [r.source_doc_id for r in records] == ["paper-a", "paper-a", "paper-b"]


def test_payload_document_headers_give_the_doc_id():
    headers = [
        DOC_HEADER.format(doc_id="2001.00001", title="Why d squared vanishes"),
        DOC_HEADER.format(doc_id="math0003117-math.CO", title=""),
        DOC_HEADER.format(doc_id="2001.00002", title="A (co)homology theory (revised) ==="),
        DOC_HEADER.format(doc_id="2001.00003", title="On batch 2 output.txt"),
    ]
    text = "\n\n".join(f'{header}\n- Title: T{i}\n- Quote: "q{i}"' for i, header in enumerate(headers))
    records, warnings = parse_batch_output(text, 0)
    assert [r.source_doc_id for r in records] == ["2001.00001", "math0003117-math.CO", "2001.00002", "2001.00003"]
    assert warnings == []


@pytest.mark.parametrize("lines, doc_id, quote, warnings", [
    (["- Quote: we can now see why (p. 4)"], "", "we can now see why", []),
    (['- Quote: ""'], "", None, ["batch 0 item 1: no quote line"]),
    (["- Title: Why it holds (see 2001.00001v2.pdf)", '- Quote: "q"'], "2001.00001v2", "q", []),
], ids=["unquoted quote", "empty quote", "doc id from a title"])
def test_item_fields_parse(lines, doc_id, quote, warnings):
    text = "- Finding: f\n" + "\n".join(lines) + "\n"
    records, got = parse_batch_output(text, 0)
    assert [(r.source_doc_id, r.quote) for r in records] == [(doc_id, quote)]
    assert got == warnings


def test_batch_file_headers_are_boundaries():
    text = (
        "Here are the selected examples.\n"
        "\n"
        "batch_3_output.txt:\n"
        "- Title: Kept\n"
        '- Quote: "kept quote"\n'
    )
    records, warnings = parse_batch_output(text, 3)
    assert len(records) == 1
    assert records[0].title == "Kept"


def test_field_line_naming_a_batch_file_stays_a_field():
    text = (
        "- **Title:** Logs\n"
        "- **Finding:** The logs give the reason.\n"
        '- **Quote:** "the logs in batch 2 output.txt show it" (p. 3)\n'
        "- **Context:** c\n"
    )
    records, warnings = parse_batch_output(text, 2)
    assert warnings == []
    assert [(r.title, r.quote, r.page, r.commentary) for r in records] == [
        ("Logs", "the logs in batch 2 output.txt show it", 3, "c"),
    ]


def test_batch_file_line_ends_the_item_before_it():
    for boundary in ("From batch_3_output.txt:", "batch_3_output.txt:"):
        text = (
            "- Title: First\n"
            '- Quote: "first quote"\n'
            "- Context: first commentary\n"
            f"{boundary}\n"
            "- Title: Second\n"
            '- Quote: "second quote"\n'
        )
        records, warnings = parse_batch_output(text, 3)
        assert warnings == []
        assert [(r.title, r.commentary) for r in records] == [("First", "first commentary"), ("Second", "")]


def test_continuation_line_naming_a_batch_file_stays_in_its_field():
    text = (
        "- Title: Logs\n"
        "- Context: the reason is in the logs kept\n"
        "  with batch_2_output.txt for this paper\n"
        "- Finding: f\n"
        '- Quote: "q q q q"\n'
    )
    records, warnings = parse_batch_output(text, 2)
    assert warnings == []
    assert [(r.title, r.commentary, r.finding, r.quote) for r in records] == [
        ("Logs", "the reason is in the logs kept\nwith batch_2_output.txt for this paper", "f", "q q q q"),
    ]


def test_multiline_field_continuation():
    text = (
        "- Title: Wrapped\n"
        '- Quote: "first line of the quote\n'
        'second line of the quote" (p. 2).\n'
        "- Context: c\n"
    )
    records, _ = parse_batch_output(text, 0)
    assert records[0].page == 2
    assert "first line of the quote\nsecond line of the quote" == records[0].quote


def test_unrecognizable_stretch_warns():
    text = "Completely freeform rambling with no labels whatsoever.\nMore of it.\n"
    records, warnings = parse_batch_output(text, 5)
    assert records == []
    assert len(warnings) == 1
    assert "batch 5" in warnings[0]


def test_warning_count_matches_unparseable_stretch_count():
    text = (
        "stray preamble line one\n"
        "\n"
        "- Title: Good item\n"
        '- Quote: "fine"\n'
        "\n"
        "another stray stretch\nwith two lines\n"
    )
    records, warnings = parse_batch_output(text, 0)
    assert len(records) == 1
    assert len(warnings) == 2  # one per unparseable stretch


def test_parser_never_assigns_quality_labels():
    for item, _, _ in WORKED_ITEMS:
        for record in parse_batch_output(item, 0)[0]:
            assert record.quality_label is None


def test_title_only_item_dropped_with_warning():
    records, warnings = parse_batch_output("- Title: Only a title\n", 0)
    assert records == []
    assert len(warnings) == 1


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=400))
def test_parser_total(text):
    records, warnings = parse_batch_output(text, 0)
    for record in records:
        assert record.finding or record.quote or record.commentary


def test_parser_never_invents_content():
    text = "\n".join(item for item, _, _ in WORKED_ITEMS)
    cleaned = text.replace("**", "")
    records, _ = parse_batch_output(text, 0)
    for record in records:
        for value in (record.title, record.finding, record.commentary, record.quote or ""):
            for line in value.splitlines():
                assert line.strip() in cleaned


# --- render round-trip ---------------------------------------------------------


def canonical_fixtures() -> list[ExampleRecord]:
    # The five worked items as records, plus synthetic shapes covering the
    # optional-field lattice: 20 fixtures total.
    worked = []
    for i, (item, _, _) in enumerate(WORKED_ITEMS):
        record = parse_batch_output(item, 0)[0][0]
        record.source_doc_id = f"arxiv{i:04d}"
        worked.append(record)
    synth = [
        ExampleRecord(source_doc_id="d1", title="T", finding="F", quote="Q", commentary="C", page=3),
        ExampleRecord(source_doc_id="d2", title="T2", finding="F2", quote="Q2", commentary="C2"),
        ExampleRecord(source_doc_id="d3", title="T3", finding="F3", commentary="C3"),  # no quote
        ExampleRecord(source_doc_id="d4", finding="bare finding"),
        ExampleRecord(source_doc_id="d5", title="T5", quote="only a quote"),
        ExampleRecord(source_doc_id="d6", commentary="only commentary"),
        ExampleRecord(title="No file", finding="finding without a doc id"),
        ExampleRecord(source_doc_id="d8", title="T8", authors="A. Author and B. Other",
                      finding="F8", quote="Q8", commentary="C8", page=12),
        ExampleRecord(source_doc_id="d9", finding="F9", page=7),  # page without quote
        ExampleRecord(source_doc_id="d10", title="Unicode — title",
                      finding="séance of structure", quote="café proof", commentary="über"),
        ExampleRecord(source_doc_id="d11", title="Quote with internal \"marks\"",
                      quote='he said "why" twice'),
        ExampleRecord(source_doc_id="d12", finding="F12",
                      quote="ends with punctuation!", page=99),
        ExampleRecord(source_doc_id="d13", finding="math $x^2$ inline", quote="$a+b$ = c"),
        ExampleRecord(source_doc_id="d14", title="Colon: in title", finding="F: with colon",
                      quote="Q with (p. 5) inside"),
        ExampleRecord(source_doc_id="d15", title="T15", finding="F15", quote="Q15",
                      commentary="C15 *emphasis* kept", page=1),
    ]
    return worked + synth


def _parsed_fields(record: ExampleRecord) -> tuple:
    return (
        record.source_doc_id,
        record.title,
        record.authors,
        record.finding,
        record.quote,
        record.commentary,
        record.page,
    )


def test_twenty_canonical_fixtures_round_trip():
    fixtures = canonical_fixtures()
    assert len(fixtures) == 20
    for record in fixtures:
        rendered = render_record(record)
        parsed, _ = parse_batch_output(rendered, record.batch_index)
        assert len(parsed) == 1, f"fixture did not parse as one record:\n{rendered}"
        assert _parsed_fields(parsed[0]) == _parsed_fields(record)


def test_render_byte_stable():
    for record in canonical_fixtures():
        assert render_record(record) == render_record(record)


def test_render_omits_absent_quote():
    record = ExampleRecord(source_doc_id="d", finding="f", quote=None)
    assert "Quote" not in render_record(record)


# --- persistence ---------------------------------------------------------------


def test_empty_dataset_round_trips(tmp_path):
    ds = Dataset(records=[], source_manifest_hash="abc", filter_pass_count=1)
    path = tmp_path / "empty.records.jsonl"
    save_dataset(ds, path)
    assert load_dataset(path) == ds


def random_dataset(n: int, seed: int = 0) -> Dataset:
    rng = random.Random(seed)
    recs = []
    for i in range(n):
        record = make_record(i, batch_index=rng.randrange(200))
        if rng.random() < 0.3:
            record.quote = None
        if rng.random() < 0.2:
            record.authors = None
        if rng.random() < 0.1:
            record.page = None
        if rng.random() < 0.15:
            record.verification = VerificationResult(
                matched=True, similarity=0.97, threshold_used=0.85, span_start=5, span_end=40
            )
        if rng.random() < 0.1:
            record.quality_label = rng.choice(["high", "borderline", "low"])
        recs.append(record)
    return Dataset(records=recs, source_manifest_hash="deadbeef", filter_pass_count=1)


def test_large_dataset_round_trips(tmp_path):
    ds = random_dataset(1250, seed=42)
    path = tmp_path / "big.records.jsonl"
    save_dataset(ds, path)
    assert load_dataset(path) == ds


def test_save_dataset_holds_one_line_at_a_time(tmp_path):
    ds = random_dataset(20_000, seed=7)
    path = tmp_path / "big.records.jsonl"
    save_dataset(random_dataset(2), path)  # one-time allocations land here
    _, peak = traced_peak(lambda: save_dataset(ds, path))
    assert path.stat().st_size > 5_000_000  # once held as text, lines and bytes
    assert peak < 256 * 1024
    assert load_dataset(path) == ds


def test_truncated_file_reports(tmp_path):
    ds = random_dataset(10, seed=1)
    path = tmp_path / "t.records.jsonl"
    save_dataset(ds, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="truncated"):
        load_dataset(path)


def test_malformed_line_reports_line_number(tmp_path):
    ds = random_dataset(3, seed=2)
    path = tmp_path / "m.records.jsonl"
    save_dataset(ds, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = '{"broken": '
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match=r"\.records\.jsonl:3"):
        load_dataset(path)


@pytest.mark.parametrize("line", [0, 2])
def test_line_not_an_object_reports_line_number(tmp_path, line):
    path = tmp_path / "n.records.jsonl"
    save_dataset(random_dataset(3, seed=2), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[line] = "[]"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match=rf"n\.records\.jsonl:{line + 1}"):
        load_dataset(path)


def test_wrong_format_is_rejected(tmp_path):
    path = tmp_path / "f.records.jsonl"
    path.write_text('{"format": "paperlens-manifest/1"}\n', encoding="utf-8")
    with pytest.raises(DatasetError, match=r"f\.records\.jsonl:1: .*paperlens-manifest/1"):
        load_dataset(path)


def test_manifest_digest_mismatch_warns(tmp_path, caplog):
    ds = random_dataset(2, seed=3)
    path = tmp_path / "h.records.jsonl"
    save_dataset(ds, path)
    with caplog.at_level("WARNING"):
        load_dataset(path, expect_manifest_hash="different")
    assert any("different manifest" in m for m in caplog.messages)


# --- export --------------------------------------------------------------------


def test_export_groups_by_batch():
    ds = Dataset(records=[make_record(1, batch_index=0), make_record(2, batch_index=1)])
    doc = export_document(ds)
    assert "## batch_0_output.txt" in doc
    assert "## batch_1_output.txt" in doc
    assert doc.index("batch_0") < doc.index("batch_1")


def test_export_empty():
    assert export_document(Dataset()) == ""
