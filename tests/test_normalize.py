import numpy as np
import pytest

import oracle
from citeconc import studies
from citeconc.normalize import field_mean_reference_table, ics_array, nics_array, year_weights
from citeconc.windows import WindowSpec, in_window_edge_mask
from conftest import id_index, make_corpus

FWD2 = WindowSpec("forward", 2)
BWD2 = WindowSpec("backward", 2)


def nics(cohort, w, corpus, exclude_self=False, mics_per_year=False, rho_scope="study"):
    """The library's normalized score per article id of a cohort."""
    row = id_index(corpus)
    idx = np.asarray([row[a] for a in cohort], dtype=np.int64)
    mask = in_window_edge_mask(corpus, w.length, exclude_self)
    scores = nics_array(corpus, idx, mask, exclude_self=exclude_self, mics_per_year=mics_per_year, rho_scope=rho_scope)
    return dict(zip(cohort, scores.tolist()))


def field_mean_references(corpus, field, ref_year, w, exclude_self=False):
    """One cell of the library's field mean reference table."""
    table = field_mean_reference_table(corpus, in_window_edge_mask(corpus, w.length, exclude_self))
    return float(table[corpus.fields.index(field), ref_year - corpus.span[0]])


def backward_scores(corpus, ref_year, w, exclude_self=False):
    """The library's normalized reference counts of ref_year's cited population, by id."""
    cfg = studies.StudyConfig(window=w, approach="reference_based", exclude_self_citations=exclude_self)
    prep, mask = studies._prepare(corpus, None, None), in_window_edge_mask(corpus, w.length, exclude_self)
    for year, pop, _, scores in studies._rows(corpus, prep, mask, cfg):
        if year == ref_year:
            return {corpus.ids[i]: s for i, s in zip(pop.tolist(), scores.tolist())}
    raise KeyError(ref_year)


def test_year_weights_fixture(fixture_corpus):
    # citing years: 2001 x1, 2002 x2, 2003 x2
    assert fixture_corpus.span == (2000, 2004)
    assert year_weights(fixture_corpus).tolist() == [0.0, 1.0, 0.5, 0.5, 0.0]


def test_year_weights_excluding_self(fixture_corpus):
    # C->A (2001) is the only self-citation
    w = year_weights(fixture_corpus, exclude_self=True)
    assert w[2001 - 2000] == 0.0
    assert w.tolist() == [0.0, 0.0, 0.5, 0.5, 0.0]


def test_year_weights_empty():
    arts = "id\tpub_year\tfield\tregion\tjournal_id\tauthor_ids\nA\t2000\tF\tR\tJ\t\n"
    c = make_corpus(arts, "citing_id\tcited_id\n", span=(2000, 2001))
    assert year_weights(c).tolist() == [0.0, 0.0]


def test_ics_fixture(fixture_corpus):
    c = fixture_corpus
    scores = ics_array(c, in_window_edge_mask(c, 2), exclude_self=False, rho_scope="study")
    row = id_index(c)
    # A: 1 cite in 2001 (rho 1.0) + 1 in 2002 (rho 0.5)
    assert scores[row["A"]] == pytest.approx(1.5)
    assert scores[row["B"]] == pytest.approx(0.5)
    assert scores[row["C"]] == pytest.approx(0.5)
    assert scores[row["D"]] == 0.0
    # Self-citations left out of the mask and of the year weights: C->A (2001) goes.
    masked = ics_array(c, in_window_edge_mask(c, 2, exclude_self=True), exclude_self=True, rho_scope="study")
    assert masked.tolist() == [0.5 if i in (row["A"], row["B"], row["C"]) else 0.0 for i in range(c.n_articles)]


def test_nics_fixture_manual(fixture_corpus):
    # cohort = eligible pub years for W=2 in span 2000-2004 -> 2000..2002
    scores = nics(["A", "B", "C", "D"], FWD2, fixture_corpus)
    # Phys mean ics = (1.5+0.5)/2 = 1.0; Bio mean = (0.5+0)/2 = 0.25
    assert scores == pytest.approx({"A": 1.5, "B": 2.0, "C": 0.5, "D": 0.0})


def test_nics_identical_scores_give_one():
    arts = "id\tpub_year\tfield\tregion\tjournal_id\tauthor_ids\n" + "".join(
        f"P{i}\t2000\tF\tR\tJ\t\n" for i in range(3)
    ) + "Q\t2001\tF\tR\tJ\t\n" + "R\t2001\tF\tR\tJ\t\n" + "S\t2001\tF\tR\tJ\t\n"
    edges = "citing_id\tcited_id\n" + "Q\tP0\nR\tP1\nS\tP2\n"
    c = make_corpus(arts, edges, span=(2000, 2003))
    scores = nics(["P0", "P1", "P2"], FWD2, c)
    assert scores == pytest.approx({"P0": 1.0, "P1": 1.0, "P2": 1.0})


def test_nics_all_uncited_field_guard(fixture_corpus):
    scores = nics(["E"], FWD2, fixture_corpus)  # E uncited, sole Phys member
    assert scores == {"E": 0.0}


def test_nics_empty_cohort_errors(fixture_corpus):
    with pytest.raises(ValueError, match="empty cohort"):
        nics([], FWD2, fixture_corpus)


def test_field_mean_nics_is_one(fixture_corpus):
    scores = nics(["A", "B", "C", "D"], FWD2, fixture_corpus)
    phys = [scores["A"], scores["C"]]
    bio = [scores["B"], scores["D"]]
    assert np.mean(phys) == pytest.approx(1.0, rel=1e-9)
    assert np.mean(bio) == pytest.approx(1.0, rel=1e-9)


def test_nics_invariant_under_uniform_rho_scaling(fixture_corpus):
    c = fixture_corpus
    t = oracle.read(c)
    w = oracle.year_weights(t)
    cohort = ["A", "B", "C", "D"]
    base = {a: oracle.ics(t, a, 2, w) for a in cohort}
    scaled = {a: oracle.ics(t, a, 2, {y: 3.7 * v for y, v in w.items()}) for a in cohort}
    library = ics_array(c, in_window_edge_mask(c, FWD2.length), exclude_self=False, rho_scope="study")
    row = id_index(c)
    assert base == pytest.approx({a: library[row[a]] for a in cohort}, rel=1e-12)

    def norm(sc):
        by_field = {}
        for a, v in sc.items():
            by_field.setdefault(t.articles[a].field, []).append(v)
        means = {f: np.mean(v) for f, v in by_field.items()}
        return {a: v / means[t.articles[a].field] for a, v in sc.items()}

    for a in cohort:
        assert norm(base)[a] == pytest.approx(norm(scaled)[a], rel=1e-12)


def test_rank_preservation_within_field_year_cell():
    # With one counted year every citation carries the same weight, so the
    # weighted ordering must match the raw ordering exactly. (With multiple
    # counted years the weights differ per year and ranks can legitimately
    # swap, so that case is not asserted.)
    rng = np.random.default_rng(5)
    arts = ["id\tpub_year\tfield\tregion\tjournal_id\tauthor_ids"]
    edges = ["citing_id\tcited_id"]
    for i in range(20):
        arts.append(f"P{i}\t2000\tF\tR\tJ\t")
    for j in range(40):
        arts.append(f"C{j}\t2001\tF\tR\tJ\t")
        edges.append(f"C{j}\tP{int(rng.integers(0, 20))}")
    c = make_corpus("\n".join(arts) + "\n", "\n".join(edges) + "\n", span=(2000, 2003))
    cohort = [f"P{i}" for i in range(20)]
    w1 = WindowSpec("forward", 1)
    scores = nics(cohort, w1, c)
    raw = {a: sum(1 for j in range(c.n_edges)
                  if c.ids[c.cited[j]] == a and int(c.citing_year[j]) == 2001)
           for a in cohort}
    by_nics = sorted(cohort, key=lambda a: (scores[a], a))
    by_raw = sorted(cohort, key=lambda a: (raw[a], a))
    assert by_nics == by_raw


def test_field_mean_references_fixture(fixture_corpus):
    c = fixture_corpus
    t = oracle.read(c)
    # D (Bio, 2002) has 2 in-window refs (A and B, both 2000, W=2)
    assert field_mean_references(c, "Bio", 2002, BWD2) == pytest.approx(2.0)
    assert oracle.field_mean_references(t, "Bio", 2002, 2) == pytest.approx(2.0)
    # E (Phys, 2003): only E->C (2001) is in window; E->B (2000) falls outside
    assert field_mean_references(c, "Phys", 2003, BWD2) == pytest.approx(1.0)
    assert oracle.field_mean_references(t, "Phys", 2003, 2) == pytest.approx(1.0)
    # no Bio article is published in 2003: the table reads 0, the oracle refuses the cell
    assert field_mean_references(c, "Bio", 2003, BWD2) == 0.0
    with pytest.raises(ValueError, match="empty field-year cell"):
        oracle.field_mean_references(t, "Bio", 2003, 2)


def test_field_mean_references_two_articles():
    arts = "id\tpub_year\tfield\tregion\tjournal_id\tauthor_ids\n" + (
        "A\t2000\tF\tR\tJ\t\nB\t2000\tF\tR\tJ\t\nC\t2000\tF\tR\tJ\t\nD\t2000\tF\tR\tJ\t\n"
        "X\t2001\tF\tR\tJ\t\nY\t2001\tF\tR\tJ\t\n"
    )
    edges = "citing_id\tcited_id\n" + "X\tA\nX\tB\nY\tA\nY\tB\nY\tC\nY\tD\n"
    c = make_corpus(arts, edges, span=(2000, 2002))
    assert field_mean_references(c, "F", 2001, BWD2) == pytest.approx(3.0)


def test_normalized_reference_count_fixture(fixture_corpus):
    c = fixture_corpus
    t = oracle.read(c)
    in_2002, in_2003 = backward_scores(c, 2002, BWD2), backward_scores(c, 2003, BWD2)
    # A gets one 2002 citation from Bio (mref 2.0) -> 0.5
    assert in_2002["A"] == pytest.approx(0.5)
    assert in_2002["B"] == pytest.approx(0.5)
    # C gets one 2003 citation from Phys (mref 1.0) -> 1.0
    assert in_2003["C"] == pytest.approx(1.0)
    # in population but unreferenced that year
    assert in_2002["C"] == 0.0
    for ref_year, scores in ((2002, in_2002), (2003, in_2003)):
        assert scores == pytest.approx({a: oracle.normalized_reference_count(t, a, ref_year, 2) for a in scores},
                                       rel=1e-12)


def test_normalized_reference_count_two_fields():
    arts = "id\tpub_year\tfield\tregion\tjournal_id\tauthor_ids\n" + (
        "T\t2000\tF\tR\tJ\t\n"
        "U\t2000\tF\tR\tJ\t\n"
        # citing year 2001: X in field G1 cites T only (mref 1);
        # Y in G2 cites T and U (mref 2)
        "X\t2001\tG1\tR\tJ\t\nY\t2001\tG2\tR\tJ\t\n"
    )
    edges = "citing_id\tcited_id\nX\tT\nY\tT\nY\tU\n"
    c = make_corpus(arts, edges, span=(2000, 2002))
    w = WindowSpec("backward", 1)
    scores = backward_scores(c, 2001, w)
    assert scores["T"] == pytest.approx(1.0 / 1 + 1.0 / 2)
    assert scores["U"] == pytest.approx(0.5)
    t = oracle.read(c)
    assert oracle.normalized_reference_count(t, "T", 2001, 1) == pytest.approx(1.0 / 1 + 1.0 / 2)
    assert oracle.normalized_reference_count(t, "U", 2001, 1) == pytest.approx(0.5)


def test_normalized_reference_count_outside_population(fixture_corpus):
    # B is 2000, pop is 2001-2002
    assert "B" not in backward_scores(fixture_corpus, 2003, BWD2)
    with pytest.raises(ValueError, match="outside the backward"):
        oracle.normalized_reference_count(oracle.read(fixture_corpus), "B", 2003, 2)


def test_backward_accounting_identity(fixture_corpus):
    # sum over the cited population of ref_year = sum over fields of
    # (in-window edges from that field) / mref_field
    c = fixture_corpus
    for ref_year, pop in [(2002, ["A", "B"]), (2003, ["C", "D"])]:
        scores = backward_scores(c, ref_year, BWD2)
        total = sum(scores[a] for a in pop)
        by_field = {}
        for j in range(c.n_edges):
            if int(c.citing_year[j]) != ref_year:
                continue
            if not (1 <= ref_year - int(c.cited_year[j]) <= 2):
                continue
            f = c.fields[c.field_code[c.citing[j]]]
            by_field[f] = by_field.get(f, 0) + 1
        expect = sum(n / field_mean_references(c, f, ref_year, BWD2) for f, n in by_field.items())
        assert total == pytest.approx(expect, rel=1e-12)


def test_rho_scope_all_edges(fixture_corpus):
    cohort = ["A", "B", "C", "D"]
    scores = nics(cohort, FWD2, fixture_corpus, exclude_self=True, rho_scope="all_edges")
    # self-citation C->A removed from counting but 2001 keeps its weight
    assert scores["D"] == 0.0
    assert all(v >= 0 for v in scores.values())
    # ics: A = B = C = 0.5 (D->A, D->B and E->C at rho 0.5), D = 0;
    # Phys mean (A, C) = 0.5, Bio mean (B, D) = 0.25
    expected = oracle.nics(oracle.read(fixture_corpus), cohort, 2, exclude_self=True, rho_scope="all_edges")
    assert expected == {"A": 1.0, "B": 2.0, "C": 1.0, "D": 0.0}
    assert scores == pytest.approx(expected, rel=1e-12)


def test_unknown_rho_scope_is_rejected():
    with pytest.raises(ValueError, match="unknown rho scope"):
        studies.StudyConfig(window=FWD2, rho_scope="everything")
