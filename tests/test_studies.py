import math
from dataclasses import replace

import numpy as np
import pytest

import oracle
from citeconc import synthgen
from citeconc.corpus import load_corpus_files, write_tables
from citeconc.studies import (
    StudyConfig,
    StudySpec,
    gini_by_field,
    gini_series,
    region_removal_uncitedness,
    region_tail_shares,
    run_studies,
    top_share_series,
    uncited_share_series,
)
from citeconc.windows import WindowSpec, in_window_edge_mask
from conftest import make_corpus

ART_HEADER = "id\tpub_year\tfield\tregion\tjournal_id\tauthor_ids\n"
EDGE_HEADER = "citing_id\tcited_id\n"


def small_corpus(seed=17):
    params = synthgen.GenParams(
        span=(1990, 1999),
        articles_per_year=tuple([150] * 10),
        refs_per_article=tuple([4.0] * 10),
        attachment_constant=2.0,
        recency_halflife=3.0,
        self_citation_rate=0.1,
        seed=seed,
    )
    return synthgen.generate(params)


def naive_gini(values):
    x = np.asarray(values, dtype=np.float64)
    n = len(x)
    return float(np.abs(x[:, None] - x[None, :]).sum() / (2 * n * n * x.mean()))


def naive_citation_gini_series(corpus, length, include_uncited):
    """Straight-line dict/loop reimplementation of the normalized forward study."""
    arts = oracle.read(corpus).articles
    edges = [(corpus.ids[corpus.citing[j]], corpus.ids[corpus.cited[j]]) for j in range(corpus.n_edges)]
    made_in_year = {}
    for src, _dst in edges:
        y = arts[src].pub_year
        made_in_year[y] = made_in_year.get(y, 0) + 1
    rho = {y: 1.0 / c for y, c in made_in_year.items()}
    eligible = [y for y in range(corpus.span[0], corpus.span[1] + 1) if y + length <= corpus.span[1]]
    ics = {a: 0.0 for a in arts}
    for src, dst in edges:
        gap = arts[src].pub_year - arts[dst].pub_year
        if 1 <= gap <= length:
            ics[dst] += rho[arts[src].pub_year]
    cohort = [a for a in arts if arts[a].pub_year in eligible]
    mics = {}
    for f in {arts[a].field for a in cohort}:
        members = [ics[a] for a in cohort if arts[a].field == f]
        mics[f] = sum(members) / len(members)
    scores = {a: (ics[a] / mics[arts[a].field] if mics[arts[a].field] > 0 else 0.0) for a in cohort}
    out = {}
    for y in eligible:
        vals = [scores[a] for a in cohort if arts[a].pub_year == y]
        if not include_uncited:
            vals = [v for v in vals if v > 0]
        out[y] = naive_gini(vals) if vals and sum(vals) > 0 else None
    return out


def test_gini_series_matches_naive_pipeline_oracle():
    corpus = small_corpus()
    for include in (True, False):
        cfg = StudyConfig(window=WindowSpec("forward", 3), include_uncited=include)
        report = gini_series(corpus, cfg)
        expected = naive_citation_gini_series(corpus, 3, include)
        assert [r["year"] for r in report.rows] == sorted(expected)
        for r in report.rows:
            if expected[r["year"]] is None:
                assert r["gini"] is None
            else:
                assert r["gini"] == pytest.approx(expected[r["year"]], abs=1e-9)


def test_gini_identical_scores_zero():
    arts = ART_HEADER + "".join(f"P{i}\t2000\tF\tR\tJ\t\n" for i in range(4)) + \
        "".join(f"C{i}\t2001\tF\tR\tJ\t\n" for i in range(4))
    edges = EDGE_HEADER + "".join(f"C{i}\tP{i}\n" for i in range(4))
    c = make_corpus(arts, edges, span=(2000, 2001))
    cfg = StudyConfig(window=WindowSpec("forward", 1))
    rows = gini_series(c, cfg).rows
    assert rows[0]["year"] == 2000
    assert rows[0]["gini"] == 0.0


def test_include_uncited_raises_gini_when_zeros_present():
    corpus = small_corpus()
    cfg_in = StudyConfig(window=WindowSpec("forward", 2), include_uncited=True)
    cfg_out = StudyConfig(window=WindowSpec("forward", 2), include_uncited=False)
    inc = gini_series(corpus, cfg_in).rows
    exc = gini_series(corpus, cfg_out).rows
    checked = 0
    for ri, ro in zip(inc, exc):
        if ri["gini"] is None or ro["gini"] is None:
            continue
        if ri["zero_count"] > 0:
            assert ri["gini"] > ro["gini"]
            checked += 1
        else:
            assert ri["gini"] == pytest.approx(ro["gini"])
    assert checked > 0


def test_empty_cohort_year_gets_null_row():
    arts = ART_HEADER + "A\t2000\tF\tR\tJ\t\nB\t2003\tF\tR\tJ\t\n"
    c = make_corpus(arts, EDGE_HEADER, span=(2000, 2004))
    cfg = StudyConfig(window=WindowSpec("forward", 1))
    rows = gini_series(c, cfg).rows
    by_year = {r["year"]: r for r in rows}
    assert by_year[2001]["gini"] is None
    assert by_year[2001]["reason"] == "empty_cohort"
    assert by_year[2000]["reason"] == "zero_total"  # A uncited -> all-zero cohort


def test_end_to_end_change():
    corpus = small_corpus()
    cfg = StudyConfig(window=WindowSpec("forward", 2))
    report = gini_series(corpus, cfg)
    vals = [r["gini"] for r in report.rows if r["gini"] is not None]
    assert oracle.end_to_end_change(report.rows) == pytest.approx(vals[-1] - vals[0])
    with pytest.raises(ValueError):
        oracle.end_to_end_change(report.rows[:1])


def test_reference_based_years_and_population():
    corpus = small_corpus()
    cfg = StudyConfig(window=WindowSpec("backward", 3), approach="reference_based")
    report = gini_series(corpus, cfg)
    assert [r["year"] for r in report.rows] == list(range(1993, 2000))
    cfg2 = StudyConfig(window=WindowSpec("backward", 3), approach="reference_based",
                       drop_earliest_population=True)
    assert [r["year"] for r in gini_series(corpus, cfg2).rows] == list(range(1994, 2000))


def test_reference_based_fixture_manual():
    # population of ref year 2001, W=1 is the 2000 cohort {T, U, V};
    # X (field G1, 1 in-window ref) cites T; Y (G2, 2 refs) cites T and U.
    arts = ART_HEADER + (
        "T\t2000\tF\tR\tJ\t\nU\t2000\tF\tR\tJ\t\nV\t2000\tF\tR\tJ\t\n"
        "X\t2001\tG1\tR\tJ\t\nY\t2001\tG2\tR\tJ\t\n"
    )
    edges = EDGE_HEADER + "X\tT\nY\tT\nY\tU\n"
    c = make_corpus(arts, edges, span=(2000, 2001))
    cfg = StudyConfig(window=WindowSpec("backward", 1), approach="reference_based")
    rows = gini_series(c, cfg).rows
    assert len(rows) == 1
    # scores: T = 1/1 + 1/2 = 1.5, U = 0.5, V = 0
    assert rows[0]["n"] == 3
    assert rows[0]["zero_count"] == 1
    assert rows[0]["gini"] == pytest.approx(naive_gini([1.5, 0.5, 0.0]), abs=1e-12)


def test_uncited_share_no_edges():
    arts = ART_HEADER + "A\t2000\tF\tR\tJ\t\nB\t2001\tF\tR\tJ\t\n"
    c = make_corpus(arts, EDGE_HEADER, span=(2000, 2002))
    rows = uncited_share_series(c, StudyConfig(window=WindowSpec("forward", 1))).rows
    assert [r["uncited_share"] for r in rows] == [1.0, 1.0]


def test_uncited_share_self_scope_ordering():
    corpus = small_corpus()
    for length in (2, 5):
        with_self = uncited_share_series(corpus, StudyConfig(window=WindowSpec("forward", length))).rows
        without = uncited_share_series(
            corpus, StudyConfig(window=WindowSpec("forward", length), exclude_self_citations=True)).rows
        for a, b in zip(with_self, without):
            assert b["uncited_share"] >= a["uncited_share"]


def region_fixture():
    # region A articles provide the only citations of region B's articles
    arts = ART_HEADER + (
        "X1\t2000\tF\tRegA\tJ\ta1\n"
        "Y1\t2000\tF\tRegB\tJ\tb1\n"
        "X2\t2001\tF\tRegA\tJ\ta2\n"
        "Y2\t2001\tF\tRegB\tJ\tb2\n"
    )
    edges = EDGE_HEADER + "X2\tY1\n"
    return make_corpus(arts, edges, span=(2000, 2002))


def test_region_removal_manual_two_region_fixture():
    c = region_fixture()
    rows = region_removal_uncitedness(c, StudyConfig(window=WindowSpec("forward", 1), region_removed="RegA")).rows
    by_year = {r["year"]: r for r in rows}
    # baseline 2000: {X1 uncited, Y1 cited} -> 0.5; removing RegA leaves Y1 uncited -> 1.0
    assert by_year[2000]["baseline_share"] == pytest.approx(0.5)
    assert by_year[2000]["removed_share"] == pytest.approx(1.0)
    assert by_year[2000]["relative_change"] == pytest.approx(1.0)
    # 2001: everyone uncited either way -> relative change 0
    assert by_year[2001]["relative_change"] == pytest.approx(0.0)


def test_region_removal_errors():
    c = region_fixture()
    with pytest.raises(ValueError, match="unknown region"):
        region_removal_uncitedness(c, StudyConfig(window=WindowSpec("forward", 1), region_removed="Atlantis"))
    single = make_corpus(
        ART_HEADER + "A\t2000\tF\tOnly\tJ\t\n", EDGE_HEADER, span=(2000, 2001))
    with pytest.raises(ValueError, match="empty residual"):
        region_removal_uncitedness(single, StudyConfig(window=WindowSpec("forward", 1), region_removed="Only"))
    # Journal J publishes in both years, K in one: the core journals hold only Only's articles.
    mixed = make_corpus(ART_HEADER + "A\t2000\tF\tOnly\tJ\t\nB\t2001\tF\tOnly\tJ\t\nC\t2001\tF\tOther\tK\t\n",
                        EDGE_HEADER + "C\tA\n", span=(2000, 2001))
    cfg = StudyConfig(window=WindowSpec("forward", 1), region_removed="Only")
    assert region_removal_uncitedness(mixed, cfg).rows[0]["removed_share"] is None
    with pytest.raises(ValueError, match="empty residual"):
        region_removal_uncitedness(mixed, replace(cfg, core_only=True))


FORWARD = StudyConfig(window=WindowSpec("forward", 2))
BACKWARD = StudyConfig(window=WindowSpec("backward", 2), approach="reference_based", region_removed="RegA")
FORWARD_ONLY_KINDS = ("uncited", "region_removal", "region_tails", "top_shares")


@pytest.mark.parametrize("kind, cfg, params, match", [
    *((kind, BACKWARD, {}, "requires a forward window") for kind in FORWARD_ONLY_KINDS),
    ("region_removal", FORWARD, {}, "requires regions.remove"),
    ("region_tails", FORWARD, {"citing_level": "cited"}, "citing_level"),
    ("top_shares", FORWARD, {"pcts": (0.01, 0.0)}, r"\(0, 1\]"),
    ("top_shares", FORWARD, {"pcts": (1.5,)}, r"\(0, 1\]"),
    ("region_tails", FORWARD, {"top_pct": 0.0}, r"\(0, 1\]"),
    ("region_tails", FORWARD, {"top_pct": 1.5}, r"\(0, 1\]"),
    *((kind, replace(FORWARD, field_filter="F0"), {}, "only gini studies read a field")
      for kind in ("uncited", "top_shares", "region_tails", "gini_by_field")),
])
def test_invalid_study_spec_raises(kind, cfg, params, match):
    with pytest.raises(ValueError, match=match):
        StudySpec("s", kind, cfg, **params)


@pytest.mark.parametrize("region, core_only, match", [("Atlantis", False, "unknown region"),
                                                       ("Only", True, "empty residual corpus")])
def test_run_studies_raises_a_study_error_in_its_turn(region, core_only, match):
    # Only J, the one core journal, publishes in every year, and all its articles are Only's.
    corpus = make_corpus(ART_HEADER + "".join(f"A{y}\t{y}\tF\tOnly\tJ\t\nB{y}\t{y}\tF\tOther\tK{y % 2}\t\n"
                                              for y in range(2000, 2004)),
                         EDGE_HEADER + "B2001\tA2000\nA2002\tB2001\n", span=(2000, 2003))
    removal = StudySpec("b", "region_removal", replace(FORWARD, region_removed=region, core_only=core_only))
    reports = run_studies(corpus, [StudySpec("a", "gini", FORWARD), removal, StudySpec("c", "uncited", FORWARD)])
    assert [rep.study_id for rep in next(reports)] == ["a"]
    with pytest.raises(ValueError, match=match):
        next(reports)


def test_region_removal_zero_article_region_is_noop():
    c = region_fixture()
    # RegC exists in no article; removing it must not change anything, so build
    # a corpus whose vocabulary contains it via an out-of-span dummy article.
    arts = ART_HEADER + (
        "X1\t2000\tF\tRegA\tJ\ta1\n"
        "Y1\t2000\tF\tRegB\tJ\tb1\n"
        "X2\t2001\tF\tRegA\tJ\ta2\n"
        "Z\t2001\tF\tRegC\tJ\t\n"
    )
    edges = EDGE_HEADER + "X2\tY1\n"
    full = make_corpus(arts, edges, span=(2000, 2002))
    sub = full.subset(np.asarray([full.regions[c_] != "RegC" for c_ in full.region_code]))
    rows = region_removal_uncitedness(sub, StudyConfig(window=WindowSpec("forward", 1), region_removed="RegC")).rows
    for r in rows:
        if r["relative_change"] is not None:
            assert r["relative_change"] == 0.0


def test_region_tail_shares_manual():
    arts = ART_HEADER + (
        "P\t2000\tF\tRegA\tJ\tp1\n"
        "Q\t2000\tF\tRegA\tJ\tq1\n"
        "R\t2000\tF\tRegB\tJ\tr1\n"
        "S\t2000\tF\tRegB\tJ\ts1\n"
        "U\t2001\tF\tRegA\tJ\tu1\n"
        "V\t2002\tF\tRegB\tJ\tv1\n"
    )
    edges = EDGE_HEADER + "U\tP\nU\tR\nV\tP\n"
    c = make_corpus(arts, edges, span=(2000, 2002))
    rows = region_tail_shares(c, StudyConfig(window=WindowSpec("forward", 2), exclude_self_citations=True)).rows
    by = {(r["year"], r["region"]): r for r in rows}
    # single-cited: {R} (RegB); top-1% (k=1) by nics: P (RegA)
    assert by[(2000, "RegA")]["cited_low"] == 0.0
    assert by[(2000, "RegB")]["cited_low"] == 1.0
    assert by[(2000, "RegA")]["cited_top"] == 1.0
    # R's single citation comes from U (RegA)
    assert by[(2000, "RegA")]["citing_low"] == 1.0
    # P is cited by U (RegA) and V (RegB)
    assert by[(2000, "RegA")]["citing_top"] == pytest.approx(0.5)
    assert by[(2000, "RegB")]["citing_top"] == pytest.approx(0.5)


def test_region_tail_shares_single_region_and_nulls():
    arts = ART_HEADER + (
        "P\t2000\tF\tRegA\tJ\t\nQ\t2000\tF\tRegA\tJ\t\n"
        "U\t2001\tF\tRegA\tJ\t\nV\t2002\tF\tRegA\tJ\t\n"
    )
    edges = EDGE_HEADER + "U\tP\nV\tP\n"  # P has two citations -> no single-cited in 2000
    c = make_corpus(arts, edges, span=(2000, 2002))
    rows = region_tail_shares(c, StudyConfig(window=WindowSpec("forward", 2), exclude_self_citations=True)).rows
    r0 = rows[0]
    assert r0["region"] == "RegA"
    assert r0["cited_low"] is None
    assert r0["reason"] == "no_single_cited"
    assert r0["cited_top"] == 1.0
    assert r0["citing_top"] == 1.0


# Cohort 2000 in file order; "A" < "A0" < "B" < "z" < "é" in byte order, which is str order. m is cited twice,
# the others once each, so every top_pct cut but the first falls among five tied articles of alternating regions.
TIED_ARTICLES = ART_HEADER + "".join(f"{a}\t2000\tF\t{r}\tJ\t{a}1\n" for a, r in (
    ("é", "RegB"), ("z", "RegA"), ("A0", "RegB"), ("m", "RegA"), ("B", "RegA"), ("A", "RegB"))) + (
    "c1\t2001\tF\tRegA\tJ\tc1\nc2\t2001\tF\tRegB\tJ\tc2\nc3\t2002\tF\tRegB\tJ\tc3\n")
TIED_EDGES = EDGE_HEADER + "c1\tm\nc2\tm\nc1\té\nc2\tz\nc1\tA0\nc2\tB\nc1\tA\nc3\tc1\n"


@pytest.mark.parametrize("citing_level", ["edge", "article"])
def test_region_tails_break_ties_in_byte_order_of_loaded_ids(tmp_path, citing_level):
    (tmp_path / "a.tsv").write_text(TIED_ARTICLES)
    (tmp_path / "e.tsv").write_text(TIED_EDGES)
    c = load_corpus_files(str(tmp_path / "a.tsv"), str(tmp_path / "e.tsv"), (2000, 2002))
    cfg = StudyConfig(window=WindowSpec("forward", 2))
    for corpus in (c, c.subset(c.ids != "A0")):
        t = oracle.read(corpus)
        for top_pct in (0.1, 0.3, 0.45, 0.6, 0.75, 1.0):
            rows = region_tail_shares(corpus, cfg, top_pct=top_pct, citing_level=citing_level).rows
            want = oracle.region_tail_rows(t, length=2, top_pct=top_pct, citing_level=citing_level)
            assert {(r["year"], r["region"]): r for r in rows} == want, (corpus.n_articles, top_pct)


def test_region_tail_shares_sum_to_one():
    corpus = small_corpus()
    report = region_tail_shares(corpus, StudyConfig(window=WindowSpec("forward", 3), exclude_self_citations=True))
    by_year = {}
    for r in report.rows:
        by_year.setdefault(r["year"], []).append(r)
    for rows in by_year.values():
        for metric in ("cited_low", "cited_top", "citing_low", "citing_top"):
            vals = [r[metric] for r in rows]
            if all(v is not None for v in vals):
                assert sum(vals) == pytest.approx(1.0, abs=1e-9)


def test_top_share_series_equal_cited():
    arts = ART_HEADER + "".join(f"P{i}\t2000\tF\tR\tJ\t\n" for i in range(100)) + \
        "".join(f"C{i}\t2001\tF\tR\tJ\t\n" for i in range(100))
    edges = EDGE_HEADER + "".join(f"C{i}\tP{i}\n" for i in range(100))
    c = make_corpus(arts, edges, span=(2000, 2001))
    rows = top_share_series(c, StudyConfig(window=WindowSpec("forward", 1)), [0.10, 1.0]).rows
    assert rows[0]["top_0.1"] == pytest.approx(0.10)
    assert rows[0]["top_1"] == 1.0


def test_top_share_series_single_cited_article():
    arts = ART_HEADER + "".join(f"P{i}\t2000\tF\tR\tJ\t\n" for i in range(50)) + "C\t2001\tF\tR\tJ\t\n"
    edges = EDGE_HEADER + "C\tP0\n"
    c = make_corpus(arts, edges, span=(2000, 2001))
    rows = top_share_series(c, StudyConfig(window=WindowSpec("forward", 1)), [0.01, 0.05]).rows
    assert rows[0]["top_0.01"] == 1.0
    assert rows[0]["top_0.05"] == 1.0


def test_top_share_series_matches_sort_oracle():
    corpus = small_corpus()
    report = top_share_series(corpus, StudyConfig(window=WindowSpec("forward", 3)), [0.01, 0.05, 0.10, 1.0])
    raw = np.zeros(corpus.n_articles)
    for j in range(corpus.n_edges):
        gap = int(corpus.citing_year[j]) - int(corpus.cited_year[j])
        if 1 <= gap <= 3:
            raw[corpus.cited[j]] += 1
    for r in report.rows:
        members = np.flatnonzero(corpus.pub_year == r["year"])
        vals = np.sort(raw[members])[::-1]
        if vals.sum() == 0:
            assert r["reason"] is not None
            continue
        for pct in (0.01, 0.05, 0.10, 1.0):
            k = int(np.ceil(pct * len(vals)))
            assert r[f"top_{pct:g}"] == pytest.approx(float(vals[:k].sum() / vals.sum()), abs=1e-12)
        assert r["top_1"] == 1.0


def test_gini_by_field_single_field_matches_unrestricted():
    params = synthgen.GenParams(
        span=(1990, 1997),
        articles_per_year=tuple([100] * 8),
        refs_per_article=tuple([3.0] * 8),
        field_mix=(("OnlyField", 1.0),),
        seed=3,
    )
    corpus = synthgen.generate(params)
    cfg = StudyConfig(window=WindowSpec("forward", 2))
    per_field = gini_by_field(corpus, cfg)
    assert list(per_field) == ["OnlyField"]
    base = gini_series(corpus, cfg)
    assert [r["gini"] for r in per_field["OnlyField"].rows] == [r["gini"] for r in base.rows]


def test_gini_by_field_matches_field_filter_runs():
    corpus = small_corpus()
    cfg = StudyConfig(window=WindowSpec("forward", 2))
    per_field = gini_by_field(corpus, cfg)
    for f, rep in per_field.items():
        direct = gini_series(corpus, StudyConfig(window=WindowSpec("forward", 2), field_filter=f))
        assert [r["gini"] for r in rep.rows] == [r["gini"] for r in direct.rows]


def test_gini_series_unknown_field_raises(fixture_corpus):
    for approach, direction in (("citation_based", "forward"), ("reference_based", "backward")):
        cfg = StudyConfig(window=WindowSpec(direction, 2), approach=approach, field_filter="Nope")
        with pytest.raises(ValueError, match="unknown field 'Nope'"):
            gini_series(fixture_corpus, cfg)


def test_field_absent_in_year_gives_null_row():
    arts = ART_HEADER + "A\t2000\tF1\tR\tJ\t\nB\t2001\tF1\tR\tJ\t\nC\t2001\tF2\tR\tJ\t\n"
    edges = EDGE_HEADER + "B\tA\nC\tA\n"
    c = make_corpus(arts, edges, span=(2000, 2002))
    per_field = gini_by_field(c, StudyConfig(window=WindowSpec("forward", 1)))
    f2_rows = {r["year"]: r for r in per_field["F2"].rows}
    assert f2_rows[2000]["gini"] is None
    assert f2_rows[2000]["reason"] == "empty_cohort"


def test_determinism_bitwise():
    corpus = small_corpus()
    cfg = StudyConfig(window=WindowSpec("forward", 3), exclude_self_citations=True)
    a = gini_series(corpus, cfg)
    b = gini_series(corpus, cfg)
    assert a.rows == b.rows

    t1 = region_tail_shares(corpus, StudyConfig(window=WindowSpec("forward", 3), exclude_self_citations=True))
    t2 = region_tail_shares(corpus, StudyConfig(window=WindowSpec("forward", 3), exclude_self_citations=True))
    assert t1.rows == t2.rows


def test_mean_nics_one_within_study_cohort():
    corpus = small_corpus()
    from citeconc.normalize import nics_array
    from citeconc.windows import eligible_pub_years_forward

    w = WindowSpec("forward", 3)
    years = list(eligible_pub_years_forward(corpus.span, w))
    idx = np.flatnonzero(np.isin(corpus.pub_year, years))
    mask = in_window_edge_mask(corpus, w.length)
    scores = nics_array(corpus, idx, mask, exclude_self=False, mics_per_year=False, rho_scope="study")
    for code in np.unique(corpus.field_code[idx]):
        members = scores[corpus.field_code[idx] == code]
        if members.sum() > 0:
            assert members.mean() == pytest.approx(1.0, rel=1e-9)


def year_and_region(row):
    # region_tails lists regions in vocabulary order, which follows the article rows
    return row["year"], row.get("region", "")


def every_series(corpus):
    fwd = StudyConfig(window=WindowSpec("forward", 3))
    bwd = StudyConfig(window=WindowSpec("backward", 3), approach="reference_based")
    reports = []
    for include in (True, False):
        reports.append(gini_series(corpus, StudyConfig(window=fwd.window, include_uncited=include)))
        reports.append(gini_series(corpus, StudyConfig(window=bwd.window, approach="reference_based",
                                                       include_uncited=include)))
    for cfg in (fwd, bwd):
        reports += gini_by_field(corpus, cfg).values()
    reports.append(uncited_share_series(corpus, fwd))
    reports.append(region_removal_uncitedness(corpus, StudyConfig(window=fwd.window, region_removed="Asia")))
    for level in ("edge", "article"):
        reports.append(region_tail_shares(corpus, fwd, citing_level=level))
    reports.append(top_share_series(corpus, fwd, [0.01, 0.1, 0.5]))
    return reports


def test_every_series_ignores_article_row_order_and_survives_an_empty_year(tmp_path):
    params = synthgen.GenParams(
        span=(1990, 2001),
        articles_per_year=tuple([80] * 12),
        refs_per_article=tuple([4.0] * 12),
        attachment_constant=2.0,
        self_citation_rate=0.1,
        seed=23,
    )
    full = synthgen.generate(params)
    # 1995 is left empty; subset drops its edges.
    ap, ep, shuffled = tmp_path / "a.tsv", tmp_path / "e.tsv", tmp_path / "shuffled.tsv"
    write_tables(full.subset(full.pub_year != 1995), str(ap), str(ep))
    header, *rows = ap.read_text().splitlines(keepends=True)
    np.random.default_rng(5).shuffle(rows)
    shuffled.write_text(header + "".join(rows))
    in_order = load_corpus_files(str(ap), str(ep), params.span)
    mixed = load_corpus_files(str(shuffled), str(ep), params.span)
    assert np.any(np.diff(mixed.pub_year) < 0)

    expected, got = every_series(in_order), every_series(mixed)
    assert len(expected) == len(got) == 15
    assert any(r["reason"] == "empty_cohort" for rep in expected for r in rep.rows)
    for a, b in zip(expected, got):
        assert (a.study_id, a.config, a.columns) == (b.study_id, b.config, b.columns)
        rows_a, rows_b = sorted(a.rows, key=year_and_region), sorted(b.rows, key=year_and_region)
        assert len(rows_a) == len(rows_b)
        for ra, rb in zip(rows_a, rows_b):
            for col in a.columns:
                x, y = ra[col], rb[col]
                if isinstance(x, float):
                    assert isinstance(y, float) and math.isclose(x, y, rel_tol=1e-12, abs_tol=0.0), (a.study_id, col)
                else:
                    assert type(x) is type(y) and x == y, (a.study_id, ra["year"], col)
