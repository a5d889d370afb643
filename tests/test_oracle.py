"""Differential test of the per-year Gini (whole and by field), uncited-share,
region-removal, top-share and regional-tail series against the
first-principles reference in ``oracle.py``, over every flag that changes which
citations count or how they are weighted."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from citeconc import synthgen
from citeconc.corpus import load_corpus_files, write_tables
from citeconc.studies import (
    StudyConfig,
    gini_by_field,
    gini_series,
    region_removal_uncitedness,
    region_tail_shares,
    top_share_series,
    uncited_share_series,
)
from citeconc.windows import WindowSpec
from conftest import make_corpus

ART_HEADER = "id\tpub_year\tfield\tregion\tjournal_id\tauthor_ids\n"
EDGE_HEADER = "citing_id\tcited_id\n"
# A Gini of scores that are equal in exact arithmetic reads 0 in one summation
# order and a few ulps in another, so a zero has an absolute floor.
ZERO_FLOOR = 1e-14


@st.composite
def small_corpora(draw):
    """Up to 16 articles over a 2-7 year span (some years may be empty), each
    with 0-3 authors from a pool of 4 and up to 5 references; a reference
    between two articles is made by the later one."""
    span = (2000, 2000 + draw(st.integers(1, 6)))
    n = draw(st.integers(0, 16))
    years = [draw(st.integers(*span)) for _ in range(n)]
    rows, edges = [], []
    for i, year in enumerate(years):
        authors = draw(st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=3))
        rows.append(f"P{i}\t{year}\t{draw(st.sampled_from('FGH'))}\tR\t{draw(st.sampled_from(['J1', 'J2']))}"
                    f"\t{';'.join(authors)}\n")
        edges += [(i, j) if year >= years[j] else (j, i) for j in draw(st.lists(st.integers(0, n - 1), max_size=5))]
    return make_corpus(ART_HEADER + "".join(rows), EDGE_HEADER + "".join(f"P{a}\tP{b}\n" for a, b in edges), span)


# Drawn per corpus; every combination of the normalisation flags is then run on it.
DRAWN_FLAGS = ("include_uncited", "core_only", "drop_earliest_population")
NORMALISATION_FLAGS = ("exclude_self", "normalized", "mics_per_year")

study_flags = st.fixed_dictionaries({
    "approach": st.sampled_from(["citation_based", "reference_based"]),
    "length": st.integers(1, 4),
    "field": st.sampled_from([None, *"FGH"]),  # a field may be absent from the corpus
    **{flag: st.booleans() for flag in DRAWN_FLAGS},
})


def every_normalisation(flags):
    for rho_scope, *values in itertools.product(["study", "all_edges"], *[[False, True]] * len(NORMALISATION_FLAGS)):
        yield {**flags, "rho_scope": rho_scope, **dict(zip(NORMALISATION_FLAGS, values))}


def study_config(flags):
    forward = flags["approach"] == "citation_based"
    return StudyConfig(
        window=WindowSpec("forward" if forward else "backward", flags["length"]),
        approach=flags["approach"],
        include_uncited=flags["include_uncited"],
        exclude_self_citations=flags["exclude_self"],
        core_only=flags["core_only"],
        normalized=flags["normalized"],
        mics_per_year=flags["mics_per_year"],
        rho_scope=flags["rho_scope"],
        drop_earliest_population=flags["drop_earliest_population"],
        field_filter=flags["field"],
    )


def assert_rows_match(got, want, context):
    """Ints, strings and nulls equal; floats within 1e-12 relative."""
    assert [r["year"] for r in got] == [r["year"] for r in want], context
    for g, w in zip(got, want):
        assert set(g) == set(w), context
        for col, expected in w.items():
            value = g[col]
            if isinstance(expected, float):
                assert isinstance(value, float), (context, w["year"], col)
                assert math.isclose(value, expected, rel_tol=1e-12, abs_tol=ZERO_FLOOR), \
                    (context, w["year"], col, value, expected)
            else:
                assert type(value) is type(expected) and value == expected, (context, w["year"], col, value, expected)


def check_against_oracle(corpus, flags):
    t = oracle.read(corpus)
    cfg = study_config(flags)
    try:
        want = oracle.gini_rows(t, **flags)
    except ValueError:
        with pytest.raises(ValueError, match="unknown field"):
            gini_series(corpus, cfg)
    else:
        assert_rows_match(gini_series(corpus, cfg).rows, want, flags)
    by_field = gini_by_field(corpus, replace(cfg, field_filter=None))
    assert list(by_field) == sorted({rec.field for rec in t.articles.values()}), flags
    for field, report in by_field.items():
        assert_rows_match(report.rows, oracle.gini_rows(t, **{**flags, "field": field}), (flags, field))
    if flags["approach"] == "citation_based":
        want = oracle.uncited_rows(t, length=flags["length"], exclude_self=flags["exclude_self"],
                                   core_only=flags["core_only"])
        assert_rows_match(uncited_share_series(corpus, replace(cfg, field_filter=None)).rows, want, flags)


@settings(max_examples=250, deadline=None)
@given(small_corpora(), study_flags)
def test_series_match_oracle_on_small_corpora(corpus, flags):
    for variant in every_normalisation(flags):
        check_against_oracle(corpus, variant)


def test_series_match_oracle_on_the_fixture_for_every_flag(fixture_corpus):
    for approach, length, field, *values in itertools.product(
            ["citation_based", "reference_based"], [1, 2, 3], [None, "Phys", "Chem"], *[[False, True]] * len(DRAWN_FLAGS)):
        flags = {"approach": approach, "length": length, "field": field, **dict(zip(DRAWN_FLAGS, values))}
        for variant in every_normalisation(flags):
            check_against_oracle(fixture_corpus, variant)


@st.composite
def regional_corpora(draw):
    """Up to 24 articles over a 2-6 year span in three regions, with ids that
    are a shuffled numbering (id order is not row order), 0-2 authors each from
    a pool of 3 and up to 4 references each."""
    span = (2000, 2000 + draw(st.integers(1, 5)))
    n = draw(st.integers(0, 24))
    names = draw(st.permutations([f"A{k:02d}" for k in range(n)]))
    years = [draw(st.integers(*span)) for _ in range(n)]
    rows, edges = [], []
    for i, year in enumerate(years):
        authors = draw(st.lists(st.sampled_from(["a", "b", "c"]), max_size=2))
        rows.append(f"{names[i]}\t{year}\tF\t{draw(st.sampled_from(['North', 'South', 'East']))}\tJ"
                    f"\t{';'.join(authors)}\n")
        edges += [(i, j) if year >= years[j] else (j, i) for j in draw(st.lists(st.integers(0, n - 1), max_size=4))]
    return make_corpus(ART_HEADER + "".join(rows),
                       EDGE_HEADER + "".join(f"{names[a]}\t{names[b]}\n" for a, b in edges), span)


def check_tails_and_top_shares(corpus):
    """region_tails at both citing levels and top_shares against the oracle.
    Articles are ranked by raw counts (``normalized=False``), whose ties are
    exact, so the top-k tie-break by id is what decides them."""
    t = oracle.read(corpus)
    pcts = [0.01, 0.25, 0.5, 1.0]
    for length, excl in itertools.product([1, 2, 3], [False, True]):
        cfg = StudyConfig(window=WindowSpec("forward", length), exclude_self_citations=excl, normalized=False)
        context = {"length": length, "exclude_self": excl}
        for level, top_pct in itertools.product(["edge", "article"], [0.01, 0.3]):
            got = region_tail_shares(corpus, cfg, top_pct=top_pct, citing_level=level).rows
            want = oracle.region_tail_rows(t, length=length, top_pct=top_pct, citing_level=level, exclude_self=excl)
            assert {(r["year"], r["region"]): r for r in got} == want, (context, level, top_pct)
        want = oracle.top_share_rows(t, length=length, pcts=pcts, exclude_self=excl)
        assert_rows_match(top_share_series(corpus, cfg, pcts).rows, want, context)


@settings(max_examples=150, deadline=None)
@given(regional_corpora())
def test_region_tails_and_top_shares_match_oracle_on_small_corpora(corpus):
    check_tails_and_top_shares(corpus)


def check_region_removal(corpus):
    """region_removal_uncitedness of every region against the oracle, on the
    whole corpus and on its core journals; a residual with no articles is an error."""
    t = oracle.read(corpus)
    regions = sorted({rec.region for rec in t.articles.values()})
    for region, length, excl, core_only in itertools.product(regions, [1, 2], [False, True], [False, True]):
        cfg = StudyConfig(window=WindowSpec("forward", length), exclude_self_citations=excl, core_only=core_only,
                          region_removed=region)
        context = {"region": region, "length": length, "exclude_self": excl, "core_only": core_only}
        try:
            want = oracle.region_removal_rows(t, region=region, length=length, exclude_self=excl, core_only=core_only)
        except ValueError:
            with pytest.raises(ValueError, match="empty residual corpus"):
                region_removal_uncitedness(corpus, cfg)
        else:
            assert_rows_match(region_removal_uncitedness(corpus, cfg).rows, want, context)


@settings(max_examples=150, deadline=None)
@given(regional_corpora())
def test_region_removal_matches_oracle_on_small_corpora(corpus):
    check_region_removal(corpus)


def test_region_tails_and_top_shares_match_oracle_on_shuffled_rows(tmp_path):
    params = synthgen.GenParams(span=(1990, 1997), articles_per_year=tuple([40] * 8),
                                refs_per_article=tuple([3.0] * 8), self_citation_rate=0.1, seed=41)
    ap, ep = tmp_path / "a.tsv", tmp_path / "e.tsv"
    write_tables(synthgen.generate(params), str(ap), str(ep))
    header, *rows = ap.read_text().splitlines(keepends=True)
    np.random.default_rng(8).shuffle(rows)
    ap.write_text(header + "".join(rows))
    corpus = load_corpus_files(str(ap), str(ep), params.span)
    assert list(corpus.ids) != sorted(corpus.ids)
    check_tails_and_top_shares(corpus)
