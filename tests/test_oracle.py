"""Differential test of the per-year Gini and uncited-share series against the
first-principles reference in ``oracle.py``, over every flag that changes
which citations count or how they are weighted."""

import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from citeconc.studies import StudyConfig, gini_series, uncited_share_series
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
    want = oracle.gini_rows(t, **flags)
    assert_rows_match(gini_series(corpus, study_config(flags)).rows, want, flags)
    if flags["approach"] == "citation_based":
        want = oracle.uncited_rows(t, length=flags["length"], exclude_self=flags["exclude_self"],
                                   core_only=flags["core_only"])
        assert_rows_match(uncited_share_series(corpus, study_config(flags)).rows, want, flags)


@settings(max_examples=250, deadline=None)
@given(small_corpora(), study_flags)
def test_series_match_oracle_on_small_corpora(corpus, flags):
    for variant in every_normalisation(flags):
        check_against_oracle(corpus, variant)


def test_series_match_oracle_on_the_fixture_for_every_flag(fixture_corpus):
    for approach, length, *values in itertools.product(
            ["citation_based", "reference_based"], [1, 2, 3], *[[False, True]] * len(DRAWN_FLAGS)):
        for variant in every_normalisation({"approach": approach, "length": length, **dict(zip(DRAWN_FLAGS, values))}):
            check_against_oracle(fixture_corpus, variant)
