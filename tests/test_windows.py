from collections import Counter

import pytest

import oracle
from citeconc.windows import (
    WindowSpec,
    cited_population_backward,
    eligible_pub_years_forward,
    in_window_edge_mask,
)
from conftest import id_index, make_corpus


def fwd(length):
    return WindowSpec("forward", length)


def bwd(length):
    return WindowSpec("backward", length)


def citations_in_window(article_id, w, corpus, exclude_self=False):
    """Per-year in-window citation counts of one article, read off the library's edge mask."""
    mask = in_window_edge_mask(corpus, w.length, exclude_self) & (corpus.cited == id_index(corpus)[article_id])
    return dict(Counter(corpus.citing_year[mask].tolist()))


def test_window_spec_validation():
    with pytest.raises(ValueError):
        WindowSpec("sideways", 2)
    with pytest.raises(ValueError):
        WindowSpec("forward", 0)
    with pytest.raises(TypeError):  # same-year citations are never counted: there is no switch
        WindowSpec("forward", 2, exclude_pub_year=False)


@pytest.mark.parametrize("pub,length,expected", [
    (2000, 2, [2001, 2002]),
    (2000, 10, list(range(2001, 2011))),
    (1980, 1, [1981]),
])
def test_counted_years(pub, length, expected):
    assert list(oracle.counted_years(pub, length)) == expected


@pytest.mark.parametrize("length", range(1, 12))
def test_counted_years_has_length_elements(length):
    assert len(oracle.counted_years(1995, length)) == length


def test_eligible_pub_years_forward():
    assert list(eligible_pub_years_forward((1980, 2020), fwd(2))) == list(range(1980, 2019))
    assert list(eligible_pub_years_forward((1980, 2020), fwd(10))) == list(range(1980, 2011))
    assert list(eligible_pub_years_forward((2000, 2001), fwd(5))) == []


def test_widening_span_never_shrinks_eligibility():
    for length in (1, 3, 7):
        prev = -1
        for end in range(2000, 2030):
            n = len(eligible_pub_years_forward((2000, end), fwd(length)))
            assert n >= prev
            prev = n


def test_cited_population_backward():
    assert list(cited_population_backward(2000, (1980, 2020), bwd(10))) == list(range(1990, 2000))
    assert cited_population_backward(1985, (1980, 2020), bwd(10)) is None
    assert list(cited_population_backward(1990, (1980, 2020), bwd(10))) == list(range(1980, 1990))


def test_citations_in_window_fixture(fixture_corpus):
    c = fixture_corpus
    t = oracle.read(c)

    def counts(article_id, w, corpus, exclude_self=False):
        """The library's counts, which must equal the oracle's."""
        got = citations_in_window(article_id, w, corpus, exclude_self)
        assert got == oracle.window_counts(t, article_id, w.length, exclude_self)
        return got

    # A (2000): C->A in 2001 (self), D->A in 2002
    assert counts("A", fwd(2), c) == {2001: 1, 2002: 1}
    assert counts("A", fwd(2), c, exclude_self=True) == {2002: 1}
    assert counts("A", fwd(1), c) == {2001: 1}
    # B (2000): D->B in 2002, E->B in 2003 (outside W=2)
    assert counts("B", fwd(2), c) == {2002: 1}
    assert counts("B", fwd(3), c) == {2002: 1, 2003: 1}
    # uncited article
    assert counts("E", fwd(2), c) == {}


def test_window_count_monotone_in_length(fixture_corpus):
    c = fixture_corpus
    for art in c.ids:
        prev = -1
        for length in range(1, 8):
            total = sum(citations_in_window(art, fwd(length), c).values())
            assert total >= prev
            prev = total


def test_exclude_self_never_increases(fixture_corpus):
    c = fixture_corpus
    for art in c.ids:
        for length in (1, 2, 5):
            with_self = sum(citations_in_window(art, fwd(length), c).values())
            without = sum(citations_in_window(art, fwd(length), c, exclude_self=True).values())
            assert without <= with_self


@pytest.mark.parametrize("gap", [127, 128, 300])
def test_mask_reads_year_gaps_of_any_span(gap):
    # The year gap is not taken in a type narrower than the years.
    arts = f"id\tpub_year\tfield\tregion\tjournal_id\tauthor_ids\nA\t1700\tF\tR\tJ\t\nB\t{1700 + gap}\tF\tR\tJ\t\n"
    c = make_corpus(arts, "citing_id\tcited_id\nB\tA\n", span=(1700, 1700 + gap))
    assert in_window_edge_mask(c, gap).tolist() == [True]
    assert in_window_edge_mask(c, gap - 1).tolist() == [False]
