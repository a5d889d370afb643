import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from conftest import corpus_digest
from citeconc import synthgen
from citeconc.concentration import gini
from citeconc.synthgen import GenParams, geometric_schedule, linear_schedule


def base_params(**overrides):
    defaults = dict(
        span=(1990, 1999),
        articles_per_year=tuple([200] * 10),
        refs_per_article=tuple([5.0] * 10),
        attachment_constant=2.0,
        recency_halflife=3.0,
        self_citation_rate=0.1,
        seed=7,
    )
    defaults.update(overrides)
    return GenParams(**defaults)


def test_linear_schedule():
    assert linear_schedule(0, 10, 6) == (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)
    assert linear_schedule(5, 5, 1) == (5.0,)


def test_geometric_schedule():
    s = geometric_schedule(1, 8, 4)
    assert s == pytest.approx((1.0, 2.0, 4.0, 8.0))
    assert geometric_schedule(3, 9, 1) == (3.0,)


def test_params_validation():
    with pytest.raises(ValueError, match="one entry per span year"):
        base_params(articles_per_year=(100,) * 9)
    with pytest.raises(ValueError, match="non-negative"):
        base_params(refs_per_article=(-1.0,) + (5.0,) * 9)
    with pytest.raises(ValueError, match="sum to 1"):
        base_params(field_mix=(("F", 0.5), ("G", 0.4)))
    with pytest.raises(ValueError, match="sum to 1"):
        base_params(region_mix=(("R", 0.5, 1.0), ("S", 0.5, 0.5)))


def first_distinct_reference(draws, quota):
    """Per row, flag the first `quota` distinct values in draw order."""
    keep = []
    for row, q in zip(draws, quota):
        seen = set()
        flags = []
        for v in row:
            flags.append(len(seen) < q and v not in seen)
            if flags[-1]:
                seen.add(v)
        keep.append(flags)
    return keep


@st.composite
def draw_rows(draw):
    n_cols = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(st.integers(0, 4), min_size=n_cols, max_size=n_cols), max_size=6))
    quota = draw(st.lists(st.integers(0, n_cols + 2), min_size=len(rows), max_size=len(rows)))
    return rows, quota


@settings(max_examples=300, deadline=None)
@given(draw_rows())
@example(([[3, 3, 3, 3]], [2]))              # one repeated value
@example(([[1, 2, 1, 0]], [0]))              # quota 0
@example(([[1, 2, 1, 2, 1]], [5]))           # quota above the number of distinct values
@example(([[4], [0], [4]], [1, 0, 3]))       # one column
@example(([[1, 1, 1, 1, 2, 1]], [2]))        # one distinct value in the first quota + 2 columns, two in the row
def test_first_distinct_matches_reference(case):
    rows, quota = case
    n_cols = len(rows[0]) if rows else 1
    draws = np.asarray(rows, dtype=np.int64).reshape(len(rows), n_cols)
    expected = first_distinct_reference(rows, quota)
    quota = np.asarray(quota, dtype=np.int64)
    keep = synthgen._first_distinct(np.repeat(np.arange(len(rows)), n_cols), draws.ravel(), quota)
    assert keep.tolist() == [flag for flags in expected for flag in flags]
    # The same values as uniforms in the cdf bins 0..4, looked up in two passes: the first quota + 2
    # columns of each row, then the rest of the rows those leave short.
    row, value = synthgen._kept_draws((draws + 0.5) / 5, quota, np.arange(1, 6) / 5)
    assert list(zip(row.tolist(), value.tolist())) == [
        (i, v) for i, (r, flags) in enumerate(zip(rows, expected)) for v, flag in zip(r, flags) if flag]


def short_rows(exponent=1.0):
    """A small config that leaves rows short of distinct articles after all their draws, so it runs the
    per-row redraw loop; the steeper the attachment, the more draws a row takes to find a new article."""
    return GenParams(span=(1990, 1995), articles_per_year=(4, 30, 60, 60, 60, 60), refs_per_article=(6.0,) * 6,
                     attachment_constant=0.1, attachment_exponent=exponent, self_citation_rate=0.2)


# Digests of the generator's corpora, pinned so that a change to the draws fails here. At exponent 2,
# short_rows' redraws read about 1.4M words of the stream before their rows are full.
PINNED = [
    (lambda: synthgen.scenario("stationary"), "03b3f2ed1a626ddba316f8cc0fe9183934fb94f1fbcb33ff0e61b85b35ad7c78"),
    (lambda: synthgen.scenario("declining-uncitedness"),
     "443eea519cd0c202da55f101b6c04f25e19b15a95c6f965117874b92b6a1298e"),
    (lambda: synthgen.scenario("region-shift"), "dc08bc8684a1c68ba2bf98dbcfe581ae1b4663734770618b50917de4b50644c5"),
    (base_params, "31e100ddb38082df4c4b0df9fc009a68f9315b5e8df221d7aac7ea035fdad1d6"),
    (short_rows, "062d80ecaecc113bee4ca27814b599c74cba292d781c734c05a0176850c741be"),
    (lambda: short_rows(2.0), "f2d5f344b73f1a5a578a254e912001e9aa6cc8b3665014cf0cf1dc6755c54164"),
]


@pytest.mark.parametrize("params, digest", PINNED, ids=["stationary", "declining-uncitedness", "region-shift",
                                                        "base_params", "short_rows", "short_rows_exponent_2"])
def test_generated_corpora_pinned(params, digest):
    assert corpus_digest(synthgen.generate(params())) == digest


class RecordingGenerator(np.random.Generator):
    """The generator ``default_rng`` gives, which keeps every array of Poisson draws."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.poisson_draws = []

    def poisson(self, *args, **kwargs):
        self.poisson_draws.append(super().poisson(*args, **kwargs))
        return self.poisson_draws[-1]


def test_steep_attachment_fills_every_row_quickly(monkeypatch):
    # At exponent 3 the short rows read hundreds of millions of words of the stream before they find their
    # new articles: looked up one at a time, those took over 60 s.
    made = []

    def default_rng(seed):
        made.append(RecordingGenerator(seed))
        return made[-1]

    monkeypatch.setattr(synthgen.np.random, "default_rng", default_rng)
    t0 = time.perf_counter()
    c = synthgen.generate(short_rows(3.0))
    assert time.perf_counter() - t0 < 30.0
    requested = np.concatenate(made[0].poisson_draws)  # one array per year, in article order
    n_prior = np.searchsorted(c.pub_year, c.pub_year)  # articles published before each one's year
    assert c.drops["clamped_refs"] == int((requested - np.minimum(requested, n_prior)).sum())
    assert (c.cited < n_prior[c.citing]).all()
    assert len(set(zip(c.citing.tolist(), c.cited.tolist()))) == c.n_edges  # distinct cited articles
    assert np.bincount(c.citing, minlength=c.n_articles).tolist() == np.minimum(requested, n_prior).tolist()


def test_same_seed_identical_corpora():
    a = synthgen.generate(base_params())
    b = synthgen.generate(base_params())
    assert list(a.ids) == list(b.ids)
    assert np.array_equal(a.pub_year, b.pub_year)
    assert np.array_equal(a.field_code, b.field_code)
    assert np.array_equal(a.region_code, b.region_code)
    assert np.array_equal(a.citing, b.citing)
    assert np.array_equal(a.cited, b.cited)
    assert np.array_equal(a.author_ptr, b.author_ptr)
    assert np.array_equal(a.author_code, b.author_code)
    assert a.authors == b.authors
    assert a.drops == b.drops


def test_different_seed_differs():
    a = synthgen.generate(base_params(seed=7))
    b = synthgen.generate(base_params(seed=8))
    assert not (np.array_equal(a.citing, b.citing) and np.array_equal(a.cited, b.cited))


def test_structural_invariants():
    c = synthgen.generate(base_params())
    # strictly backward in time: no self-loops, no same-year or future citations
    assert (c.citing_year > c.cited_year).all()
    # no duplicate references within an article
    pairs = c.citing.astype(np.int64) * c.n_articles + c.cited
    assert len(np.unique(pairs)) == c.n_edges
    assert c.drops["clamped_refs"] > 0  # first-year articles have nothing to cite
    assert (np.diff(c.author_ptr) >= 1).all()


def test_edge_years_within_span():
    c = synthgen.generate(base_params())
    assert c.citing_year.min() >= c.span[0] and c.citing_year.max() <= c.span[1]
    assert c.cited_year.min() >= c.span[0]


def test_self_citations_present_only_when_enabled():
    with_self = synthgen.generate(base_params(self_citation_rate=0.2))
    assert with_self.self_edge.sum() > 0
    without = synthgen.generate(base_params(self_citation_rate=0.0, author_pool_scale=10.0,
                                            authors_min=1, authors_max=1))
    # huge author pool + no injection: chance collisions only
    assert without.self_edge.mean() < 0.01
    assert with_self.self_edge.mean() > 10 * without.self_edge.mean()


def test_self_edges_match_oracle_with_fifty_authors():
    c = synthgen.generate(base_params(span=(1995, 1999), articles_per_year=(60,) * 5,
                                      refs_per_article=(4.0,) * 5, authors_min=0, authors_max=50,
                                      author_pool_scale=20.0, self_citation_rate=0.3, seed=3))
    n_auth = np.diff(c.author_ptr)
    assert n_auth.min() == 0 and n_auth.max() >= 50
    # codes ascend within each article, in the order of the author names
    for i in range(c.n_articles):
        names = [c.authors[k] for k in c.author_code[c.author_ptr[i]:c.author_ptr[i + 1]]]
        assert names == sorted(set(names))
    t = oracle.read(c)
    expected = [oracle.is_self_citation(t, src, dst) for src, dst in t.edges]
    assert c.self_edge.tolist() == expected
    assert 0 < sum(expected) < c.n_edges


def test_preferential_attachment_concentrates_citations():
    common = dict(
        span=(1990, 2001),
        articles_per_year=tuple([300] * 12),
        refs_per_article=tuple([6.0] * 12),
        recency_halflife=None,
        self_citation_rate=0.0,
        seed=21,
    )
    pa = synthgen.generate(GenParams(attachment_constant=0.1, attachment_exponent=1.0, **common))
    uniform = synthgen.generate(GenParams(attachment_constant=1.0, attachment_exponent=0.0, **common))

    def indeg_gini(c):
        mask = (c.citing_year - c.cited_year >= 1) & (c.citing_year - c.cited_year <= 5)
        deg = np.bincount(c.cited[mask], minlength=c.n_articles)
        cohort = np.flatnonzero(c.pub_year <= c.span[1] - 5)
        return gini(deg[cohort])

    assert indeg_gini(pa) > indeg_gini(uniform) + 0.05


def test_mix_frequencies_converge():
    params = base_params(
        span=(1995, 1999),
        articles_per_year=tuple([4000] * 5),
        refs_per_article=tuple([2.0] * 5),
        field_mix=(("A", 0.6), ("B", 0.3), ("C", 0.1)),
        seed=13,
    )
    c = synthgen.generate(params)
    n = c.n_articles
    for code, (label, p) in enumerate(params.field_mix):
        observed = (c.field_code == code).mean()
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(observed - p) < 3 * sigma + 1e-12, label


def test_region_mix_drift_linear():
    params = base_params(
        span=(1990, 1999),
        articles_per_year=tuple([5000] * 10),
        refs_per_article=tuple([1.0] * 10),
        region_mix=(("Up", 0.1, 0.5), ("Down", 0.9, 0.5)),
        seed=4,
    )
    c = synthgen.generate(params)
    first = c.region_code[c.pub_year == 1990]
    last = c.region_code[c.pub_year == 1999]
    assert abs((first == 0).mean() - 0.1) < 0.02
    assert abs((last == 0).mean() - 0.5) < 0.03


def test_round_trip_through_tables(tmp_path):
    from citeconc.corpus import load_corpus_files, write_tables

    c = synthgen.generate(base_params(span=(1995, 1998),
                                      articles_per_year=(80, 80, 80, 80),
                                      refs_per_article=(3.0,) * 4))
    write_tables(c, tmp_path / "articles.tsv", tmp_path / "edges.tsv")
    back = load_corpus_files(tmp_path / "articles.tsv", tmp_path / "edges.tsv", span=c.span)
    assert back.n_articles == c.n_articles
    assert back.n_edges == c.n_edges
    assert sum(back.drops.values()) == 0
    assert Counter(back.citing_year.tolist()) == Counter(c.citing_year.tolist())
    assert int(back.self_edge.sum()) == int(c.self_edge.sum())


def test_scenario_presets_exist():
    for name in synthgen.SCENARIOS:
        params = synthgen.scenario(name)
        assert isinstance(params, GenParams)
    with pytest.raises(ValueError, match="unknown scenario"):
        synthgen.scenario("nonsense")


def test_scenario_seed_override():
    assert synthgen.scenario("stationary", seed=123).seed == 123
    default = synthgen.scenario("stationary").seed
    assert default != 123


def test_stationary_scenario_flat_uncitedness():
    from citeconc.studies import StudyConfig, uncited_share_series
    from citeconc.windows import WindowSpec

    c = synthgen.generate(synthgen.scenario("stationary"))
    rows = uncited_share_series(c, StudyConfig(window=WindowSpec("forward", 5))).rows
    # skip the burn-in third of the span, then the share should stay in a band
    settled = [r["uncited_share"] for r in rows[len(rows) // 3:]]
    assert max(settled) - min(settled) < 0.08
