"""End-to-end acceptance battery.

Each test prints one `criterion N (...): PASS|FAIL` line (visible with
`pytest -s` or in captured output on failure). Run the whole battery with:

    python3 -m pytest tests/test_acceptance.py -v -s
"""

import functools
import json
import resource
import time

import numpy as np
import pytest

from citeconc import synthgen
from citeconc.cli import main as cli_main
from citeconc.concentration import gini, top_share
from citeconc.normalize import nics_array
from citeconc.studies import (
    StudyConfig,
    StudySpec,
    gini_series,
    region_removal_uncitedness,
    run_studies,
    uncited_share_series,
)
from citeconc.windows import (
    WindowSpec,
    cited_population_backward,
    eligible_pub_years_forward,
    in_window_edge_mask,
)
from conftest import corpus_digest, make_corpus
from oracle import end_to_end_change

_timings: dict[str, float] = {}


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} ({label}): FAIL")
                raise
            print(f"criterion {num} ({label}): PASS")
        return wrapper
    return deco


@pytest.fixture(scope="module")
def declining_corpus():
    t0 = time.perf_counter()
    corpus = synthgen.generate(synthgen.scenario("declining-uncitedness"))
    _timings["declining_gen"] = time.perf_counter() - t0
    return corpus


@pytest.fixture(scope="module")
def region_shift_corpus():
    return synthgen.generate(synthgen.scenario("region-shift"))


@criterion(1, "Gini matches pairwise oracle on 1000 random vectors")
def test_c1_gini_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        x = rng.exponential(scale=5.0, size=n)
        x[rng.random(n) < 0.25] = 0.0
        if x.sum() == 0:
            x[0] = 1.0
        pairwise = float(np.abs(x[:, None] - x[None, :]).sum() / (2 * n * n * x.mean()))
        assert gini(x) == pytest.approx(pairwise, abs=1e-12)
    assert time.perf_counter() - t0 < 5.0


@criterion(2, "analytic Gini anchors")
def test_c2_gini_anchors():
    assert gini([1, 1, 1, 1]) == 0.0
    assert gini([0, 0, 0, 1]) == 0.75


@criterion(3, "per-field mean normalized score is 1")
def test_c3_field_mean_is_one():
    params = synthgen.GenParams(
        span=(1985, 2004),
        articles_per_year=tuple([1000] * 20),
        refs_per_article=tuple([6.0] * 20),
        field_mix=(("F0", 0.4), ("F1", 0.25), ("F2", 0.2), ("F3", 0.1), ("F4", 0.05)),
        attachment_constant=2.0,
        recency_halflife=4.0,
        self_citation_rate=0.05,
        seed=31,
    )
    corpus = synthgen.generate(params)
    assert corpus.n_articles >= 10_000
    for length in (2, 5):
        w = WindowSpec("forward", length)
        years = list(eligible_pub_years_forward(corpus.span, w))
        idx = np.flatnonzero(np.isin(corpus.pub_year, years))
        mask = in_window_edge_mask(corpus, w.length)
        scores = nics_array(corpus, idx, mask, exclude_self=False, mics_per_year=False, rho_scope="study")
        for code in range(len(corpus.fields)):
            members = scores[corpus.field_code[idx] == code]
            if len(members) and members.sum() > 0:
                assert abs(members.mean() - 1.0) < 1e-9


@criterion(4, "including uncited strictly raises cohort Gini")
def test_c4_zero_padding_monotone(declining_corpus):
    checked = 0
    for approach in ("citation_based", "reference_based"):
        direction = "forward" if approach == "citation_based" else "backward"
        for length in (2, 5, 10):
            inc = gini_series(declining_corpus, StudyConfig(
                window=WindowSpec(direction, length), approach=approach, include_uncited=True)).rows
            exc = gini_series(declining_corpus, StudyConfig(
                window=WindowSpec(direction, length), approach=approach, include_uncited=False)).rows
            for ri, re_ in zip(inc, exc):
                if ri["gini"] is None or re_["gini"] is None:
                    continue
                if ri["zero_count"] > 0:
                    assert ri["gini"] > re_["gini"]
                    checked += 1
    assert checked >= 50


@criterion(5, "four-approach divergence on the declining-uncitedness scenario")
def test_c5_four_approach_divergence(declining_corpus):
    corpus = declining_corpus
    assert corpus.span[1] - corpus.span[0] + 1 >= 30
    assert corpus.n_articles >= 100_000
    t0 = time.perf_counter()
    for length in (2, 5, 10):
        fwd = gini_series(corpus, StudyConfig(
            window=WindowSpec("forward", length), approach="citation_based", include_uncited=True))
        assert end_to_end_change(fwd.rows) < 0, f"W={length}"
        bwd = gini_series(corpus, StudyConfig(
            window=WindowSpec("backward", length), approach="reference_based", include_uncited=False))
        assert end_to_end_change(bwd.rows) > 0, f"W={length}"
    elapsed = _timings.get("declining_gen", 0.0) + (time.perf_counter() - t0)
    assert elapsed < 60.0


@criterion(6, "uncited share strictly decreasing; self-exclusion never lowers it")
def test_c6_uncitedness_monotone(declining_corpus):
    for length in (2, 5, 10):
        w = WindowSpec("forward", length)
        rows = uncited_share_series(declining_corpus, StudyConfig(window=w)).rows
        shares = [r["uncited_share"] for r in rows]
        assert all(b < a for a, b in zip(shares, shares[1:])), f"W={length}"
        noself = uncited_share_series(declining_corpus, StudyConfig(window=w, exclude_self_citations=True)).rows
        for a, b in zip(rows, noself):
            assert b["uncited_share"] >= a["uncited_share"]


@criterion(7, "removing the reference-rich rising region raises residual uncitedness")
def test_c7_region_removal(region_shift_corpus):
    rows = region_removal_uncitedness(
        region_shift_corpus, StudyConfig(window=WindowSpec("forward", 5), region_removed="Asia")).rows
    late = [r["relative_change"] for r in rows[-5:]]
    assert all(v is not None and v > 0 for v in late)

    # hand-built two-region fixture, exact
    arts = (
        "id\tpub_year\tfield\tregion\tjournal_id\tauthor_ids\n"
        "X1\t2000\tF\tRegA\tJ\ta1\n"
        "Y1\t2000\tF\tRegB\tJ\tb1\n"
        "X2\t2001\tF\tRegA\tJ\ta2\n"
        "Y2\t2001\tF\tRegB\tJ\tb2\n"
    )
    edges = "citing_id\tcited_id\nX2\tY1\n"
    c = make_corpus(arts, edges, span=(2000, 2002))
    by_year = {r["year"]: r for r in region_removal_uncitedness(
        c, StudyConfig(window=WindowSpec("forward", 1), region_removed="RegA")).rows}
    assert by_year[2000]["baseline_share"] == 0.5
    assert by_year[2000]["removed_share"] == 1.0
    assert by_year[2000]["relative_change"] == 1.0
    assert by_year[2001]["relative_change"] == 0.0


@criterion(8, "top-share matches sort-and-sum oracle")
def test_c8_top_share_oracle():
    rng = np.random.default_rng(808)
    for _ in range(1000):
        n = int(rng.integers(1, 200))
        x = rng.exponential(size=n)
        pct = float(rng.uniform(0.005, 1.0))
        k = int(np.ceil(pct * n))
        expected = float(np.sort(x)[::-1][:k].sum() / x.sum())
        assert top_share(x, pct) == pytest.approx(expected, abs=1e-12)
        assert top_share(x, 1.0) == 1.0
    # Real-corpus anchor values (top-5% share 0.34 -> 0.30, top-10% 0.50 -> 0.44
    # over four decades) come from a proprietary bibliometric database and are
    # recorded here for orientation only; they are not reproducible from
    # synthetic data and are deliberately not asserted.


@criterion(9, "window eligibility fixtures")
def test_c9_window_eligibility():
    span = (1980, 2020)
    assert list(eligible_pub_years_forward(span, WindowSpec("forward", 10))) == list(range(1980, 2011))
    assert list(eligible_pub_years_forward(span, WindowSpec("forward", 2))) == list(range(1980, 2019))
    w10 = WindowSpec("backward", 10)
    assert cited_population_backward(1989, span, w10) is None
    for y in range(1990, 2021):
        assert list(cited_population_backward(y, span, w10)) == list(range(y - 10, y))


@criterion(10, "repeated analyze runs are byte-identical")
def test_c10_analyze_determinism(tmp_path):
    outs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        cfg = tmp_path / f"{run}.conf"
        cfg.write_text(
            "corpus.scenario = stationary\n"
            "gen.span.start = 1990\ngen.span.end = 2004\n"
            "gen.articles.start = 400\ngen.articles.end = 400\n"
            "gen.refs.start = 6\ngen.refs.end = 6\n"
            "gen.seed = 77\n"
            f"output.dir = {out_dir}\n"
            "output.formats = csv,json\n"
            "studies = g u t\n"
            "g.type = gini\ng.window.length = 5\n"
            "u.type = uncited\nu.window.length = 5\n"
            "t.type = top_shares\nt.window.length = 5\n"
        )
        assert cli_main(["analyze", str(cfg)]) == 0
        outs.append(out_dir)
    a, b = outs
    names = sorted(p.name for p in a.iterdir())
    assert "manifest.json" in names
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    manifest = json.loads((a / "manifest.json").read_text())["outputs"]
    assert len(manifest) == 3


@criterion(11, "million-article battery under 120 s and 8 GB")
def test_c11_performance():
    t0 = time.perf_counter()
    params = synthgen.GenParams(
        span=(1980, 2019),
        articles_per_year=tuple([25_000] * 40),
        refs_per_article=tuple([10.5] * 40),
        attachment_constant=5.0,
        attachment_exponent=1.0,
        recency_halflife=3.0,
        self_citation_rate=0.03,
        seed=99,
    )
    corpus = synthgen.generate(params)
    assert corpus.n_articles == 1_000_000
    assert corpus.n_edges >= 9_500_000
    specs = [StudySpec(None, "gini", StudyConfig(window=WindowSpec(direction, length), approach=approach,
                                                 include_uncited=include))
             for approach, direction in (("citation_based", "forward"), ("reference_based", "backward"))
             for length in (2, 5, 10) for include in (True, False)]
    reports = [report for (report,) in run_studies(corpus, specs)]  # the battery helper `citeconc analyze` runs
    elapsed = time.perf_counter() - t0
    assert corpus_digest(corpus) == "f0ddb64f16e5a4b006570bcabc106376dc49c4782bd4ff00bb9286a8ed727083"
    for report in reports:
        assert any(r["gini"] is not None for r in report.rows)
    # G_incl = u + (1 - u) * G_excl with u = zero_count / n, on each include/exclude pair.
    checked = 0
    for with_uncited, without in zip(reports[::2], reports[1::2]):
        for a, b in zip(with_uncited.rows, without.rows, strict=True):
            assert (a["year"], a["n"], a["zero_count"]) == (b["year"], b["n"], b["zero_count"])
            if a["gini"] is None or b["gini"] is None:
                continue
            u = a["zero_count"] / a["n"]
            assert a["gini"] == pytest.approx(u + (1 - u) * b["gini"], rel=0, abs=1e-12), (with_uncited.study_id, a)
            checked += 1
    assert checked >= 100
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 / 1024
    print(f"  [battery: {elapsed:.1f} s, peak {peak_gb:.2f} GB, "
          f"{corpus.n_articles} articles, {corpus.n_edges} edges]")
    assert elapsed < 120.0
    assert peak_gb < 8.0
