"""Metamorphic checks on the `region-shift` scenario: identities between series
that a battery reduces from shared score tables. They need no oracle, so they
run at a scale the per-article oracle cannot reach."""

import pytest

from citeconc import synthgen
from citeconc.studies import StudyConfig, StudySpec, run_studies
from citeconc.windows import WindowSpec

APPROACHES = (("citation_based", "forward"), ("reference_based", "backward"))


@pytest.fixture(scope="module")
def corpus():
    return synthgen.generate(synthgen.scenario("region-shift"))


def battery(corpus, specs):
    return [rep for reports in run_studies(corpus, specs) for rep in reports]


def test_gini_with_uncited_is_the_uncited_share_plus_the_rest_times_the_gini_without(corpus):
    # G_incl = u + (1 - u) * G_excl with u = zero_count / n: the decomposition behind a
    # decline in concentration that is driven by fewer uncited articles.
    specs = [StudySpec(None, "gini", StudyConfig(window=WindowSpec(direction, length), approach=approach,
                                                 include_uncited=include, exclude_self_citations=excl))
             for approach, direction in APPROACHES for length in (2, 5) for excl in (False, True)
             for include in (True, False)]
    reports = battery(corpus, specs)
    checked = 0
    for with_uncited, without in zip(reports[::2], reports[1::2]):
        for a, b in zip(with_uncited.rows, without.rows, strict=True):
            assert (a["year"], a["n"], a["zero_count"]) == (b["year"], b["n"], b["zero_count"])
            if a["gini"] is None or b["gini"] is None:
                continue
            u = a["zero_count"] / a["n"]
            assert a["gini"] == pytest.approx(u + (1 - u) * b["gini"], rel=0, abs=1e-12), (with_uncited.study_id, a)
            checked += 1
    assert checked >= 200


@pytest.mark.parametrize("approach,direction", APPROACHES)
def test_gini_by_field_rows_are_the_field_filtered_gini_rows(corpus, approach, direction):
    cfg = StudyConfig(window=WindowSpec(direction, 5), approach=approach)
    specs = [StudySpec("by_field", "gini_by_field", cfg)]
    specs += [StudySpec(f"only_{f}", "gini", StudyConfig(window=cfg.window, approach=approach, field_filter=f))
              for f in sorted(corpus.fields)]
    reports = battery(corpus, specs)
    split, direct = reports[:len(corpus.fields)], reports[len(corpus.fields):]
    assert [rep.study_id for rep in split] == [f"by_field_{f}" for f in sorted(corpus.fields)]
    for a, b in zip(split, direct, strict=True):
        assert a.config == b.config
        assert a.rows == b.rows and any(r["gini"] is not None for r in a.rows)


def test_removing_a_region_with_no_articles_changes_no_uncited_share(corpus):
    # The subset keeps "Africa" in the vocabulary but none of its articles.
    without = corpus.subset(corpus.region_code != corpus.regions.index("Africa"))
    assert "Africa" in without.regions and without.n_articles < corpus.n_articles
    for length in (2, 5):
        for excl in (False, True):
            cfg = StudyConfig(window=WindowSpec("forward", length), exclude_self_citations=excl)
            removal, uncited = battery(without, [StudySpec(None, "region_removal", StudyConfig(
                window=cfg.window, exclude_self_citations=excl, region_removed="Africa")),
                StudySpec(None, "uncited", cfg)])
            assert [r["year"] for r in removal.rows] == [r["year"] for r in uncited.rows]
            for r, u in zip(removal.rows, uncited.rows):
                assert r["removed_share"] == r["baseline_share"] == u["uncited_share"]
                assert r["relative_change"] in (0.0, None)
            assert any(r["relative_change"] == 0.0 for r in removal.rows)

