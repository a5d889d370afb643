"""Named analyses over a corpus: per-year Gini series for the forward and
backward approaches, uncitedness series, region-removal counterfactuals,
regional tail shares, and top-x% share series.

Every series emits one row per candidate year; years that cannot be scored get
a null metric and a reason code instead of being dropped, so emitted series
stay aligned for plotting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from citeconc import concentration
from citeconc.corpus import Corpus, filter_core_journals
from citeconc.normalize import (
    NormalizeOptions,
    field_mean_reference_table,
    nics_array,
)
from citeconc.windows import (
    BACKWARD,
    FORWARD,
    WindowSpec,
    eligible_pub_years_forward,
    in_window_edge_mask,
)

CITATION_BASED = "citation_based"
REFERENCE_BASED = "reference_based"

REASON_EMPTY = "empty_cohort"
REASON_ZERO_TOTAL = "zero_total"
REASON_ZERO_BASELINE = "zero_baseline"


@dataclass(frozen=True)
class StudyConfig:
    window: WindowSpec
    approach: str = CITATION_BASED
    include_uncited: bool = True
    exclude_self_citations: bool = False
    core_only: bool = False
    normalized: bool = True
    field_filter: str | None = None
    region_removed: str | None = None
    drop_earliest_population: bool = False
    mics_per_year: bool = False
    rho_scope: str = "study"

    def __post_init__(self):
        if self.approach not in (CITATION_BASED, REFERENCE_BASED):
            raise ValueError(f"unknown approach {self.approach!r}")
        want = FORWARD if self.approach == CITATION_BASED else BACKWARD
        if self.window.direction != want:
            raise ValueError(f"{self.approach} requires a {want} window")

    def flags(self) -> str:
        bits = [
            "u" if self.include_uncited else "x",
            "s" if self.exclude_self_citations else "",
            "c" if self.core_only else "",
            "n" if self.normalized else "r",
        ]
        return "".join(bits)

    def echo(self) -> dict[str, Any]:
        return {
            "approach": self.approach,
            "window.direction": self.window.direction,
            "window.length": self.window.length,
            "include_uncited": self.include_uncited,
            "exclude_self_citations": self.exclude_self_citations,
            "core_only": self.core_only,
            "normalized": self.normalized,
            "field_filter": self.field_filter,
            "region_removed": self.region_removed,
            "drop_earliest_population": self.drop_earliest_population,
            "mics_per_year": self.mics_per_year,
            "rho_scope": self.rho_scope,
        }


@dataclass
class SeriesReport:
    study_id: str
    config: dict[str, Any]
    columns: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)

    def column(self, name: str) -> list[Any]:
        return [r.get(name) for r in self.rows]


def _prepare(corpus: Corpus, cfg: StudyConfig) -> Corpus:
    work = corpus
    if cfg.core_only:
        work = filter_core_journals(work)
    if cfg.region_removed is not None:
        work = _remove_region(work, cfg.region_removed)
    return work


def _remove_region(corpus: Corpus, region: str) -> Corpus:
    if region not in corpus.regions:
        raise ValueError(f"unknown region {region!r}")
    rcode = corpus.regions.index(region)
    residual = corpus.subset(corpus.region_code != rcode)
    if residual.n_articles == 0:
        raise ValueError("empty residual corpus")
    return residual


def _norm_options(cfg: StudyConfig) -> NormalizeOptions:
    return NormalizeOptions(
        exclude_self=cfg.exclude_self_citations,
        mics_per_year=cfg.mics_per_year,
        rho_scope=cfg.rho_scope,
    )


def _cohort_masks(corpus: Corpus, cfg: StudyConfig) -> np.ndarray:
    mask = np.ones(corpus.n_articles, dtype=bool)
    if cfg.field_filter is not None:
        if cfg.field_filter not in corpus.fields:
            raise ValueError(f"unknown field {cfg.field_filter!r}")
        mask &= corpus.field_code == corpus.fields.index(cfg.field_filter)
    return mask


def _raw_in_window_counts(corpus: Corpus, length: int, exclude_self: bool) -> np.ndarray:
    mask = in_window_edge_mask(corpus, length, exclude_self)
    return np.bincount(corpus.cited[mask], minlength=corpus.n_articles)


def _gini_row(year: int, scores: np.ndarray, raw: np.ndarray, include_uncited: bool) -> dict[str, Any]:
    row: dict[str, Any] = {
        "year": year,
        "n": int(len(scores)),
        "zero_count": int(np.count_nonzero(scores == 0)),
        "gini": None,
        "mean_raw_citations": None,
        "reason": None,
    }
    if len(scores) == 0:
        row["reason"] = REASON_EMPTY
        return row
    row["mean_raw_citations"] = float(raw.mean())
    included = scores if include_uncited else scores[scores > 0]
    if len(included) == 0 or included.sum() <= 0:
        row["reason"] = REASON_ZERO_TOTAL
        return row
    row["gini"] = concentration.gini(concentration.Distribution(included))
    return row


def backward_reference_years(corpus: Corpus, cfg: StudyConfig) -> list[int]:
    start, end = corpus.span
    first = start + cfg.window.length
    if cfg.drop_earliest_population:
        first += 1
    return list(range(first, end + 1))


def _reference_scores(corpus: Corpus, cfg: StudyConfig):
    """Per-reference-year normalized and raw incoming counts for the backward study.

    Returns (years, score_fn) where score_fn(year) -> (scores, raw) arrays over
    that year's cited population indices.
    """
    length = cfg.window.length
    excl = cfg.exclude_self_citations
    mask = in_window_edge_mask(corpus, length, exclude_self=excl)
    eidx = np.flatnonzero(mask)
    ey = corpus.citing_year[eidx]
    order = np.argsort(ey, kind="stable")
    eidx = eidx[order]
    ey = ey[order]
    mref = field_mean_reference_table(corpus, length, exclude_self=excl)
    start = corpus.span[0]
    wts = None
    if cfg.normalized:
        denom = mref[corpus.field_code[corpus.citing[eidx]], corpus.citing_year[eidx] - start]
        wts = 1.0 / denom

    art_by_year = {
        y: np.flatnonzero((corpus.pub_year == y) & _cohort_masks(corpus, cfg))
        for y in range(corpus.span[0], corpus.span[1] + 1)
    }

    def score_fn(year: int):
        pop = np.concatenate([art_by_year[y] for y in range(year - length, year)])
        lo, hi = np.searchsorted(ey, np.array([year, year + 1], dtype=ey.dtype))
        sel = eidx[lo:hi]
        raw = np.bincount(corpus.cited[sel], minlength=corpus.n_articles)[pop]
        if cfg.normalized:
            scores = np.bincount(corpus.cited[sel], weights=wts[lo:hi], minlength=corpus.n_articles)[pop]
        else:
            scores = raw.astype(np.float64)
        return scores, raw

    return backward_reference_years(corpus, cfg), score_fn


def gini_series(corpus: Corpus, cfg: StudyConfig, study_id: str | None = None) -> SeriesReport:
    """Per-year Gini of the configured score distribution."""
    work = _prepare(corpus, cfg)
    sid = study_id or f"gini_{cfg.approach}_w{cfg.window.length}_{cfg.flags()}"
    report = SeriesReport(
        study_id=sid,
        config=cfg.echo(),
        columns=["year", "n", "zero_count", "gini", "mean_raw_citations", "reason"],
    )
    if cfg.approach == CITATION_BASED:
        years = eligible_pub_years_forward(work.span, cfg.window)
        cohort_mask = _cohort_masks(work, cfg)
        raw = _raw_in_window_counts(work, cfg.window.length, cfg.exclude_self_citations)
        pooled = cohort_mask & np.isin(work.pub_year, list(years))
        pooled_idx = np.flatnonzero(pooled)
        if cfg.normalized and len(pooled_idx):
            scores_pooled = nics_array(work, pooled_idx, cfg.window, _norm_options(cfg))
            scores = np.zeros(work.n_articles)
            scores[pooled_idx] = scores_pooled
        else:
            scores = raw.astype(np.float64)
        for y in years:
            members = np.flatnonzero(pooled & (work.pub_year == y))
            report.rows.append(_gini_row(y, scores[members], raw[members], cfg.include_uncited))
    else:
        years, score_fn = _reference_scores(work, cfg)
        for y in years:
            scores, raw = score_fn(y)
            report.rows.append(_gini_row(y, scores, raw, cfg.include_uncited))
    return report


def end_to_end_change(report: SeriesReport) -> float:
    """Metric difference between the last and first non-null years of a series."""
    vals = [r["gini"] for r in report.rows if r.get("gini") is not None]
    if len(vals) < 2:
        raise ValueError("need at least 2 non-null rows")
    return float(vals[-1] - vals[0])


def uncited_share_series(
    corpus: Corpus,
    window: WindowSpec,
    exclude_self: bool = False,
    core_only: bool = False,
    study_id: str | None = None,
) -> SeriesReport:
    """Fraction of each publication-year cohort with zero in-window citations."""
    if window.direction != FORWARD:
        raise ValueError("forward window required")
    work = filter_core_journals(corpus) if core_only else corpus
    sid = study_id or f"uncited_citation_based_w{window.length}_{'s' if exclude_self else ''}{'c' if core_only else ''}"
    report = SeriesReport(
        study_id=sid,
        config={"window.length": window.length, "exclude_self": exclude_self, "core_only": core_only},
        columns=["year", "n", "zero_count", "uncited_share", "mean_raw_citations", "reason"],
    )
    raw = _raw_in_window_counts(work, window.length, exclude_self)
    for y in eligible_pub_years_forward(work.span, window):
        members = np.flatnonzero(work.pub_year == y)
        row: dict[str, Any] = {
            "year": y,
            "n": int(len(members)),
            "zero_count": int(np.count_nonzero(raw[members] == 0)),
            "uncited_share": None,
            "mean_raw_citations": None,
            "reason": None,
        }
        if len(members) == 0:
            row["reason"] = REASON_EMPTY
        else:
            row["uncited_share"] = float(np.count_nonzero(raw[members] == 0) / len(members))
            row["mean_raw_citations"] = float(raw[members].mean())
        report.rows.append(row)
    return report


def region_removal_uncitedness(
    corpus: Corpus,
    region: str,
    window: WindowSpec,
    exclude_self: bool = False,
    study_id: str | None = None,
) -> SeriesReport:
    """Relative change in per-year uncited share when a region's articles and
    all their outgoing references are removed from the corpus."""
    residual = _remove_region(corpus, region)
    base = uncited_share_series(corpus, window, exclude_self=exclude_self)
    removed = uncited_share_series(residual, window, exclude_self=exclude_self)
    removed_by_year = {r["year"]: r for r in removed.rows}
    sid = study_id or f"region_removal_{region}_w{window.length}"
    report = SeriesReport(
        study_id=sid,
        config={"region": region, "window.length": window.length, "exclude_self": exclude_self},
        columns=["year", "baseline_share", "removed_share", "relative_change", "reason"],
    )
    for b in base.rows:
        r = removed_by_year.get(b["year"])
        row: dict[str, Any] = {
            "year": b["year"],
            "baseline_share": b["uncited_share"],
            "removed_share": r["uncited_share"] if r else None,
            "relative_change": None,
            "reason": None,
        }
        if b["reason"] or r is None or r["reason"]:
            row["reason"] = b["reason"] or (r["reason"] if r else REASON_EMPTY)
        elif b["uncited_share"] == 0:
            row["reason"] = REASON_ZERO_BASELINE
        else:
            row["relative_change"] = (r["uncited_share"] - b["uncited_share"]) / b["uncited_share"]
        report.rows.append(row)
    return report


def region_tail_shares(
    corpus: Corpus,
    window: WindowSpec,
    exclude_self: bool = True,
    top_pct: float = 0.01,
    citing_level: str = "edge",
    study_id: str | None = None,
) -> SeriesReport:
    """Per-year regional shares at the tails of the citation distribution.

    cited_low / cited_top: the region's share of single-cited articles and of
    the top-pct articles by normalized score. citing_low / citing_top: the
    region's share of the citations that go to those two groups ("edge" level)
    or of the distinct articles providing them ("article" level).
    """
    if window.direction != FORWARD:
        raise ValueError("forward window required")
    if citing_level not in ("edge", "article"):
        raise ValueError("citing_level must be 'edge' or 'article'")
    sid = study_id or f"region_tails_w{window.length}"
    report = SeriesReport(
        study_id=sid,
        config={"window.length": window.length, "exclude_self": exclude_self,
                "top_pct": top_pct, "citing_level": citing_level},
        columns=["year", "region", "cited_low", "cited_top", "citing_low", "citing_top", "reason"],
    )
    years = eligible_pub_years_forward(corpus.span, window)
    raw = _raw_in_window_counts(corpus, window.length, exclude_self)
    pooled_idx = np.flatnonzero(np.isin(corpus.pub_year, list(years)))
    scores = np.zeros(corpus.n_articles)
    if len(pooled_idx):
        scores[pooled_idx] = nics_array(
            corpus, pooled_idx, WindowSpec(FORWARD, window.length),
            NormalizeOptions(exclude_self=exclude_self),
        )
    ids_arr = np.asarray(corpus.ids)
    emask = in_window_edge_mask(corpus, window.length, exclude_self)
    eidx = np.flatnonzero(emask)
    ecited_year = corpus.cited_year[eidx]
    order = np.argsort(ecited_year, kind="stable")
    eidx = eidx[order]
    ecited_year = ecited_year[order]
    nreg = len(corpus.regions)

    def shares(article_idx: np.ndarray) -> np.ndarray | None:
        if len(article_idx) == 0:
            return None
        counts = np.bincount(corpus.region_code[article_idx], minlength=nreg)
        return counts / counts.sum()

    for y in years:
        cohort = np.flatnonzero(corpus.pub_year == y)
        if len(cohort) == 0:
            for region in corpus.regions:
                report.rows.append({"year": y, "region": region, "cited_low": None,
                                    "cited_top": None, "citing_low": None,
                                    "citing_top": None, "reason": REASON_EMPTY})
            continue
        single = cohort[raw[cohort] == 1]
        k = math.ceil(top_pct * len(cohort))
        order_c = np.lexsort((ids_arr[cohort], -scores[cohort]))
        top = cohort[order_c[:k]]
        cited_low = shares(single)
        cited_top = shares(top)

        lo, hi = np.searchsorted(ecited_year, np.array([y, y + 1], dtype=ecited_year.dtype))
        year_edges = eidx[lo:hi]
        in_single = np.zeros(corpus.n_articles, dtype=bool)
        in_single[single] = True
        in_top = np.zeros(corpus.n_articles, dtype=bool)
        in_top[top] = True
        low_edges = year_edges[in_single[corpus.cited[year_edges]]]
        top_edges = year_edges[in_top[corpus.cited[year_edges]]]
        if citing_level == "edge":
            citing_low = shares(corpus.citing[low_edges])
            citing_top = shares(corpus.citing[top_edges])
        else:
            citing_low = shares(np.unique(corpus.citing[low_edges]))
            citing_top = shares(np.unique(corpus.citing[top_edges]))

        for rcode, region in enumerate(corpus.regions):
            row: dict[str, Any] = {
                "year": y,
                "region": region,
                "cited_low": float(cited_low[rcode]) if cited_low is not None else None,
                "cited_top": float(cited_top[rcode]) if cited_top is not None else None,
                "citing_low": float(citing_low[rcode]) if citing_low is not None else None,
                "citing_top": float(citing_top[rcode]) if citing_top is not None else None,
                "reason": "no_single_cited" if cited_low is None else None,
            }
            report.rows.append(row)
    return report


def top_share_series(
    corpus: Corpus,
    window: WindowSpec,
    pcts: list[float],
    exclude_self: bool = False,
    study_id: str | None = None,
) -> SeriesReport:
    """Per-year share of raw in-window citations held by the top-x% articles."""
    if window.direction != FORWARD:
        raise ValueError("forward window required")
    pct_cols = [f"top_{p:g}" for p in pcts]
    sid = study_id or f"top_shares_w{window.length}"
    report = SeriesReport(
        study_id=sid,
        config={"window.length": window.length, "pcts": list(pcts), "exclude_self": exclude_self},
        columns=["year", "n", "zero_count"] + pct_cols + ["mean_raw_citations", "reason"],
    )
    raw = _raw_in_window_counts(corpus, window.length, exclude_self)
    for y in eligible_pub_years_forward(corpus.span, window):
        members = np.flatnonzero(corpus.pub_year == y)
        vals = raw[members].astype(np.float64)
        row: dict[str, Any] = {
            "year": y,
            "n": int(len(members)),
            "zero_count": int(np.count_nonzero(vals == 0)),
            "mean_raw_citations": float(vals.mean()) if len(vals) else None,
            "reason": None,
        }
        if len(vals) == 0:
            row["reason"] = REASON_EMPTY
            for c in pct_cols:
                row[c] = None
        elif vals.sum() == 0:
            row["reason"] = REASON_ZERO_TOTAL
            for c in pct_cols:
                row[c] = None
        else:
            d = concentration.Distribution(vals)
            for c, p in zip(pct_cols, pcts):
                row[c] = concentration.top_share(d, p)
        report.rows.append(row)
    return report


def gini_by_field(corpus: Corpus, cfg: StudyConfig) -> dict[str, SeriesReport]:
    """gini_series restricted to each field present in the corpus."""
    present = sorted({corpus.fields[c] for c in np.unique(corpus.field_code)}) if corpus.n_articles else []
    out = {}
    for f in present:
        fcfg = replace(cfg, field_filter=f)
        out[f] = gini_series(corpus, fcfg, study_id=f"gini_field_{f}_{cfg.approach}_w{cfg.window.length}_{cfg.flags()}")
    return out
