"""Named analyses over a corpus: per-year Gini series for the forward and
backward approaches, uncitedness series, region-removal counterfactuals,
regional tail shares, and top-x% share series.

Every series is a reducer over one score table. `_score_table` takes a corpus
and a `StudyConfig` and yields one row per study year: the year, the indices of
its population, their raw in-window citation counts and their scores. Core
journals, region removal and the field filter are applied once, in `_prepare`;
the forward/backward fork lives only in the table. A forward row is the
publication-year cohort; a backward row is the population published in the W
years before the reference year, scored by the references made in that year.
Raw-count series (uncited, top shares, region removal) build the table with
`normalized=False` and so never normalise. Region removal reduces two tables,
the corpus and its residual, to uncited shares and compares them.

Every series emits one row per candidate year; years that cannot be scored get
a null metric and a reason code instead of being dropped, so emitted series
stay aligned for plotting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Iterator

import numpy as np

from citeconc import concentration
from citeconc.corpus import Corpus, filter_core_journals
from citeconc.normalize import (
    RHO_SCOPE_ALL_EDGES,
    RHO_SCOPE_STUDY,
    field_mean_reference_table,
    nics_array,
)
from citeconc.windows import (
    BACKWARD,
    FORWARD,
    WindowSpec,
    cited_population_backward,
    eligible_pub_years_forward,
    in_window_edge_mask,
)

CITATION_BASED = "citation_based"
REFERENCE_BASED = "reference_based"

REASON_EMPTY = "empty_cohort"
REASON_ZERO_TOTAL = "zero_total"
REASON_ZERO_BASELINE = "zero_baseline"

GINI_COLUMNS = ["year", "n", "zero_count", "gini", "mean_raw_citations", "reason"]
TAIL_COLUMNS = ["cited_low", "cited_top", "citing_low", "citing_top"]

# (year, population indices, raw in-window counts, scores) of one study year.
Row = tuple[int, np.ndarray, np.ndarray, np.ndarray]


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
    rho_scope: str = RHO_SCOPE_STUDY

    def __post_init__(self):
        if self.approach not in (CITATION_BASED, REFERENCE_BASED):
            raise ValueError(f"unknown approach {self.approach!r}")
        if self.rho_scope not in (RHO_SCOPE_STUDY, RHO_SCOPE_ALL_EDGES):
            raise ValueError(f"unknown rho scope {self.rho_scope!r}")
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


def _prepare(corpus: Corpus, cfg: StudyConfig) -> tuple[Corpus, np.ndarray]:
    """The corpus a study reads (core journals only, region removed) and the
    indices of its articles in the configured field, stably sorted by
    publication year: each year's articles in ascending index order."""
    work = corpus
    if cfg.core_only:
        work = filter_core_journals(work)
    if cfg.region_removed is not None:
        if cfg.region_removed not in work.regions:
            raise ValueError(f"unknown region {cfg.region_removed!r}")
        work = work.subset(work.region_code != work.regions.index(cfg.region_removed))
        if work.n_articles == 0:
            raise ValueError("empty residual corpus")
    order = np.argsort(work.pub_year, kind="stable")
    if cfg.field_filter is not None:
        if cfg.field_filter not in work.fields:
            raise ValueError(f"unknown field {cfg.field_filter!r}")
        order = order[work.field_code[order] == work.fields.index(cfg.field_filter)]
    return work, order


def backward_reference_years(corpus: Corpus, cfg: StudyConfig) -> list[int]:
    """Reference years whose cited population lies inside the span, less the
    first of them when `drop_earliest_population` is set."""
    start, end = corpus.span
    years = [y for y in range(start, end + 1) if cited_population_backward(y, corpus.span, cfg.window) is not None]
    return years[1:] if cfg.drop_earliest_population else years


def _score_table(corpus: Corpus, cfg: StudyConfig) -> tuple[Corpus, np.ndarray, Iterator[Row]]:
    """The prepared corpus, its in-window edge indices (ascending) and the lazy
    rows of the study years, the population builder every series reduces over."""
    work, order = _prepare(corpus, cfg)
    edges = np.flatnonzero(in_window_edge_mask(work, cfg.window.length, cfg.exclude_self_citations))
    return work, edges, _rows(work, order, edges, cfg)


def _rows(work: Corpus, order: np.ndarray, edges: np.ndarray, cfg: StudyConfig) -> Iterator[Row]:
    start, end = work.span
    # Articles published in [a, b) are order[at[a - start]:at[b - start]].
    at = np.searchsorted(work.pub_year[order], np.arange(start, end + 2, dtype=work.pub_year.dtype))
    if cfg.approach == CITATION_BASED:
        years = eligible_pub_years_forward(work.span, cfg.window)
        raw = np.bincount(work.cited[edges], minlength=work.n_articles)
        scores = raw.astype(np.float64)
        # Field means are summed over the pooled cohorts in ascending article order.
        pooled = np.sort(order[:at[len(years)]])
        if cfg.normalized and len(pooled):
            scores[pooled] = nics_array(work, pooled, cfg.window, exclude_self=cfg.exclude_self_citations,
                                        mics_per_year=cfg.mics_per_year, rho_scope=cfg.rho_scope)
        for y in years:
            pop = order[at[y - start]:at[y - start + 1]]
            yield y, pop, raw[pop], scores[pop]
        return
    edges = edges[np.argsort(work.citing_year[edges], kind="stable")]
    citing_year = work.citing_year[edges]
    edge_at = np.searchsorted(citing_year, np.arange(start, end + 2, dtype=citing_year.dtype))
    if cfg.normalized:
        mref = field_mean_reference_table(work, cfg.window.length, exclude_self=cfg.exclude_self_citations)
        weights = 1.0 / mref[work.field_code[work.citing[edges]], citing_year - start]
    for y in backward_reference_years(work, cfg):
        pub = cited_population_backward(y, work.span, cfg.window)
        pop = order[at[pub.start - start]:at[pub.stop - start]]
        lo, hi = edge_at[y - start], edge_at[y - start + 1]
        cited = work.cited[edges[lo:hi]]
        raw = np.bincount(cited, minlength=work.n_articles)[pop]
        if cfg.normalized:
            scores = np.bincount(cited, weights=weights[lo:hi], minlength=work.n_articles)[pop]
        else:
            scores = raw.astype(np.float64)
        yield y, pop, raw, scores


def _require_forward(cfg: StudyConfig) -> None:
    if cfg.window.direction != FORWARD:
        raise ValueError("forward window required")


def _row(year: int, raw: np.ndarray, scores: np.ndarray, **metrics) -> dict[str, Any]:
    """Columns every per-year series shares, with the given metrics still null."""
    return {
        "year": year,
        "n": len(scores),
        "zero_count": int(np.count_nonzero(scores == 0)),
        "mean_raw_citations": float(raw.mean()) if len(raw) else None,
        "reason": None if len(raw) else REASON_EMPTY,
        **metrics,
    }


def _gini_row(year: int, raw: np.ndarray, scores: np.ndarray, include_uncited: bool) -> dict[str, Any]:
    row = _row(year, raw, scores, gini=None)
    included = scores if include_uncited else scores[scores > 0]
    if row["reason"] is None and included.sum() <= 0:
        row["reason"] = REASON_ZERO_TOTAL
    elif row["reason"] is None:
        row["gini"] = concentration.gini(concentration.Distribution(included))
    return row


def gini_series(corpus: Corpus, cfg: StudyConfig, study_id: str | None = None) -> SeriesReport:
    """Per-year Gini of the configured score distribution."""
    sid = study_id or f"gini_{cfg.approach}_w{cfg.window.length}_{cfg.flags()}"
    report = SeriesReport(study_id=sid, config=cfg.echo(), columns=list(GINI_COLUMNS))
    _, _, rows = _score_table(corpus, cfg)
    report.rows = [_gini_row(y, raw, scores, cfg.include_uncited) for y, _, raw, scores in rows]
    return report


def _uncited_rows(corpus: Corpus, cfg: StudyConfig) -> list[dict[str, Any]]:
    _require_forward(cfg)
    _, _, rows = _score_table(corpus, replace(cfg, normalized=False))
    out = []
    for y, _, raw, _ in rows:
        row = _row(y, raw, raw, uncited_share=None)
        if len(raw):
            row["uncited_share"] = row["zero_count"] / len(raw)
        out.append(row)
    return out


def uncited_share_series(corpus: Corpus, cfg: StudyConfig, study_id: str | None = None) -> SeriesReport:
    """Fraction of each publication-year cohort with zero in-window citations."""
    length, excl, core = cfg.window.length, cfg.exclude_self_citations, cfg.core_only
    return SeriesReport(
        study_id=study_id or f"uncited_citation_based_w{length}_{'s' if excl else ''}{'c' if core else ''}",
        config={"window.length": length, "exclude_self": excl, "core_only": core},
        columns=["year", "n", "zero_count", "uncited_share", "mean_raw_citations", "reason"],
        rows=_uncited_rows(corpus, cfg),
    )


def region_removal_uncitedness(corpus: Corpus, cfg: StudyConfig, study_id: str | None = None) -> SeriesReport:
    """Relative change in per-year uncited share when the region
    `cfg.region_removed`'s articles and all their outgoing references are
    removed from the corpus."""
    region = cfg.region_removed
    base = _uncited_rows(corpus, replace(cfg, region_removed=None))
    removed = _uncited_rows(corpus, cfg)
    report = SeriesReport(
        study_id=study_id or f"region_removal_{region}_w{cfg.window.length}",
        config={"region": region, "window.length": cfg.window.length, "exclude_self": cfg.exclude_self_citations},
        columns=["year", "baseline_share", "removed_share", "relative_change", "reason"],
    )
    for b, r in zip(base, removed):
        row: dict[str, Any] = {
            "year": b["year"],
            "baseline_share": b["uncited_share"],
            "removed_share": r["uncited_share"],
            "relative_change": None,
            "reason": b["reason"] or r["reason"],
        }
        if row["reason"] is None:
            if b["uncited_share"] == 0:
                row["reason"] = REASON_ZERO_BASELINE
            else:
                row["relative_change"] = (r["uncited_share"] - b["uncited_share"]) / b["uncited_share"]
        report.rows.append(row)
    return report


def region_tail_shares(
    corpus: Corpus,
    cfg: StudyConfig,
    top_pct: float = 0.01,
    citing_level: str = "edge",
    study_id: str | None = None,
) -> SeriesReport:
    """Per-year regional shares at the tails of the citation distribution.

    cited_low / cited_top: the region's share of single-cited articles and of
    the top-pct articles by score. citing_low / citing_top: the region's share
    of the citations that go to those two groups ("edge" level) or of the
    distinct articles providing them ("article" level).
    """
    _require_forward(cfg)
    if citing_level not in ("edge", "article"):
        raise ValueError("citing_level must be 'edge' or 'article'")
    report = SeriesReport(
        study_id=study_id or f"region_tails_w{cfg.window.length}",
        config={"window.length": cfg.window.length, "exclude_self": cfg.exclude_self_citations,
                "top_pct": top_pct, "citing_level": citing_level},
        columns=["year", "region", *TAIL_COLUMNS, "reason"],
    )
    work, edges, rows = _score_table(corpus, cfg)
    start = work.span[0]
    ids = np.asarray(work.ids)
    edges = edges[np.argsort(work.cited_year[edges], kind="stable")]
    cited_year = work.cited_year[edges]
    edge_at = np.searchsorted(cited_year, np.arange(start, work.span[1] + 2, dtype=cited_year.dtype))
    nreg = len(work.regions)

    def shares(article_idx: np.ndarray) -> list[float | None]:
        if len(article_idx) == 0:
            return [None] * nreg
        counts = np.bincount(work.region_code[article_idx], minlength=nreg)
        return (counts / counts.sum()).tolist()

    for y, cohort, raw, scores in rows:
        year_edges = edges[edge_at[y - start]:edge_at[y - start + 1]]
        single = cohort[raw == 1]
        top = cohort[np.lexsort((ids[cohort], -scores))[:math.ceil(top_pct * len(cohort))]]
        cols = [shares(single), shares(top)]
        for group in (single, top):
            citing = work.citing[year_edges[np.isin(work.cited[year_edges], group)]]
            cols.append(shares(np.unique(citing) if citing_level == "article" else citing))
        reason = REASON_EMPTY if len(cohort) == 0 else "no_single_cited" if len(single) == 0 else None
        for rcode, region in enumerate(work.regions):
            row: dict[str, Any] = {"year": y, "region": region, "reason": reason}
            row.update((name, col[rcode]) for name, col in zip(TAIL_COLUMNS, cols))
            report.rows.append(row)
    return report


def top_share_series(
    corpus: Corpus,
    cfg: StudyConfig,
    pcts: list[float],
    study_id: str | None = None,
) -> SeriesReport:
    """Per-year share of raw in-window citations held by the top-x% articles."""
    _require_forward(cfg)
    pct_cols = [f"top_{p:g}" for p in pcts]
    report = SeriesReport(
        study_id=study_id or f"top_shares_w{cfg.window.length}",
        config={"window.length": cfg.window.length, "pcts": list(pcts), "exclude_self": cfg.exclude_self_citations},
        columns=["year", "n", "zero_count"] + pct_cols + ["mean_raw_citations", "reason"],
    )
    _, _, rows = _score_table(corpus, replace(cfg, normalized=False))
    for y, _, raw, vals in rows:
        row = _row(y, raw, vals, **dict.fromkeys(pct_cols))
        if row["reason"] is None and vals.sum() == 0:
            row["reason"] = REASON_ZERO_TOTAL
        elif row["reason"] is None:
            d = concentration.Distribution(vals)
            row.update((c, concentration.top_share(d, p)) for c, p in zip(pct_cols, pcts))
        report.rows.append(row)
    return report


def gini_by_field(corpus: Corpus, cfg: StudyConfig) -> dict[str, SeriesReport]:
    """gini_series restricted to each field present in the corpus: one table,
    each year's population split by field."""
    present = sorted((corpus.fields[c], c) for c in np.unique(corpus.field_code))
    out = {
        f: SeriesReport(
            study_id=f"gini_field_{f}_{cfg.approach}_w{cfg.window.length}_{cfg.flags()}",
            config=replace(cfg, field_filter=f).echo(),
            columns=list(GINI_COLUMNS),
        )
        for f, _ in present
    }
    work, _, rows = _score_table(corpus, replace(cfg, field_filter=None))
    for y, pop, raw, scores in rows:
        pop_field = work.field_code[pop]
        for f, code in present:
            member = pop_field == code
            out[f].rows.append(_gini_row(y, raw[member], scores[member], cfg.include_uncited))
    return out
