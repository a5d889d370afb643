"""Named analyses over a corpus: per-year Gini series for the forward and
backward approaches, uncitedness series, region-removal counterfactuals,
regional tail shares, and top-x% share series.

Every series is a reducer over a score table, one row per study year: the year,
the indices of its population, their raw in-window citation counts and their
scores. A forward row is the publication-year cohort; a backward row is the
population published in the W years before the reference year, scored by the
references made in that year. Region removal reduces two tables, the corpus and
its residual, to uncited shares. A table is keyed by what sets its rows: the
prepared corpus, window, self-citation rule, approach and normalisation
parameters. Uncited articles, normalised or raw scores, a field and the earliest
population are each study's reading of the rows; a table is normalised only if a
reader reads normalised scores. `run_studies` runs a battery: it plans each
study once, builds each prepared corpus (core journals, a region removed), mask
and table once, and streams a table's rows to every reducer that reads it before
the next table is built. Each series function (`gini_series` etc.) runs a
battery of one.

Every series emits one row per candidate year; years that cannot be scored get
a null metric and a reason code instead of being dropped, so emitted series
stay aligned for plotting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, Sequence

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
FORWARD_ONLY = ("uncited", "region_removal", "region_tails", "top_shares")

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
class StudySpec:
    """One study of a battery. ``name`` is its study id; None gives the type's default id."""

    name: str | None
    kind: str
    config: StudyConfig
    pcts: tuple[float, ...] = (0.01, 0.05, 0.10)
    top_pct: float = 0.01
    citing_level: str = "edge"

    def __post_init__(self):
        if self.kind in FORWARD_ONLY and self.config.window.direction != FORWARD:
            raise ValueError(f"{self.kind} requires a forward window (study.approach = {CITATION_BASED})")
        if self.kind == "region_removal" and self.config.region_removed is None:
            raise ValueError("region_removal requires regions.remove")
        if self.kind != "gini" and self.config.field_filter is not None:
            raise ValueError(f"only gini studies read a field, not {self.kind}")
        if self.citing_level not in ("edge", "article"):
            raise ValueError(f"citing_level must be edge or article, got {self.citing_level!r}")
        if not all(0 < p <= 1 for p in (*self.pcts, self.top_pct)):
            raise ValueError(f"pcts and top_pct must lie in (0, 1], got {list(self.pcts)} and {self.top_pct}")


@dataclass
class SeriesReport:
    study_id: str
    config: dict[str, Any]
    columns: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)


def _table_key(cfg: StudyConfig) -> StudyConfig:
    """The score table a study of ``cfg`` reads: ``cfg`` less the flags that only choose what it reads."""
    return replace(cfg, include_uncited=True, normalized=False, field_filter=None, drop_earliest_population=False)


def _remove_region(work: Corpus, region: str) -> Corpus:
    if region not in work.regions:
        raise ValueError(f"unknown region {region!r}")
    work = work.subset(work.region_code != work.regions.index(region))
    if work.n_articles == 0:
        raise ValueError("empty residual corpus")
    return work


def _rows(work: Corpus, mask: np.ndarray, cfg: StudyConfig) -> Iterator[Row]:
    """The rows of the score table ``cfg`` over the prepared corpus ``work`` whose
    in-window edges are ``mask``. Each population is the articles of its years,
    in ascending index order within a year."""
    order = np.argsort(work.pub_year, kind="stable")
    edges = np.flatnonzero(mask)
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
            scores[pooled] = nics_array(work, pooled, mask, exclude_self=cfg.exclude_self_citations,
                                        mics_per_year=cfg.mics_per_year, rho_scope=cfg.rho_scope)
        for y in years:
            pop = order[at[y - start]:at[y - start + 1]]
            yield y, pop, raw[pop], scores[pop]
        return
    edges = edges[np.argsort(work.citing_year[edges], kind="stable")]
    citing_year = work.citing_year[edges]
    edge_at = np.searchsorted(citing_year, np.arange(start, end + 2, dtype=citing_year.dtype))
    if cfg.normalized:
        mref = field_mean_reference_table(work, mask)
        weights = 1.0 / mref[work.field_code[work.citing[edges]], citing_year - start]
    for y in range(start, end + 1):
        pub = cited_population_backward(y, work.span, cfg.window)
        if pub is None:  # the cited population leaves the span
            continue
        pop = order[at[pub.start - start]:at[pub.stop - start]]
        lo, hi = edge_at[y - start], edge_at[y - start + 1]
        cited = work.cited[edges[lo:hi]]
        raw = np.bincount(cited, minlength=work.n_articles)[pop]
        scores = np.bincount(cited, weights=weights[lo:hi], minlength=work.n_articles)[pop] if cfg.normalized else raw
        yield y, pop, raw, scores


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
        row["gini"] = concentration.gini(included)
    return row


# Reducers: a read's reducer is (factory, normalized, *params). The factory is called with the
# prepared corpus, its in-window edge mask and params, and returns the function from a table row
# to output rows; the row's last column is the scores if ``normalized`` is set, else the raw counts.

def _gini_reducer(work: Corpus, mask: np.ndarray, include_uncited: bool,
                  codes: tuple[int, ...] | None) -> Callable[..., list[dict]]:
    """A Gini row per field code in ``codes`` (the year's population split by field), or one if None."""
    return lambda y, pop, raw, vals: [_gini_row(y, raw[m], vals[m], include_uncited) for m in (
        [slice(None)] if codes is None else work.field_code[pop] == np.asarray(codes)[:, None])]


def _uncited_reducer(work: Corpus, mask: np.ndarray) -> Callable[..., list[dict]]:
    return lambda y, pop, raw, scores: [
        _row(y, raw, raw, uncited_share=int(np.count_nonzero(raw == 0)) / len(raw) if len(raw) else None)]


def _top_reducer(work: Corpus, mask: np.ndarray, pcts: tuple[float, ...]) -> Callable[..., list[dict]]:
    def reduce(y, pop, raw, vals):
        row = _row(y, raw, raw, **{f"top_{p:g}": None for p in pcts})
        if row["reason"] is None and raw.sum() == 0:
            row["reason"] = REASON_ZERO_TOTAL
        elif row["reason"] is None:
            row.update((f"top_{p:g}", concentration.top_share(raw, p)) for p in pcts)
        return [row]
    return reduce


def _tails_reducer(work: Corpus, mask: np.ndarray, top_pct: float, citing_level: str) -> Callable[..., list[dict]]:
    """One row per region and cohort year; see :func:`region_tail_shares`."""
    start = work.span[0]
    edges = np.flatnonzero(mask)
    edges = edges[np.argsort(work.cited_year[edges], kind="stable")]
    cited_year = work.cited_year[edges]
    edge_at = np.searchsorted(cited_year, np.arange(start, work.span[1] + 2, dtype=cited_year.dtype))
    nreg = len(work.regions)

    def shares(article_idx: np.ndarray) -> list[float | None]:
        counts = np.bincount(work.region_code[article_idx], minlength=nreg)
        return (counts / counts.sum()).tolist() if len(article_idx) else [None] * nreg

    def reduce(y, cohort, raw, vals):
        year_edges = edges[edge_at[y - start]:edge_at[y - start + 1]]
        single = cohort[raw == 1]
        top = cohort[np.lexsort((work.id_rank[cohort], -vals))[:math.ceil(top_pct * len(cohort))]]
        cols = [shares(single), shares(top)]
        for group in (single, top):
            citing = work.citing[year_edges[np.isin(work.cited[year_edges], group)]]
            cols.append(shares(np.unique(citing) if citing_level == "article" else citing))
        reason = REASON_EMPTY if len(cohort) == 0 else "no_single_cited" if len(single) == 0 else None
        return [{"year": y, "region": region, "reason": reason, **{n: col[r] for n, col in zip(TAIL_COLUMNS, cols)}}
                for r, region in enumerate(work.regions)]
    return reduce


def _region_removal_rows(base: list[dict], removed: list[dict]) -> list[dict]:
    rows = []
    for b, r in zip(base, removed):
        before, after = b["uncited_share"], r["uncited_share"]
        reason = b["reason"] or r["reason"] or (REASON_ZERO_BASELINE if before == 0 else None)
        rows.append({"year": b["year"], "baseline_share": before, "removed_share": after,
                     "relative_change": None if reason else (after - before) / before, "reason": reason})
    return rows


def _plan(corpus: Corpus, spec: StudySpec) -> tuple[list[tuple[StudyConfig, tuple]], Callable]:
    """A study's reads (table key, then reducer) and its report maker over their rows."""
    cfg, w, excl = spec.config, spec.config.window.length, spec.config.exclude_self_citations
    key, combine = _table_key(cfg), lambda rows: rows
    if spec.kind in ("gini", "gini_by_field"):
        if spec.kind == "gini_by_field":
            fields = sorted(corpus.fields[c] for c in np.unique(corpus.field_code).tolist())
            sids = [f"{spec.name}_{f}" if spec.name else f"gini_field_{f}_{cfg.approach}_w{w}_{cfg.flags()}"
                    for f in fields]
        elif cfg.field_filter not in (None, *corpus.fields):
            raise ValueError(f"unknown field {cfg.field_filter!r}")
        else:
            fields, sids = [cfg.field_filter], [spec.name or f"gini_{cfg.approach}_w{w}_{cfg.flags()}"]
        codes = None if fields == [None] else tuple(corpus.fields.index(f) for f in fields)
        reads = [(key, (_gini_reducer, cfg.normalized, cfg.include_uncited, codes))]
        # A year has a row per field; drop_earliest_population drops the first reference year's.
        skip = len(fields) if cfg.approach == REFERENCE_BASED and cfg.drop_earliest_population else 0
        return reads, lambda rows: [
            SeriesReport(sid, replace(cfg, field_filter=f).echo(), list(GINI_COLUMNS), rows[0][skip + k::len(fields)])
            for k, (sid, f) in enumerate(zip(sids, fields))]
    elif spec.kind == "uncited":
        reads = [(key, (_uncited_reducer, False))]
        sid = f"uncited_citation_based_w{w}_{'s' if excl else ''}{'c' if cfg.core_only else ''}"
        config = {"window.length": w, "exclude_self": excl, "core_only": cfg.core_only}
        columns = ["year", "n", "zero_count", "uncited_share", "mean_raw_citations", "reason"]
    elif spec.kind == "top_shares":
        reads, sid = [(key, (_top_reducer, False, tuple(spec.pcts)))], f"top_shares_w{w}"
        config = {"window.length": w, "pcts": list(spec.pcts), "exclude_self": excl}
        columns = ["year", "n", "zero_count", *(f"top_{p:g}" for p in spec.pcts), "mean_raw_citations", "reason"]
    elif spec.kind == "region_tails":
        reads, sid = [(key, (_tails_reducer, cfg.normalized, spec.top_pct, spec.citing_level))], f"region_tails_w{w}"
        config = {"window.length": w, "exclude_self": excl, "top_pct": spec.top_pct, "citing_level": spec.citing_level}
        columns = ["year", "region", *TAIL_COLUMNS, "reason"]
    elif spec.kind == "region_removal":
        reads = [(k, (_uncited_reducer, False)) for k in (_table_key(replace(cfg, region_removed=None)), key)]
        sid, combine = f"region_removal_{cfg.region_removed}_w{w}", _region_removal_rows
        config = {"region": cfg.region_removed, "window.length": w, "exclude_self": excl}
        columns = ["year", "baseline_share", "removed_share", "relative_change", "reason"]
    else:
        raise ValueError(f"unknown study type {spec.kind!r}")
    return reads, lambda rows: [SeriesReport(spec.name or sid, config, list(columns), combine(*rows))]


def _reduce_tables(corpus: Corpus, reads: Sequence[tuple[StudyConfig, tuple]]) -> Iterator[dict]:
    """Yields the output rows of every read, or the ValueError its table raised, a
    table at a time. Tables are grouped by prepared corpus, then by mask, each group
    in order of first use; each table's rows are built one at a time, normalised only
    if a reducer reads the scores, and handed to all its reducers."""
    tree: dict = {}  # core_only -> region removed -> (W, exclude_self) -> table key -> reducers
    for key, reducer in reads:
        by_mask = tree.setdefault(key.core_only, {}).setdefault(key.region_removed, {})
        by_mask.setdefault((key.window.length, key.exclude_self_citations), {}).setdefault(key, {})[reducer] = None
    for core_only, by_region in tree.items():
        base = filter_core_journals(corpus) if core_only else corpus
        for region, by_mask in by_region.items():
            try:
                work = base if region is None else _remove_region(base, region)
            except ValueError as e:
                yield {(key, r): e for tables in by_mask.values() for key, rs in tables.items() for r in rs}
                continue
            for (length, excl), tables in by_mask.items():
                mask = in_window_edge_mask(work, length, excl)
                for key, reducers in tables.items():
                    try:
                        fns = [(normalized, fn(work, mask, *params)) for fn, normalized, *params in reducers]
                        results: list = [[] for _ in fns]
                        for y, pop, raw, scores in _rows(work, mask, replace(key, normalized=any(n for n, _ in fns))):
                            for (normalized, fn), rows in zip(fns, results):
                                rows.extend(fn(y, pop, raw, scores if normalized else raw))
                    except ValueError as e:
                        results = [e] * len(reducers)
                    yield dict(zip([(key, r) for r in reducers], results))
            del work, mask  # before the next prepared corpus is built


def run_studies(corpus: Corpus, specs: Sequence[StudySpec]) -> Iterator[list[SeriesReport]]:
    """Yields the reports of each study of ``specs`` in turn, building each prepared corpus, mask
    and score table the battery reads once, no later than the turn of the first study that reads
    it. A study that cannot run raises its ValueError in its turn; studies may share row dicts."""
    plans: list = []
    for spec in specs:
        try:
            plans.append(_plan(corpus, spec))
        except ValueError as e:
            plans.append(e)  # raised in the study's turn
    tables = _reduce_tables(corpus, [read for plan in plans if not isinstance(plan, ValueError) for read in plan[0]])
    out: dict = {}
    for plan in plans:
        if isinstance(plan, ValueError):
            raise plan
        reads, make = plan
        while not all(read in out for read in reads):
            out.update(next(tables))
        got = [out[read] for read in reads]
        for error in (r for r in got if isinstance(r, ValueError)):
            raise error
        yield make(got)


def gini_series(corpus: Corpus, cfg: StudyConfig, study_id: str | None = None) -> SeriesReport:
    """Per-year Gini of the configured score distribution."""
    return next(run_studies(corpus, [StudySpec(study_id, "gini", cfg)]))[0]


def uncited_share_series(corpus: Corpus, cfg: StudyConfig, study_id: str | None = None) -> SeriesReport:
    """Fraction of each publication-year cohort with zero in-window citations."""
    return next(run_studies(corpus, [StudySpec(study_id, "uncited", cfg)]))[0]


def region_removal_uncitedness(corpus: Corpus, cfg: StudyConfig, study_id: str | None = None) -> SeriesReport:
    """Relative change in per-year uncited share when the region
    `cfg.region_removed`'s articles and all their outgoing references are
    removed from the corpus."""
    return next(run_studies(corpus, [StudySpec(study_id, "region_removal", cfg)]))[0]


def region_tail_shares(corpus: Corpus, cfg: StudyConfig, top_pct: float = 0.01, citing_level: str = "edge",
                       study_id: str | None = None) -> SeriesReport:
    """Per-year regional shares at the tails of the citation distribution.

    cited_low / cited_top: the region's share of single-cited articles and of
    the top-pct articles by score (ties broken by id). citing_low / citing_top:
    the region's share of the citations that go to those two groups ("edge"
    level) or of the distinct articles providing them ("article" level).
    """
    spec = StudySpec(study_id, "region_tails", cfg, top_pct=top_pct, citing_level=citing_level)
    return next(run_studies(corpus, [spec]))[0]


def top_share_series(corpus: Corpus, cfg: StudyConfig, pcts: list[float], study_id: str | None = None) -> SeriesReport:
    """Per-year share of raw in-window citations held by the top-x% articles."""
    return next(run_studies(corpus, [StudySpec(study_id, "top_shares", cfg, pcts=tuple(pcts))]))[0]


def gini_by_field(corpus: Corpus, cfg: StudyConfig) -> dict[str, SeriesReport]:
    """gini_series restricted to each field present in the corpus: one table,
    each year's population split by field."""
    reports = next(run_studies(corpus, [StudySpec(None, "gini_by_field", cfg)]))
    return {rep.config["field_filter"]: rep for rep in reports}
