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
study once, builds each prepared corpus (core journals, a region removed) as an
article mask over the one corpus, never a copy, builds each in-window mask and
table once, and streams a table's rows to every reducer that reads it before the
next table is built; each row is sorted once for all its readers. Each series
function (`gini_series` etc.) runs a battery of one.

Every series emits one row per candidate year; years that cannot be scored get
a null metric and a reason code instead of being dropped, so emitted series
stay aligned for plotting.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from citeconc import concentration
from citeconc.corpus import Corpus, core_journal_mask
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


def _prepare(corpus: Corpus, keep: np.ndarray | None, region: str | None) -> tuple[np.ndarray, ...]:
    """A prepared corpus as masks over the one corpus, the articles in ``keep`` (all if None) less ``region``'s
    if set: the article mask, the mask of the edges between its articles, its articles in stable publication-year
    order and ``at``, those published in [a, b) being ``order[at[a - start]:at[b - start]]``."""
    keep = np.ones(corpus.n_articles, bool) if keep is None else keep
    if region is not None:
        if region not in corpus.regions:
            raise ValueError(f"unknown region {region!r}")
        keep = keep & (corpus.region_code != corpus.regions.index(region))
        if not keep.any():
            raise ValueError("empty residual corpus")
    order = np.flatnonzero(keep)
    order = order[np.argsort(corpus.pub_year[order], kind="stable")]
    start, end = corpus.span
    at = np.searchsorted(corpus.pub_year[order], np.arange(start, end + 2, dtype=corpus.pub_year.dtype))
    return keep, keep[corpus.citing] & keep[corpus.cited], order, at


def _rows(corpus: Corpus, prep: tuple[np.ndarray, ...], mask: np.ndarray, cfg: StudyConfig) -> Iterator[Row]:
    """The rows of the score table ``cfg`` over the prepared corpus ``prep`` (see :func:`_prepare`)
    whose in-window edges are ``mask``. Each population is the kept articles of its years, in
    ascending index order within a year."""
    keep, kept, order, at = prep
    edges = np.flatnonzero(mask)
    start, end = corpus.span
    if cfg.approach == CITATION_BASED:
        years = eligible_pub_years_forward(corpus.span, cfg.window)
        raw = np.bincount(corpus.cited[edges], minlength=corpus.n_articles)
        scores = raw.astype(np.float64)
        # Field means are summed over the pooled cohorts in ascending article order.
        pooled = np.sort(order[:at[len(years)]])
        if cfg.normalized and len(pooled):
            scores[pooled] = nics_array(corpus, pooled, edges, exclude_self=cfg.exclude_self_citations,
                                        mics_per_year=cfg.mics_per_year, rho_scope=cfg.rho_scope, kept=kept)
        for y in years:
            pop = order[at[y - start]:at[y - start + 1]]
            yield y, pop, raw[pop], scores[pop]
        return
    edges = edges[np.argsort(corpus.citing_year[edges], kind="stable")]
    citing_year = corpus.citing_year[edges]
    edge_at = np.searchsorted(citing_year, np.arange(start, end + 2, dtype=citing_year.dtype))
    # Cited articles by their place in order: a year's references go to its population, one run of order.
    place = np.empty(corpus.n_articles, np.int64)
    place[order] = np.arange(len(order))
    cited = place[corpus.cited[edges]]
    if cfg.normalized:
        mref = field_mean_reference_table(corpus, edges, keep)
        weights = 1.0 / mref[corpus.field_code[corpus.citing[edges]], citing_year - start]
    for y in range(start, end + 1):
        pub = cited_population_backward(y, corpus.span, cfg.window)
        if pub is None:  # the cited population leaves the span
            continue
        lo, hi = at[pub.start - start], at[pub.stop - start]
        e0, e1 = edge_at[y - start], edge_at[y - start + 1]
        raw = np.bincount(cited[e0:e1] - lo, minlength=hi - lo)
        scores = np.bincount(cited[e0:e1] - lo, weights=weights[e0:e1], minlength=hi - lo) if cfg.normalized else raw
        yield y, order[lo:hi], raw, scores


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


def _gini_row(year: int, raw: np.ndarray, scores: np.ndarray, ascending: np.ndarray,
              include_uncited: bool) -> dict[str, Any]:
    """The Gini row of ``scores``, which ``ascending`` holds sorted; its uncited articles lead it."""
    row = _row(year, raw, scores, gini=None)
    if row["reason"] is None and row["zero_count"] == row["n"]:
        row["reason"] = REASON_ZERO_TOTAL
    elif row["reason"] is None:
        row["gini"] = concentration.gini(ascending if include_uncited else ascending[row["zero_count"]:],
                                         presorted=True)
    return row


# Reducers: a read's reducer is (factory, normalized, *params). The factory is called with the corpus,
# the table's in-window edge mask and params, and returns the function from a table row to output rows.
# A row ends with the scores if ``normalized`` is set, else the raw counts, then the function that sorts
# them once for every reducer of the row.

def _gini_reducer(corpus: Corpus, mask: np.ndarray, include_uncited: bool,
                  codes: tuple[int, ...] | None) -> Callable[..., list[dict]]:
    """A Gini row per field code in ``codes`` (the year's population split by field), or one if None."""
    def reduce(y, pop, raw, vals, ascending):
        if codes is None:
            return [_gini_row(y, raw, vals, ascending(), include_uncited)]
        return [_gini_row(y, raw[m], vals[m], np.sort(vals[m]), include_uncited)
                for m in corpus.field_code[pop] == np.asarray(codes)[:, None]]
    return reduce


def _uncited_reducer(corpus: Corpus, mask: np.ndarray) -> Callable[..., list[dict]]:
    return lambda y, pop, raw, scores, ascending: [
        _row(y, raw, raw, uncited_share=int(np.count_nonzero(raw == 0)) / len(raw) if len(raw) else None)]


def _top_reducer(corpus: Corpus, mask: np.ndarray, pcts: tuple[float, ...]) -> Callable[..., list[dict]]:
    def reduce(y, pop, raw, vals, ascending):
        row = _row(y, raw, raw, **{f"top_{p:g}": None for p in pcts})
        if row["reason"] is None and row["zero_count"] == row["n"]:
            row["reason"] = REASON_ZERO_TOTAL
        elif row["reason"] is None:
            row.update((f"top_{p:g}", concentration.top_share(ascending(), p, presorted=True)) for p in pcts)
        return [row]
    return reduce


def _tails_reducer(corpus: Corpus, mask: np.ndarray, top_pct: float, citing_level: str) -> Callable[..., list[dict]]:
    """One row per region and cohort year; see :func:`region_tail_shares`."""
    start = corpus.span[0]
    edges = np.flatnonzero(mask)
    edges = edges[np.argsort(corpus.cited_year[edges], kind="stable")]
    cited_year = corpus.cited_year[edges]
    edge_at = np.searchsorted(cited_year, np.arange(start, corpus.span[1] + 2, dtype=cited_year.dtype))
    nreg = len(corpus.regions)

    def shares(article_idx: np.ndarray) -> list[float | None]:
        counts = np.bincount(corpus.region_code[article_idx], minlength=nreg)
        return (counts / counts.sum()).tolist() if len(article_idx) else [None] * nreg

    def reduce(y, cohort, raw, vals, ascending):
        year_edges = edges[edge_at[y - start]:edge_at[y - start + 1]]
        single = cohort[raw == 1]
        top = cohort[np.lexsort((corpus.id_rank[cohort], -vals))[:math.ceil(top_pct * len(cohort))]]
        cols = [shares(single), shares(top)]
        for group in (single, top):
            citing = corpus.citing[year_edges[np.isin(corpus.cited[year_edges], group)]]
            cols.append(shares(np.unique(citing) if citing_level == "article" else citing))
        reason = REASON_EMPTY if len(cohort) == 0 else "no_single_cited" if len(single) == 0 else None
        return [{"year": y, "region": region, "reason": reason, **{n: col[r] for n, col in zip(TAIL_COLUMNS, cols)}}
                for r, region in enumerate(corpus.regions)]
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
        core = core_journal_mask(corpus) if core_only else None
        for region, by_mask in by_region.items():
            try:
                prep = _prepare(corpus, core, region)
            except ValueError as e:
                yield {(key, r): e for tables in by_mask.values() for key, rs in tables.items() for r in rs}
                continue
            for (length, excl), tables in by_mask.items():
                mask = in_window_edge_mask(corpus, length, excl) & prep[1]  # and between kept articles
                for key, reducers in tables.items():
                    try:
                        fns = [(normalized, fn(corpus, mask, *params)) for fn, normalized, *params in reducers]
                        results: list = [[] for _ in fns]
                        for y, pop, raw, scores in _rows(corpus, prep, mask,
                                                         replace(key, normalized=any(n for n, _ in fns))):
                            ascending = functools.cache(lambda normalized: np.sort(scores if normalized else raw))
                            for (normalized, fn), rows in zip(fns, results):
                                rows.extend(fn(y, pop, raw, scores if normalized else raw,
                                               functools.partial(ascending, normalized)))
                    except ValueError as e:
                        results = [e] * len(reducers)
                    yield dict(zip([(key, r) for r in reducers], results))
            del prep, mask  # before the next prepared corpus is built


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
