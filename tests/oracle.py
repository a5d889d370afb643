"""First-principles reference for citation windows, normalisation and the
per-year Gini, uncited-share, region-removal, top-share and regional-tail
series, written as plain loops over dicts and lists.

It reads a corpus only through its columns (ids, publication years, labels,
the author CSR and the edge list) and shares nothing with the library: it
imports no function of ``citeconc`` and no numpy, and works out self-citations
from the author sets itself rather than reading ``Corpus.self_edge``. Tests
compare the vectorised library with it.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class Record(NamedTuple):
    id: str
    pub_year: int
    field: str
    region: str
    journal_id: str
    author_ids: frozenset


class Tables(NamedTuple):
    """Per-article records by id, the (citing id, cited id) edge list and the span."""

    span: tuple[int, int]
    articles: dict[str, Record]
    edges: list[tuple[str, str]]

    def year(self, article_id: str) -> int:
        return self.articles[article_id].pub_year


def read(corpus) -> Tables:
    """The records and edges of a corpus, read from its columns."""
    ids = list(corpus.ids)
    ptr = corpus.author_ptr.tolist()
    codes = corpus.author_code.tolist()
    years = corpus.pub_year.tolist()
    fields = corpus.field_code.tolist()
    regions = corpus.region_code.tolist()
    journals = corpus.journal_code.tolist()
    articles = {
        a: Record(
            id=a,
            pub_year=years[i],
            field=corpus.fields[fields[i]],
            region=corpus.regions[regions[i]],
            journal_id=corpus.journals[journals[i]],
            author_ids=frozenset(corpus.authors[c] for c in codes[ptr[i]:ptr[i + 1]]),
        )
        for i, a in enumerate(ids)
    }
    edges = [(ids[s], ids[d]) for s, d in zip(corpus.citing.tolist(), corpus.cited.tolist())]
    return Tables((int(corpus.span[0]), int(corpus.span[1])), articles, edges)


# -- windows -----------------------------------------------------------------

def counted_years(pub_year: int, length: int) -> range:
    """Citing years in which a citation to an article published in pub_year counts."""
    return range(pub_year + 1, pub_year + length + 1)


def forward_years(span: tuple[int, int], length: int) -> list[int]:
    """Publication years whose every counted year lies inside the span."""
    return [y for y in range(span[0], span[1] + 1) if counted_years(y, length)[-1] <= span[1]]


def is_self_citation(t: Tables, citing: str, cited: str) -> bool:
    """True iff the citing and cited articles share at least one author."""
    return not t.articles[citing].author_ids.isdisjoint(t.articles[cited].author_ids)


def counted_edges(t: Tables, length: int, exclude_self: bool = False) -> list[tuple[str, str]]:
    """Edges whose citing year is in the cited article's window of `length` years."""
    return [
        (src, dst) for src, dst in t.edges
        if t.year(src) in counted_years(t.year(dst), length)
        and not (exclude_self and is_self_citation(t, src, dst))
    ]


def window_counts(t: Tables, article_id: str, length: int, exclude_self: bool = False) -> dict[int, int]:
    """In-window citations to one article, by citing year."""
    out: dict[int, int] = {}
    for src, dst in counted_edges(t, length, exclude_self):
        if dst == article_id:
            out[t.year(src)] = out.get(t.year(src), 0) + 1
    return out


def ncits_by_year(t: Tables, exclude_self: bool = False) -> dict[int, int]:
    """Citations made in each year, counting every edge whatever its year gap."""
    out: dict[int, int] = {}
    for src, dst in t.edges:
        if not (exclude_self and is_self_citation(t, src, dst)):
            out[t.year(src)] = out.get(t.year(src), 0) + 1
    return out


# -- forward normalisation -----------------------------------------------------

def year_weights(t: Tables, exclude_self: bool = False) -> dict[int, float]:
    """rho_y = 1 / (citations made in y); years in which none are made are absent."""
    return {y: 1.0 / n for y, n in ncits_by_year(t, exclude_self).items()}


def ics(t: Tables, article_id: str, length: int, weights: dict[int, float], exclude_self: bool = False) -> float:
    """Year-weighted in-window citation score of one article."""
    return sum(n * weights.get(y, 0.0) for y, n in sorted(window_counts(t, article_id, length, exclude_self).items()))


def nics(t: Tables, cohort: list[str], length: int, exclude_self: bool = False, mics_per_year: bool = False,
         rho_scope: str = "study") -> dict[str, float]:
    """Each cohort member's ics over the mean ics of its field in the cohort (of its
    field and publication year with `mics_per_year`); 0 where that mean is 0.
    Self-citations leave the year weights too unless rho_scope is all_edges."""
    if not cohort:
        raise ValueError("empty cohort")
    weights = year_weights(t, exclude_self and rho_scope == "study")
    score = {a: ics(t, a, length, weights, exclude_self) for a in cohort}

    def group(a):
        rec = t.articles[a]
        return (rec.field, rec.pub_year) if mics_per_year else rec.field

    members: dict = {}
    for a in cohort:
        members.setdefault(group(a), []).append(score[a])
    mean = {g: sum(v) / len(v) for g, v in members.items()}
    return {a: score[a] / mean[group(a)] if mean[group(a)] > 0 else 0.0 for a in cohort}


# -- backward normalisation ----------------------------------------------------

def cited_population(ref_year: int, span: tuple[int, int], length: int) -> list[int] | None:
    """Publication years a reference year reads, or None when they leave the span."""
    years = list(range(ref_year - length, ref_year))
    return years if years[0] >= span[0] else None


def field_mean_references(t: Tables, field: str, ref_year: int, length: int, exclude_self: bool = False) -> float:
    """Mean in-window reference count of the articles of `field` published in ref_year."""
    cell = [a for a, rec in t.articles.items() if rec.field == field and rec.pub_year == ref_year]
    if not cell:
        raise ValueError(f"empty field-year cell ({field!r}, {ref_year})")
    refs = sum(1 for src, _ in counted_edges(t, length, exclude_self) if src in cell)
    return refs / len(cell)


def normalized_reference_count(t: Tables, cited_id: str, ref_year: int, length: int,
                               exclude_self: bool = False) -> float:
    """References made in ref_year to one article of the cited population, each
    from a citing article of field k worth 1 / (field_mean_references of k)."""
    if t.year(cited_id) not in (cited_population(ref_year, t.span, length) or []):
        raise ValueError("article is outside the backward cited population for ref_year")
    total = 0.0
    for src, dst in counted_edges(t, length, exclude_self):
        if dst == cited_id and t.year(src) == ref_year:
            total += 1.0 / field_mean_references(t, t.articles[src].field, ref_year, length, exclude_self)
    return total


# -- corpus restrictions -------------------------------------------------------

def core_journals(t: Tables) -> Tables:
    """The articles of journals that publish in every year of the span, and the
    edges between them."""
    every_year = set(range(t.span[0], t.span[1] + 1))
    years_of: dict[str, set] = {}
    for rec in t.articles.values():
        years_of.setdefault(rec.journal_id, set()).add(rec.pub_year)
    kept = {a: rec for a, rec in t.articles.items() if years_of[rec.journal_id] == every_year}
    return Tables(t.span, kept, [(s, d) for s, d in t.edges if s in kept and d in kept])


# -- series ------------------------------------------------------------------

def gini(values: list[float]) -> float:
    """Population Gini: sum_ij |x_i - x_j| / (2 n^2 mean)."""
    n = len(values)
    return sum(abs(x - y) for x in values for y in values) / (2 * n * n * (sum(values) / n))


def _base_row(year: int, raw: list[int], scores: list[float]) -> dict:
    return {
        "year": year,
        "n": len(scores),
        "zero_count": sum(1 for s in scores if s == 0),
        "mean_raw_citations": sum(raw) / len(raw) if raw else None,
        "reason": None if raw else "empty_cohort",
    }


def gini_rows(t: Tables, *, approach: str, length: int, include_uncited: bool = True, exclude_self: bool = False,
              core_only: bool = False, normalized: bool = True, mics_per_year: bool = False,
              rho_scope: str = "study", drop_earliest_population: bool = False,
              field: str | None = None) -> list[dict]:
    """One row per study year: year, n, zero_count, gini, mean_raw_citations, reason.
    With `field`, each population is its articles of that field; an article's
    score is the same either way."""
    if field is not None and all(rec.field != field for rec in t.articles.values()):
        raise ValueError(f"unknown field {field!r}")
    if core_only:
        t = core_journals(t)
    in_field = {a for a, rec in t.articles.items() if field in (None, rec.field)}
    start, end = t.span
    edges = counted_edges(t, length, exclude_self)
    populations = []  # (year, population, {article: raw count}, {article: score})
    if approach == "citation_based":
        years = forward_years(t.span, length)
        raw = {a: 0 for a in t.articles}
        for _, dst in edges:
            raw[dst] += 1
        pooled = [a for a, rec in t.articles.items() if rec.pub_year in years]
        scores = {a: float(n) for a, n in raw.items()}
        if normalized and pooled:
            scores.update(nics(t, pooled, length, exclude_self, mics_per_year, rho_scope))
        for y in years:
            pop = [a for a in t.articles if t.year(a) == y and a in in_field]
            populations.append((y, pop, raw, scores))
    else:
        years = [y for y in range(start, end + 1) if cited_population(y, t.span, length) is not None]
        if drop_earliest_population:
            years = years[1:]
        for y in years:
            pop = [a for a in t.articles if t.year(a) in cited_population(y, t.span, length) and a in in_field]
            raw = {a: 0 for a in pop}
            for src, dst in edges:
                if t.year(src) == y and dst in raw:
                    raw[dst] += 1
            if normalized:
                scores = {a: normalized_reference_count(t, a, y, length, exclude_self) for a in pop}
            else:
                scores = {a: float(n) for a, n in raw.items()}
            populations.append((y, pop, raw, scores))

    rows = []
    for y, pop, raw, scores in populations:
        vals = [scores[a] for a in pop]
        row = {**_base_row(y, [raw[a] for a in pop], vals), "gini": None}
        included = vals if include_uncited else [v for v in vals if v > 0]
        if row["reason"] is None and sum(included) <= 0:
            row["reason"] = "zero_total"
        elif row["reason"] is None:
            row["gini"] = gini(included)
        rows.append(row)
    return rows


def uncited_rows(t: Tables, *, length: int, exclude_self: bool = False, core_only: bool = False) -> list[dict]:
    """One row per eligible publication year: year, n, zero_count, uncited_share,
    mean_raw_citations, reason."""
    if core_only:
        t = core_journals(t)
    rows = []
    for y in forward_years(t.span, length):
        raw = [sum(window_counts(t, a, length, exclude_self).values()) for a in t.articles if t.year(a) == y]
        row = {**_base_row(y, raw, raw), "uncited_share": None}
        if raw:
            row["uncited_share"] = row["zero_count"] / len(raw)
        rows.append(row)
    return rows


def region_removal_rows(t: Tables, *, region: str, length: int, exclude_self: bool = False,
                        core_only: bool = False) -> list[dict]:
    """One row per eligible publication year: the uncited share of its cohort
    (baseline_share), the same once `region`'s articles and every edge to or
    from them are removed (removed_share), and relative_change, their difference
    over the baseline; null with a reason when either cohort is empty or the
    baseline is 0. With `core_only` both corpora keep only core journals."""
    if core_only:
        t = core_journals(t)
    kept = {a: rec for a, rec in t.articles.items() if rec.region != region}
    if not kept:
        raise ValueError("empty residual corpus")
    residual = Tables(t.span, kept, [(s, d) for s, d in t.edges if s in kept and d in kept])
    rows = []
    for base, removed in zip(uncited_rows(t, length=length, exclude_self=exclude_self),
                             uncited_rows(residual, length=length, exclude_self=exclude_self)):
        before, after = base["uncited_share"], removed["uncited_share"]
        reason = base["reason"] or removed["reason"] or ("zero_baseline" if before == 0 else None)
        rows.append({"year": base["year"], "baseline_share": before, "removed_share": after,
                     "relative_change": None if reason else (after - before) / before, "reason": reason})
    return rows


def top_share_rows(t: Tables, *, length: int, pcts: list[float], exclude_self: bool = False) -> list[dict]:
    """One row per eligible publication year: year, n, zero_count, top_<pct>
    (the share of the year's in-window citations held by its ceil(pct * n) most
    cited articles), mean_raw_citations, reason."""
    raw = {a: 0 for a in t.articles}
    for _, dst in counted_edges(t, length, exclude_self):
        raw[dst] += 1
    rows = []
    for y in forward_years(t.span, length):
        counts = [raw[a] for a in t.articles if t.year(a) == y]
        row = {**_base_row(y, counts, counts), **{f"top_{p:g}": None for p in pcts}}
        if row["reason"] is None and sum(counts) == 0:
            row["reason"] = "zero_total"
        elif row["reason"] is None:
            ranked = sorted(counts, reverse=True)
            row.update((f"top_{p:g}", sum(ranked[:math.ceil(p * len(counts))]) / sum(counts)) for p in pcts)
        rows.append(row)
    return rows


def region_tail_rows(t: Tables, *, length: int, top_pct: float, citing_level: str,
                     exclude_self: bool = False) -> dict[tuple[int, str], dict]:
    """Regional tail shares of each eligible publication year, by (year, region)
    over the regions of the articles, with articles ranked by their raw
    in-window citation counts. cited_low and cited_top are a region's shares of
    the year's single-cited articles and of its ceil(top_pct * n) most cited
    (ties to the smaller id); citing_low and citing_top its shares of the
    in-window citations those groups receive, counted per citation ("edge") or
    per distinct citing article ("article")."""
    edges = counted_edges(t, length, exclude_self)
    raw = {a: 0 for a in t.articles}
    for _, dst in edges:
        raw[dst] += 1
    regions = sorted({rec.region for rec in t.articles.values()})

    def shares(members: list[str]) -> dict[str, float | None]:
        return {r: sum(1 for a in members if t.articles[a].region == r) / len(members) if members else None
                for r in regions}

    out = {}
    for y in forward_years(t.span, length):
        cohort = [a for a in t.articles if t.year(a) == y]
        single = [a for a in cohort if raw[a] == 1]
        top = sorted(cohort, key=lambda a: (-raw[a], a))[:math.ceil(top_pct * len(cohort))]
        cols = {"cited_low": shares(single), "cited_top": shares(top)}
        for name, group in (("citing_low", set(single)), ("citing_top", set(top))):
            citing = [src for src, dst in edges if dst in group]
            cols[name] = shares(sorted(set(citing)) if citing_level == "article" else citing)
        reason = "empty_cohort" if not cohort else "no_single_cited" if not single else None
        for r in regions:
            out[(y, r)] = {"year": y, "region": r, "reason": reason, **{c: v[r] for c, v in cols.items()}}
    return out


def end_to_end_change(rows: list[dict], metric: str = "gini") -> float:
    """Metric difference between the last and first non-null rows of a series."""
    vals = [r[metric] for r in rows if r.get(metric) is not None]
    if len(vals) < 2:
        raise ValueError("need at least 2 non-null rows")
    return vals[-1] - vals[0]
