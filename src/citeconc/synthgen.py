"""Deterministic synthetic citation-corpus generator.

Articles are created year by year; each article draws its reference targets without replacement from
previously published articles, with probability proportional to (in-degree + a)^exponent times an optional
recency decay. Draws are looked up only as far as a row can keep them: its first quota + 2, and the rest only
if those hold too few distinct articles. Self-citations are injected by sharing an author id between the
citing article and a sampled fraction of its targets. Everything derives from one seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from citeconc.corpus import Corpus, _compute_self_edges, _ranks, _Utf8


def linear_schedule(start: float, end: float, n: int) -> tuple[float, ...]:
    if n == 1:
        return (float(start),)
    return tuple(start + (end - start) * t / (n - 1) for t in range(n))


def geometric_schedule(start: float, end: float, n: int) -> tuple[float, ...]:
    if n == 1:
        return (float(start),)
    ratio = end / start
    return tuple(start * ratio ** (t / (n - 1)) for t in range(n))


@dataclass(frozen=True)
class GenParams:
    span: tuple[int, int]
    articles_per_year: tuple[int, ...]
    refs_per_article: tuple[float, ...]   # Poisson mean per year
    field_mix: tuple[tuple[str, float], ...] = (("F0", 0.5), ("F1", 0.3), ("F2", 0.2))
    region_mix: tuple[tuple[str, float, float], ...] = (
        ("NorthAmerica", 0.45, 0.45),
        ("Europe", 0.3, 0.3),
        ("Asia", 0.15, 0.15),
        ("Africa", 0.05, 0.05),
        ("Other", 0.05, 0.05),
    )  # (label, share at span start, share at span end); linear in between
    attachment_constant: float = 1.0
    attachment_exponent: float = 1.0
    recency_halflife: float | None = None
    self_citation_rate: float = 0.0
    authors_min: int = 1
    authors_max: int = 3
    author_pool_scale: float = 0.5  # pool size per region relative to its article count
    n_journals: int = 20
    seed: int = 0

    def __post_init__(self):
        n_years = self.span[1] - self.span[0] + 1
        if len(self.articles_per_year) != n_years or len(self.refs_per_article) != n_years:
            raise ValueError("schedules must have one entry per span year")
        if min(self.articles_per_year) < 0 or min(self.refs_per_article) < 0:
            raise ValueError("schedules must be non-negative")
        for probs in (tuple(p for _, p in self.field_mix),
                      tuple(p for _, p, _ in self.region_mix),
                      tuple(p for _, _, p in self.region_mix)):
            if abs(sum(probs) - 1.0) > 1e-9:
                raise ValueError("probability mix must sum to 1")
        if self.attachment_constant < 0:
            raise ValueError("attachment constant must be >= 0")


def _first_distinct(row: np.ndarray, draws: np.ndarray, quota: np.ndarray) -> np.ndarray:
    """Mask of the first `quota[row]` distinct values of each row's non-negative `draws` (of equal values, the
    earliest drawn); the cells come by ascending row, in draw order within a row."""
    key = row * (int(draws.max(initial=0)) + 1) + draws
    order = np.argsort(key, kind="stable")  # stable: equal values stay in draw order
    head = np.empty(len(key), dtype=bool)
    head[order] = np.diff(key[order], prepend=-1) != 0
    seen = np.cumsum(head)
    before = np.maximum.accumulate(np.where(np.diff(row, prepend=-1) != 0, seen - head, 0))  # in earlier rows
    return head & (seen - before <= quota[row])


def _kept_draws(u: np.ndarray, quota: np.ndarray, cdf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, cdf bin) of the first `quota` distinct bins each row of uniforms `u` falls in, by row and in draw
    order. A row's columns from quota + 2 on are looked up only if the first ones fall short."""
    def lookup(v):
        order = np.argsort(v)  # sorted queries make searchsorted far faster
        out = np.empty(len(v), dtype=np.int64)
        out[order] = np.minimum(np.searchsorted(cdf, v[order]), len(cdf) - 1)  # scattered back to draw order
        return out
    looked = np.arange(u.shape[1]) < quota[:, None] + 2
    row = np.nonzero(looked)[0]
    value = lookup(u[looked])
    keep = _first_distinct(row, value, quota)
    short = np.bincount(row[keep], minlength=len(u)) < quota
    if not short.any():
        return row[keep], value[keep]
    # A short row keeps what it kept and can only add later draws: look those up and dedup the row again.
    s = np.flatnonzero(short)
    full = np.empty((len(s), u.shape[1]), dtype=np.int64)
    full[looked[s]] = value[short[row]]
    full[~looked[s]] = lookup(u[s][~looked[s]])
    again = _first_distinct(np.repeat(s, u.shape[1]), full.ravel(), quota)
    keep &= ~short[row]
    row = np.concatenate([row[keep], np.repeat(s, u.shape[1])[again]])
    order = np.argsort(row, kind="stable")
    return row[order], np.concatenate([value[keep], full.ravel()[again]])[order]


def generate(params: GenParams) -> Corpus:
    start, end = params.span
    n_years = end - start + 1
    counts = np.asarray(params.articles_per_year, dtype=np.int64)
    n_total = int(counts.sum())
    rng = np.random.default_rng(params.seed)

    pub_year = np.repeat(np.arange(start, end + 1, dtype=np.int32), counts)
    year_first = np.concatenate([[0], np.cumsum(counts)])[:-1]

    field_labels = [f for f, _ in params.field_mix]
    field_probs = np.asarray([p for _, p in params.field_mix])
    field_code = rng.choice(len(field_labels), size=n_total, p=field_probs).astype(np.int32)

    region_labels = [r for r, _, _ in params.region_mix]
    p0 = np.asarray([p for _, p, _ in params.region_mix])
    p1 = np.asarray([p for _, _, p in params.region_mix])
    region_code = np.empty(n_total, dtype=np.int32)
    for t in range(n_years):
        frac = t / (n_years - 1) if n_years > 1 else 0.0
        p = p0 + (p1 - p0) * frac
        p = p / p.sum()
        sl = slice(year_first[t], year_first[t] + counts[t])
        region_code[sl] = rng.choice(len(region_labels), size=int(counts[t]), p=p)

    journal_code = rng.integers(0, params.n_journals, size=n_total).astype(np.int32)

    # Per-region author pools; reuse within a pool is what creates shared authors.
    region_totals = np.bincount(region_code, minlength=len(region_labels))
    pool_size = np.maximum(5, (region_totals * params.author_pool_scale).astype(np.int64))
    pool_offset = np.concatenate([[0], np.cumsum(pool_size)])[:-1]
    n_authors = rng.integers(params.authors_min, params.authors_max + 1, size=n_total)
    flat_regions = np.repeat(region_code, n_authors)
    flat_codes = pool_offset[flat_regions] + (rng.random(int(n_authors.sum())) * pool_size[flat_regions]).astype(np.int64)
    # Recode pool members so that codes ascend in the order of their names "a<member>": byte rows holding
    # "a" and the digits at their ends, ranked as strings.
    members, flat_codes = np.unique(flat_codes, return_inverse=True)
    width = len(str(int(members.max(initial=0)))) + 1
    cells = np.zeros((len(members), width), np.uint8)
    cells[:, 1:] = members[:, None] // 10 ** np.arange(width - 2, -1, -1) % 10 + ord("0")
    row_end = width * np.arange(1, len(members) + 1)
    names = _Utf8(cells.ravel(), row_end - 2 - np.searchsorted(10 ** np.arange(1, width), members, "right"), row_end)
    names.buf[names.lo] = ord("a")
    rank = _ranks(names.buf, names.lo, names.hi)[0]
    flat_codes = rank[flat_codes]
    first_draw = np.cumsum(n_authors) - n_authors
    n_codes = max(len(members), 1)
    author_keys = [np.repeat(np.arange(n_total, dtype=np.int64), n_authors) * n_codes + flat_codes]

    indeg = np.zeros(n_total, dtype=np.int64)
    citing_parts: list[np.ndarray] = []
    cited_parts: list[np.ndarray] = []
    clamped = 0
    for t in range(n_years):
        a_count = int(counts[t])
        n_prior = int(year_first[t])
        if a_count == 0:
            continue
        requested = rng.poisson(params.refs_per_article[t], size=a_count)
        if n_prior == 0:
            clamped += int(requested.sum())
            continue
        quota = np.minimum(requested, n_prior)
        clamped += int((requested - quota).sum())
        if quota.max() == 0:
            continue
        weights = indeg[:n_prior] + float(params.attachment_constant)
        if params.attachment_exponent != 1:
            weights **= params.attachment_exponent
        if params.recency_halflife is not None:  # the decay at the ages t - s of the years s < t, once a year
            weights *= np.repeat(np.power(0.5, np.arange(t, 0, -1) / params.recency_halflife), counts[:t])
        if weights.sum() <= 0:
            weights = np.ones(n_prior)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]

        n_cols = int(quota.max()) + max(4, int(quota.max()) // 2)
        row, cited = _kept_draws(rng.random((a_count, n_cols)), quota, cdf)
        citing = year_first[t] + row
        deficit_rows = np.flatnonzero(np.bincount(row, minlength=a_count) < quota)
        if len(deficit_rows):
            # Rows draw blocks of raw words (rng.random's uniform is a word's top 53 bits / 2^53), whose top 12 bits
            # pick a bucket b that can hit only articles lo[b]..hi[b]. A row keeps its first new articles, then rewinds.
            edge = np.arange(4097) / 4096
            lo, hi = np.searchsorted(cdf, edge[:-1]), np.searchsorted(cdf, edge[1:] - 2.0 ** -53)
            extra = [np.stack([citing, cited])]
            for i in deficit_rows:
                held, k = np.sort(cited[np.searchsorted(row, i):np.searchsorted(row, i, "right")]), 16
                while len(held) < quota[i]:
                    lacks = hi - lo + 1 > np.searchsorted(held, hi, "right") - np.searchsorted(held, lo)
                    raw = rng.bit_generator.random_raw(k)
                    at = np.flatnonzero(lacks[raw >> 52])
                    draw = np.minimum(np.searchsorted(cdf, (raw[at] >> 11) * 2.0 ** -53), n_prior - 1)
                    new = np.sort(np.unique(draw, return_index=True)[1])
                    new = new[~np.isin(draw[new], held)][:quota[i] - len(held)]
                    rng.bit_generator.advance(int(at[new[-1]]) + 1 - k if len(held) + len(new) == quota[i] else 0)
                    held, k = np.sort(np.append(held, draw[new])), min(2 * k, 1 << 20)
                    extra.append(np.stack([np.full(len(new), year_first[t] + i), draw[new]]))
            citing, cited = np.concatenate(extra, axis=1)
        citing_parts.append(citing)
        cited_parts.append(cited)
        indeg[:n_prior] += np.bincount(cited, minlength=n_prior)

        if params.self_citation_rate > 0:
            # The citing article takes on the cited article's first drawn author, if any.
            sc = np.flatnonzero(rng.random(len(citing)) < params.self_citation_rate)
            sc = sc[n_authors[cited[sc]] > 0]
            author_keys.append(citing[sc] * n_codes + flat_codes[first_draw[cited[sc]]])

    citing = np.concatenate(citing_parts) if citing_parts else np.zeros(0, dtype=np.int64)
    cited = np.concatenate(cited_parts) if cited_parts else np.zeros(0, dtype=np.int64)
    del citing_parts, cited_parts

    author_keys = np.sort(np.concatenate(author_keys))
    author_keys = author_keys[np.diff(author_keys, prepend=-1) != 0]  # not np.unique: its int64 hash path is slow
    author_ptr = np.concatenate([[0], np.cumsum(np.bincount(author_keys // n_codes, minlength=n_total))])
    author_code = author_keys % n_codes
    self_edge = _compute_self_edges(author_ptr, author_code, citing, cited)  # the memory peak: before the ids

    # Ids "p000000", ...: ascending, so their ranks are their rows. The digits go into byte rows 2^16 at a time
    # (whole-column temporaries raised the generator's peak RSS by 10 MB at 302k articles).
    width = max(6, len(str(n_total))) + 1
    cells = np.full((n_total, width), ord("p"), np.uint8)
    for lo in range(0, n_total, 1 << 16):
        number = np.arange(lo, min(n_total, lo + (1 << 16)))
        cells[lo:lo + len(number), 1:] = number[:, None] // 10 ** np.arange(width - 2, -1, -1) % 10 + ord("0")
    row = np.arange(n_total + 1) * width
    return Corpus(
        ids=_Utf8(cells.ravel(), row[:-1], row[1:]),
        id_rank=np.arange(n_total),
        pub_year=pub_year,
        field_code=field_code,
        fields=field_labels,
        region_code=region_code,
        regions=region_labels,
        journal_code=journal_code,
        journals=[f"J{j}" for j in range(params.n_journals)],
        author_ptr=author_ptr,
        author_code=author_code,
        authors=names.take(np.argsort(rank)),
        citing=citing,
        cited=cited,
        self_edge=self_edge,
        span=params.span,
        drops={"clamped_refs": clamped},
    )


SCENARIOS = ("stationary", "declining-uncitedness", "region-shift")


def scenario(name: str, seed: int | None = None) -> GenParams:
    """Named generator presets exercising the mechanisms the studies measure."""
    if name == "stationary":
        n = 30
        params = GenParams(
            span=(1980, 1980 + n - 1),
            articles_per_year=tuple([800] * n),
            refs_per_article=tuple([8.0] * n),
            attachment_constant=2.0,
            attachment_exponent=1.0,
            recency_halflife=5.0,
            self_citation_rate=0.05,
            seed=20240601,
        )
    elif name == "declining-uncitedness":
        # Large first-year cohort keeps early uncitedness high (the citing
        # volume of the first years would otherwise all land on a tiny pool);
        # geometric reference growth drives uncitedness down year over year.
        n = 35
        params = GenParams(
            span=(1980, 1980 + n - 1),
            articles_per_year=(30000,) + tuple(int(round(v)) for v in linear_schedule(4000, 12000, n - 1)),
            refs_per_article=geometric_schedule(0.8, 5.6, n),
            attachment_constant=12.0,
            attachment_exponent=1.0,
            recency_halflife=2.0,
            self_citation_rate=0.05,
            seed=6,
        )
    elif name == "region-shift":
        n = 35
        params = GenParams(
            span=(1980, 1980 + n - 1),
            articles_per_year=(25000,) + tuple(int(round(v)) for v in linear_schedule(4000, 10000, n - 1)),
            refs_per_article=geometric_schedule(0.8, 5.0, n),
            region_mix=(
                ("NorthAmerica", 0.60, 0.15),
                ("Europe", 0.24, 0.33),
                ("Asia", 0.08, 0.45),
                ("Africa", 0.04, 0.04),
                ("Other", 0.04, 0.03),
            ),
            attachment_constant=12.0,
            attachment_exponent=1.0,
            recency_halflife=2.0,
            self_citation_rate=0.05,
            seed=20240603,
        )
    else:
        raise ValueError(f"unknown scenario {name!r}; available: {', '.join(SCENARIOS)}")
    if seed is not None:
        params = replace(params, seed=seed)
    return params
