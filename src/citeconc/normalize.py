"""Citation-inflation weights and field/year normalization: the vectorised
layer the studies' score table runs, over every article or edge at once.

Forward approach: every citation made in year y carries weight
rho_y = 1 / (total citations made in y); an article's weighted citation score
(ics) is the sum of its in-window citations times their year weights, and is
divided by the mean score of its field (or of its field and publication year)
to give a field mean of exactly 1 (nics).

Backward approach: each incoming reference from a citing article of field k is
worth 1 / (mean in-window reference count of field k in the reference year),
read from :func:`field_mean_reference_table`.

``tests/oracle.py`` computes the same numbers one article at a time.
"""

from __future__ import annotations

import numpy as np

from citeconc.corpus import Corpus
# in_window_edge_mask builds the ``mask`` each function takes; perfbench/test_smoke.py reads it here.
from citeconc.windows import in_window_edge_mask  # noqa: F401

RHO_SCOPE_STUDY = "study"
RHO_SCOPE_ALL_EDGES = "all_edges"


def year_weights(corpus: Corpus, exclude_self: bool = False) -> np.ndarray:
    """Inverse total-citation weight of each year ``y`` of the span, at ``y - span[0]``:
    1 / (citations made in ``y``, without self-citations if ``exclude_self``), or 0
    in a year with none."""
    citing_year = corpus.citing_year[~corpus.self_edge] if exclude_self else corpus.citing_year
    counts = np.bincount(citing_year - corpus.span[0], minlength=corpus.span[1] - corpus.span[0] + 1)
    return np.divide(1.0, counts, out=np.zeros(len(counts)), where=counts > 0)


def ics_array(corpus: Corpus, mask: np.ndarray, *, exclude_self: bool, rho_scope: str) -> np.ndarray:
    """Year-weighted citation score of every article in the corpus over the edges
    in ``mask``, an ``in_window_edge_mask``.

    Self-citations are left out of the year weights when ``exclude_self`` is set,
    unless ``rho_scope`` is ``all_edges``.
    """
    rho = year_weights(corpus, exclude_self=exclude_self and rho_scope == RHO_SCOPE_STUDY)
    wts = rho[corpus.citing_year[mask] - corpus.span[0]]
    counts = np.bincount(corpus.cited[mask], weights=wts, minlength=corpus.n_articles)
    return counts.astype(np.float64, copy=False)


def nics_array(corpus: Corpus, cohort_idx: np.ndarray, mask: np.ndarray, *, exclude_self: bool,
               mics_per_year: bool, rho_scope: str) -> np.ndarray:
    """Field-normalized scores for the given cohort indices: each ics (see
    :func:`ics_array`) divided by the mean ics of its field in the cohort, or of
    its field and publication year when ``mics_per_year`` is set.

    Fields whose cohort members are all uncited get score 0 throughout.
    """
    if len(cohort_idx) == 0:
        raise ValueError("empty cohort")
    scores = ics_array(corpus, mask, exclude_self=exclude_self, rho_scope=rho_scope)[cohort_idx]
    if mics_per_year:
        n_years = corpus.span[1] - corpus.span[0] + 1
        group = corpus.field_code[cohort_idx].astype(np.int64) * n_years + (corpus.pub_year[cohort_idx] - corpus.span[0])
    else:
        group = corpus.field_code[cohort_idx].astype(np.int64)
    sums = np.bincount(group, weights=scores)
    counts = np.bincount(group)
    means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    denom = means[group]
    return np.divide(scores, denom, out=np.zeros_like(scores), where=denom > 0)


def field_mean_reference_table(corpus: Corpus, mask: np.ndarray) -> np.ndarray:
    """Mean outgoing reference count over the edges in ``mask``, an
    ``in_window_edge_mask``, per (field, publication year) cell.

    Shape (n_fields, span length); cells with no articles are 0.
    """
    start, end = corpus.span
    n_years = end - start + 1
    n_fields = len(corpus.fields)
    art_group = corpus.field_code.astype(np.int64) * n_years + (corpus.pub_year - start)
    counts = np.bincount(art_group, minlength=n_fields * n_years)
    refs = np.bincount(art_group[corpus.citing[mask]], minlength=n_fields * n_years)
    means = np.divide(refs, counts, out=np.zeros(n_fields * n_years), where=counts > 0)
    return means.reshape(n_fields, n_years)
