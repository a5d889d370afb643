"""Citation windows: the vectorised rules the studies' score table applies.

The publication year itself is never counted. A forward window of length W
over publication year y covers citing years y+1 .. y+W, and only cohorts whose
full window fits inside the corpus span are eligible. A backward window of
length W over reference year y reads the references made in y to articles
published in y-W .. y-1. :func:`in_window_edge_mask` applies the year gap to
every edge at once; ``tests/oracle.py`` is the per-article reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from citeconc.corpus import Corpus

FORWARD = "forward"
BACKWARD = "backward"


@dataclass(frozen=True)
class WindowSpec:
    direction: str
    length: int

    def __post_init__(self):
        if self.direction not in (FORWARD, BACKWARD):
            raise ValueError(f"unknown window direction {self.direction!r}")
        if self.length < 1:
            raise ValueError("window length must be >= 1")


def eligible_pub_years_forward(span: tuple[int, int], w: WindowSpec) -> range:
    """Publication years whose full forward window fits inside the span."""
    if w.direction != FORWARD:
        raise ValueError("forward window required")
    start, end = span
    return range(start, end - w.length + 1)


def cited_population_backward(ref_year: int, span: tuple[int, int], w: WindowSpec) -> range | None:
    """Publication years of the cited population for a reference year, or None
    when the backward window would leave the span."""
    if w.direction != BACKWARD:
        raise ValueError("backward window required")
    if ref_year - w.length < span[0]:
        return None
    return range(ref_year - w.length, ref_year)


def in_window_edge_mask(corpus: Corpus, length: int, exclude_self: bool = False) -> np.ndarray:
    """Boolean mask over corpus edges whose citing-to-cited year gap is in [1, length]."""
    delta = corpus.citing_year - corpus.cited_year  # int32, as pub_year is
    mask = (delta >= 1) & (delta <= length)
    if exclude_self:
        mask &= ~corpus.self_edge
    return mask
