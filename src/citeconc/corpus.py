"""Article/edge ingestion and the immutable indexed Corpus.

Input files are UTF-8 TSV with a header row:

    articles: id  pub_year  field  region  journal_id  author_ids
    edges:    citing_id  cited_id

author_ids is a ``;``-separated list (possibly empty). :func:`read_tables` is
the one row parser: it holds the row, span and edge-drop rules that both
:func:`load_corpus` (``analyze``) and ``citeconc validate`` apply.

One numpy tokeniser splits the files' bytes into rows of field bounds as
``csv.reader`` reads them, quotes and CRs included (:func:`_split`), and one
checker applies every row rule, with csv's errors and line numbers. Ids, labels
and names of any length are ranked by one sort (:func:`_ranks`); edge ends are
looked up by one 64-bit key per id, an id's bytes or their hash (:func:`_id_finder`).
"""

from __future__ import annotations

import csv
import functools
import itertools
import sys
from typing import Callable, Iterable, Iterator

import numpy as np

ARTICLE_COLUMNS = ["id", "pub_year", "field", "region", "journal_id", "author_ids"]
EDGE_COLUMNS = ["citing_id", "cited_id"]


class DataError(Exception):
    """Malformed input that cannot be skipped (unreadable row, bad row shape, bad year, duplicate id)."""


class _Utf8:
    """Strings kept as their UTF-8 bytes: string ``i`` is ``buf[lo[i]:hi[i]]``. The ranges may skip
    bytes of ``buf``, as those of a file's fields or of a subset do."""

    def __init__(self, buf: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        self.buf, self.lo, self.hi = buf, np.asarray(lo, np.int64), np.asarray(hi, np.int64)

    @classmethod
    def of(cls, strings: Iterable[str]) -> "_Utf8":
        encoded = [s.encode() for s in strings]
        n = np.fromiter(map(len, encoded), np.int64, len(encoded))
        return cls(np.frombuffer(b"".join(encoded), np.uint8), np.cumsum(n) - n, np.cumsum(n))

    def __len__(self) -> int:
        return len(self.lo)

    def take(self, index: np.ndarray) -> "_Utf8":
        return _Utf8(self.buf, self.lo[index], self.hi[index])

    def compact(self) -> "_Utf8":
        """The same strings in a buffer of their bytes alone."""
        n = self.hi - self.lo
        hi = np.cumsum(n)
        return _Utf8(_gather(self.buf, self.lo, n), hi - n, hi)

    def tolist(self) -> list[str]:
        return _decode(self.buf.tobytes(), self.lo, self.hi)


class Corpus:
    """Immutable column store of articles plus a deduplicated citation edge list.

    Article ids and author names are kept as UTF-8 bytes (``id_utf8``, ``author_utf8``) and
    decoded only when read as strings, through ``ids`` (an object array) and ``authors`` (a
    list). Article ``i``'s id ranks ``id_rank[i]`` in byte order, which is
    ``str`` order; ids are distinct (a repeat is a :class:`DataError`, which for input files
    :func:`read_tables` raises with the line number). The loader, the generator and
    :meth:`subset` pass the ranks they know; otherwise the ids are ranked here.
    Fields, regions, journals and authors are integer codes into label lists.
    Authors are in CSR form: article ``i`` has the distinct authors ``authors[c]``
    for ``c`` in ``author_code[author_ptr[i]:author_ptr[i + 1]]``, listed in
    ascending order of author name, the order :func:`write_tables` emits.
    ``self_edge`` flags the edges whose two articles share an author; the builders
    compute it with ``_compute_self_edges`` (a 64-bit author signature per article
    rules out most edges, and a merge of the name-ordered author lists checks the
    rest) and :meth:`subset` slices it.

    Arrays are frozen after construction; every downstream operation treats the
    corpus as read-only, so unrestricted concurrent reads are safe.
    """

    def __init__(
        self,
        *,
        ids: _Utf8 | Iterable[str],
        pub_year: np.ndarray,
        field_code: np.ndarray,
        fields: list[str],
        region_code: np.ndarray,
        regions: list[str],
        journal_code: np.ndarray,
        journals: list[str],
        author_ptr: np.ndarray,
        author_code: np.ndarray,
        authors: _Utf8 | Iterable[str],
        citing: np.ndarray,
        cited: np.ndarray,
        self_edge: np.ndarray,
        span: tuple[int, int],
        drops: dict[str, int],
        rows_read: tuple[int, int] = (0, 0),
        id_rank: np.ndarray | None = None,
    ):
        self.id_utf8 = ids if isinstance(ids, _Utf8) else _Utf8.of(ids)
        if id_rank is None:
            id_rank = _ranks(self.id_utf8.buf, self.id_utf8.lo, self.id_utf8.hi)[0]
        self.id_rank = np.asarray(id_rank, dtype=np.int64)
        if len(self.id_rank) and np.bincount(self.id_rank).max() > 1:
            raise DataError("duplicate article id in corpus construction")
        self.pub_year = np.asarray(pub_year, dtype=np.int32)
        self.field_code = np.asarray(field_code, dtype=np.int32)
        self.fields = list(fields)
        self.region_code = np.asarray(region_code, dtype=np.int32)
        self.regions = list(regions)
        self.journal_code = np.asarray(journal_code, dtype=np.int32)
        self.journals = list(journals)
        self.author_ptr = np.asarray(author_ptr, dtype=np.int64)
        self.author_code = np.asarray(author_code, dtype=np.int32)
        self.author_utf8 = authors if isinstance(authors, _Utf8) else _Utf8.of(authors)
        self.citing = np.asarray(citing, dtype=np.int64)
        self.cited = np.asarray(cited, dtype=np.int64)
        self.span = (int(span[0]), int(span[1]))
        self.drops = dict(drops)
        self.rows_read = rows_read
        self.citing_year = self.pub_year[self.citing] if len(self.citing) else np.zeros(0, np.int32)
        self.cited_year = self.pub_year[self.cited] if len(self.cited) else np.zeros(0, np.int32)
        self.self_edge = np.asarray(self_edge, dtype=bool)
        for arr in (self.id_rank, self.pub_year, self.field_code, self.region_code, self.journal_code,
                    self.author_ptr, self.author_code, self.citing, self.cited, self.citing_year, self.cited_year,
                    self.self_edge):
            arr.flags.writeable = False

    @functools.cached_property
    def ids(self) -> np.ndarray:
        ids = np.array(self.id_utf8.tolist(), dtype=object)
        ids.flags.writeable = False
        return ids

    @functools.cached_property
    def authors(self) -> list[str]:
        return self.author_utf8.tolist()

    @property
    def n_articles(self) -> int:
        return len(self.id_rank)

    @property
    def n_edges(self) -> int:
        return len(self.citing)

    def subset(self, keep: np.ndarray) -> "Corpus":
        """New corpus restricted to the articles flagged in ``keep``; edges are
        restricted to retained endpoints. Vocabularies are carried over unchanged."""
        keep = np.asarray(keep, dtype=bool)
        old_idx = np.flatnonzero(keep)
        remap = np.full(self.n_articles, -1, dtype=np.int64)
        remap[old_idx] = np.arange(len(old_idx))
        edge_keep = keep[self.citing] & keep[self.cited] if self.n_edges else np.zeros(0, bool)
        return Corpus(
            ids=self.id_utf8.take(old_idx),
            id_rank=self.id_rank[old_idx],
            pub_year=self.pub_year[old_idx],
            field_code=self.field_code[old_idx],
            fields=self.fields,
            region_code=self.region_code[old_idx],
            regions=self.regions,
            journal_code=self.journal_code[old_idx],
            journals=self.journals,
            author_ptr=np.concatenate([[0], np.cumsum(np.diff(self.author_ptr)[keep])]),
            author_code=self.author_code[np.repeat(keep, np.diff(self.author_ptr))],
            authors=self.author_utf8,
            citing=remap[self.citing[edge_keep]],
            cited=remap[self.cited[edge_keep]],
            self_edge=self.self_edge[edge_keep],
            span=self.span,
            drops={"filtered_endpoint": int(self.n_edges - int(edge_keep.sum()))},
        )


# Candidate (edge, author) pairs, both sides, per pass of _compute_self_edges: bounds its peak memory, a few
# int64 arrays of this length. At 2^20 the 300k-article generator peaks 17 MB higher; 2^18 is no slower.
_SELF_EDGE_CHUNK = 1 << 18


def _compute_self_edges(author_ptr: np.ndarray, author_key: np.ndarray,
                        citing: np.ndarray, cited: np.ndarray) -> np.ndarray:
    """Flag edges whose citing and cited articles share an author, where article ``i`` has
    the authors ``author_key[author_ptr[i]:author_ptr[i + 1]]``, ascending. An article's
    uint64 signature sets bit ``key % 64`` for each of its keys: only edges whose two
    signatures meet can share an author. Each side of those expands to ``edge * n_keys +
    key``, which ascends with no sort, and the cited keys are looked up in the citing."""
    def keys(art: np.ndarray) -> np.ndarray:  # each article's keys, plus n_keys times its place in art
        k = n_auth[art]
        end = np.cumsum(k)
        return np.repeat(np.arange(len(art)) * n_keys, k) + author_key[
            np.repeat(author_ptr[art] - (end - k), k) + np.arange(end[-1])]
    n_keys, n_auth = int(author_key.max(initial=0)) + 1, np.diff(author_ptr)
    named, sig = n_auth > 0, np.zeros(len(n_auth), np.uint64)  # reduceat over the non-empty lists only
    sig[named] = np.bitwise_or.reduceat(np.uint64(1) << (author_key % 64).astype(np.uint64), author_ptr[:-1][named])
    edge = sig[citing]
    edge &= sig[cited]  # in place, then replaced by the candidates: no third array of every edge
    edge, out = np.flatnonzero(edge), np.zeros(len(citing), dtype=bool)
    start = np.cumsum(np.r_[0, n_auth[citing[edge]] + n_auth[cited[edge]]])  # each candidate's first pair, and the end
    cut = np.searchsorted(start, np.arange(0, start[-1], _SELF_EDGE_CHUNK), "right") - 1
    for lo, hi in itertools.pairwise(np.unique(np.append(cut, len(edge))).tolist()):
        a, b = keys(citing[edge[lo:hi]]), keys(cited[edge[lo:hi]])
        at = np.minimum(np.searchsorted(a, b), len(a) - 1)
        out[edge[lo + b[a[at] == b] // n_keys]] = True
    return out


def _sections(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The quoted sections of ``buf``, which starts a row, as ``csv.reader`` reads them: the first
    byte of each and the byte after its last, in order (``len(buf) + 1`` for one left open), and the
    quotes that unquoting removes. A run of quotes where a field starts (at byte 0 or after a tab,
    LF or CR) opens a section unless an earlier one holds it. Past the opening quote ``""`` stands
    for ``"``, so the section closes at the last quote of the first run of odd length (the opening
    run counted without that quote), and each run in it drops its quotes at offsets 0, 2, 4, ..."""
    q = np.flatnonzero(buf == 34)
    new = np.ones(len(q), bool)
    new[1:] = q[1:] != q[:-1] + 1
    run = np.flatnonzero(new)  # each run's first quote, as an index of q
    last = np.append(run, len(q))[1:] - 1
    before = buf[q[run] - 1]
    cand = np.flatnonzero((q[run] == 0) | (before == 9) | (before == 10) | (before == 13))
    odd = np.append(np.flatnonzero((last - run) % 2 == 0), len(run))  # the runs of odd length, then none
    close = np.append(q[last], len(buf))[np.where((last - run)[cand] % 2, cand,
                                                  odd[np.searchsorted(odd[:-1], cand, "right")])]
    after = np.searchsorted(q[run[cand]], close, "right")  # the first candidate past each one's section
    opens = np.ones(len(cand), bool)
    for i in np.flatnonzero(after > np.arange(1, len(cand) + 1)).tolist():  # sections holding candidates
        if opens[i]:
            opens[i + 1:after[i]] = False
    first = run[cand[opens]]
    new[np.minimum(first + 1, len(q) - 1)] = True  # the opening quote is a run of its own
    bounds = np.column_stack([q[first], close[opens] + 1]).ravel()
    offset = np.arange(len(q)) - np.flatnonzero(new)[np.cumsum(new) - 1]
    return bounds, q[(np.searchsorted(bounds, q, "right") % 2 == 1) & (offset % 2 == 0)]


def _outside(at: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """The separators at ``at`` outside the :func:`_sections` ``bounds``: those inside are content."""
    return at[np.searchsorted(bounds, at, "right") % 2 == 0] if len(bounds) else at


def _split(data: bytes, columns: list[str], name: str, size: int) -> Iterator[tuple]:
    """The rows of file ``name``, the TSV table ``data`` with the header ``columns``, as
    ``csv.reader(delimiter="\\t")`` reads them, in pieces ``(data, ends, line, bad)`` of about
    ``size`` bytes: the fields of each non-blank row lie in ``data`` at ``ends`` (see
    :func:`_field`), and it starts on physical line ``line``. ``bad`` is the :class:`DataError` of
    the next row (another width, or a field over ``csv.field_size_limit()``), or None; no piece
    follows it. Tabs, LFs and CRs outside quotes (:func:`_sections`) end fields and rows: a CR, or
    an LF after none, ends a row. A piece ends after a row and holds every section it opens; its
    ``data`` is the file's bytes, or a copy of it without the quotes that unquoting removes."""
    try:
        data.isascii() or data.decode()
    except UnicodeDecodeError as e:
        head = data[:e.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise DataError(f"{name} line {line}: {e}") from None
    width, limit = len(columns), csv.field_size_limit()
    over = f"field larger than field limit ({limit})"
    quoted, cr = b'"' in data, b"\r" in data
    start, line, reach = 0, 1, size  # where the piece starts, on which line, and how far it reaches
    while True:
        found = [at for at in (data.find(b"\n", start + reach), data.find(b"\r", start + reach) if cr else -1)
                 if at >= 0]
        stop = min(found) + 1 if found else len(data)  # after the first line end it reaches, or at the end
        stop += data[stop - 1:stop + 1] == b"\r\n"
        buf = np.frombuffer(data, np.uint8, stop - start, start)
        bounds, removed = _sections(buf) if quoted else (np.zeros(0, np.int64),) * 2
        if len(bounds) and bounds[-1] > len(buf) and stop < len(data):  # a section goes on past the piece
            reach = 2 * (stop - start)
            continue
        nl = np.flatnonzero(buf == 10)
        if cr:  # a line also ends at a CR before no LF
            crs = np.flatnonzero(buf == 13)
            nl = np.sort(np.append(nl, crs[buf[np.minimum(crs + 1, len(buf) - 1)] != 10]))
        breaks, nl = nl, _outside(nl, bounds)
        line_lo, line_hi = np.append(-1, nl), np.append(nl, len(buf))  # a row ends where its line does
        if cr:  # or at the CR of a CRLF
            line_hi[:-1] -= (buf[nl] == 10) & (buf[np.maximum(nl - 1, 0)] == 13)
        rows = np.arange(len(line_lo)) if len(breaks) == len(nl) else np.searchsorted(breaks, line_lo, "right")
        n_lines = len(breaks)
        del breaks, nl
        nonblank = line_hi > line_lo + 1
        header = bool(nonblank[0])
        nonblank[0] |= start == 0  # the file's first row is its header, blank or not
        tabs = _outside(np.flatnonzero(buf == 9), bounds)
        if len(removed):
            buf = np.delete(buf, removed)
            tabs, line_lo, line_hi = (at - np.searchsorted(removed, at) for at in (tabs, line_lo, line_hi))
        line_lo, line_hi, rows = line_lo[nonblank], line_hi[nonblank], rows[nonblank] + line
        k, message = len(line_lo), None  # the rows split, and why the next is not

        def cells(r: int) -> list[str]:  # the fields of row r
            cut = tabs[np.searchsorted(tabs, line_lo[r]):np.searchsorted(tabs, line_hi[r])]
            return [buf[a + 1:b].tobytes().decode() for a, b in itertools.pairwise([line_lo[r], *cut, line_hi[r]])]

        # With the right count, row r's tabs are block r of the tab list, which must lie in row r.
        if len(tabs) != (width - 1) * k or width > 1 and k and ((tabs[::width - 1] <= line_lo).any()
                                                                or (tabs[width - 2::width - 1] >= line_hi).any()):
            count = np.searchsorted(tabs, line_hi) - np.searchsorted(tabs, line_lo)
            k = int(np.argmax(count != width - 1))
            message = f"expected {width} columns, got {count[k] + 1}"
        for r in np.flatnonzero(line_hi[:k + 1] - line_lo[:k + 1] > limit + 1).tolist():  # rows over the limit
            if max(map(len, cells(r))) > limit:
                k, message = r, over
                break
        if start == 0 and (k or message != over):  # the header, unless a field of it is over the limit
            if not header or not k or [c.strip() for c in cells(0)] != columns:
                raise DataError(f"{name}: bad or missing header, expected {chr(9).join(columns)!r}")
            line_lo, line_hi, rows, tabs, k = line_lo[1:], line_hi[1:], rows[1:], tabs[width - 1:], k - 1
        ends = np.column_stack([line_lo[:k], tabs[:(width - 1) * k].reshape(k, width - 1), line_hi[:k]])
        del line_lo, line_hi, tabs
        bad = None if message is None else DataError(f"{name} line {rows[k]}: {message}")
        if not len(removed):
            ends += start
        yield buf.tobytes() if len(removed) else data, ends, rows[:k], bad
        if bad is not None or stop == len(data):
            return
        del ends, rows  # before the next piece's arrays exist
        start, line, reach = stop, line + n_lines, size


def _field(ends: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    """The byte ranges ``[lo, hi)`` of column ``j`` of the rows bounded by ``ends``."""
    return ends[:, j] + 1, ends[:, j + 1].copy()


# Bytes of the edges table that are split and looked up at a time: bounds the memory
# of that pass to some tens of MB however many edges there are.
_EDGE_PIECE = 1 << 22


# _BYTE_MASK[n] keeps the first n bytes of a big-endian uint64 word, _FIRST[n] those in memory of a native one.
_BYTE_MASK = np.array([(1 << 64) - (1 << (64 - 8 * n)) for n in range(9)], dtype=np.uint64)
_FIRST = _BYTE_MASK.astype(">u8").view(np.uint64)


def _windows(buf: np.ndarray, pos: np.ndarray, dtype: str) -> np.ndarray:
    """The 8 bytes at each ``buf[pos:]`` (zero past its end) as ``dtype``, gathered at once."""
    buf = np.concatenate([buf, np.zeros(8, np.uint8)]) if len(buf) < 8 else buf
    last = len(buf) - 8
    late = pos > last  # windows that run past the end are read from its last 8 bytes and 8 zeros
    word = np.ndarray((last + 1,), dtype, buf, strides=(1,))[np.minimum(pos, last) if late.any() else pos]
    if late.any():
        tail = np.concatenate([buf[last:], np.zeros(8, np.uint8)])
        word[late] = np.ndarray((9,), dtype, tail, strides=(1,))[np.minimum(pos[late] - last, 8)]
    return word


def _key(buf: np.ndarray, pos: np.ndarray, n: np.ndarray, c: int, run) -> np.ndarray:
    """The uint64 sort key of the strings of ``n`` bytes at ``buf[pos:]``: the ``run`` each
    is sorted within, its first ``c`` (at most 7) bytes zero-padded, and ``min(n, c + 1)``,
    which puts it before the longer strings it starts and tells whether it goes on."""
    key = _windows(buf, pos, ">u8").astype(np.uint64)
    key &= _BYTE_MASK[np.clip(n, 0, c)]
    key >>= 60 - 8 * c
    key |= np.clip(n, 0, c + 1).view(np.uint64)
    key |= run << 8 * c + 4
    return key


def _matched(abuf: np.ndarray, apos: np.ndarray, bbuf: np.ndarray, bpos: np.ndarray, n: np.ndarray) -> np.ndarray:
    """How many of the ``n`` bytes at ``abuf[apos:]`` and ``bbuf[bpos:]`` agree, in whole 8-byte
    words (``n`` if all); a string's last word ends at its last byte. Rows still agreeing compare
    blocks of words, which double while they fit the longest and stay below 1/64 of the buffers."""
    out, live, done, width = n.copy(), np.flatnonzero(n > 0), 0, 1
    while len(live):
        size = n[live]
        at = np.minimum(done + 8 * np.arange(width), np.maximum(size - 8, 0)[:, None])
        differ = _windows(abuf, apos[live, None] + at, "=u8") ^ _windows(bbuf, bpos[live, None] + at, "=u8")
        differ &= _FIRST[np.minimum(size, 8)][:, None]  # a string under 8 bytes
        agree = differ == 0
        words = np.where(agree.all(1), width, agree.argmin(1))
        out[live] = np.minimum(size, done + 8 * words)
        live, done = live[(words == width) & (size > done + 8 * width)], done + 8 * width
        width = max(1, min(2 * width, -(-(int(n[live].max(initial=0)) - done) // 8),
                           (len(abuf) + len(bbuf)) // 64 // max(len(live), 1)))
    return out


def _runs(key: np.ndarray, goes_on: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each run of equal keys in the sorted ``key`` starts, and the rows of the
    runs of two or more whose strings go on past the key's bytes (``goes_on``)."""
    new = np.ones(len(key), bool)
    new[1:] = key[1:] != key[:-1]
    tied = ~new
    tied[:-1] |= tied[1:]
    tied &= goes_on
    return new, np.flatnonzero(tied)


def _ranks(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense rank, in ascending byte order (Python's str order on UTF-8), of each string
    ``buf[lo[i]:hi[i]]``, and the first ``i`` holding each rank.

    Level 0 sorts every string on one key of its first 7 bytes (see :func:`_key`). Only
    runs of equal keys whose strings go on, and are not all the same string, are sorted
    further, each on one key of its run number and as many bytes as fit beside it, after
    skipping the words all its strings share: a long string costs nothing unless another
    shares its start."""
    n = hi - lo
    key = _key(buf, lo, n, 7, 0)
    order = np.argsort(key)
    key = key[order]
    new, pos = _runs(key, (n > 7)[order])
    off = np.full(len(pos), 7)
    while len(pos):
        rows = order[pos]
        start = np.flatnonzero(new[pos])
        run = np.cumsum(new[pos], dtype=np.uint64) - 1
        lead = rows[start][run]
        shared = _matched(buf, lo[rows] + off, buf, lo[lead] + off, np.minimum(n[rows], n[lead]) - off)
        off += np.minimum.reduceat(shared, start)[run]
        differ = np.maximum.reduceat(n[rows] - off, start)[run] > 0  # else every string of the run is its lead
        pos, rows, run, off = pos[differ], rows[differ], run[differ], off[differ]
        c = min(7, (60 - int(run.max(initial=0)).bit_length()) // 8)
        key = _key(buf, lo[rows] + off, n[rows] - off, c, run)
        by_key = np.argsort(key)  # within each run, as the run is the key's top bits
        order[pos] = rows[by_key]
        key = key[by_key]
        level_new, tied = _runs(key, (n[rows] - off > c)[by_key])
        new[pos] |= level_new
        pos, off = pos[tied], off[tied] + c
    del n, key
    first = np.minimum.reduceat(order, np.flatnonzero(new)) if len(order) else order
    rank = np.empty(len(order), np.int64)
    rank[order] = np.cumsum(new) - 1
    return rank, first


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64's finaliser of each uint64."""
    x = (x ^ x >> np.uint64(30)) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ x >> np.uint64(27)) * np.uint64(0x94D049BB133111EB)
    return x ^ x >> np.uint64(31)


def _hash(words: np.ndarray, off: np.ndarray, start: np.ndarray, n: np.ndarray) -> np.ndarray:
    """A 64-bit hash of strings of ``n`` bytes: the sum of their 8-byte ``words``, each mixed with its
    offset ``off`` in its string (a string's words begin at ``start``), mixed with ``n``."""
    return _mix(np.add.reduceat(_mix(off.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15) + words), start)
                ^ n.astype(np.uint64))


def _id_keys(buf: np.ndarray, lo: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One uint64 key per string of ``n`` bytes at ``buf[lo:]``: a string of at most 8 bytes has
    them (in byte order, zero-padded), so that two of the same key and length are equal; a longer
    one has its :func:`_hash`. Also the longer strings' 8-byte words, one string after another,
    and where each string's words begin there."""
    key, at = _windows(buf, lo, ">u8").astype(np.uint64) & _BYTE_MASK[np.minimum(n, 8)], np.zeros(len(n), np.int64)
    long = np.flatnonzero(n > 8)
    w = (n[long] + 7) // 8
    at[long] = np.cumsum(w) - w
    off = 8 * (np.arange(w.sum()) - np.repeat(at[long], w))
    off[at[long] + w - 1] = n[long] - 8  # a string's last word ends at its last byte
    words = _windows(buf, np.repeat(lo[long], w) + off, "=u8")
    key[long] = _hash(words, off, at[long], n[long])
    return key, words, at


def _id_finder(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> Callable[..., np.ndarray]:
    """A function that maps byte ranges ``(fbuf, flo, fhi)`` to the index ``i`` of the equal id
    ``buf[lo[i]:hi[i]]``, or -1, where the ids are distinct. It searches each range's
    :func:`_id_keys` key among the ids', sorted once. An id of the same key and length is the
    range's if it has at most 8 bytes, and a longer one if their words agree; else the range goes
    on to the next id of the same key, so a collision costs one more compare."""
    key, id_words, id_at = _id_keys(buf, lo, hi - lo)
    order = np.argsort(key)
    # Past the ids, a range meets the key 0 of no id's length, then the key 1: it misses.
    key, n = np.append(key[order], np.arange(2, dtype=np.uint64)), np.append((hi - lo)[order], -1)

    def find(fbuf: np.ndarray, flo: np.ndarray, fhi: np.ndarray) -> np.ndarray:
        fn = fhi - flo
        q, words, word_at = _id_keys(fbuf, flo, fn)
        probe = np.argsort(q)  # in key order, searchsorted and the gathers at ``at`` run forwards
        q, out = q[probe], np.full(len(fn), -1, np.int64)
        at = np.searchsorted(key[:-2], q)
        while len(probe):
            hit = key[at] == q
            probe, at, q = probe[hit], at[hit], q[hit]
            same = fn[probe] == n[at]
            check = np.flatnonzero(same & (n[at] > 8))
            p, a, w = probe[check], order[at[check]], (n[at[check]] + 7) // 8  # ranges, their ids, words each
            i = np.repeat(word_at[p] - np.cumsum(w) + w, w) + np.arange(w.sum())  # the checked ranges' words
            same[check] = np.logical_and.reduceat(words[i] == id_words[i + np.repeat(id_at[a] - word_at[p], w)],
                                                  np.cumsum(w) - w)
            out[probe[same]] = order[at[same]]
            probe, at, q = probe[~same], at[~same] + 1, q[~same]  # the next id of the same key
        return out

    return find


def _first_use_codes(rank: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the ranks in order of first use, where ``first[r]`` are distinct keys
    in the order of the ranks' first uses. Returns the code of each entry of
    ``rank`` and the rank of each code."""
    by_code = np.argsort(first)
    code = np.empty(len(first), np.int32)
    code[by_code] = np.arange(len(first), dtype=np.int32)
    return code[rank], by_code


def _decode(data: bytes, lo: np.ndarray, hi: np.ndarray) -> list[str]:
    """The UTF-8 strings ``data[lo[i]:hi[i]]``, taking the bounds as Python ints
    a chunk at a time: all at once, they outweigh the strings."""
    return [data[a:b].decode() for k in range(0, len(lo), 1 << 16)
            for a, b in zip(lo[k:k + (1 << 16)].tolist(), hi[k:k + (1 << 16)].tolist())]


def _years(data: bytes, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, list[tuple[int, str]]]:
    """The year in each byte range ``data[lo[i]:hi[i]]``, read with ``int`` once per
    distinct string, and ``(i, message)`` of the first that is unparsable or outside
    int32, if any."""
    rank, first = _ranks(np.frombuffer(data, np.uint8), lo, hi)
    value, errors = np.zeros(len(first), np.int64), []
    for r, (i, text) in enumerate(zip(first.tolist(), _decode(data, lo[first], hi[first]))):
        try:
            year = int(text)
        except ValueError:
            errors.append((i, f"unparsable year {text!r}"))
            continue
        if -2**31 <= year < 2**31:
            value[r] = year
        else:
            errors.append((i, f"year {text!r} out of range"))
    return value[rank], sorted(errors)[:1]


def _parse(articles: bytes, edges: bytes, start: int, end: int) -> tuple[dict, np.ndarray, np.ndarray, int, int]:
    """Split both tables, check every article row, and look up the edges' endpoints:
    :func:`read_tables`' columns but for its edges, ``citing`` and ``cited`` (the
    retained row of each end of every edge but the self-loops, or -1), the number
    of self-loops and the number of article rows."""
    [(data, ends, line, bad)] = _split(articles, ARTICLE_COLUMNS, "articles", sys.maxsize)
    abuf = np.frombuffer(data, np.uint8)
    year, errors = _years(data, *_field(ends, 1))
    errors += [(i, "empty field label") for i in np.flatnonzero(ends[:, 3] == ends[:, 2] + 1)[:1].tolist()]
    id_rank, first = _ranks(abuf, *_field(ends, 0))
    errors += [(i, f"duplicate article id {data[ends[i, 0] + 1:ends[i, 1]].decode()!r}")
               for i in np.flatnonzero(first[id_rank] != np.arange(len(id_rank)))[:1].tolist()]
    if errors:  # the earliest row's; in a row, the first of year, field and id
        row, message = min(errors, key=lambda e: e[0])
        raise DataError(f"articles line {line[row]}: {message}")
    if bad is not None:
        raise bad
    find = _id_finder(abuf, *_field(ends, 0))
    kept = np.flatnonzero((year >= start) & (year <= end))
    row_of = np.full(len(ends) + 1, -1, np.int64)  # retained row of each article; -1 (also at [-1]): none
    row_of[kept] = np.arange(len(kept))

    citing, cited, self_loops = [], [], 0
    for edata, edge_ends, _, bad in _split(edges, EDGE_COLUMNS, "edges", _EDGE_PIECE):
        if bad is not None:
            raise bad
        ebuf = np.frombuffer(edata, np.uint8)
        (alo, ahi), (blo, bhi) = _field(edge_ends, 0), _field(edge_ends, 1)
        a, b = find(ebuf, alo, ahi), find(ebuf, blo, bhi)
        loop = (a == b) & (a >= 0)  # both ends one article; ends that are no article are compared as bytes
        none = np.flatnonzero((a < 0) & (b < 0) & (ahi - alo == bhi - blo))
        loop[none] = _matched(ebuf, alo[none], ebuf, blo[none], ahi[none] - alo[none]) == ahi[none] - alo[none]
        self_loops += int(loop.sum())
        citing.append(row_of[a[~loop]])
        cited.append(row_of[b[~loop]])
        del edge_ends, alo, ahi, blo, bhi, a, b, loop  # before the next piece's arrays exist

    ends = ends[kept]
    columns = dict(ids=_Utf8(abuf, *_field(ends, 0)), id_rank=id_rank[kept], pub_year=year[kept].astype(np.int32))
    for col, codes, labels in ((2, "field_code", "fields"), (3, "region_code", "regions"),
                               (4, "journal_code", "journals")):
        lo, hi = _field(ends, col)
        label_rank, label_row = _ranks(abuf, lo, hi)
        columns[codes], by_code = _first_use_codes(label_rank, label_row)
        columns[labels] = _decode(data, lo[label_row[by_code]], hi[label_row[by_code]])
    columns["author_fields"] = (data, *_field(ends, 5))
    return columns, np.concatenate(citing), np.concatenate(cited), self_loops, len(year)


def read_tables(articles: bytes, edges: bytes, span: tuple[int, int] | None) -> dict:
    """Parse article and edge TSV tables into coded columns: the one row parser.

    Invalid UTF-8, malformed rows (wrong column count, a year unparsable or
    outside int32, empty field) and duplicate article ids, whatever their year,
    raise :class:`DataError` with the line of the first. Articles outside
    ``span`` are dropped (``span=None`` keeps every year); edges are dropped, in
    this precedence, as self_loop, dangling (an endpoint not retained),
    future_dated (cites a later year) and duplicate_edge (first copy kept).

    The tables are the UTF-8 bytes of both files, split by :func:`_split` as
    ``csv.reader`` splits them.

    Returns the :class:`Corpus` keyword arguments ``ids`` (the id fields, left in the
    articles table's bytes), ``id_rank``, ``pub_year``, the field/region/journal codes and
    labels, ``citing``, ``cited``, ``drops`` and ``rows_read``, plus
    ``author_fields``: UTF-8 bytes ``data`` and ranges
    ``lo``, ``hi`` such that ``data[lo[i]:hi[i]]`` is retained article ``i``'s
    raw author_ids.
    """
    start, end = (int(span[0]), int(span[1])) if span is not None else (-sys.maxsize, sys.maxsize)
    if start > end:
        raise ValueError(f"invalid span {span}")
    tables, citing, cited, self_loops, art_rows = _parse(articles, edges, start, end)
    pub_year = tables["pub_year"]
    edge_rows = self_loops + len(citing)
    keep = (citing >= 0) & (cited >= 0)
    n_dangling = len(citing) - int(keep.sum())
    citing, cited = citing[keep], cited[keep]
    keep = pub_year[citing] >= pub_year[cited]
    n_future = len(citing) - int(keep.sum())
    citing, cited = citing[keep], cited[keep]
    # A stable argsort and a keep mask, not np.unique(return_index=True): at 10M edges
    # that set load_corpus' peak, 230 MB higher.
    key = citing * len(pub_year) + cited
    order = np.argsort(key, kind="stable")
    key = key[order]
    keep = np.ones(len(key), bool)
    keep[order[1:][key[1:] == key[:-1]]] = False  # every copy of an edge but the first
    del key, order
    n_duplicate = len(citing) - int(keep.sum())
    return dict(
        tables,
        citing=citing[keep],
        cited=cited[keep],
        drops={"out_of_span": art_rows - len(pub_year), "dangling": n_dangling, "self_loop": self_loops,
               "future_dated": n_future, "duplicate_edge": n_duplicate},
        rows_read=(art_rows, edge_rows),
    )


def _code_authors(data: bytes, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, _Utf8]:
    """CSR author lists of the articles whose author_ids are ``data[lo[i]:hi[i]]``:
    ``author_ptr``, ``author_code``, ``author_rank`` and the names, each article's
    distinct names in ascending order, coded in order of first use; ``author_rank``
    holds the same names' ranks in name order, which ascend within each article.
    The fields are split at the ``;`` bytes inside them; empty names are skipped."""
    buf = np.frombuffer(data, np.uint8)
    semi = np.flatnonzero(buf == ord(";"))
    # A name runs from a field start or a ";" + 1 to the next ";" or field end. The
    # fields are disjoint and in order, so the sorted starts and ends pair up. A ";"
    # outside every field is paired with its own + 1: an empty name, dropped.
    tok_lo = np.concatenate([lo, semi + 1])
    tok_lo.sort()
    tok_hi = np.concatenate([semi, hi])
    tok_hi.sort()
    del semi
    named = tok_hi > tok_lo
    tok_lo, tok_hi = tok_lo[named], tok_hi[named]
    del named

    rank, first = _ranks(buf, tok_lo, tok_hi)
    article = np.searchsorted(lo, tok_lo, "right") - 1  # after _ranks, whose arrays set load_corpus' peak
    name_lo, name_hi = tok_lo[first], tok_hi[first]  # by rank
    del tok_lo, tok_hi
    n_names = len(first)
    first_article = article[first]
    pairs = article * n_names
    del article
    pairs += rank
    del rank
    pairs.sort(kind="stable")  # the tokens come by article: timsort merges the runs of each article's names
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]  # each article's distinct names, in name order
    author_rank = pairs % n_names
    # A name is first used in the first article that has it (the article of its
    # token ``first``), and names first used in one article come in name order.
    author_code, by_code = _first_use_codes(author_rank, first_article * n_names + np.arange(n_names))
    author_ptr = np.concatenate([[0], np.cumsum(np.bincount(pairs // max(n_names, 1), minlength=len(lo)))])
    return author_ptr, author_code, author_rank, _Utf8(buf, name_lo[by_code], name_hi[by_code]).compact()


def load_corpus(articles: bytes, edges: bytes, span: tuple[int, int]) -> Corpus:
    """Read article and edge TSV tables, the UTF-8 bytes of both files, into an indexed corpus:
    :func:`read_tables`, then each article's distinct authors coded in name order, and self-citations."""
    tables = read_tables(articles, edges, span)
    del edges  # nothing reads it past read_tables: the author and self-edge passes run without this reference
    tables["ids"] = tables["ids"].compact()
    author_ptr, author_code, author_rank, authors = _code_authors(*tables.pop("author_fields"))
    return Corpus(
        **tables,
        author_ptr=author_ptr,
        author_code=author_code,
        authors=authors,
        self_edge=_compute_self_edges(author_ptr, author_rank, tables["citing"], tables["cited"]),
        span=span,
    )


def load_corpus_files(articles_path: str, edges_path: str, span: tuple[int, int]) -> Corpus:
    with open(articles_path, "rb") as fa, open(edges_path, "rb") as fe:
        return load_corpus(fa.read(), fe.read(), span)


def filter_core_journals(corpus: Corpus) -> Corpus:
    """Restrict to journals that publish at least one article in every year of
    the corpus span. Idempotent; the result may be empty."""
    start, end = corpus.span
    n_years = end - start + 1
    key = corpus.journal_code.astype(np.int64) * n_years + (corpus.pub_year - start)
    pairs = np.unique(key)
    journal_of_pair = pairs // n_years
    per_journal = np.bincount(journal_of_pair, minlength=len(corpus.journals))
    core = per_journal >= n_years
    return corpus.subset(core[corpus.journal_code])


# Rows and bytes write_tables forms at a time: the bytes bound its gather's index, 8 bytes per byte written.
_WRITE_ROWS = 1 << 16
_WRITE_BYTES = 1 << 19


def _gather(buf: np.ndarray, lo: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The bytes ``buf[lo[k]:lo[k] + n[k]]`` of every segment ``k``, one after another, in one
    gather: its index steps by one within a segment and jumps to the next segment's start."""
    if not n.all():
        lo, n = lo[n > 0], n[n > 0]
    if not len(n):
        return np.zeros(0, np.uint8)
    end = np.cumsum(n)
    at = np.ones(end[-1], np.int64)
    at[0] = lo[0]
    at[end[:-1]] = lo[1:] - lo[:-1] - n[:-1] + 1
    return buf[np.cumsum(at, out=at)]


# The bytes for which a string is written quoted.
_QUOTED = np.isin(np.arange(256), list(b'\t"\r\n'))


def _with_separators(parts: list[tuple[_Utf8, bytes, bytes]]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The strings of the parts ``(strings, sep, wrap)``, each followed by its part's one byte ``sep``, in
    one buffer; each such segment's start and length there, numbered part after part; and the numbers
    of the strings that hold a tab, ``"``, CR or LF, which come last, between two ``wrap``, ``"`` doubled."""
    count = [len(strings) for strings, _, _ in parts]
    buf = np.concatenate([strings.compact().buf for strings, _, _ in parts])
    n = np.concatenate([strings.hi - strings.lo for strings, _, _ in parts])
    end = np.cumsum(n)
    quoted = np.unique(np.searchsorted(end, np.flatnonzero(_QUOTED[buf]), "right"))
    part = np.searchsorted(np.cumsum(count), quoted, "right").tolist()
    extra = [parts[p][2] + buf[b - k:b].tobytes().replace(b'"', b'""') + parts[p][2] + parts[p][1]
             for p, b, k in zip(part, end[quoted].tolist(), n[quoted].tolist())]
    src = np.insert(buf, end, np.repeat(np.frombuffer(b"".join(sep for _, sep, _ in parts), np.uint8), count))
    n += 1
    lo = np.cumsum(n) - n
    n[quoted] = np.fromiter(map(len, extra), np.int64, len(extra))
    lo[quoted] = len(src) + np.cumsum(n[quoted]) - n[quoted]
    return np.append(src, np.frombuffer(b"".join(extra), np.uint8)), lo, n, quoted


def _write_rows(path: str, header: list[str], row_bytes: np.ndarray, block: Callable[[int, int], np.ndarray]) -> None:
    """Write a TSV table whose rows ``a`` to ``b - 1``, of ``row_bytes`` bytes each, are ``block(a, b)``
    but for the last byte of each, a separator that this replaces by a newline."""
    end = np.cumsum(row_bytes)
    with open(path, "wb") as f:
        f.write("\t".join(header).encode() + b"\n")
        start = 0
        while start < len(end):
            base = int(end[start - 1]) if start else 0
            stop = min(start + _WRITE_ROWS, max(start + 1, int(np.searchsorted(end, base + _WRITE_BYTES, "right"))))
            out = block(start, stop)
            out[end[start:stop] - base - 1] = ord("\n")
            f.write(out.data)
            start = stop


def write_tables(corpus: Corpus, articles_path: str, edges_path: str) -> None:
    """Emit the corpus back to the tabular formats accepted by load_corpus, as ``csv.writer`` would
    but that a CR is quoted too. Each block of rows is one gather of segments, each a string followed
    by its tab or ``;`` (see :func:`_write_rows`); an author list with a name that is quoted is
    wrapped in two more, a quote each."""
    years, year_code = np.unique(corpus.pub_year, return_inverse=True)
    parts = [(corpus.id_utf8, b"\t", b'"'), (_Utf8.of(map(str, years.tolist())), b"\t", b""),
             *((_Utf8.of(v), b"\t", b'"') for v in (corpus.fields, corpus.regions, corpus.journals)),
             (corpus.author_utf8, b";", b""), (_Utf8.of([""]), b";", b""), (_Utf8.of([""]), b'"', b"")]
    src, seg_lo, seg_n, quoted = _with_separators(parts)  # the last two: an empty author list, and a quote
    first = np.cumsum([0] + [len(strings) for strings, _, _ in parts])  # each part's first segment
    columns = list(zip(first, (np.arange(corpus.n_articles), year_code, corpus.field_code, corpus.region_code,
                               corpus.journal_code)))
    ptr, codes = corpus.author_ptr, corpus.author_code
    n_names = np.diff(ptr)
    name_end = np.concatenate([[0], np.cumsum(seg_n[first[5] + codes])])
    wrap = np.zeros(corpus.n_articles, bool)  # the author lists written between quotes
    wrap[np.searchsorted(ptr, np.flatnonzero(np.isin(first[5] + codes, quoted)), "right") - 1] = True
    row_bytes = name_end[ptr[1:]] - name_end[ptr[:-1]] + (n_names == 0) + 2 * wrap  # an empty list's ";", quotes
    for at, code in columns:
        row_bytes += seg_n[at + code]
    del name_end

    def articles(a: int, b: int) -> np.ndarray:  # segments id, year, field, region, journal, then names
        w = wrap[a:b]
        k = 5 + np.maximum(n_names[a:b], 1) + 3 * w
        row = np.cumsum(k) - k
        seg = np.full(row[-1] + k[-1], first[6])
        for j, (at, code) in enumerate(columns):
            seg[row + j] = at + code[a:b]
        seg[np.repeat(row + 5 + w - (ptr[a:b] - ptr[a]), n_names[a:b]) + np.arange(ptr[b] - ptr[a])] = \
            first[5] + codes[ptr[a]:ptr[b]]
        row, k = row[w], k[w]
        seg[row + 5] = seg[row + k - 2] = first[7]  # a wrapped list's quotes, then its ";"
        n = seg_n[seg]
        n[row + k - 3] -= 1  # but for its last name's
        return _gather(src, seg_lo[seg], n)

    def edges(a: int, b: int) -> np.ndarray:  # the ids are the first segments
        seg = np.column_stack([corpus.citing[a:b], corpus.cited[a:b]]).ravel()
        return _gather(src, seg_lo[seg], seg_n[seg])

    _write_rows(articles_path, ARTICLE_COLUMNS, row_bytes, articles)
    _write_rows(edges_path, EDGE_COLUMNS, seg_n[corpus.citing] + seg_n[corpus.cited], edges)
