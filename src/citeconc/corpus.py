"""Article/edge ingestion and the immutable indexed Corpus.

Input files are UTF-8 TSV with a header row:

    articles: id  pub_year  field  region  journal_id  author_ids
    edges:    citing_id  cited_id

author_ids is a ``;``-separated list (possibly empty). :func:`read_tables` is
the one row parser: it holds the row, span and edge-drop rules that both
:func:`load_corpus` (``analyze``) and ``citeconc validate`` apply.
"""

from __future__ import annotations

import csv
import sys
from typing import IO, Iterable, Iterator

import numpy as np

ARTICLE_COLUMNS = ["id", "pub_year", "field", "region", "journal_id", "author_ids"]
EDGE_COLUMNS = ["citing_id", "cited_id"]


class DataError(Exception):
    """Malformed input that cannot be skipped (unreadable row, bad row shape, bad year, duplicate id)."""


class Corpus:
    """Immutable column store of articles plus a deduplicated citation edge list.

    Article ``i`` has the id ``ids[i]``; ids are distinct (a repeat is a :class:`DataError`, which
    for input files :func:`read_tables` raises with the line number).
    Fields, regions, journals and authors are integer codes into label lists.
    Authors are in CSR form: article ``i`` has the distinct authors ``authors[c]``
    for ``c`` in ``author_code[author_ptr[i]:author_ptr[i + 1]]``, listed in
    ascending order of author name, the order :func:`write_tables` emits.
    ``self_edge`` flags the edges whose two articles share an author; the
    builders compute it with ``_compute_self_edges`` and :meth:`subset` slices it.

    Arrays are frozen after construction; every downstream operation treats the
    corpus as read-only, so unrestricted concurrent reads are safe.
    """

    def __init__(
        self,
        *,
        ids: list[str],
        pub_year: np.ndarray,
        field_code: np.ndarray,
        fields: list[str],
        region_code: np.ndarray,
        regions: list[str],
        journal_code: np.ndarray,
        journals: list[str],
        author_ptr: np.ndarray,
        author_code: np.ndarray,
        authors: list[str],
        citing: np.ndarray,
        cited: np.ndarray,
        self_edge: np.ndarray,
        span: tuple[int, int],
        drops: dict[str, int],
        rows_read: tuple[int, int] = (0, 0),
    ):
        self.ids = ids
        if len(set(ids)) != len(ids):
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
        self.authors = list(authors)
        self.citing = np.asarray(citing, dtype=np.int64)
        self.cited = np.asarray(cited, dtype=np.int64)
        self.span = (int(span[0]), int(span[1]))
        self.drops = dict(drops)
        self.rows_read = rows_read
        self.citing_year = self.pub_year[self.citing] if len(self.citing) else np.zeros(0, np.int32)
        self.cited_year = self.pub_year[self.cited] if len(self.cited) else np.zeros(0, np.int32)
        self.self_edge = np.asarray(self_edge, dtype=bool)
        for arr in (self.pub_year, self.field_code, self.region_code, self.journal_code, self.author_ptr,
                    self.author_code, self.citing, self.cited, self.citing_year, self.cited_year, self.self_edge):
            arr.flags.writeable = False

    @property
    def n_articles(self) -> int:
        return len(self.ids)

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
            ids=[self.ids[i] for i in old_idx],
            pub_year=self.pub_year[old_idx],
            field_code=self.field_code[old_idx],
            fields=self.fields,
            region_code=self.region_code[old_idx],
            regions=self.regions,
            journal_code=self.journal_code[old_idx],
            journals=self.journals,
            author_ptr=np.concatenate([[0], np.cumsum(np.diff(self.author_ptr)[keep])]),
            author_code=self.author_code[np.repeat(keep, np.diff(self.author_ptr))],
            authors=self.authors,
            citing=remap[self.citing[edge_keep]],
            cited=remap[self.cited[edge_keep]],
            self_edge=self.self_edge[edge_keep],
            span=self.span,
            drops={"filtered_endpoint": int(self.n_edges - int(edge_keep.sum()))},
        )


# (edge, citing author) pairs per pass of _compute_self_edges: bounds its peak memory, a few int64
# arrays of this length. At 2^20 they set a 300k-article build's peak; 2^18 is no slower.
_SELF_EDGE_CHUNK = 1 << 18


def _compute_self_edges(author_ptr: np.ndarray, author_code: np.ndarray,
                        citing: np.ndarray, cited: np.ndarray) -> np.ndarray:
    """Flag edges whose citing and cited articles share an author: each edge is
    expanded over the citing authors, and each (cited, author) key looked up."""
    out = np.zeros(len(citing), dtype=bool)
    if len(citing) == 0 or len(author_code) == 0:
        return out
    n_codes = int(author_code.max()) + 1
    n_auth = np.diff(author_ptr)
    keys = np.sort(np.repeat(np.arange(len(n_auth)), n_auth) * n_codes + author_code)
    pairs_end = np.cumsum(n_auth[citing])
    bounds = np.searchsorted(pairs_end, np.arange(_SELF_EDGE_CHUNK, pairs_end[-1], _SELF_EDGE_CHUNK))
    for lo, hi in zip(np.concatenate([[0], bounds]), np.concatenate([bounds, [len(citing)]])):
        k = n_auth[citing[lo:hi]]
        edge = np.repeat(np.arange(lo, hi), k)
        pos = np.repeat(author_ptr[citing[lo:hi]] - (np.cumsum(k) - k), k) + np.arange(len(edge))
        probe = cited[edge] * n_codes + author_code[pos]
        order = np.argsort(probe)  # sorted probes make searchsorted far faster
        probe, edge = probe[order], edge[order]
        at = np.minimum(np.searchsorted(keys, probe), len(keys) - 1)
        out[edge[keys[at] == probe]] = True
    return out


def _rows(source: Iterable[str] | IO[str], columns: list[str], name: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, row) of each non-blank data row of a TSV stream whose header
    and row widths match ``columns``. The line number is the physical line on
    which the row starts, though a quoted field may span lines; a row the csv
    module cannot read is a :class:`DataError` too."""
    reader = csv.reader(source, delimiter="\t")
    lineno = 1
    try:
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != columns:
            raise DataError(f"{name}: bad or missing header, expected {chr(9).join(columns)!r}")
        lineno = reader.line_num + 1
        for row in reader:
            if row:
                if len(row) != len(columns):
                    raise DataError(f"{name} line {lineno}: expected {len(columns)} columns, got {len(row)}")
                yield lineno, row
            lineno = reader.line_num + 1
    except csv.Error as e:
        raise DataError(f"{name} line {lineno}: {e}") from None


def read_tables(
    articles_source: Iterable[str] | IO[str],
    edges_source: Iterable[str] | IO[str],
    span: tuple[int, int] | None,
) -> dict:
    """Parse article and edge TSV streams into coded columns: the one row parser.

    Malformed rows (wrong column count, bad year, empty field) and duplicate
    article ids, whatever their year, raise :class:`DataError`. Articles outside
    ``span`` are dropped (``span=None`` keeps every year); edges are dropped, in
    this precedence, as self_loop, dangling (an endpoint not retained),
    future_dated (cites a later year) and duplicate_edge (first copy kept).

    Returns the :class:`Corpus` keyword arguments ``ids``, ``pub_year``, the
    field/region/journal codes and labels, ``citing``, ``cited``, ``drops`` and
    ``rows_read``, plus ``author_text``: each retained article's raw author_ids.
    """
    start, end = (int(span[0]), int(span[1])) if span is not None else (-sys.maxsize, sys.maxsize)
    if start > end:
        raise ValueError(f"invalid span {span}")
    index: dict[str, int] = {}  # every id read -> its retained row, or -1 if out of span
    ids: list[str] = []
    years: list[int] = []
    author_text: list[str] = []
    field_vocab: dict[str, int] = {}
    field_code: list[int] = []
    region_vocab: dict[str, int] = {}
    region_code: list[int] = []
    journal_vocab: dict[str, int] = {}
    journal_code: list[int] = []

    art_rows = 0
    for lineno, (art_id, year_s, fld, region, journal, authors) in _rows(articles_source, ARTICLE_COLUMNS, "articles"):
        art_rows += 1
        try:
            year = int(year_s)
        except ValueError:
            raise DataError(f"articles line {lineno}: unparsable year {year_s!r}") from None
        if not fld:
            raise DataError(f"articles line {lineno}: empty field label")
        if art_id in index:
            raise DataError(f"articles line {lineno}: duplicate article id {art_id!r}")
        if year < start or year > end:
            index[art_id] = -1
            continue
        index[art_id] = len(ids)
        ids.append(art_id)
        years.append(year)
        field_code.append(field_vocab.setdefault(fld, len(field_vocab)))
        region_code.append(region_vocab.setdefault(region, len(region_vocab)))
        journal_code.append(journal_vocab.setdefault(journal, len(journal_vocab)))
        author_text.append(authors)

    citing: list[int] = []
    cited: list[int] = []
    self_loops = 0
    for _, (src, dst) in _rows(edges_source, EDGE_COLUMNS, "edges"):
        if src == dst:
            self_loops += 1
            continue
        citing.append(index.get(src, -1))
        cited.append(index.get(dst, -1))

    pub_year = np.asarray(years, dtype=np.int32)
    edge_rows = self_loops + len(citing)
    citing, cited = np.asarray(citing, dtype=np.int64), np.asarray(cited, dtype=np.int64)
    keep = (citing >= 0) & (cited >= 0)
    n_dangling = len(citing) - int(keep.sum())
    citing, cited = citing[keep], cited[keep]
    keep = pub_year[citing] >= pub_year[cited]
    n_future = len(citing) - int(keep.sum())
    citing, cited = citing[keep], cited[keep]
    first = np.sort(np.unique(citing * len(ids) + cited, return_index=True)[1])
    n_duplicate = len(citing) - len(first)
    return dict(
        ids=ids,
        pub_year=pub_year,
        field_code=np.asarray(field_code, dtype=np.int32),
        fields=list(field_vocab),
        region_code=np.asarray(region_code, dtype=np.int32),
        regions=list(region_vocab),
        journal_code=np.asarray(journal_code, dtype=np.int32),
        journals=list(journal_vocab),
        author_text=author_text,
        citing=citing[first],
        cited=cited[first],
        drops={"out_of_span": art_rows - len(ids), "dangling": n_dangling, "self_loop": self_loops,
               "future_dated": n_future, "duplicate_edge": n_duplicate},
        rows_read=(art_rows, edge_rows),
    )


def load_corpus(
    articles_source: Iterable[str] | IO[str],
    edges_source: Iterable[str] | IO[str],
    span: tuple[int, int],
) -> Corpus:
    """Read article and edge TSV streams into an indexed corpus: :func:`read_tables`,
    then each article's distinct authors coded in name order, and self-citations."""
    tables = read_tables(articles_source, edges_source, span)
    author_names: list[str] = []
    author_ptr = [0]
    for text in tables.pop("author_text"):
        author_names.extend(sorted({a for a in text.split(";") if a}))
        author_ptr.append(len(author_names))
    author_vocab = {a: c for c, a in enumerate(dict.fromkeys(author_names))}
    author_code = np.fromiter(map(author_vocab.__getitem__, author_names), np.int32, len(author_names))
    author_ptr = np.asarray(author_ptr, dtype=np.int64)
    return Corpus(
        **tables,
        author_ptr=author_ptr,
        author_code=author_code,
        authors=list(author_vocab),
        self_edge=_compute_self_edges(author_ptr, author_code, tables["citing"], tables["cited"]),
        span=span,
    )


def load_corpus_files(articles_path: str, edges_path: str, span: tuple[int, int]) -> Corpus:
    with open(articles_path, encoding="utf-8", newline="") as fa, open(edges_path, encoding="utf-8", newline="") as fe:
        return load_corpus(fa, fe, span)


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


def write_tables(corpus: Corpus, articles_path: str, edges_path: str) -> None:
    """Emit the corpus back to the tabular formats accepted by load_corpus."""
    with open(articles_path, "w", encoding="utf-8", newline="") as f:
        wr = csv.writer(f, delimiter="\t", lineterminator="\n")
        wr.writerow(ARTICLE_COLUMNS)
        ptr = corpus.author_ptr.tolist()
        names = [corpus.authors[c] for c in corpus.author_code.tolist()]
        for i, art_id in enumerate(corpus.ids):
            wr.writerow([
                art_id,
                int(corpus.pub_year[i]),
                corpus.fields[corpus.field_code[i]],
                corpus.regions[corpus.region_code[i]],
                corpus.journals[corpus.journal_code[i]],
                ";".join(names[ptr[i]:ptr[i + 1]]),
            ])
    with open(edges_path, "w", encoding="utf-8", newline="") as f:
        wr = csv.writer(f, delimiter="\t", lineterminator="\n")
        wr.writerow(EDGE_COLUMNS)
        for j in range(corpus.n_edges):
            wr.writerow([corpus.ids[corpus.citing[j]], corpus.ids[corpus.cited[j]]])
