import csv
import io
import os
import tempfile
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from citeconc import corpus as corpus_mod
from citeconc.corpus import (
    Corpus,
    DataError,
    filter_core_journals,
    load_corpus,
    load_corpus_files,
    read_tables,
    write_tables,
)
from conftest import ARTICLES_TSV, EDGES_TSV, make_corpus

ART_HEADER = "id\tpub_year\tfield\tregion\tjournal_id\tauthor_ids\n"
EDGE_HEADER = "citing_id\tcited_id\n"


def test_empty_corpus():
    c = make_corpus(ART_HEADER, EDGE_HEADER)
    assert c.n_articles == 0
    assert c.n_edges == 0


def test_dangling_edge_dropped():
    arts = ART_HEADER + "A\t2000\tF\tR\tJ\t\nB\t2001\tF\tR\tJ\t\nC\t2001\tF\tR\tJ\t\n"
    edges = EDGE_HEADER + "C\tB\nC\tX\n"
    c = make_corpus(arts, edges, span=(2000, 2002))
    assert c.n_articles == 3
    assert c.n_edges == 1
    assert c.drops["dangling"] == 1


def test_fixture_counts_and_per_year_totals(fixture_corpus):
    c = fixture_corpus
    assert c.n_articles == 5
    assert c.n_edges == 5
    assert c.drops["duplicate_edge"] == 1
    assert c.drops["dangling"] == 1
    assert c.drops["future_dated"] == 1
    # hand enumeration: C->A in 2001; D->A, D->B in 2002; E->B, E->C in 2003
    assert Counter(c.citing_year.tolist()) == {2001: 1, 2002: 2, 2003: 2}
    assert oracle.ncits_by_year(oracle.read(c)) == {2001: 1, 2002: 2, 2003: 2}


def test_edge_accounting_exact(fixture_corpus):
    c = fixture_corpus
    edge_drops = sum(c.drops[r] for r in ("dangling", "self_loop", "future_dated", "duplicate_edge"))
    assert c.n_edges + edge_drops == c.rows_read[1]
    assert sum(Counter(c.citing_year.tolist()).values()) == c.n_edges


def test_out_of_span_article_dropped():
    arts = ART_HEADER + "A\t1990\tF\tR\tJ\t\nB\t2001\tF\tR\tJ\t\n"
    c = make_corpus(arts, EDGE_HEADER, span=(2000, 2002))
    assert c.n_articles == 1
    assert c.drops["out_of_span"] == 1


def test_duplicate_article_id_is_hard_error():
    arts = ART_HEADER + "A\t2000\tF\tR\tJ\t\nA\t2001\tF\tR\tJ\t\n"
    with pytest.raises(DataError, match="duplicate article id"):
        make_corpus(arts, EDGE_HEADER)
    # the first copy is out of span: still a duplicate
    arts = ART_HEADER + "A\t1990\tF\tR\tJ\t\nA\t2001\tF\tR\tJ\t\n"
    with pytest.raises(DataError, match="line 3: duplicate article id"):
        make_corpus(arts, EDGE_HEADER, span=(2000, 2002))


def test_corpus_constructor_rejects_duplicate_ids():
    def build(ids):
        n = len(ids)
        return Corpus(ids=ids, pub_year=np.full(n, 2000), field_code=np.zeros(n), fields=["F"],
                      region_code=np.zeros(n), regions=["R"], journal_code=np.zeros(n), journals=["J"],
                      author_ptr=np.zeros(n + 1), author_code=np.zeros(0), authors=[],
                      citing=np.zeros(0), cited=np.zeros(0), self_edge=np.zeros(0, bool),
                      span=(2000, 2000), drops={})

    assert build(["A", "B", "C"]).n_articles == 3
    for ids in (["A", "B", "A"], ["A", "A", "B"]):  # unsorted, and in order but not strictly ascending
        with pytest.raises(DataError, match=r"^duplicate article id in corpus construction$"):
            build(ids)


def test_one_long_id_does_not_widen_the_id_column(tmp_path):
    # A fixed-width string column would give each of the 10,001 ids 4,096 characters.
    long_id, huge_id = "L" * 4096, "H" * 100_000
    ids = [f"a{i:05d}" for i in range(10_000)]
    ids.insert(5_000, long_id)
    ids.insert(7_000, huge_id)
    ap, ep = tmp_path / "a.tsv", tmp_path / "e.tsv"
    ap.write_text(ART_HEADER + "".join(f"{a}\t2000\tF\tR\tJ\t\n" for a in ids))
    ep.write_text(EDGE_HEADER + f"{long_id}\ta00000\na00001\t{huge_id}\n{huge_id[:-1]}\ta00001\n")
    corpus = load_corpus_files(str(ap), str(ep), (2000, 2000))
    half = corpus.subset(np.arange(corpus.n_articles) % 2 == 0)
    for c in (corpus, half):
        assert c.ids.nbytes < 1 << 20
        assert long_id in c.ids.tolist()
    assert corpus.ids[corpus.citing[0]] == long_id
    assert corpus.ids[corpus.cited[1]] == huge_id
    assert corpus.n_edges == 2 and corpus.drops["dangling"] == 1  # an id's first 99,999 bytes are no id


def test_one_long_author_name_does_not_widen_the_name_keys():
    # Each name is ranked on keys of a fixed width: one 100,000-byte name adds about
    # its own bytes to the author pass's peak, not its length to every name's keys.
    def peak(fields):
        data = "\t".join(fields).encode()
        hi = np.cumsum([len(f.encode()) + 1 for f in fields]) - 1
        lo = hi - [len(f.encode()) for f in fields]
        tracemalloc.start()
        try:
            corpus_mod._code_authors(data, lo, hi)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    fields = [f"a{i % 9000};b{i % 7000}" for i in range(100_000)]
    assert peak(fields[:50_000] + ["N" * 100_000] + fields[50_000:]) <= 1.25 * peak(fields)


def test_quoted_crlf_table_splits_into_one_unquoted_copy():
    # The unquoted copy of a quoted piece is its only copy: splitting a table whose author lists are
    # quoted, with CRLF line ends, peaks at about 1.46x the same table plain (1.88x with two copies).
    def peak(data):
        tracemalloc.start()
        try:
            [(piece, ends, _, _)] = corpus_mod._split(data, corpus_mod.ARTICLE_COLUMNS, "articles", 1 << 30)
            return tracemalloc.get_traced_memory()[1], piece, ends
        finally:
            tracemalloc.stop()

    header = "\t".join(corpus_mod.ARTICLE_COLUMNS)
    rows = [f"p{i:07d}\t{2000 + i % 20}\tF\tR{i % 5}\tJ{i % 40}\ta{i % 9000};b{i % 7000};c{i}" for i in range(20_000)]
    plain_peak, plain_piece, plain_ends = peak(("\n".join([header, *rows]) + "\n").encode())
    quoted_peak, quoted_piece, quoted_ends = peak(
        ("\r\n".join([header, *(r.replace("\ta", '\t"a') + '"' for r in rows)]) + "\r\n").encode())
    assert [plain_piece[a + 1:b] for a, b in plain_ends[:, -2:].tolist()] == [
        quoted_piece[a + 1:b] for a, b in quoted_ends[:, -2:].tolist()]
    assert quoted_peak <= 1.6 * plain_peak


def test_malformed_rows_report_line_numbers():
    with pytest.raises(DataError, match="line 2"):
        make_corpus(ART_HEADER + "A\t2000\tF\tR\n", EDGE_HEADER)
    with pytest.raises(DataError, match="unparsable year"):
        make_corpus(ART_HEADER + "A\ttwothousand\tF\tR\tJ\t\n", EDGE_HEADER)
    with pytest.raises(DataError, match="header"):
        make_corpus("wrong\theader\n", EDGE_HEADER)
    # a year outside int32 is a data error whatever the span
    with pytest.raises(DataError, match=r"^articles line 3: year '99999999999' out of range$"):
        make_corpus(ART_HEADER + "A\t2000\tF\tR\tJ\t\nB\t99999999999\tF\tR\tJ\t\n", EDGE_HEADER)
    # a quoted author list spans lines 2-3: the bad year is on physical line 5,
    # and a bad row that itself spans lines 4-5 is reported where it starts
    spanning = ART_HEADER + 'A\t2000\tF\tR\tJ\t"a1\na2"\nB\t2001\tF\tR\tJ\t\n'
    with pytest.raises(DataError, match="articles line 5: unparsable year"):
        make_corpus(spanning + "C\ttwothousand\tF\tR\tJ\t\n", EDGE_HEADER)
    with pytest.raises(DataError, match="articles line 4: expected 6 columns, got 4"):
        make_corpus(ART_HEADER + 'A\t2000\tF\tR\tJ\t"a1\na2"\nC\t2001\t"F\nG"\tR\n', EDGE_HEADER)
    with pytest.raises(DataError, match="edges line 3: expected 2 columns, got 3"):
        make_corpus(ART_HEADER, EDGE_HEADER + "\nA\tB\tC\n")


def test_unreadable_csv_row_is_a_data_error():
    # 30,000 authors make an author_ids field longer than the csv module's limit
    authors = ";".join(f"a{i}" for i in range(30_000))
    with pytest.raises(DataError, match="articles line 3: field larger than field limit"):
        make_corpus(ART_HEADER + "A\t2000\tF\tR\tJ\t\n" + f"B\t2000\tF\tR\tJ\t{authors}\n", EDGE_HEADER)


def self_edge(c, citing, cited):
    """The library's self-citation flag of one edge, which must equal the oracle's."""
    j = [(c.ids[s], c.ids[d]) for s, d in zip(c.citing, c.cited)].index((citing, cited))
    assert bool(c.self_edge[j]) == oracle.is_self_citation(oracle.read(c), citing, cited)
    return bool(c.self_edge[j])


def test_self_citation_by_shared_author(fixture_corpus):
    c = fixture_corpus
    assert self_edge(c, "C", "A")  # share a1
    assert not self_edge(c, "D", "A")
    # both author sets empty
    arts = ART_HEADER + "A\t2000\tF\tR\tJ\t\nB\t2001\tF\tR\tJ\t\n"
    c2 = make_corpus(arts, EDGE_HEADER + "B\tA\n", span=(2000, 2002))
    assert not self_edge(c2, "B", "A")


@st.composite
def author_corpora(draw):
    """Article/edge TSV text with 0-50 authors per article, the author set of
    each article id, and a random subset mask."""
    n = draw(st.integers(1, 12))
    pool = draw(st.integers(1, 120))
    rows, authors = [], {}
    for i in range(n):
        names = draw(st.lists(st.integers(0, pool - 1).map(lambda k: f"a{k}"), max_size=50))
        authors[f"P{i}"] = frozenset(names)
        rows.append(f"P{i}\t{draw(st.integers(2000, 2002))}\tF\tR\tJ\t{';'.join(names)}\n")
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40))
    edges = "".join(f"P{a}\tP{b}\n" for a, b in pairs)
    keep = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return ART_HEADER + "".join(rows), EDGE_HEADER + edges, authors, keep


def signature_corpus(names, pairs):
    """An ``author_corpora`` value: articles P0, P1, ... in 2000 with the author lists
    ``names``, the edges ``(citing, cited)`` of ``pairs``, and a mask keeping every other article."""
    rows = "".join(f"P{i}\t2000\tF\tR\tJ\t{';'.join(a)}\n" for i, a in enumerate(names))
    edges = "".join(f"P{a}\tP{b}\n" for a, b in pairs)
    return (ART_HEADER + rows, EDGE_HEADER + edges, {f"P{i}": frozenset(a) for i, a in enumerate(names)},
            np.arange(len(names)) % 2 == 0)


# Shapes at the edges of _compute_self_edges' signature filter, as (author lists, edges, self-edge flags).
# Authors k00..k69 rank in the order of their numbers, so k00 and k64 set the same signature bit.
K = [f"k{j:02d}" for j in range(70)]
SIGNATURE_SHAPES = {
    "bits_collide_no_shared_author": ([K[:1], K[64:65], K[1:64], K[:1] + K[64:65]],
                                      [(1, 0), (0, 1), (2, 0), (3, 0), (3, 1), (3, 2)],
                                      [False, False, False, True, True, False]),
    "64_or_more_authors": ([K, ["m0", "m1"], ["m1", "k05"]],
                           [(0, 1), (1, 0), (2, 1), (0, 2), (2, 0)],
                           [False, False, True, True, True]),
    "articles_with_no_authors": ([["c"], [], [], ["a", "b"], [], ["a", "c"], []],
                                 [(3, 0), (5, 0), (1, 0), (3, 2), (4, 3), (5, 3), (6, 5), (2, 1), (0, 5)],
                                 [False, True, False, False, False, True, False, False, True]),
}


@pytest.mark.parametrize("chunk", [1, 5, corpus_mod._SELF_EDGE_CHUNK])
@pytest.mark.parametrize("shape", SIGNATURE_SHAPES)
def test_self_edge_signature_filter_edge_cases(shape, chunk):
    names, pairs, expected = SIGNATURE_SHAPES[shape]
    arts, edges, _, _ = signature_corpus(names, pairs)
    with mock.patch.object(corpus_mod, "_SELF_EDGE_CHUNK", chunk):
        c = make_corpus(arts, edges, span=(2000, 2000))
    assert [(c.ids[s], c.ids[d]) for s, d in zip(c.citing, c.cited)] == [(f"P{a}", f"P{b}") for a, b in pairs]
    assert c.self_edge.tolist() == expected


@settings(max_examples=80, deadline=None)
@given(author_corpora(), st.sampled_from([1, 5, corpus_mod._SELF_EDGE_CHUNK]))
@example(signature_corpus(*SIGNATURE_SHAPES["bits_collide_no_shared_author"][:2]), 1)
@example(signature_corpus(*SIGNATURE_SHAPES["64_or_more_authors"][:2]), 5)
@example(signature_corpus(*SIGNATURE_SHAPES["articles_with_no_authors"][:2]), corpus_mod._SELF_EDGE_CHUNK)
def test_self_edge_matches_oracle_and_tables_round_trip(data, chunk):
    arts, edges, authors, keep = data
    with mock.patch.object(corpus_mod, "_SELF_EDGE_CHUNK", chunk):
        c = make_corpus(arts, edges, span=(2000, 2002))
        sub = c.subset(keep)
    for corp in (c, sub):
        t = oracle.read(corp)
        for a in corp.ids:
            assert t.articles[a].author_ids == authors[a]
        for j, (src, dst) in enumerate(t.edges):
            assert corp.self_edge[j] == oracle.is_self_citation(t, src, dst)
    with tempfile.TemporaryDirectory() as d:
        a1, e1, a2, e2 = (os.path.join(d, f) for f in ("a1.tsv", "e1.tsv", "a2.tsv", "e2.tsv"))
        write_tables(c, a1, e1)
        write_tables(load_corpus_files(a1, e1, c.span), a2, e2)
        for first, second in ((a1, a2), (e1, e2)):
            with open(first, "rb") as f1, open(second, "rb") as f2:
                assert f1.read() == f2.read()


def test_round_trip(tmp_path, fixture_corpus):
    ap, ep = str(tmp_path / "a.tsv"), str(tmp_path / "e.tsv")
    write_tables(fixture_corpus, ap, ep)
    c2 = load_corpus_files(ap, ep, fixture_corpus.span)
    assert list(c2.ids) == list(fixture_corpus.ids)
    assert np.array_equal(c2.pub_year, fixture_corpus.pub_year)
    assert np.array_equal(c2.citing, fixture_corpus.citing)
    assert np.array_equal(c2.cited, fixture_corpus.cited)
    assert np.array_equal(c2.self_edge, fixture_corpus.self_edge)
    assert np.array_equal(c2.citing_year, fixture_corpus.citing_year)
    assert list(oracle.read(c2).articles.values()) == list(oracle.read(fixture_corpus).articles.values())


def test_core_journals_every_year_rule():
    arts = ART_HEADER + (
        "A\t2000\tF\tR\tJ1\t\n"
        "B\t2001\tF\tR\tJ1\t\n"
        "C\t2002\tF\tR\tJ1\t\n"
        "D\t2000\tF\tR\tJ2\t\n"
        "E\t2002\tF\tR\tJ2\t\n"  # J2 misses 2001
    )
    edges = EDGE_HEADER + "B\tA\nC\tD\nE\tA\n"
    c = make_corpus(arts, edges, span=(2000, 2002))
    core = filter_core_journals(c)
    assert sorted(core.ids) == ["A", "B", "C"]
    # hand enumeration: only B->A survives (C->D and E->A lose an endpoint)
    assert core.n_edges == 1
    assert core.ids[core.citing[0]] == "B"
    assert core.ids[core.cited[0]] == "A"


def test_core_filter_idempotent():
    arts = ART_HEADER + (
        "A\t2000\tF\tR\tJ1\t\nB\t2001\tF\tR\tJ1\t\n"
        "D\t2000\tF\tR\tJ2\t\n"
    )
    c = make_corpus(arts, EDGE_HEADER, span=(2000, 2001))
    once = filter_core_journals(c)
    twice = filter_core_journals(once)
    assert list(once.ids) == list(twice.ids)
    assert once.n_edges == twice.n_edges


def test_corpus_arrays_read_only(fixture_corpus):
    with pytest.raises(ValueError):
        fixture_corpus.pub_year[0] = 1999
    with pytest.raises(ValueError):
        fixture_corpus.citing[0] = 0


def csv_writer_tables(corpus):
    """The two tables as a csv.writer row loop writes them: write_tables' reference."""
    articles, edges = io.StringIO(), io.StringIO()
    wr = csv.writer(articles, delimiter="\t", lineterminator="\n")
    wr.writerow(ART_HEADER.split())
    for i, art_id in enumerate(corpus.ids):
        codes = corpus.author_code[corpus.author_ptr[i]:corpus.author_ptr[i + 1]]
        wr.writerow([art_id, int(corpus.pub_year[i]), corpus.fields[corpus.field_code[i]],
                     corpus.regions[corpus.region_code[i]], corpus.journals[corpus.journal_code[i]],
                     ";".join(corpus.authors[c] for c in codes)])
    wr = csv.writer(edges, delimiter="\t", lineterminator="\n")
    wr.writerow(EDGE_HEADER.split())
    for s, d in zip(corpus.citing.tolist(), corpus.cited.tolist()):
        wr.writerow([corpus.ids[s], corpus.ids[d]])
    return articles.getvalue().encode(), edges.getvalue().encode()


# An id holding a tab, a field label holding quotes and an author name holding a newline.
QUOTED_ARTICLES = ART_HEADER + '"A\t1"\t2000\t"F ""x"""\tR\tJ\t"a1;b\nc"\nB\t2001\tF\t\t\t\nC\t2001\tF\tR\tJ\ta1;a1\n'


@pytest.mark.parametrize("write_rows", [1, 2, corpus_mod._WRITE_ROWS])
def test_write_tables_writes_what_csv_writer_writes(tmp_path, fixture_corpus, write_rows):
    quoted = make_corpus(QUOTED_ARTICLES, EDGE_HEADER + 'B\t"A\t1"\nC\tB\n', span=(2000, 2004))
    assert quoted.ids[0] == "A\t1" and 'F "x"' in quoted.fields and "b\nc" in quoted.authors
    paths = [tmp_path / name for name in ("a1.tsv", "e1.tsv", "a2.tsv", "e2.tsv")]
    for corpus in (fixture_corpus, quoted):
        with mock.patch.object(corpus_mod, "_WRITE_ROWS", write_rows):  # rows formatted a few at a time
            write_tables(corpus, paths[0], paths[1])
            written = paths[0].read_bytes(), paths[1].read_bytes()
            assert written == csv_writer_tables(corpus)
            write_tables(load_corpus_files(paths[0], paths[1], corpus.span), paths[2], paths[3])
        assert (paths[2].read_bytes(), paths[3].read_bytes()) == written
    assert b'"A\t1"' in written[0] and b'"A\t1"' in written[1]  # the quoted corpus was written quoted


NAMES = st.sampled_from(["a", "a\0", "a\0\0", "b", "", "é", "李", "x" * 64, "x" * 64 + "a", "x" * 64 + "a\0",
                         "x" * 70, "x" * 70 + "\0", "x" * 63 + "é", "y" * 9, "w" * 128 + "a tail", "w" * 128 + "b",
                         "w" * 128 + "a"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(NAMES, max_size=6).map(";".join), max_size=8), st.sampled_from(["", "\t", "q;r\n", ";;x;"]))
def test_code_authors_matches_the_per_article_loop(fields, gap):
    """Names ending in NUL bytes (also past byte 64), sharing their first 128 bytes
    or a 129-byte prefix, or non-ASCII, and ``;`` between the fields, which belong
    to no field."""
    data, lo, hi = gap.encode(), [], []
    for text in fields:
        lo.append(len(data))
        data += text.encode()
        hi.append(len(data))
        data += gap.encode()
    author_ptr, author_code, author_rank, authors = corpus_mod._code_authors(
        data, np.array(lo, np.int64), np.array(hi, np.int64))
    authors = authors.tolist()  # the names come back as UTF-8 bytes
    names, ptr = [], [0]  # the per-article loop load_corpus ran before the byte path
    for text in fields:
        names.extend(sorted({a for a in text.split(";") if a}))
        ptr.append(len(names))
    assert authors == list(dict.fromkeys(names))
    assert [authors[c] for c in author_code.tolist()] == names
    assert author_ptr.tolist() == ptr
    # The name ranks, which _compute_self_edges reads, name the same authors and ascend in each article.
    assert [sorted(authors)[r] for r in author_rank.tolist()] == names
    assert all((np.diff(author_rank[a:b]) > 0).all() for a, b in zip(ptr[:-1], ptr[1:]))


# Ids of 0 to 100 characters and names of 1 to 12, some non-ASCII, some holding a tab, a quote, an LF or a CR.
WRITER_IDS = st.text(st.sampled_from(["a", "B", "0", " ", ";", "\0", "é", "李", "\t", '"', "\n", "\r"]), max_size=100)
WRITER_NAMES = st.text(st.sampled_from(["a", "b", " ", "\0", "é", "李", "\t", '"', "\n", "\r"]), min_size=1,
                       max_size=12)


def writer_corpus(ids, years, names, author_lists, pairs, journal="J2"):
    """A corpus built from its columns: articles ``ids`` with ``years``, each with the names
    ``author_lists[i]`` (indices into ``names``), edges ``pairs``; regions and journals
    include the empty label, and the journals ``journal``."""
    n = len(ids)
    lists = [sorted(set(a), key=names.__getitem__) for a in author_lists]
    codes = np.arange(n)
    return Corpus(ids=ids, pub_year=years, field_code=codes % 2, fields=["F0", "Fïeld"],
                  region_code=codes % 3, regions=["", "NA", "Ásia"], journal_code=codes % 2,
                  journals=["", journal],
                  author_ptr=np.cumsum([0] + [len(a) for a in lists]), author_code=[c for a in lists for c in a],
                  authors=names, citing=[a for a, _ in pairs], cited=[b for _, b in pairs],
                  self_edge=np.zeros(len(pairs), bool), span=(2000, 2000), drops={})


@st.composite
def writer_corpora(draw):
    ids = draw(st.lists(WRITER_IDS, unique=True, max_size=12))
    names = draw(st.lists(WRITER_NAMES, unique=True, max_size=6))
    author_lists = [draw(st.lists(st.integers(0, len(names) - 1), max_size=4)) if names else [] for _ in ids]
    pairs = draw(st.lists(st.tuples(st.integers(0, len(ids) - 1), st.integers(0, len(ids) - 1)), max_size=20)
                 if ids else st.just([]))
    years = draw(st.lists(st.integers(-20, 2100), min_size=len(ids), max_size=len(ids)))
    journal = draw(st.sampled_from(["J2", 'J "2"', "J\r2"]))
    return writer_corpus(ids, years, names, author_lists, pairs, journal), draw(st.lists(
        st.booleans(), min_size=len(ids), max_size=len(ids)))


def assert_loads_back(corpus, articles, edges):
    """``read_tables`` of the tables written from ``corpus`` gives its articles, and its edges but
    those that reading drops: self-loops, future-dated edges and repeats."""
    t = read_tables(articles, edges, None)
    assert t["ids"].tolist() == corpus.ids.tolist()
    assert t["pub_year"].tolist() == corpus.pub_year.tolist()
    for labels, codes in (("fields", "field_code"), ("regions", "region_code"), ("journals", "journal_code")):
        assert [t[labels][c] for c in t[codes]] == [getattr(corpus, labels)[c] for c in getattr(corpus, codes)]
    data, lo, hi = t["author_fields"]
    ptr = corpus.author_ptr.tolist()
    assert [data[a:b].decode() for a, b in zip(lo.tolist(), hi.tolist())] == [
        ";".join(corpus.authors[c] for c in corpus.author_code[a:b]) for a, b in zip(ptr[:-1], ptr[1:])]
    pairs = [(s, d) for s, d in zip(corpus.citing.tolist(), corpus.cited.tolist())
             if s != d and corpus.pub_year[s] >= corpus.pub_year[d]]
    assert list(zip(t["citing"].tolist(), t["cited"].tolist())) == list(dict.fromkeys(pairs))


@settings(max_examples=150, deadline=None)
@given(writer_corpora(), st.sampled_from([(1, corpus_mod._WRITE_BYTES), (2, corpus_mod._WRITE_BYTES),
                                          (corpus_mod._WRITE_ROWS, 1), (corpus_mod._WRITE_ROWS, 9)]))
@example((writer_corpus(["A", "", "é" * 50], [2000, 1999, 2001], ["b", "a"], [[0, 1], [], [1]],
                        [(0, 1), (2, 1), (1, 0)]), [True, True, False]), (2, 1))  # the empty id ends an edge row
@example((writer_corpus(["x", "y"], [2000, 2000], [], [[], []], []), [False, True]), (1, 9))  # no edges, no authors
@example((writer_corpus(['"x"', "y\tz"], [2000, 2000], ["a", "b\n", '"c'], [[0, 1, 2], [0]], [(1, 0)], 'J "2"'),
          [True, True]), (1, 9))  # quoted ids and labels, and a list with two names that need quoting
def test_write_tables_matches_the_csv_writer_reference(data, block):
    """Ids of 0-100 characters, the empty id among them, non-ASCII ids and names, empty region and
    journal labels, articles with no authors and corpora with no edges, in blocks of 1 and 2 rows
    or 1 and 9 bytes; and a subset, whose ids are ranges of its parent's buffer. Ids, names and a
    journal label may hold a tab, a quote, an LF or a CR: every corpus loads back, and one with no
    CR is written as csv.writer writes it, which leaves a CR unquoted."""
    corpus, keep = data
    with tempfile.TemporaryDirectory() as d, mock.patch.object(corpus_mod, "_WRITE_ROWS", block[0]), \
            mock.patch.object(corpus_mod, "_WRITE_BYTES", block[1]):
        paths = os.path.join(d, "a.tsv"), os.path.join(d, "e.tsv")
        for c in (corpus, corpus.subset(np.asarray(keep, bool))):
            write_tables(c, *paths)
            with open(paths[0], "rb") as fa, open(paths[1], "rb") as fe:
                written = fa.read(), fe.read()
            assert_loads_back(c, *written)
            if "\r" not in "".join(c.ids.tolist() + c.authors + c.fields + c.regions + c.journals):
                assert written == csv_writer_tables(c)


def test_a_cr_in_an_id_label_or_name_is_written_quoted_and_loads_back(tmp_path):
    """``csv.writer`` left a CR unquoted, and the files it wrote did not load: from an author
    ``a<CR>b``, "articles line 3: expected 6 columns, got 1"."""
    articles = ART_HEADER + 'A\t2000\tF\tR\tJ\t"a\rb;c"\n"B\r"\t2001\t"F\r"\tR\tJ\t\n'
    edges = EDGE_HEADER + '"B\r"\tA\n'
    c = make_corpus(articles, edges, span=(2000, 2001))
    assert c.ids.tolist() == ["A", "B\r"] and c.authors == ["a\rb", "c"] and c.fields == ["F", "F\r"]
    paths = tmp_path / "a.tsv", tmp_path / "e.tsv"
    write_tables(c, *paths)
    assert (paths[0].read_bytes(), paths[1].read_bytes()) == (articles.encode(), edges.encode())
    back = load_corpus_files(*paths, c.span)
    assert (back.ids.tolist(), back.authors, back.fields) == (c.ids.tolist(), c.authors, c.fields)
    for name in ("citing", "cited", "self_edge", "author_ptr", "author_code", "field_code"):
        assert np.array_equal(getattr(back, name), getattr(c, name)), name


def test_reading_decodes_labels_and_years_only_and_ids_and_names_on_demand(tmp_path):
    ap, ep = tmp_path / "a.tsv", tmp_path / "e.tsv"
    ap.write_text(ARTICLES_TSV)
    ep.write_text(EDGES_TSV)
    decoded, decode = [], corpus_mod._decode

    def counted(data, lo, hi):
        strings = decode(data, lo, hi)
        decoded.extend(strings)
        return strings

    labels = ["2000", "2001", "2002", "2003", "Phys", "Bio", "NorthAmerica", "Europe", "Asia", "J1", "J2"]
    with mock.patch.object(corpus_mod, "_decode", counted):
        tables = read_tables(ap.read_bytes(), ep.read_bytes(), (2000, 2004))
        assert sorted(decoded) == sorted(labels) and len(tables["ids"]) == 5
        decoded.clear()
        c = load_corpus_files(str(ap), str(ep), (2000, 2004))
        assert sorted(decoded) == sorted(labels)
        decoded.clear()
        assert c.ids.tolist() == ["A", "B", "C", "D", "E"] and c.ids is c.ids
        assert c.authors == ["a1", "a2", "a3", "a4", "a5", "a6"] and c.authors is c.authors
        assert sorted(decoded) == ["A", "B", "C", "D", "E", "a1", "a2", "a3", "a4", "a5", "a6"]
    assert all(type(s) is str for s in c.ids.tolist() + c.authors)
    assert not c.ids.flags.writeable


# Strings of 0-80 bytes: up to 9 words drawn from three 8-byte words (two share 7 bytes), then up to 8 bytes of
# "a", "b" or NUL, so that lengths of 7, 8 and 9 bytes, shared words and strings that end in NUL are common.
WORD_STRINGS = st.builds(bytes.__add__, st.lists(st.sampled_from([b"\0" * 8, b"abcdefgh", b"abcdefgi"]), max_size=9)
                         .map(b"".join), st.lists(st.sampled_from(b"ab\0"), max_size=8).map(bytes))
# Strings of 7 to 9 bytes that share their first 7, 8 or all 9.
BOUNDARY = [b"abcdefg", b"abcdefgh", b"abcdefgi", b"abcdefgh\0", b"abcdefghi", b"abcdefgia", b"\0" * 8, b"\0" * 9]


def packed(strings):
    """One buffer holding ``strings`` between 0xFF bytes, and each string's range in it."""
    buf, lo, hi = bytearray(b"\xff"), [], []
    for s in strings:
        lo.append(len(buf))
        buf += s + b"\xff"
        hi.append(len(buf) - 1)
    return np.frombuffer(bytes(buf), np.uint8), np.array(lo, np.int64), np.array(hi, np.int64)


@pytest.mark.parametrize("collide", [False, True])
@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(WORD_STRINGS, st.sampled_from(BOUNDARY)), max_size=30), st.lists(WORD_STRINGS, max_size=30))
@example(BOUNDARY[::2], BOUNDARY[1::2])
def test_ranks_and_id_lookup_match_sorted_bytes_and_a_dict(collide, strings, probes):
    """``_ranks`` against ``sorted`` on the bytes, with every other string repeated (runs of one string), and the
    id lookup against a dict; ``collide`` hashes every id over 8 bytes to one key."""
    strings = strings + strings[::2]
    rank, first = corpus_mod._ranks(*packed(strings))
    distinct = sorted(set(strings))
    assert rank.tolist() == [distinct.index(s) for s in strings]
    assert first.tolist() == [strings.index(s) for s in distinct]
    ids = list(dict.fromkeys(strings))
    index = {s: i for i, s in enumerate(ids)}
    constant = lambda words, off, start, n: np.zeros(len(n), np.uint64)  # noqa: E731
    with mock.patch.object(corpus_mod, "_hash", constant if collide else corpus_mod._hash):
        find = corpus_mod._id_finder(*packed(ids))
        assert find(*packed(probes + ids)).tolist() == [index.get(s, -1) for s in probes + ids]
