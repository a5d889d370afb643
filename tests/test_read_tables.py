"""Differential test of the TSV row parser against a row-by-row reference.

The reference reads the same text with plain ``csv`` and dicts and shares no
helper with ``citeconc.corpus``. Both see dirty input: CRLF and LF line ends,
quoted fields (an author list may span two lines), blank lines, empty or
repeated author lists, rows outside the span, every edge drop reason and at
most one malformed row. Line numbers are the physical lines rows start on.

``read_tables`` splits a file with numpy (the byte path) unless it holds a
``"``, CR or NUL byte, and with the ``csv`` module otherwise; one checker reads
either form. The byte path is checked against the csv tokeniser and the same
reference on clean tables, and against the csv tokeniser on each kind of table
that has a fault or that numpy does not split.
"""

import contextlib
import csv
import io
import os
import re
import tempfile
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from citeconc import corpus as corpus_mod
from citeconc import synthgen
from citeconc.cli import main
from citeconc.corpus import DataError, load_corpus, read_tables, write_tables
from citeconc.synthgen import GenParams

ARTICLE_HEADER = ["id", "pub_year", "field", "region", "journal_id", "author_ids"]
EDGE_HEADER = ["citing_id", "cited_id"]


class Rejected(Exception):
    """The reference found the input unreadable at (table, line); line is None for a header."""


def physical_lines(reader):
    """(line on which the row starts, row) for each row after the header; a
    quoted field may span lines."""
    line = reader.line_num + 1
    for row in reader:
        yield line, row
        line = reader.line_num + 1


def reference_read(articles_text, edges_text, span):
    """Retained article dicts, retained (citing, cited) id pairs, drop tallies and rows read."""
    reader = csv.reader(io.StringIO(articles_text, newline=""), delimiter="\t")
    if [c.strip() for c in next(reader, [])] != ARTICLE_HEADER:
        raise Rejected("articles", None)
    every_id = set()
    kept = {}
    drops = {"out_of_span": 0, "dangling": 0, "self_loop": 0, "future_dated": 0, "duplicate_edge": 0}
    rows_read = [0, 0]
    for line, row in physical_lines(reader):
        if not row:
            continue
        rows_read[0] += 1
        if len(row) != len(ARTICLE_HEADER):
            raise Rejected("articles", line)
        rec = dict(zip(ARTICLE_HEADER, row))
        try:
            rec["pub_year"] = int(rec["pub_year"])
        except ValueError:
            raise Rejected("articles", line) from None
        if rec["field"] == "" or rec["id"] in every_id:
            raise Rejected("articles", line)
        every_id.add(rec["id"])
        if span is not None and not span[0] <= rec["pub_year"] <= span[1]:
            drops["out_of_span"] += 1
        else:
            kept[rec["id"]] = rec

    reader = csv.reader(io.StringIO(edges_text, newline=""), delimiter="\t")
    if [c.strip() for c in next(reader, [])] != EDGE_HEADER:
        raise Rejected("edges", None)
    edges = []
    for line, row in physical_lines(reader):
        if not row:
            continue
        rows_read[1] += 1
        if len(row) != 2:
            raise Rejected("edges", line)
        src, dst = row
        if src == dst:
            drops["self_loop"] += 1
        elif src not in kept or dst not in kept:
            drops["dangling"] += 1
        elif kept[src]["pub_year"] < kept[dst]["pub_year"]:
            drops["future_dated"] += 1
        elif (src, dst) in edges:
            drops["duplicate_edge"] += 1
        else:
            edges.append((src, dst))
    return list(kept.values()), edges, drops, tuple(rows_read)


def rejected_at(err: DataError):
    m = re.match(r"(articles|edges)(?: line (\d+))?:", str(err))
    return m.group(1), m.group(2) and int(m.group(2))


EOL = st.sampled_from(["\n", "\r\n"])
FIELDS = ["F0", "F1", "Field two", 'F"3', "F\t4"]
AUTHOR_TEXT = st.lists(st.sampled_from(["a1", "a2", "a3", "", "a4\na5"]), max_size=4).map(";".join)
FAULTS = ["header", "columns", "year", "field", "duplicate", "edge_columns"]


@st.composite
def dirty_tables(draw):
    """Article and edge TSV text, with one fault in half of the draws."""
    ids = [f"P{i}" for i in range(draw(st.integers(0, 10)))]
    articles = []
    for art_id in ids:
        year = draw(st.integers(1998, 2004))
        articles.append([art_id, draw(st.sampled_from([str(year), f" {year}", f"{year} "])),
                         draw(st.sampled_from(FIELDS)), draw(st.sampled_from(["NA", " EU ", ""])),
                         draw(st.sampled_from(["J1", "J2"])), draw(AUTHOR_TEXT)])
    pool = ids + draw(st.lists(st.sampled_from(NOT_IDS), min_size=1, max_size=2, unique=True))
    edges = [list(p) for p in draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)), max_size=30))]
    fault = draw(st.sampled_from(FAULTS)) if draw(st.booleans()) else None
    bad = {
        "columns": ["Q", "2000", "F0", "NA", "J1"],
        "year": ["Q", "20x0", "F0", "NA", "J1", ""],
        "field": ["Q", "2000", "", "NA", "J1", "a1"],
        "duplicate": [draw(st.sampled_from(pool[:-1] or ["Q"])), "1990", "F0", "NA", "J1", ""],
        "edge_columns": ["P0", "P1", "P2"],
    }.get(fault)
    if bad is not None:
        rows = edges if fault == "edge_columns" else articles
        rows.insert(draw(st.integers(0, len(rows))), bad)

    def render(header, rows):
        lines = ["\t".join(header) + draw(EOL)]
        for row in rows:
            lines += draw(st.lists(EOL, max_size=1))  # a blank line
            cells = ['"' + c.replace('"', '""') + '"' if '"' in c or "\t" in c or "\n" in c or draw(st.booleans()) else c
                     for c in row]
            lines.append("\t".join(cells) + draw(EOL))
        text = "".join(lines)
        return text.rstrip("\r\n") if draw(st.booleans()) else text

    return render(ARTICLE_HEADER[::-1] if fault == "header" else ARTICLE_HEADER, articles), render(EDGE_HEADER, edges)


def table_records(t):
    """read_tables output as the reference's retained article dicts."""
    author_bytes, author_lo, author_hi = t["author_fields"]
    ids = t["ids"].tolist()  # read_tables leaves the ids as UTF-8 bytes
    return [{"id": ids[i], "pub_year": int(t["pub_year"][i]), "field": t["fields"][t["field_code"][i]],
             "region": t["regions"][t["region_code"][i]], "journal_id": t["journals"][t["journal_code"][i]],
             "author_ids": author_bytes[author_lo[i]:author_hi[i]].decode()} for i in range(len(ids))]


def by_csv(read, articles, edges, span):
    """``read`` (read_tables or load_corpus) of the tables' bytes, split by the csv module."""
    with mock.patch.object(corpus_mod, "_split_bytes", corpus_mod._split_csv):
        return read(articles, edges, span)


def run_validate(articles_text, edges_text, span):
    with tempfile.TemporaryDirectory() as d:
        paths = [os.path.join(d, "articles.tsv"), os.path.join(d, "edges.tsv")]
        for path, text in zip(paths, (articles_text, edges_text)):
            with open(path, "w", encoding="utf-8", newline="") as f:
                f.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["validate", *paths] + (["--span", *map(str, span)] if span else []))
    return rc, out.getvalue(), err.getvalue()


def validate_report(text):
    """validate stdout as {'articles read': n, ..., 'drops': [(reason, n), ...], 'years': [...], ...}."""
    report, section = {}, None
    for line in text.splitlines():
        key, _, value = line[2:].rpartition(": ") if line.startswith("  ") else line.partition(": ")
        if line.startswith("  "):
            report[section].append((key, int(value)))
        elif value:
            report[key] = int(value)
        else:
            section = key.rstrip(":")
            report[section] = []
    return report


@settings(max_examples=250, deadline=None)
@given(dirty_tables(), st.sampled_from([None, (2000, 2002), (1999, 2003)]), st.sampled_from([1, 3, 1 << 12]))
def test_read_tables_and_validate_match_the_reference(tables, span, csv_rows):
    with mock.patch.object(corpus_mod, "_CSV_ROWS", csv_rows), mock.patch.object(corpus_mod, "_EDGE_PIECE", csv_rows):
        check_against_the_reference(*tables, span)  # rows read, and edges split and looked up, a few at a time


def check_against_the_reference(articles_text, edges_text, span):
    rc, out, err = run_validate(articles_text, edges_text, span)
    try:
        kept, edges, drops, rows_read = reference_read(articles_text, edges_text, span)
    except Rejected as where:
        with pytest.raises(DataError) as exc:
            by_csv(read_tables, articles_text.encode(), edges_text.encode(), span)
        assert rejected_at(exc.value) == where.args
        assert (rc, out, err) == (2, "", f"error: {exc.value}\n")
        return

    t = by_csv(read_tables, articles_text.encode(), edges_text.encode(), span)
    assert table_records(t) == kept
    for labels, column in (("fields", "field"), ("regions", "region"), ("journals", "journal_id")):
        assert t[labels] == list(dict.fromkeys(rec[column] for rec in kept))  # codes in order of first use
    ids = t["ids"].tolist()
    assert [(ids[i], ids[j]) for i, j in zip(t["citing"].tolist(), t["cited"].tolist())] == edges
    assert list(t["drops"].items()) == list(drops.items())
    assert t["rows_read"] == rows_read

    assert rc == 0 and err == ""
    report = validate_report(out)
    assert report == {
        "articles read": rows_read[0], "articles retained": len(kept),
        "edges read": rows_read[1], "edges retained": len(edges), "drops": list(drops.items()),
        "years": [(str(y), n) for y, n in sorted(Counter(rec["pub_year"] for rec in kept).items())],
        "fields": sorted(Counter(rec["field"] for rec in kept).items()),
        "regions": sorted(Counter(rec["region"] for rec in kept).items()),
    }
    if span is None:
        return
    c = by_csv(load_corpus, articles_text.encode(), edges_text.encode(), span)
    assert (c.n_articles, c.n_edges) == (report["articles retained"], report["edges retained"])
    assert list(c.drops.items()) == report["drops"]
    assert c.rows_read == (report["articles read"], report["edges read"])
    records = oracle.read(c).articles
    for rec in kept:
        assert records[rec["id"]].author_ids == {a for a in rec["author_ids"].split(";") if a}


# -- the byte path against the csv tokeniser -----------------------------------

# Ids of one and two 8-byte words, exactly 8 and 9 bytes (the longest ids keyed by their bytes and the
# shortest keyed by a hash), past 64 bytes, two that share their first 128 bytes, and the empty id.
BYTE_IDS = ["P0", "P1", "P2", "é3", "id 4", "an id of 2 words", "p0000000", "p0000001", "p00000012", "z" * 70,
            "z" * 70 + "7", "w" * 128 + "a tail", "w" * 128 + "b", ""]
# Never articles (dangling): short, a prefix of an id, equal to an id in its first word (also an 8-byte
# id's 8 bytes and one more), past 64 bytes, an id's first 129 bytes, and an id with a NUL after its 71
# bytes (which the csv tokeniser reads).
NOT_IDS = ["X", "an id of", "an id of 2 wordz", "an id of 2 words!", "p0000000x", "p00000013", "z" * 69,
           "w" * 128 + "a", "z" * 70 + "7\0"]
AUTHOR_LISTS = st.lists(st.sampled_from(["a1", "a2", "a10", "", "Müller", "李"]), max_size=5).map(";".join)


@st.composite
def clean_tables(draw):
    """Article and edge TSV text with no quote or CR and no fault, which numpy splits
    unless an edge holds the id that ends in NUL: empty, repeated and non-ASCII author names, empty region and
    journal labels, blank lines, every edge drop reason and a last line with or
    without a newline."""
    ids = draw(st.lists(st.sampled_from(BYTE_IDS), unique=True, max_size=7))
    articles = [[art_id, draw(st.sampled_from(["1998", "2000", "2001", "2002", "02003", "2004"])),
                 draw(st.sampled_from(["F0", "F1", "Field two", "Fïeld"])), draw(st.sampled_from(["NA", " EU ", "", "Ásia"])),
                 draw(st.sampled_from(["J1", "J2", ""])), draw(AUTHOR_LISTS)] for art_id in ids]
    pool = ids + draw(st.lists(st.sampled_from(NOT_IDS), min_size=1, max_size=2, unique=True))
    edges = [list(p) for p in draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)), max_size=30))]

    def render(header, rows):
        lines = ["\t".join(header)]
        for row in rows:
            lines += draw(st.lists(st.just(""), max_size=1)) + ["\t".join(row)]  # maybe a blank line first
        return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))

    return render(ARTICLE_HEADER, articles), render(EDGE_HEADER, edges)


def assert_same_corpus(a, b):
    for name in ("fields", "regions", "journals", "authors", "span", "drops", "rows_read"):
        assert getattr(a, name) == getattr(b, name), name
    assert list(a.drops) == list(b.drops)
    for name in ("ids", "pub_year", "field_code", "region_code", "journal_code", "author_ptr", "author_code",
                 "citing", "cited", "self_edge"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


@settings(max_examples=200, deadline=None)
@given(clean_tables(), st.sampled_from([None, (2000, 2002), (1999, 2003)]), st.sampled_from([1, 9, 1 << 24]))
def test_byte_path_matches_the_csv_path_and_the_reference(tables, span, edge_piece):
    articles_text, edges_text = tables
    data = articles_text.encode(), edges_text.encode()
    with mock.patch.object(corpus_mod, "_EDGE_PIECE", edge_piece):  # edges split and looked up piece by piece
        by_bytes = read_tables(*data, span)
        if span is not None:
            by_bytes_corpus = load_corpus(*data, span)
    by_csv_path = by_csv(read_tables, *data, span)
    kept, edges, drops, rows_read = reference_read(articles_text, edges_text, span)
    assert table_records(by_bytes) == table_records(by_csv_path) == kept
    for labels in ("fields", "regions", "journals"):
        assert by_bytes[labels] == by_csv_path[labels]
    for name in ("pub_year", "field_code", "region_code", "journal_code", "citing", "cited"):
        x, y = by_bytes[name], by_csv_path[name]
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    ids = by_bytes["ids"].tolist()
    assert [(ids[i], ids[j]) for i, j in zip(by_bytes["citing"].tolist(), by_bytes["cited"].tolist())] == edges
    assert list(by_bytes["drops"].items()) == list(by_csv_path["drops"].items()) == list(drops.items())
    assert by_bytes["rows_read"] == by_csv_path["rows_read"] == rows_read
    if span is not None:
        c = by_bytes_corpus
        assert_same_corpus(c, by_csv(load_corpus, *data, span))
        records_by_id = oracle.read(c).articles
        for rec in kept:
            assert records_by_id[rec["id"]].author_ids == {a for a in rec["author_ids"].split(";") if a}


BASE_ARTICLES = "\t".join(ARTICLE_HEADER) + "\nA\t2000\tF\tR\tJ\ta1;a2\nB\t2001\tF\tR\tJ\ta2\n"
BASE_EDGES = "\t".join(EDGE_HEADER) + "\nB\tA\n"
# Tables with a fault or a byte that only the csv module splits: the same result, or error and line, either way.
DECLINED = {
    "quote": (BASE_ARTICLES + 'C\t2001\tF\tR\tJ\t"a2;a3"\n', BASE_EDGES),
    "cr": (BASE_ARTICLES.replace("\n", "\r\n"), BASE_EDGES),
    "lone_cr": (BASE_ARTICLES + "C\t2001\tF\tR\tJ\ta\rb\n", BASE_EDGES),
    "nul": (BASE_ARTICLES + "C\t2001\tF\tR\tJ\ta2\0\n", BASE_EDGES),
    "bad_header": (BASE_ARTICLES.replace("journal_id", "journal"), BASE_EDGES),
    "padded_header": (" " + BASE_ARTICLES, BASE_EDGES),
    "too_many_tabs": (BASE_ARTICLES + "C\t2001\tF\tR\tJ\ta2\tx\n", BASE_EDGES),
    "too_few_tabs": (BASE_ARTICLES + "C\t2001\tF\tR\tJ\n", BASE_EDGES),
    "edge_tabs": (BASE_ARTICLES, BASE_EDGES + "A\tB\tC\n"),
    "year_space": (BASE_ARTICLES + "C\t 2001\tF\tR\tJ\t\n", BASE_EDGES),
    "year_plus": (BASE_ARTICLES + "C\t+2001\tF\tR\tJ\t\n", BASE_EDGES),
    "year_underscore": (BASE_ARTICLES + "C\t2_001\tF\tR\tJ\t\n", BASE_EDGES),
    "year_non_ascii_digits": (BASE_ARTICLES + "C\t２００１\tF\tR\tJ\t\n", BASE_EDGES),
    "year_negative": (BASE_ARTICLES + "C\t-5\tF\tR\tJ\t\n", BASE_EDGES),
    "year_empty": (BASE_ARTICLES + "C\t\tF\tR\tJ\t\n", BASE_EDGES),
    "year_word": (BASE_ARTICLES + "C\ttwothousand\tF\tR\tJ\t\n", BASE_EDGES),
    "year_ten_digits": (BASE_ARTICLES + "C\t1234567890\tF\tR\tJ\t\n", BASE_EDGES),
    "empty_field": (BASE_ARTICLES + "C\t2001\t\tR\tJ\t\n", BASE_EDGES),
    "duplicate_id": (BASE_ARTICLES + "A\t2001\tF\tR\tJ\t\n", BASE_EDGES),
    "duplicate_id_out_of_span": (BASE_ARTICLES + "A\t1700\tF\tR\tJ\t\n", BASE_EDGES),
    "invalid_utf8": (BASE_ARTICLES.encode() + b"C\t2001\tF\tR\tJ\ta\xff\n", BASE_EDGES),
    "invalid_utf8_edges": (BASE_ARTICLES, BASE_EDGES.encode() + b"B\t\xc3\n"),
    "over_field_limit": (BASE_ARTICLES + "C\t2001\tF\tR\tJ\t" + ";a" * 70_000 + "\n", BASE_EDGES),
    "empty_tables": ("", ""),
    "empty_edges": (BASE_ARTICLES, ""),
}


def outcome(read):
    try:
        t = read()
    except Exception as e:  # the same exception type and message either way
        return type(e).__name__, str(e)
    return table_records(t), t["fields"], t["regions"], t["journals"], t["citing"].tolist(), t["cited"].tolist(), t["drops"]


@pytest.mark.parametrize("case", list(DECLINED))
@pytest.mark.parametrize("span", [None, (2000, 2001)])
def test_byte_path_declines_what_the_csv_reader_reads_otherwise(case, span):
    data = [t if isinstance(t, bytes) else t.encode() for t in DECLINED[case]]
    assert outcome(lambda: read_tables(*data, span)) == outcome(lambda: by_csv(read_tables, *data, span))


@pytest.mark.parametrize("article_ids", [["A", "A\0", "B"], ["A", "B"]])
def test_ids_that_end_in_nul_are_distinct(article_ids):
    articles = "\t".join(ARTICLE_HEADER) + "".join(f"\n{a}\t2001\tF\tR\tJ\t" for a in article_ids) + "\n"
    edges = "\t".join(EDGE_HEADER) + "\nB\tA\0\nB\tA\nB\tA\0\0\n"
    for read in (read_tables, lambda *tables: by_csv(read_tables, *tables)):
        t = read(articles.encode(), edges.encode(), None)
        ids = t["ids"].tolist()
        pairs = [(ids[i], ids[j]) for i, j in zip(t["citing"].tolist(), t["cited"].tolist())]
        assert ids == article_ids
        assert pairs == [("B", cited) for cited in ("A\0", "A", "A\0\0") if cited in article_ids]
        assert t["drops"]["dangling"] == 3 - len(pairs)


def test_duplicate_edges_keep_the_first_copy():
    articles = BASE_ARTICLES + "C\t2001\tF\tR\tJ\t\n"
    edges = "\t".join(EDGE_HEADER) + "\nB\tA\nC\tA\nB\tA\nC\tB\nC\tA\n"
    for read in (read_tables, lambda *tables: by_csv(read_tables, *tables)):
        t = read(articles.encode(), edges.encode(), None)
        ids = t["ids"].tolist()
        pairs = [(ids[i], ids[j]) for i, j in zip(t["citing"].tolist(), t["cited"].tolist())]
        assert pairs == [("B", "A"), ("C", "A"), ("C", "B")]
        assert t["drops"]["duplicate_edge"] == 2


@pytest.mark.parametrize("edge_piece", [1 << 12, corpus_mod._EDGE_PIECE])
def test_ids_behind_a_shared_65_byte_prefix_load_to_the_same_corpus(tmp_path, edge_piece):
    """Every id of a generated corpus's files prefixed by the same 65 bytes: each 7-byte id, keyed by its bytes,
    becomes a 72-byte one keyed by a hash of 9 words, 8 of which every id shares. The corpus read is the same but
    for the ids."""
    corpus = synthgen.generate(GenParams(span=(2000, 2004), articles_per_year=(300,) * 5,
                                         refs_per_article=(0.0, 3.0, 4.0, 4.0, 4.0), self_citation_rate=0.2, seed=3))
    write_tables(corpus, tmp_path / "a.tsv", tmp_path / "e.tsv")
    articles, edges = (tmp_path / "a.tsv").read_bytes(), (tmp_path / "e.tsv").read_bytes()
    prefix = b"https://doi.org/10.1000/" + b"x" * 41
    assert len(prefix) == 65 and len(corpus.id_utf8.buf) == 7 * corpus.n_articles
    head, _, rows = articles.partition(b"\n")
    long_articles = head + b"\n" + re.sub(rb"(?m)^", prefix, rows.rstrip(b"\n")) + b"\n"
    head, _, rows = edges.partition(b"\n")
    long_edges = head + b"\n" + re.sub(rb"(?m)^|\t", lambda m: m.group() + prefix, rows.rstrip(b"\n")) + b"\n"
    with mock.patch.object(corpus_mod, "_EDGE_PIECE", edge_piece):
        short, long = load_corpus(articles, edges, corpus.span), load_corpus(long_articles, long_edges, corpus.span)
    assert long.ids.tolist() == [prefix.decode() + i for i in short.ids.tolist()] == [prefix.decode() + i for i in
                                                                                        corpus.ids.tolist()]
    for name in ("citing", "cited", "self_edge", "pub_year", "field_code", "region_code", "journal_code",
                 "author_ptr", "author_code", "id_rank"):
        assert np.array_equal(getattr(long, name), getattr(short, name)), name
    assert long.drops == short.drops and long.rows_read == short.rows_read
    for name in ("citing", "cited", "self_edge", "pub_year"):  # and both as generated
        assert np.array_equal(getattr(short, name), getattr(corpus, name)), name
