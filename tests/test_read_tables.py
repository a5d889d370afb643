"""Differential test of the TSV row parser against a row-by-row reference.

The reference reads the same text with plain ``csv`` and dicts and shares no
helper with ``citeconc.corpus``. Both see dirty input: CRLF and LF line ends,
quoted fields (an author list may span two lines), blank lines, empty or
repeated author lists, rows outside the span, every edge drop reason and at
most one malformed row. Line numbers are the physical lines rows start on, and
an error's message is the reference's, word for word.

``read_tables`` splits every file with one numpy tokeniser, which reads quotes,
CRs and NULs as ``csv.reader`` does. It is checked against the reference on
dirty, clean and faulty tables, against the same tables with every field
quoted and CRLF line ends, and, row by row, against ``csv.reader`` itself on
random text of quotes, tabs, line ends, NULs and non-ASCII bytes.
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
from hypothesis import example, given, settings
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
    """The reference found the input unreadable: the table, the line (None for the header) and the
    message of the error that read_tables must raise."""


def rows_of(table, data, header):
    """``(line, row)`` for each row of ``data`` (text, or UTF-8 bytes) after the header row, which
    must be ``header``, with the physical line on which the row starts; a quoted field may span
    lines. Raises Rejected for invalid UTF-8, a bad header or a ``csv.Error``."""
    if isinstance(data, bytes):
        try:
            data = data.decode()
        except UnicodeDecodeError as e:
            lines = io.StringIO(data[:e.start].decode(), newline="").readlines()
            line = 1 + sum(text.endswith(("\n", "\r")) for text in lines)
            raise Rejected(table, line, f"{table} line {line}: {e}") from None
    reader = csv.reader(io.StringIO(data, newline=""), delimiter="\t")
    line = 1
    try:
        if [c.strip() for c in next(reader, [])] != header:
            raise Rejected(table, None, f"{table}: bad or missing header, expected {chr(9).join(header)!r}")
        line = reader.line_num + 1
        for row in reader:
            yield line, row
            line = reader.line_num + 1
    except csv.Error as e:
        raise Rejected(table, line, f"{table} line {line}: {e}") from None


def reject(table, line, message):
    return Rejected(table, line, f"{table} line {line}: {message}")


def reference_read(articles, edges, span):
    """Retained article dicts, retained (citing, cited) id pairs, drop tallies and rows read of the
    tables ``articles`` and ``edges`` (text, or UTF-8 bytes)."""
    every_id = set()
    kept = {}
    drops = {"out_of_span": 0, "dangling": 0, "self_loop": 0, "future_dated": 0, "duplicate_edge": 0}
    rows_read = [0, 0]
    for line, row in rows_of("articles", articles, ARTICLE_HEADER):
        if not row:
            continue
        rows_read[0] += 1
        if len(row) != len(ARTICLE_HEADER):
            raise reject("articles", line, f"expected {len(ARTICLE_HEADER)} columns, got {len(row)}")
        rec = dict(zip(ARTICLE_HEADER, row))
        try:
            rec["pub_year"] = int(rec["pub_year"])
        except ValueError:
            raise reject("articles", line, f"unparsable year {row[1]!r}") from None
        if not -2**31 <= rec["pub_year"] < 2**31:
            raise reject("articles", line, f"year {row[1]!r} out of range")
        if rec["field"] == "":
            raise reject("articles", line, "empty field label")
        if rec["id"] in every_id:
            raise reject("articles", line, f"duplicate article id {rec['id']!r}")
        every_id.add(rec["id"])
        if span is not None and not span[0] <= rec["pub_year"] <= span[1]:
            drops["out_of_span"] += 1
        else:
            kept[rec["id"]] = rec

    edges_kept = []
    for line, row in rows_of("edges", edges, EDGE_HEADER):
        if not row:
            continue
        rows_read[1] += 1
        if len(row) != 2:
            raise reject("edges", line, f"expected 2 columns, got {len(row)}")
        src, dst = row
        if src == dst:
            drops["self_loop"] += 1
        elif src not in kept or dst not in kept:
            drops["dangling"] += 1
        elif kept[src]["pub_year"] < kept[dst]["pub_year"]:
            drops["future_dated"] += 1
        elif (src, dst) in edges_kept:
            drops["duplicate_edge"] += 1
        else:
            edges_kept.append((src, dst))
    return list(kept.values()), edges_kept, drops, tuple(rows_read)


def quoted_crlf(text):
    """The table ``text`` as ``csv.writer`` writes its non-blank rows with every field quoted and
    CRLF line ends."""
    out = io.StringIO()
    csv.writer(out, delimiter="\t", quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(
        row for row in csv.reader(io.StringIO(text, newline=""), delimiter="\t") if row)
    return out.getvalue()


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
def test_read_tables_and_validate_match_the_reference(tables, span, edge_piece):
    with mock.patch.object(corpus_mod, "_EDGE_PIECE", edge_piece):  # edges split and looked up a few at a time
        check_against_the_reference(*tables, span)


def check_against_the_reference(articles_text, edges_text, span):
    rc, out, err = run_validate(articles_text, edges_text, span)
    try:
        kept, edges, drops, rows_read = reference_read(articles_text, edges_text, span)
    except Rejected as where:
        with pytest.raises(DataError) as exc:
            read_tables(articles_text.encode(), edges_text.encode(), span)
        assert str(exc.value) == where.args[2]
        assert (rc, out, err) == (2, "", f"error: {exc.value}\n")
        return

    t = read_tables(articles_text.encode(), edges_text.encode(), span)
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
    c = load_corpus(articles_text.encode(), edges_text.encode(), span)
    assert (c.n_articles, c.n_edges) == (report["articles retained"], report["edges retained"])
    assert list(c.drops.items()) == report["drops"]
    assert c.rows_read == (report["articles read"], report["edges read"])
    records = oracle.read(c).articles
    for rec in kept:
        assert records[rec["id"]].author_ids == {a for a in rec["author_ids"].split(";") if a}


# -- clean tables, and the same tables quoted -----------------------------------

# Ids of one and two 8-byte words, exactly 8 and 9 bytes (the longest ids keyed by their bytes and the
# shortest keyed by a hash), past 64 bytes, two that share their first 128 bytes, and the empty id.
BYTE_IDS = ["P0", "P1", "P2", "é3", "id 4", "an id of 2 words", "p0000000", "p0000001", "p00000012", "z" * 70,
            "z" * 70 + "7", "w" * 128 + "a tail", "w" * 128 + "b", ""]
# Never articles (dangling): short, a prefix of an id, equal to an id in its first word (also an 8-byte
# id's 8 bytes and one more), past 64 bytes, an id's first 129 bytes, and an id with a NUL after its 71
# bytes.
NOT_IDS = ["X", "an id of", "an id of 2 wordz", "an id of 2 words!", "p0000000x", "p00000013", "z" * 69,
           "w" * 128 + "a", "z" * 70 + "7\0"]
AUTHOR_LISTS = st.lists(st.sampled_from(["a1", "a2", "a10", "", "Müller", "李"]), max_size=5).map(";".join)


@st.composite
def clean_tables(draw):
    """Article and edge TSV text with no quote or CR and no fault: empty, repeated and non-ASCII
    author names, empty region and journal labels, blank lines, every edge drop reason and a last
    line with or without a newline."""
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
def test_clean_tables_match_the_reference_and_their_quoted_crlf_copy(tables, span, edge_piece):
    """The tables as drawn, and the same rows with every field quoted and CRLF line ends, which
    csv.reader reads as the same rows: the same tables and, with a span, the same corpus."""
    articles_text, edges_text = tables
    data = articles_text.encode(), edges_text.encode()
    quoted = quoted_crlf(articles_text).encode(), quoted_crlf(edges_text).encode()
    with mock.patch.object(corpus_mod, "_EDGE_PIECE", edge_piece):  # edges split and looked up piece by piece
        plain, copy = read_tables(*data, span), read_tables(*quoted, span)
        if span is not None:
            corpora = load_corpus(*data, span), load_corpus(*quoted, span)
    kept, edges, drops, rows_read = reference_read(articles_text, edges_text, span)
    assert table_records(plain) == table_records(copy) == kept
    for labels in ("fields", "regions", "journals"):
        assert plain[labels] == copy[labels]
    for name in ("pub_year", "field_code", "region_code", "journal_code", "citing", "cited"):
        x, y = plain[name], copy[name]
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    ids = plain["ids"].tolist()
    assert [(ids[i], ids[j]) for i, j in zip(plain["citing"].tolist(), plain["cited"].tolist())] == edges
    assert list(plain["drops"].items()) == list(copy["drops"].items()) == list(drops.items())
    assert plain["rows_read"] == copy["rows_read"] == rows_read
    if span is not None:
        assert_same_corpus(*corpora)
        records_by_id = oracle.read(corpora[0]).articles
        for rec in kept:
            assert records_by_id[rec["id"]].author_ids == {a for a in rec["author_ids"].split(";") if a}


BASE_ARTICLES = "\t".join(ARTICLE_HEADER) + "\nA\t2000\tF\tR\tJ\ta1;a2\nB\t2001\tF\tR\tJ\ta2\n"
BASE_EDGES = "\t".join(EDGE_HEADER) + "\nB\tA\n"
# Tables with a fault, a quote, a CR or a NUL: read_tables gives the reference's result, or its error.
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
    except Exception as e:  # the reference's exception type and message
        return type(e).__name__, str(e)
    ids = t["ids"].tolist()
    return (table_records(t), t["fields"], t["regions"], t["journals"],
            [(ids[i], ids[j]) for i, j in zip(t["citing"].tolist(), t["cited"].tolist())], t["drops"])


def reference_outcome(articles, edges, span):
    try:
        kept, edges, drops, _ = reference_read(articles, edges, span)
    except Rejected as where:
        return "DataError", where.args[2]
    return (kept, *(list(dict.fromkeys(rec[c] for rec in kept)) for c in ("field", "region", "journal_id")),
            edges, drops)


@pytest.mark.parametrize("case", list(DECLINED))
@pytest.mark.parametrize("span", [None, (2000, 2001)])
def test_faults_and_quoting_bytes_read_as_the_reference_reads_them(case, span):
    data = [t if isinstance(t, bytes) else t.encode() for t in DECLINED[case]]
    assert outcome(lambda: read_tables(*data, span)) == reference_outcome(*data, span)


@pytest.mark.parametrize("article_ids", [["A", "A\0", "B"], ["A", "B"]])
def test_ids_that_end_in_nul_are_distinct(article_ids):
    articles = "\t".join(ARTICLE_HEADER) + "".join(f"\n{a}\t2001\tF\tR\tJ\t" for a in article_ids) + "\n"
    edges = "\t".join(EDGE_HEADER) + "\nB\tA\0\nB\tA\nB\tA\0\0\n"
    for tables in ((articles, edges), (quoted_crlf(articles), quoted_crlf(edges))):
        t = read_tables(*(text.encode() for text in tables), None)
        ids = t["ids"].tolist()
        pairs = [(ids[i], ids[j]) for i, j in zip(t["citing"].tolist(), t["cited"].tolist())]
        assert ids == article_ids
        assert pairs == [("B", cited) for cited in ("A\0", "A", "A\0\0") if cited in article_ids]
        assert t["drops"]["dangling"] == 3 - len(pairs)


def test_duplicate_edges_keep_the_first_copy():
    articles = BASE_ARTICLES + "C\t2001\tF\tR\tJ\t\n"
    edges = "\t".join(EDGE_HEADER) + "\nB\tA\nC\tA\nB\tA\nC\tB\nC\tA\n"
    for tables in ((articles, edges), (quoted_crlf(articles), quoted_crlf(edges))):
        t = read_tables(*(text.encode() for text in tables), None)
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


# -- the tokeniser against csv.reader ------------------------------------------

def csv_split(text, columns):
    """What ``_split`` yields for ``text``: ``(line, row)`` for each non-blank row after the header,
    up to the first of another width, and the message of the error that ends the rows, or None."""
    rows = []
    try:
        for line, row in rows_of("t", text, columns):
            if row and len(row) != len(columns):
                return rows, f"t line {line}: expected {len(columns)} columns, got {len(row)}"
            rows += [(line, row)] if row else []
    except Rejected as where:
        return rows, where.args[2]
    return rows, None


def split_rows(text, columns, size):
    """``_split``'s rows of ``text`` in pieces of ``size`` bytes, as :func:`csv_split` gives them."""
    rows = []
    try:
        for data, ends, line, bad in corpus_mod._split(text.encode(), columns, "t", size):
            rows += [(first, [data[a + 1:b].decode() for a, b in zip(row[:-1], row[1:])])
                     for first, row in zip(line.tolist(), ends.tolist())]
            if bad is not None:
                return rows, str(bad)
    except DataError as e:
        return rows, str(e)
    return rows, None


SPLIT_TEXT = st.lists(st.sampled_from(['"', "\t", "\n", "\r", "\r\n", "\0", " ", "a", "b", "é"]), max_size=60)


@settings(max_examples=1000, deadline=None)
@given(SPLIT_TEXT.map("".join), st.sampled_from([1, 2, 7, 1 << 22]), st.sampled_from([None, 3]))
@example('h\ti\nx"y\tz\n', 1 << 22, None)  # a quote in mid-field is content
@example('h\ti\n"x"y"\t"z""\n', 1 << 22, None)  # text after a closing quote, quotes in it too
@example('h\n"a\t"b"\n', 1 << 22, None)  # a tab inside quotes, then text after the closing quote
@example('h\ti\n""\t""""\n""""""\t"""\n', 1 << 22, None)  # runs of quotes: "", """", and one left open
@example('h\ti\nx\t"y\nz\r\n', 2, None)  # a quote still open at the end of the data
@example('h\ti\rx\ty\r\rz\tw', 1 << 22, None)  # lone CRs end rows and lines
@example('\nh\ti\nx\ty\n', 1 << 22, None)  # a blank line before the header
@example('"h"\t"i\tj"" k"\r\nx\ty\r\n', 1 << 22, None)  # quoted header cells
@example('h\ti\nx\t"1\n2\r\n3\r4"\ny\tz\n', 2, None)  # a quoted field across piece boundaries
@example('h\ti\nx\tyyyy\n', 1 << 22, 3)  # a field over the field size limit
@example('hhhh\ti\nx\ty\n', 1 << 22, 3)  # a header cell over the field size limit
@example('h\ti\n"é\té"\ty\n', 1 << 22, 3)  # a field of 3 characters and 5 bytes, after unquoting
def test_split_matches_the_csv_reader(text, size, limit):
    """``_split``'s rows, the lines they start on and the error that ends them are ``csv.reader``'s,
    in pieces of ``size`` bytes, at ``csv.field_size_limit(limit)`` (the limit is restored after).
    The columns are the header's cells, as csv reads them, so that the rows after it are read."""
    old = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)
        try:
            header = next(csv.reader(io.StringIO(text, newline=""), delimiter="\t"), None)
        except csv.Error:
            header = None
        columns = [c.strip() for c in header] if header else ["h"]
        assert split_rows(text, columns, size) == csv_split(text, columns)
    finally:
        csv.field_size_limit(old)
