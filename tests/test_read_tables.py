"""Differential test of the TSV row parser against a row-by-row reference.

The reference reads the same text with plain ``csv`` and dicts and shares no
helper with ``citeconc.corpus``. Both see dirty input: CRLF and LF line ends,
quoted fields (an author list may span two lines), blank lines, empty or
repeated author lists, rows outside the span, every edge drop reason and at
most one malformed row. Line numbers are the physical lines rows start on.
"""

import contextlib
import csv
import io
import os
import re
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from citeconc.cli import main
from citeconc.corpus import DataError, load_corpus, read_tables

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
    pool = ids + ["X"]  # X is never an article: dangling
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
@given(dirty_tables(), st.sampled_from([None, (2000, 2002), (1999, 2003)]))
def test_read_tables_and_validate_match_the_reference(tables, span):
    articles_text, edges_text = tables
    rc, out, err = run_validate(articles_text, edges_text, span)
    try:
        kept, edges, drops, rows_read = reference_read(articles_text, edges_text, span)
    except Rejected as where:
        with pytest.raises(DataError) as exc:
            read_tables(io.StringIO(articles_text, newline=""), io.StringIO(edges_text, newline=""), span)
        assert rejected_at(exc.value) == where.args
        assert (rc, out, err) == (2, "", f"error: {exc.value}\n")
        return

    t = read_tables(io.StringIO(articles_text, newline=""), io.StringIO(edges_text, newline=""), span)
    got = [{"id": t["ids"][i], "pub_year": int(t["pub_year"][i]), "field": t["fields"][t["field_code"][i]],
            "region": t["regions"][t["region_code"][i]], "journal_id": t["journals"][t["journal_code"][i]],
            "author_ids": t["author_text"][i]} for i in range(len(t["ids"]))]
    assert got == kept
    for labels, column in (("fields", "field"), ("regions", "region"), ("journals", "journal_id")):
        assert t[labels] == list(dict.fromkeys(rec[column] for rec in kept))  # codes in order of first use
    assert [(t["ids"][i], t["ids"][j]) for i, j in zip(t["citing"].tolist(), t["cited"].tolist())] == edges
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
    c = load_corpus(io.StringIO(articles_text, newline=""), io.StringIO(edges_text, newline=""), span)
    assert (c.n_articles, c.n_edges) == (report["articles retained"], report["edges retained"])
    assert list(c.drops.items()) == report["drops"]
    assert c.rows_read == (report["articles read"], report["edges read"])
    records = oracle.read(c).articles
    for rec in kept:
        assert records[rec["id"]].author_ids == {a for a in rec["author_ids"].split(";") if a}
