import importlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from citeconc import studies, synthgen
from citeconc.cli import main
from citeconc.corpus import Corpus
from citeconc.config import build_run, parse_config
from conftest import ARTICLES_TSV, EDGES_TSV

GEN_OVERRIDES = """\
gen.span.start = 1990
gen.span.end = 1999
gen.articles.start = 150
gen.articles.end = 150
gen.refs.start = 4
gen.refs.end = 4
gen.seed = 11
"""


def write_fixture_tables(tmp_path):
    arts = tmp_path / "articles.tsv"
    edges = tmp_path / "edges.tsv"
    arts.write_text(ARTICLES_TSV)
    edges.write_text(EDGES_TSV)
    return str(arts), str(edges)


def test_validate_clean_fixture(tmp_path, capsys):
    arts, edges = write_fixture_tables(tmp_path)
    rc = main(["validate", arts, edges, "--span", "2000", "2004"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "articles read: 5" in out
    assert "articles retained: 5" in out
    assert "dangling: 1" in out
    assert "duplicate_edge: 1" in out
    assert "future_dated: 1" in out
    assert "edges retained: 5" in out


def test_validate_bad_row_reports_line_number(tmp_path, capsys):
    arts = tmp_path / "articles.tsv"
    arts.write_text(
        "id\tpub_year\tfield\tregion\tjournal_id\tauthor_ids\n"
        "A\t2000\tF\tR\tJ\t\n"
        "B\tnotayear\tF\tR\tJ\t\n"
    )
    edges = tmp_path / "edges.tsv"
    edges.write_text("citing_id\tcited_id\n")
    rc = main(["validate", str(arts), str(edges)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "line 3" in err


def test_validate_duplicate_id_is_error(tmp_path, capsys):
    arts = tmp_path / "articles.tsv"
    edges = tmp_path / "edges.tsv"
    edges.write_text("citing_id\tcited_id\n")
    # in the second case the first copy of A is out of the span
    for first_year, span in (("2000", []), ("1990", ["--span", "2000", "2002"])):
        arts.write_text(
            "id\tpub_year\tfield\tregion\tjournal_id\tauthor_ids\n"
            f"A\t{first_year}\tF\tR\tJ\t\n"
            "A\t2001\tF\tR\tJ\t\n"
        )
        rc = main(["validate", str(arts), str(edges)] + span)
        assert rc == 2
        assert "line 3: duplicate article id" in capsys.readouterr().err


def test_validate_year_beyond_int32_is_a_data_error(tmp_path, capsys):
    arts, edges = write_fixture_tables(tmp_path)
    Path(arts).write_text(ARTICLES_TSV + "F\t99999999999\tPhys\tAsia\tJ1\t\n")
    assert main(["validate", arts, edges]) == 2
    assert capsys.readouterr().err == "error: articles line 7: year '99999999999' out of range\n"


def test_invalid_utf8_names_its_line_and_offset(tmp_path, capsys):
    arts, edges = write_fixture_tables(tmp_path)
    rows = "".join(f"P{i:04d}\t2001\tPhys\tAsia\tJ1\ta{i}\n" for i in range(600))  # past 8 KiB
    data = (ARTICLES_TSV + rows).encode() + b"Q\t2001\tPhys\tAsia\tJ1\ta\xff\n"
    assert len(data) > 8192
    Path(arts).write_bytes(data)
    assert main(["validate", arts, edges]) == 2
    err = capsys.readouterr().err
    position = len(data) - 2  # in the file, not in a decoder's chunk
    assert err.startswith(f"error: articles line 607: 'utf-8' codec can't decode byte 0xff in position {position}:")
    assert err.count("\n") == 1


def test_validate_missing_file(tmp_path, capsys):
    rc = main(["validate", str(tmp_path / "nope.tsv"), str(tmp_path / "nope2.tsv")])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_generate_unknown_scenario(tmp_path, capsys):
    rc = main(["generate", "--scenario", "bogus", "--out", str(tmp_path)])
    assert rc == 1
    assert "unknown scenario" in capsys.readouterr().err


def test_generate_deterministic_and_round_trips(tmp_path, capsys):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    # the stationary preset is the smallest; shrink nothing, just compare runs
    assert main(["generate", "--scenario", "stationary", "--out", str(d1), "--seed", "5"]) == 0
    summary = capsys.readouterr().out
    assert main(["generate", "--scenario", "stationary", "--out", str(d2), "--seed", "5"]) == 0
    capsys.readouterr()
    assert (d1 / "articles.tsv").read_bytes() == (d2 / "articles.tsv").read_bytes()
    assert (d1 / "edges.tsv").read_bytes() == (d2 / "edges.tsv").read_bytes()

    n_edges = int(next(l for l in summary.splitlines() if l.startswith("edges:")).split()[1])
    span = next(l for l in summary.splitlines() if l.startswith("span:")).split()[1]
    start, end = span.split("-")
    rc = main(["validate", str(d1 / "articles.tsv"), str(d1 / "edges.tsv"), "--span", start, end])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"edges retained: {n_edges}" in out
    for reason in ("out_of_span", "dangling", "self_loop", "future_dated", "duplicate_edge"):
        assert f"{reason}: 0" in out


def test_validate_inverted_span_and_undecodable_input(tmp_path, capsys):
    arts, edges = write_fixture_tables(tmp_path)
    assert main(["validate", arts, edges, "--span", "2004", "2000"]) == 1
    assert "invalid span" in capsys.readouterr().err
    Path(arts).write_bytes(ARTICLES_TSV.encode() + b"F\t2001\tPhys\tAsia\tJ1\t\xff\n")
    assert main(["validate", arts, edges]) == 2
    assert "can't decode" in capsys.readouterr().err
    cfg = tmp_path / "run.conf"
    cfg.write_text(f"corpus.articles = {arts}\ncorpus.edges = {edges}\nspan.start = 2000\nspan.end = 2004\n"
                   f"output.dir = {tmp_path / 'out'}\nstudies = g\ng.type = gini\n")
    assert main(["analyze", str(cfg)]) == 2
    assert "data error" in capsys.readouterr().err


def test_oversized_field_is_a_data_error_for_validate_and_analyze(tmp_path, capsys):
    arts, edges = write_fixture_tables(tmp_path)
    # 30,000 authors make an author_ids field longer than the csv module's limit
    Path(arts).write_text(ARTICLES_TSV + "F\t2001\tPhys\tAsia\tJ1\t" + ";".join(f"a{i}" for i in range(30_000)) + "\n")
    assert main(["validate", arts, edges]) == 2
    assert capsys.readouterr().err == "error: articles line 7: field larger than field limit (131072)\n"
    cfg = tmp_path / "run.conf"
    cfg.write_text(f"corpus.articles = {arts}\ncorpus.edges = {edges}\nspan.start = 2000\nspan.end = 2004\n"
                   f"output.dir = {tmp_path / 'out'}\nstudies = g\ng.type = gini\n")
    assert main(["analyze", str(cfg)]) == 2
    assert capsys.readouterr().err == "data error: articles line 7: field larger than field limit (131072)\n"
    assert not (tmp_path / "out").exists()


def test_gen_params_schedule_override_keeps_the_scenario_span():
    run = build_run(parse_config("corpus.scenario = stationary\ngen.articles.start = 100\n"
                                 "gen.articles.end = 390\ngen.refs.end = 2\nseed = 5\nstudies = g\ng.type = gini\n"))
    base = synthgen.scenario("stationary")
    params = run.gen
    assert params.span == base.span == (1980, 2009)
    assert params.articles_per_year == tuple(range(100, 391, 10))
    assert params.refs_per_article == pytest.approx([8.0 - 6.0 * t / 29 for t in range(30)], rel=1e-15)
    assert replace(params, articles_per_year=base.articles_per_year, refs_per_article=base.refs_per_article,
                   seed=base.seed) == base
    assert params.seed == 5


SCENARIO = "corpus.scenario = stationary\n"
FILES = "corpus.articles = a.tsv\ncorpus.edges = e.tsv\nspan.start = 2000\nspan.end = 2004\n"


@pytest.mark.parametrize("source, key", [
    (SCENARIO + "gen.articles.start = abc\n", "gen.articles.start: expected an integer"),
    (SCENARIO + "gen.refs.end = many\n", "gen.refs.end: expected a number"),
    (SCENARIO + "gen.span.start = 2000\ngen.span.end = 1999\n", "gen.span.end: 1999 is before gen.span.start 2000"),
    (SCENARIO + "gen.articles.start = -5\n", "gen.articles/gen.refs: schedules must be non-negative"),
    (SCENARIO + "seed = x\n", "seed: expected an integer"),
    ("corpus.scenario = bogus\n", "corpus.scenario: unknown scenario 'bogus'"),
    (FILES + "gen.refs.end = 4\n", "gen.refs.end: only read with corpus.scenario"),
    (FILES + "seed = 5\n", "seed: only read with corpus.scenario"),
    (SCENARIO + "span.start = 1995\nspan.end = 1996\n", "span.start/span.end: only read with file input"),
])
def test_analyze_bad_generator_key_is_a_config_error(tmp_path, capsys, source, key):
    out_dir = tmp_path / "out"
    cfg = tmp_path / "run.conf"
    cfg.write_text(source + f"output.dir = {out_dir}\nstudies = g\ng.type = gini\n")
    assert main(["analyze", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {key}")
    assert not out_dir.exists()


def test_analyze_non_utf8_config_is_a_config_error(tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = tmp_path / "run.conf"
    cfg.write_bytes(f"{SCENARIO}output.dir = {out_dir}\nstudies = g\ng.type = gini # \xff\n".encode("latin-1"))
    assert main(["analyze", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {cfg}: 'utf-8' codec can't decode byte 0xff") and err.count("\n") == 1
    assert not out_dir.exists()


def analyze_config(out_dir, extra=""):
    return (
        "corpus.scenario = stationary\n"
        + GEN_OVERRIDES
        + f"output.dir = {out_dir}\n"
        "output.formats = csv,json\n"
        "studies = g5 u5\n"
        "g5.type = gini\n"
        "g5.window.length = 5\n"
        "u5.type = uncited\n"
        "u5.window.length = 5\n"
        + extra
    )


def test_analyze_writes_outputs_and_manifest(tmp_path):
    out_dir = tmp_path / "out"
    cfg = tmp_path / "run.conf"
    cfg.write_text(analyze_config(out_dir))
    assert main(["analyze", str(cfg)]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())["outputs"]
    assert len(manifest) == 2
    names = {entry["study"] for entry in manifest}
    assert names == {"g5", "u5"}
    for entry in manifest:
        assert len(entry["files"]) == 2
        for fname in entry["files"]:
            assert (out_dir / fname).exists()
        assert len(entry["config_hash"]) == 64


def test_analyze_rerun_byte_identical(tmp_path):
    outs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        cfg = tmp_path / f"{run}.conf"
        cfg.write_text(analyze_config(out_dir))
        assert main(["analyze", str(cfg)]) == 0
        outs.append(out_dir)
    a, b = outs
    files = sorted(p.name for p in a.iterdir())
    assert files == sorted(p.name for p in b.iterdir())
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_analyze_four_approach_battery(tmp_path):
    out_dir = tmp_path / "out"
    cfg = tmp_path / "run.conf"
    lines = [
        "corpus.scenario = stationary",
        GEN_OVERRIDES.rstrip(),
        f"output.dir = {out_dir}",
        "output.formats = json",
        "studies = ci ce ri re",
    ]
    for name, approach, include in (
        ("ci", "citation_based", "true"), ("ce", "citation_based", "false"),
        ("ri", "reference_based", "true"), ("re", "reference_based", "false"),
    ):
        lines += [f"{name}.type = gini",
                  f"{name}.study.approach = {approach}",
                  f"{name}.study.include_uncited = {include}",
                  f"{name}.window.length = 3"]
    cfg.write_text("\n".join(lines) + "\n")
    assert main(["analyze", str(cfg)]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())["outputs"]
    assert [e["study"] for e in manifest] == ["ci", "ce", "ri", "re"]
    assert len({e["config_hash"] for e in manifest}) == 4
    for e in manifest:
        rows = json.loads((out_dir / e["files"][0]).read_text())["rows"]
        assert len(rows) > 0


def test_analyze_unknown_key_fails_before_compute(tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = tmp_path / "run.conf"
    cfg.write_text(analyze_config(out_dir, extra="g5.window.lenght = 5\n"))
    rc = main(["analyze", str(cfg)])
    assert rc == 1
    assert "unknown config key" in capsys.readouterr().err
    assert not out_dir.exists()


def test_analyze_study_listed_twice_fails_before_compute(tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "out"
    cfg = tmp_path / "run.conf"
    cfg.write_text(analyze_config(out_dir).replace("studies = g5 u5", "studies = u5 g5 u5"))
    monkeypatch.setattr(synthgen, "generate", lambda params: pytest.fail("a corpus was built"))
    assert main(["analyze", str(cfg)]) == 1
    assert "config error: studies: 'u5' is listed more than once" in capsys.readouterr().err
    assert not out_dir.exists()


def test_analyze_requires_exactly_one_source(tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text("output.dir = x\nstudies = g\ng.type = gini\n")
    assert main(["analyze", str(cfg)]) == 1
    assert "exactly one" in capsys.readouterr().err


def test_analyze_missing_config(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "none.conf")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_analyze_file_input(tmp_path):
    arts, edges = write_fixture_tables(tmp_path)
    out_dir = tmp_path / "out"
    cfg = tmp_path / "run.conf"
    cfg.write_text(
        f"corpus.articles = {arts}\n"
        f"corpus.edges = {edges}\n"
        "span.start = 2000\nspan.end = 2004\n"
        f"output.dir = {out_dir}\n"
        "output.formats = csv\n"
        "studies = u\n"
        "u.type = uncited\n"
        "u.window.length = 1\n"
    )
    assert main(["analyze", str(cfg)]) == 0
    csv_text = (out_dir / "u.csv").read_text()
    assert "uncited_share" in csv_text.splitlines()[0]


def test_analyze_data_error_exit_two(tmp_path, capsys):
    arts = tmp_path / "articles.tsv"
    arts.write_text("id\tpub_year\tfield\tregion\tjournal_id\tauthor_ids\nA\tbad\tF\tR\tJ\t\n")
    edges = tmp_path / "edges.tsv"
    edges.write_text("citing_id\tcited_id\n")
    cfg = tmp_path / "run.conf"
    cfg.write_text(
        f"corpus.articles = {arts}\ncorpus.edges = {edges}\n"
        "span.start = 2000\nspan.end = 2004\n"
        f"output.dir = {tmp_path / 'out'}\n"
        "studies = u\nu.type = uncited\n"
    )
    assert main(["analyze", str(cfg)]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("extra", ["u5.study.pcts = 0.01,abc\n", "u5.study.top_pct = abc\n"])
def test_analyze_non_numeric_pct_is_config_error(tmp_path, capsys, extra):
    # u5 becomes the study type that reads the key, so the number parser is what rejects it.
    kind = "top_shares" if "pcts" in extra else "region_tails"
    out_dir = tmp_path / "out"
    cfg = tmp_path / "run.conf"
    cfg.write_text(analyze_config(out_dir, extra=extra).replace("u5.type = uncited", f"u5.type = {kind}"))
    assert main(["analyze", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "expected a number" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("kind", ["uncited", "region_removal", "region_tails", "top_shares"])
@pytest.mark.parametrize("settings", [
    ["study.approach = reference_based"],
    ["study.approach = reference_based", "window.direction = backward"],
    ["window.direction = backward"],
])
def test_analyze_forward_only_study_rejects_backward_window(tmp_path, capsys, kind, settings):
    out_dir = tmp_path / "out"
    cfg = tmp_path / "run.conf"
    cfg.write_text(
        "corpus.scenario = stationary\n" + GEN_OVERRIDES + f"output.dir = {out_dir}\n"
        f"studies = b\nb.type = {kind}\n"
        + ("b.regions.remove = Asia\n" if kind == "region_removal" else "")
        + "".join(f"b.{s}\n" for s in settings)
    )
    assert main(["analyze", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "requires a forward window" in err
    assert not out_dir.exists()


def test_analyze_region_removal_without_region_fails_before_compute(tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = tmp_path / "run.conf"
    cfg.write_text(
        "corpus.scenario = stationary\n" + GEN_OVERRIDES + f"output.dir = {out_dir}\n"
        "studies = g1 rr\ng1.type = gini\nrr.type = region_removal\n"
    )
    assert main(["analyze", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "requires regions.remove" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("kind, extra", [
    ("region_tails", "u5.study.top_pct = 1.5\n"),
    ("region_tails", "u5.study.citing_level = cited\n"),
    ("top_shares", "u5.study.pcts = 0.01,0\n"),
    ("uncited", "u5.study.approach = sideways\n"),
    ("uncited", "u5.window.direction = up\n"),
])
def test_analyze_invalid_study_parameter_fails_before_compute(tmp_path, capsys, kind, extra):
    out_dir = tmp_path / "out"
    cfg = tmp_path / "run.conf"
    cfg.write_text(analyze_config(out_dir, extra=extra).replace("u5.type = uncited", f"u5.type = {kind}"))
    assert main(["analyze", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error: u5: " in err
    assert not out_dir.exists()


@pytest.mark.parametrize("extra", [
    "u5.study.field = nonexistent\n",
    "u5.regions.remove = nowhere\n",
    "u5.normalize.mics_per_year = true\n",
    "g5.study.pcts = 0.5\n",
    "g5.study.citing_level = article\n",
])
def test_analyze_key_the_study_type_does_not_read_fails_before_compute(tmp_path, capsys, extra):
    out_dir = tmp_path / "out"
    cfg = tmp_path / "run.conf"
    cfg.write_text(analyze_config(out_dir, extra=extra))
    assert main(["analyze", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"{extra.split(' =')[0]}: not read by" in err
    assert not out_dir.exists()


def test_analyze_global_default_applies_only_to_types_that_read_it(tmp_path):
    out_dir = tmp_path / "out"
    cfg = tmp_path / "run.conf"
    cfg.write_text(
        "corpus.scenario = stationary\n" + GEN_OVERRIDES + f"output.dir = {out_dir}\n"
        "output.formats = json\nstudy.pcts = 0.5\nstudy.field = F1\n"
        "studies = g t\ng.type = gini\nt.type = top_shares\n"
    )
    assert main(["analyze", str(cfg)]) == 0
    g = json.loads((out_dir / "g.json").read_text())
    t = json.loads((out_dir / "t.json").read_text())
    assert g["config"]["field_filter"] == "F1"
    assert "top_0.5" in t["columns"]


def test_console_script_installed(tmp_path):
    import os
    import shutil
    import subprocess
    import sys

    exe = shutil.which("citeconc")
    if exe is not None:
        cmd, env = [exe], None
    else:
        # Not installed: run the same entry point from the source tree.
        src = str(Path(__file__).resolve().parents[1] / "src")
        cmd = [sys.executable, "-m", "citeconc.cli"]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(cmd + ["generate", "--scenario", "bogus", "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1


def test_analyze_battery_builds_each_prepared_corpus_and_mask_once(tmp_path, monkeypatch):
    # The benchmark's battery (every study type and flag) at a small scale.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    text, names = importlib.import_module("workloads").analyze_config(20240603, str(tmp_path / "out"), 0.05)
    cfg = tmp_path / "battery.conf"
    cfg.write_text(text)
    masks, cores, subsets, tables = [], [], [], []
    mask, core, subset, rows = studies.in_window_edge_mask, studies.filter_core_journals, Corpus.subset, studies._rows

    def counted_mask(corpus, length, exclude_self=False):
        masks.append((corpus, length, exclude_self))
        return mask(corpus, length, exclude_self)

    def counted_core(corpus):
        cores.append(corpus)
        return core(corpus)

    def counted_subset(corpus, keep):
        subsets.append((corpus, keep.tobytes()))
        return subset(corpus, keep)

    def counted_rows(work, mask, key):
        tables.append(key)
        return rows(work, mask, key)

    monkeypatch.setattr(studies, "in_window_edge_mask", counted_mask)
    monkeypatch.setattr(studies, "_rows", counted_rows)
    monkeypatch.setattr(studies, "filter_core_journals", counted_core)
    monkeypatch.setattr(Corpus, "subset", counted_subset)
    assert main(["analyze", str(cfg)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())["outputs"]
    assert list(dict.fromkeys(e["study"] for e in manifest)) == names
    # W in {2, 5, 10} with and without self-citations on the corpus, W = 5 on the
    # core-journal corpus and on each of the five residuals of region removal.
    assert len(masks) == len(set(masks)) == 12
    assert len(cores) == 1
    assert len(subsets) == len(set(subsets)) == 6  # the core-journal corpus and five residuals
    # One table per population (prepared corpus, window, approach and normalisation
    # parameters), normalised only when one of its studies reads normalised scores.
    assert len(tables) == len(set(tables)) == 21
    assert sum(key.normalized for key in tables) == 16
    # CSV cells are written with repr(): a numpy scalar would show as np.float64(...).
    assert not any("np." in p.read_text() for p in (tmp_path / "out").glob("*.csv"))


def test_analyze_data_error_in_a_study_stops_in_its_turn(tmp_path, capsys):
    # b removes a region the corpus lacks: an error only compute finds. The study
    # before it is written, the one after it and the manifest are not.
    out_dir = tmp_path / "out"
    cfg = tmp_path / "run.conf"
    cfg.write_text(
        "corpus.scenario = stationary\n" + GEN_OVERRIDES + f"output.dir = {out_dir}\n"
        "studies = a b c\na.type = gini\nb.type = region_removal\nb.regions.remove = Atlantis\nc.type = uncited\n"
    )
    assert main(["analyze", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "unknown region" in err
    assert sorted(p.name for p in out_dir.iterdir()) == ["a.csv", "a.json"]


def test_analyze_unknown_field_stops_in_its_turn(tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = tmp_path / "run.conf"
    cfg.write_text(
        "corpus.scenario = stationary\n" + GEN_OVERRIDES + f"output.dir = {out_dir}\n"
        "studies = a b c\na.type = gini\nb.type = gini\nb.study.field = Nope\nc.type = uncited\n"
    )
    assert main(["analyze", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "unknown field 'Nope'" in err
    assert sorted(p.name for p in out_dir.iterdir()) == ["a.csv", "a.json"]
