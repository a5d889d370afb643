"""The three benchmark workloads: their inputs, timed operation and checks.

Each workload has
  setup(seed, workdir, scale) -> state   input preparation, untimed
  run(state, attempts)       -> raw      the timed operation
  check(state, raw, attempts) -> outputs untimed invariant checks; returns
                                         {operation label: emitted outputs}
`scale` shrinks the inputs for the harness smoke test; the benchmark runs at
scale 1, where outputs at the default seed are also compared with
`reference/<workload>.json`.

The caller puts the package's `src` directory on `sys.path` before importing
this module.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, replace
from typing import Any, Callable

from citeconc import cli, synthgen
from citeconc import corpus as corpus_mod
from citeconc import studies
from citeconc.windows import WindowSpec

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
FLOAT_RTOL = 1e-9


class Attempts:
    """Operations attempted in one timed run and the ones that failed.

    An operation fails when it raises, returns a non-zero exit code, or emits
    output that a check rejects. Each attempt fails at most once, however many
    checks reject it; `fail` on a label not attempted in the current repeat
    (an operation skipped because one before it failed) counts it as attempted
    and failed.
    """

    def __init__(self):
        self.labels: list[str] = []
        # (attempt index, label) -> first reason that attempt failed
        self.failures: dict[tuple[int, str], str] = {}
        self._current: dict[str, int] = {}

    def new_repeat(self) -> None:
        """Start a repeat: later checks refer to attempts made from here on."""
        self._current.clear()

    def _attempt(self, label: str) -> int:
        self._current[label] = len(self.labels)
        self.labels.append(label)
        return self._current[label]

    def call(self, label: str, fn: Callable, *args, **kwargs):
        index = self._attempt(label)
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # any exception is a failed operation, not a harness crash
            self.failures.setdefault((index, label), f"raised {e!r}")
            return None

    def fail(self, label: str, why: str) -> None:
        index = self._current[label] if label in self._current else self._attempt(label)
        self.failures.setdefault((index, label), why)

    @property
    def attempted(self) -> int:
        return len(self.labels)

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    why: str
    setup: Callable[[int, str, float], Any]
    run: Callable[[Any, Attempts], Any]
    check: Callable[[Any, Any, Attempts], dict]


def _table(rep) -> dict:
    return {"columns": list(rep["columns"]), "rows": [[r.get(c) for c in rep["columns"]] for r in rep["rows"]]}


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _analyze_outputs(out_dir: str, attempts: Attempts) -> dict | None:
    """Manifest and every emitted JSON series of one `analyze` call; checks that
    the files the manifest lists exist."""
    try:
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as f:
            manifest = json.load(f)["outputs"]
        series = {}
        for entry in manifest:
            for name in entry["files"]:
                if not os.path.isfile(os.path.join(out_dir, name)):
                    attempts.fail("analyze", f"manifest lists missing file {name}")
            with open(os.path.join(out_dir, f"{entry['id']}.json"), encoding="utf-8") as f:
                series[entry["id"]] = _table(json.load(f))
    except (OSError, ValueError, KeyError) as e:
        attempts.fail("analyze", f"unreadable output: {e!r}")
        return None
    return {"manifest": manifest, "series": series}


# -- c11-battery --------------------------------------------------------------

@dataclass
class C11State:
    params: synthgen.GenParams
    configs: list[tuple[str, studies.StudyConfig]]


def c11_setup(seed: int, workdir: str, scale: float) -> C11State:
    per_year = round(25_000 * scale)
    params = synthgen.GenParams(
        span=(1980, 2019),
        articles_per_year=tuple([per_year] * 40),
        refs_per_article=tuple([10.5] * 40),
        attachment_constant=5.0,
        attachment_exponent=1.0,
        recency_halflife=3.0,
        self_citation_rate=0.03,
        seed=seed,
    )
    configs = []
    for approach in (studies.CITATION_BASED, studies.REFERENCE_BASED):
        direction = "forward" if approach == studies.CITATION_BASED else "backward"
        for length in (2, 5, 10):
            for include in (True, False):
                cfg = studies.StudyConfig(window=WindowSpec(direction, length), approach=approach,
                                          include_uncited=include)
                configs.append((f"gini_{approach}_w{length}_{'u' if include else 'x'}", cfg))
    return C11State(params, configs)


def c11_run(state: C11State, attempts: Attempts):
    corpus = attempts.call("generate", synthgen.generate, state.params)
    if corpus is None:
        return None
    reports = {sid: attempts.call(sid, studies.gini_series, corpus, cfg, study_id=sid)
               for sid, cfg in state.configs}
    return {"n_articles": corpus.n_articles, "n_edges": corpus.n_edges, "reports": reports}


def c11_check(state: C11State, raw, attempts: Attempts) -> dict:
    if raw is None:
        return {}
    n_expected = sum(state.params.articles_per_year)
    if raw["n_articles"] != n_expected:
        attempts.fail("generate", f"n_articles {raw['n_articles']} != {n_expected}")
    if raw["n_edges"] < 9.5 * n_expected:
        attempts.fail("generate", f"n_edges {raw['n_edges']} < {9.5 * n_expected:.0f}")
    outputs = {"generate": {"n_articles": raw["n_articles"], "n_edges": raw["n_edges"]}}
    for sid, rep in raw["reports"].items():
        if rep is None:
            continue
        if all(r["gini"] is None for r in rep.rows):
            attempts.fail(sid, "no non-null Gini row")
        outputs[sid] = _table({"columns": rep.columns, "rows": rep.rows})
    return outputs


# -- tsv-roundtrip ------------------------------------------------------------

@dataclass
class TsvState:
    corpus: corpus_mod.Corpus
    articles: str
    edges: str
    out_dir: str
    config: str


def tsv_setup(seed: int, workdir: str, scale: float) -> TsvState:
    params = replace(synthgen.scenario("declining-uncitedness", seed=seed), authors_max=12)
    if scale != 1:
        params = replace(params, articles_per_year=tuple(max(1, round(n * scale)) for n in params.articles_per_year))
    corpus = synthgen.generate(params)
    op_dir = os.path.join(workdir, "op")
    state = TsvState(corpus, os.path.join(op_dir, "articles.tsv"), os.path.join(op_dir, "edges.tsv"),
                     os.path.join(op_dir, "out"), os.path.join(workdir, "tsv.conf"))
    start, end = corpus.span
    with open(state.config, "w", encoding="utf-8") as f:
        f.write(f"corpus.articles = {state.articles}\ncorpus.edges = {state.edges}\n"
                f"span.start = {start}\nspan.end = {end}\noutput.dir = {state.out_dir}\n"
                "output.formats = csv,json\nstudies = u5\n"
                "u5.type = uncited\nu5.window.length = 5\nu5.study.exclude_self = true\n")
    return state


def tsv_run(state: TsvState, attempts: Attempts):
    start, end = state.corpus.span
    attempts.call("write_tables", corpus_mod.write_tables, state.corpus, state.articles, state.edges)
    validate = attempts.call("validate", _cli, ["validate", state.articles, state.edges,
                                                "--span", str(start), str(end)])
    # The loader's own counts, taken where `analyze` calls it.
    loaded = []
    load = corpus_mod.load_corpus_files

    def capture(*args, **kwargs):
        c = load(*args, **kwargs)
        loaded.append({"n_articles": c.n_articles, "n_edges": c.n_edges})
        return c

    corpus_mod.load_corpus_files = capture
    try:
        analyze = attempts.call("analyze", _cli, ["analyze", state.config])
    finally:
        corpus_mod.load_corpus_files = load
    return {"validate": validate, "analyze": analyze, "loaded": loaded}


def _parse_validate(text: str) -> dict:
    """`citeconc validate` output as {'<key>': int, '<section>': {key: int}}."""
    out: dict[str, Any] = {}
    section = None
    for line in text.splitlines():
        key, _, value = line.strip().partition(":")
        if line.startswith("  "):
            out[section][key] = int(value)
        elif value.strip():
            out[key] = int(value)
        else:
            section = key
            out[section] = {}
    return out


def tsv_check(state: TsvState, raw, attempts: Attempts) -> dict:
    outputs = {}
    if raw["validate"] is not None:
        rc, text = raw["validate"]
        if rc != 0:
            attempts.fail("validate", f"exit code {rc}")
        else:
            try:
                outputs["validate"] = _parse_validate(text)
            except (ValueError, KeyError) as e:
                attempts.fail("validate", f"unreadable output: {e!r}")
    if raw["analyze"] is not None:
        rc, _ = raw["analyze"]
        if rc != 0:
            attempts.fail("analyze", f"exit code {rc}")
        elif (analyzed := _analyze_outputs(state.out_dir, attempts)) is not None:
            outputs["analyze"] = analyzed
    if "validate" in outputs and raw["loaded"]:
        got = {"n_articles": outputs["validate"].get("articles retained"),
               "n_edges": outputs["validate"].get("edges retained")}
        if got != raw["loaded"][0]:
            attempts.fail("validate", f"validate retained {got} but the loader kept {raw['loaded'][0]}")
        if got != {"n_articles": state.corpus.n_articles, "n_edges": state.corpus.n_edges}:
            attempts.fail("validate", f"validate retained {got} of the corpus that was written")
    elif "analyze" in outputs:
        attempts.fail("analyze", "the loader was not called")
    return outputs


# -- analyze-battery ----------------------------------------------------------

REGIONS = ("NorthAmerica", "Europe", "Asia", "Africa", "Other")


def analyze_config(seed: int, out_dir: str, scale: float) -> tuple[str, list[str]]:
    """Config text covering every study type and flag, and its study names."""
    studies_cfg: dict[str, dict[str, str]] = {}
    for approach, tag in (("citation_based", "cb"), ("reference_based", "rb")):
        for length in (2, 5, 10):
            for include in (True, False):
                for excl in (False, True):
                    studies_cfg[f"g_{tag}_w{length}_{'u' if include else 'x'}{'s' if excl else ''}"] = {
                        "type": "gini", "study.approach": approach, "window.length": str(length),
                        "study.include_uncited": str(include).lower(), "study.exclude_self": str(excl).lower()}
        studies_cfg[f"gf_{tag}"] = {"type": "gini_by_field", "study.approach": approach}
        studies_cfg[f"gc_{tag}"] = {"type": "gini", "study.approach": approach, "study.core_only": "true"}
    for length in (2, 5, 10):
        for excl in (False, True):
            studies_cfg[f"u_w{length}{'s' if excl else ''}"] = {
                "type": "uncited", "window.length": str(length), "study.exclude_self": str(excl).lower()}
    for region in REGIONS:
        studies_cfg[f"rr_{region}"] = {"type": "region_removal", "regions.remove": region}
    for level in ("edge", "article"):
        studies_cfg[f"rt_{level}"] = {"type": "region_tails", "study.citing_level": level}
    studies_cfg["ts"] = {"type": "top_shares", "study.pcts": "0.01,0.05,0.1"}
    studies_cfg["g_mics"] = {"type": "gini", "normalize.mics_per_year": "true"}
    studies_cfg["g_rho_all"] = {"type": "gini", "study.exclude_self": "true", "normalize.rho_scope": "all_edges"}
    studies_cfg["g_raw"] = {"type": "gini", "normalize.enabled": "false"}
    studies_cfg["g_drop_earliest"] = {"type": "gini", "study.approach": "reference_based",
                                      "window.drop_earliest_population": "true"}

    lines = ["corpus.scenario = region-shift", f"seed = {seed}", f"output.dir = {out_dir}",
             "output.formats = csv,json", "studies = " + " ".join(studies_cfg)]
    if scale != 1:
        lines += [f"gen.articles.start = {round(4000 * scale)}", f"gen.articles.end = {round(10000 * scale)}"]
    for name, keys in studies_cfg.items():
        lines += [f"{name}.{k} = {v}" for k, v in keys.items()]
    return "\n".join(lines) + "\n", list(studies_cfg)


@dataclass
class AnalyzeState:
    config: str
    out_dir: str
    study_names: list[str]


def analyze_setup(seed: int, workdir: str, scale: float) -> AnalyzeState:
    out_dir = os.path.join(workdir, "op", "out")
    text, names = analyze_config(seed, out_dir, scale)
    path = os.path.join(workdir, "battery.conf")
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return AnalyzeState(path, out_dir, names)


def analyze_run(state: AnalyzeState, attempts: Attempts):
    return attempts.call("analyze", _cli, ["analyze", state.config])


def analyze_check(state: AnalyzeState, raw, attempts: Attempts) -> dict:
    if raw is None:
        return {}
    rc, _ = raw
    if rc != 0:
        attempts.fail("analyze", f"exit code {rc}")
        return {}
    outputs = _analyze_outputs(state.out_dir, attempts)
    if outputs is None:
        return {}
    missing = set(state.study_names) - {e["study"] for e in outputs["manifest"]}
    if missing:
        attempts.fail("analyze", f"studies without output: {sorted(missing)}")
    for sid, table in outputs["series"].items():
        if "gini" in table["columns"]:
            col = table["columns"].index("gini")
            bad = [row[col] for row in table["rows"] if row[col] is not None and not 0 <= row[col] < 1]
            if bad:
                attempts.fail("analyze", f"{sid}: Gini outside [0, 1): {bad[:3]}")
    return {"analyze": outputs}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("c11-battery", 99,
                 "1M articles and ~10.2M edges: the generator and Corpus build dominate, then 12 Gini studies",
                 c11_setup, c11_run, c11_check),
        Workload("tsv-roundtrip", 6,
                 "TSV write, validate and load of 302k articles with up to 12 authors: the corpus read/write paths",
                 tsv_setup, tsv_run, tsv_check),
        Workload("analyze-battery", 20240603,
                 "citeconc analyze over every study type and flag: studies, windows, normalize and Corpus rebuilds",
                 analyze_setup, analyze_run, analyze_check),
    )
}


# -- reference comparison -----------------------------------------------------

def reference_path(name: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{name}.json")


def diff(expected, got, where: str = "") -> str | None:
    """First difference between two JSON-like values, or None.

    Floats agree within FLOAT_RTOL relative; every other value must be equal,
    type included (an int never matches a float)."""
    if isinstance(expected, float) and isinstance(got, float):
        if abs(expected - got) <= FLOAT_RTOL * max(abs(expected), abs(got)):
            return None
        return f"{where}: {got!r} != {expected!r}"
    if type(expected) is not type(got):
        return f"{where}: {got!r} != {expected!r}"
    if isinstance(expected, dict):
        if expected.keys() != got.keys():
            return f"{where}: keys {sorted(set(got) ^ set(expected))[:5]} differ"
        for k in expected:
            d = diff(expected[k], got[k], f"{where}/{k}")
            if d:
                return d
        return None
    if isinstance(expected, list):
        if len(expected) != len(got):
            return f"{where}: length {len(got)} != {len(expected)}"
        for i, (e, g) in enumerate(zip(expected, got)):
            d = diff(e, g, f"{where}[{i}]")
            if d:
                return d
        return None
    return None if expected == got else f"{where}: {got!r} != {expected!r}"


def compare_with_reference(name: str, outputs: dict, attempts: Attempts) -> None:
    with open(reference_path(name), encoding="utf-8") as f:
        reference = json.load(f)["outputs"]
    for label in sorted(set(reference) | set(outputs)):
        if label not in outputs or label not in reference:
            attempts.fail(label, "output missing from the run or from the reference")
            continue
        d = diff(reference[label], outputs[label], label)
        if d:
            attempts.fail(label, f"differs from reference: {d}")
