"""Smoke test of the benchmark harness at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is emitted with its unit, that
spans nest, that self time is never negative, that call counts repeat between
two traced runs, and that the output comparison and invariants hold.
"""

from __future__ import annotations

import gc
import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

run.bootstrap()

import tracing  # noqa: E402
import workloads  # noqa: E402

SCALE = 0.01
with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def traced(request):
    name = request.param
    w = workloads.WORKLOADS[name]
    return name, run.measure(name, w.default_seed, 0, trace=True, scale=SCALE)


def test_benchmark_json_matches_the_harness():
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracing.PER_LAYER


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_metrics_emitted(name):
    metrics, attempts, tracer = run.measure(name, 1, 0, trace=False, scale=SCALE)
    assert tracer is None
    assert attempts.failed == 0, attempts.failures
    assert attempts.attempted >= 1
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {k: v["unit"] for k, v in metrics.items()}
    assert all(v["value"] > 0 for v in metrics.values())


def test_per_layer_metrics_emitted(traced):
    name, (metrics, attempts, tracer) = traced
    assert attempts.failed == 0, attempts.failures
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {k: v["unit"] for k, v in metrics.items()}
    assert metrics["trace.spans"]["value"] == len(tracer.spans) > 0


def test_spans_nest_and_self_time_is_not_negative(traced):
    _, (_, _, tracer) = traced
    for rec_id, _, start, end, parent in tracer.spans:
        assert start <= end
        if parent is not None:
            assert parent < rec_id
            _, _, p_start, p_end, _ = tracer.spans[parent]
            assert p_start <= start and end <= p_end
    assert any(rec[4] is not None for rec in tracer.spans)
    for stats in tracer.span_stats().values():
        assert stats["self_s"] >= 0
        assert stats["s"] >= 0


def test_spans_written_with_run_id(traced, tmp_path):
    _, (_, _, tracer) = traced
    path = tmp_path / "spans.jsonl"
    tracer.write_spans(str(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == len(tracer.spans)
    assert {line["run_id"] for line in lines} == {tracer.run_id}
    assert set(lines[0]) == {"run_id", "id", "name", "start", "end", "parent"}


def test_call_counts_repeat(traced):
    name, (_, _, first) = traced
    _, _, second = run.measure(name, workloads.WORKLOADS[name].default_seed, 0, trace=True, scale=SCALE)
    assert first.call_counts() == second.call_counts()


def test_uninstall_restores_every_binding():
    from citeconc import corpus, normalize, studies, windows

    before = (windows.in_window_edge_mask, studies.in_window_edge_mask, normalize.in_window_edge_mask,
              corpus.Corpus.__init__, corpus.Corpus.subset)
    tracer = tracing.Tracer()
    tracer.install()
    assert studies.in_window_edge_mask is windows.in_window_edge_mask is normalize.in_window_edge_mask
    assert studies.in_window_edge_mask is not before[0]
    tracer.uninstall()
    assert (windows.in_window_edge_mask, studies.in_window_edge_mask, normalize.in_window_edge_mask,
            corpus.Corpus.__init__, corpus.Corpus.subset) == before


def test_diff_tolerates_float_noise_only():
    ref = {"s": {"columns": ["year", "gini", "reason"], "rows": [[1990, 0.5, None], [1991, None, "empty_cohort"]]}}
    same = json.loads(json.dumps(ref))
    same["s"]["rows"][0][1] = 0.5 * (1 + 1e-12)
    assert workloads.diff(ref, same) is None
    for path, value in (((0, 1), 0.5 * (1 + 1e-6)), ((0, 0), 1990.0), ((1, 2), "zero_total"), ((1, 1), 0.0)):
        changed = json.loads(json.dumps(ref))
        changed["s"]["rows"][path[0]][path[1]] = value
        assert workloads.diff(ref, changed) is not None


def test_reference_mismatch_counts_as_failure():
    name = "tsv-roundtrip"
    with open(workloads.reference_path(name), encoding="utf-8") as f:
        outputs = json.load(f)["outputs"]
    attempts = workloads.Attempts()
    attempts.new_repeat()
    for label in outputs:
        attempts.call(label, lambda: None)
    workloads.compare_with_reference(name, outputs, attempts)
    assert attempts.failed == 0
    outputs["validate"]["edges retained"] += 1
    workloads.compare_with_reference(name, outputs, attempts)
    assert [label for _, label in attempts.failures] == ["validate"]


def test_every_failed_repeat_counts(tmp_path):
    def run_op(state, attempts):
        return attempts.call("op", lambda: 1 / 0)

    def check(state, raw, attempts):
        attempts.fail("op", "no output")
        attempts.fail("skipped", "not run because op failed")
        return {}

    failing = workloads.Workload("failing", 0, "", lambda *a: None, run_op, check)
    attempts = workloads.Attempts()
    for _ in range(2):
        run.timed_op(failing, None, str(tmp_path), attempts, compare=False)
    assert attempts.attempted == 4
    assert attempts.failed / attempts.attempted == 1


def test_corpus_serial_is_not_reused():
    state = workloads.c11_setup(1, "", 0.001)
    tracer = tracing.Tracer()
    first = tracer._fingerprint(workloads.synthgen.generate(state.params))
    gc.collect()
    second = tracer._fingerprint(workloads.synthgen.generate(state.params))
    assert first != second
