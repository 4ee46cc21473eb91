"""Tests of the end-to-end benchmark itself.

    python3 -m pytest e2ebench/tests -q

The smoke runs use ``--smoke`` (tiny scope) and take about a minute in
total.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
from spans import Patches, SpanRecorder, in_window, self_times  # noqa: E402

END_TO_END = ["setup_s", "wall_s", "cpu_s", "peak_rss_mb", "ops_per_s",
              "op_p50_ms", "op_p95_ms"]
WORKLOADS = ["paper-fused", "adaptive-pool", "serve-readwrite"]


def run_bench(workload, trace, cwd=ROOT, seconds=2):
    """Run the benchmark and return as soon as its process has exited.

    Output goes to files rather than pipes: reading pipes to their end
    would also wait for any process that inherited them, and so hide a
    process the benchmark left running.
    """
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(
            [sys.executable, "e2ebench/run.py", "--workload", workload,
             "--seed", "5", "--seconds", str(seconds), "--trace", str(trace),
             "--smoke"],
            cwd=cwd, stdout=out, stderr=err,
        )
        returncode = proc.wait(timeout=300)
        left = leftover_processes()
        out.seek(0)
        err.seek(0)
        done = subprocess.CompletedProcess(
            proc.args, returncode, out.read().decode(), err.read().decode())
    done.leftover = left
    return done


def leftover_processes():
    """Processes still running from a benchmark scratch tree.

    The benchmark points TMPDIR into its scratch tree before it starts
    anything, so every process it started (pool workers, the server and
    the multiprocessing resource tracker) carries the marker in its
    environment, if not in its command line.
    """
    marker = str(ROOT / ".e2ebench-tmp").encode()
    found = []
    for proc in Path("/proc").glob("[0-9]*"):
        for name in ("cmdline", "environ"):
            try:
                if marker in (proc / name).read_bytes():
                    found.append(proc.name)
                    break
            except OSError:
                continue
    return found


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(spec) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]
    assert spec["paths"] == ["e2ebench"]
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert [m["name"] for m in spec["end_to_end"]] == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layers.PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric_and_passes_its_checks(workload, trace):
    had_results = (ROOT / "campaign_results").exists()
    had_cache = (ROOT / ".simra-cache").exists()
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    info = next(json.loads(line)["info"] for line in done.stderr.splitlines()
                if line.startswith('{"info"'))
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    # Only checks of known program faults may fail (see common.Checks).
    assert result["correct"] is True
    assert result["failed"] == info["known_faults"]
    assert result["attempted"] >= 1
    names = END_TO_END if not trace else [n for n, _, _ in layers.PER_LAYER]
    assert sorted(result["metrics"]) == sorted(names)
    if trace and workload == "paper-fused":
        # fig10's majority-regime Multi-RowCopy tasks fall back.
        assert result["metrics"]["engine.executors.fallback_tasks"]["value"] > 0
    if trace and workload == "adaptive-pool":
        assert result["metrics"]["engine.executors.fallback_tasks"]["value"] == 0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not (ROOT / ".e2ebench-tmp").exists()
    assert (ROOT / "campaign_results").exists() == had_results
    assert (ROOT / ".simra-cache").exists() == had_cache
    assert done.leftover == []


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "paper-fused",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, env=env,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_self_time_subtracts_children_and_windows_cut_parents():
    spans = [
        ["outer", 0.0, 10.0, -1, 0],
        ["inner", 1.0, 4.0, 0, 0],
        ["inner", 5.0, 6.0, 0, 0],
        ["leaf", 2.0, 3.0, 1, 0],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    cut = in_window(spans, 0.5, 3.0)
    assert [s[0] for s in cut] == ["inner", "leaf"]
    assert [s[3] for s in cut] == [-1, 0]


def test_patches_record_nested_spans_and_restore_originals():
    class Model:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    recorder = SpanRecorder()
    with Patches(recorder) as patches:
        patches.span(Model, "outer", "outer")
        patches.span(Model, "inner", "inner", count=lambda a, k, r: r * 7)
        assert Model().outer() == 2
    assert Model.__dict__["outer"].__name__ == "outer"
    assert [(s[0], s[3], s[4]) for s in recorder.spans] == [
        ("outer", -1, 0), ("inner", 0, 7)]


def test_request_mix_is_seeded_and_writer_windows_cover_both_versions():
    import serve_workload

    names = ["fig3", "fig6", "fig7"]
    first = serve_workload.request_mix(3, 0, names, names[1:])
    assert first == serve_workload.request_mix(3, 0, names, names[1:])
    other = serve_workload.request_mix(4, 0, names, names[1:])
    assert first != other and sorted(map(repr, first)) == sorted(map(repr, other))
    # Equal quarters: reads, revalidations, listings, CIs.
    kinds = [(r.route, r.revalidate) for r in first]
    quarter = len(first) // 4
    assert kinds.count(("figure", False)) == kinds.count(("figure", True)) \
        == kinds.count(("ci", False)) == quarter
    assert kinds.count(("figures", False)) == quarter // 2
    assert {r.name for r in first if r.route == "figure"} == set(names)
    writer = serve_workload.Writer.__new__(serve_workload.Writer)
    writer.digests = ["a", "b"]
    assert writer.possible(2, 2) == {"a"}
    assert writer.possible(2, 3) == {"a", "b"}


def test_serve_runs_whole_rounds_fixed_by_seconds():
    import serve_workload
    from common import Context

    def rounds(seconds, trace):
        return serve_workload.round_count(Context(
            "serve-readwrite", 1, seconds, trace, False, ROOT))

    assert rounds(20, False) == round(20 * serve_workload.ROUNDS_PER_SECOND)
    assert rounds(20, True) % 2 == 0 and rounds(0.1, True) == 2
    assert rounds(0.1, False) == 1


def test_pool_fallback_tasks_divide_extra_apa_programs_by_trials():
    from types import SimpleNamespace

    import campaign_workloads

    def record(tasks, trials, fallbacks):
        plan = SimpleNamespace(tasks=[SimpleNamespace(trials=trials)] * tasks)
        metrics = SimpleNamespace(tasks=tasks,
                                  apa_programs=tasks + fallbacks * trials)
        return plan, SimpleNamespace(metrics=metrics)

    records = [record(10, 6, 2), record(8, 4, 0), record(5, 4, 5),
               (None, RuntimeError("failed plan"))]
    assert campaign_workloads.pool_fallback_tasks(records) == 7
