"""The two campaign workloads: ``paper-fused`` and ``adaptive-pool``.

A round is one whole ``Campaign.run`` into a fresh store on a fresh
executor, followed (outside the timed window) by its output checks.
A run makes ``--seconds`` // ``SECONDS_PER_ROUND`` whole rounds, at
least one, so every run does the same work.  The
simulated inputs are the paper scope at simulation seed 2024 in every
round and every run, so counters and artifact digests repeat exactly;
``--seed`` picks which plans the reference cross-check recomputes.
"""

from __future__ import annotations

import os
import random
from multiprocessing import resource_tracker
import statistics
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import procstat
from common import (
    SETUP_REPEATS,
    Checks,
    Context,
    Outcome,
    import_seconds,
    mean_per_round,
    now,
    tail_percentile,
)
from spans import COUNT, NAME, PARENT, Patches, SpanRecorder, self_times

from repro.bender.testbench import TestBench
from repro.characterization import campaign as campaign_module
from repro.characterization.campaign import Campaign
from repro.characterization.experiment import CharacterizationScope
from repro.characterization.reader import ResultReader
from repro.characterization.stats import DistributionSummary, StreamingBootstrap
from repro.characterization.store import ResultStore
from repro.config import SimulationConfig
from repro.dram.behavior import ReliabilityModel
from repro.dram.vendor import TESTED_MODULES
from repro.engine import AdaptiveConfig, available_cpu_count, make_executor
from repro.engine import bitplane, executors, planner
from repro.engine.executors import ExecutorBase, ProcessPoolExecutor
from repro.engine.kernels import TrialKernel
from repro.engine.planner import AdaptivePlanner
from repro import rngblock

SIM_SEED = 2024
PAPER_SCOPE = {"columns": 512, "groups": 3, "trials": 6}
SMOKE_SCOPE = {"columns": 64, "groups": 1, "trials": 2}
ALL_FIGURES = list(campaign_module.EXPERIMENTS)
ADAPTIVE_FIGURES = ["fig3", "fig4a", "fig4b", "fig6", "fig7", "fig8", "fig9"]
SECONDS_PER_ROUND = {"paper-fused": 12.0, "adaptive-pool": 6.0}
"""``--seconds`` per whole campaign a run makes (at least one)."""
CROSSCHECK_PLANS = 3
"""Plans per paper-fused round recomputed on the serial reference."""
CROSSCHECK_CELLS = 2
"""Adaptive cells per round whose slices are recomputed on FusedExecutor."""


def build_scope(smoke: bool) -> CharacterizationScope:
    scale = SMOKE_SCOPE if smoke else PAPER_SCOPE
    return CharacterizationScope.build(
        config=SimulationConfig(seed=SIM_SEED, columns_per_row=scale["columns"]),
        specs=TESTED_MODULES,
        modules_per_spec=1,
        groups_per_size=scale["groups"],
        trials=scale["trials"],
    )


def build_executor(workload: str) -> ExecutorBase:
    if workload == "paper-fused":
        return make_executor("fused")
    return make_executor("fused-parallel", jobs=min(2, available_cpu_count()))


def start_executor(executor: ExecutorBase) -> None:
    """Start an executor with its pool workers already running.

    ``ProcessPoolExecutor.start`` builds the worker pool, but
    ``concurrent.futures`` forks the workers on the first submit; one
    no-op brings them up here, outside any timed window and before a
    traced round installs its wrappers.  The shared-memory resource
    tracker starts first, as the parent's first plan would start it
    before the fork, so the workers inherit it instead of each starting
    its own.
    """
    executor.start()
    if isinstance(executor, ProcessPoolExecutor):
        resource_tracker.ensure_running()
        executor._pool.submit(os.getpid).result()


def adaptive_config(smoke: bool) -> AdaptiveConfig:
    # CLI defaults (CI target 0.02, 4 trials a round, 32 at most); the
    # smoke scope caps the budget so the tests stay quick.
    if smoke:
        return AdaptiveConfig(round_trials=2, max_trials=4, seed=SIM_SEED)
    return AdaptiveConfig(seed=SIM_SEED)


# -- op timing ----------------------------------------------------------------


class OpLog:
    """Per-plan latency and (plan, result) capture around one executor.

    ``run`` and ``run_many`` are replaced on the instance; the wrappers
    call the class attribute at call time, so a traced round's class
    patches still see every call.
    """

    def __init__(self, executor: ExecutorBase) -> None:
        self.latencies: List[float] = []
        self.records: List[Tuple[Any, Any]] = []
        self.failed = 0
        cls = type(executor)

        def run(plan):
            started = now()
            try:
                result = cls.run(executor, plan)
            except Exception as exc:
                self.failed += 1
                self.records.append((plan, exc))
                raise
            self.latencies.append(now() - started)
            self.records.append((plan, result))
            return result

        def run_many(plans, on_result=None):
            started = now()

            def settled(index, result):
                self.latencies.append(now() - started)
                if isinstance(result, Exception):
                    self.failed += 1
                self.records.append((plans[index], result))
                if on_result is not None:
                    on_result(index, result)

            return cls.run_many(executor, plans, on_result=settled)

        executor.run = run
        executor.run_many = run_many


# -- traced spans -------------------------------------------------------------


def _file_size(path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


def _class_tree(root: type) -> List[type]:
    tree, todo = [], [root]
    while todo:
        cls = todo.pop()
        tree.append(cls)
        todo.extend(cls.__subclasses__())
    return tree


def install_campaign_spans(patches: Patches, workload: str) -> None:
    """Wrap every campaign-side layer boundary the trace reports."""
    patches.span(Campaign, "run", "Campaign.run")
    if workload == "paper-fused":
        # Figure functions build their program and run it plan by plan.
        for name in ALL_FIGURES:
            patches.span(campaign_module.EXPERIMENTS, name, "figure")
    else:
        # The adaptive path builds each program, then plans it; the
        # figure functions are not called.
        for name in ADAPTIVE_FIGURES:
            patches.span(campaign_module.EXPERIMENT_PROGRAMS, name, "program")
    patches.span(ResultStore, "save", "store.save",
                 count=lambda a, k, path: _file_size(path))
    patches.span(ResultStore, "save_manifest", "store.save_manifest",
                 count=lambda a, k, path: _file_size(path))
    patches.span(ResultStore, "journal_append", "store.journal_append",
                 before=lambda a, k: _file_size(a[0].journal_path),
                 count=lambda a, k, size, _: _file_size(a[0].journal_path) - size)
    patches.span(ExecutorBase, "run", "executor.run")
    patches.span(ExecutorBase, "run_many", "executor.run_many",
                 count=lambda a, k, _: len(a[1]))
    patches.span(ProcessPoolExecutor, "run_many", "executor.run_many",
                 count=lambda a, k, _: len(a[1]))
    patches.span(executors, "run_tasks_fused", "run_tasks_fused")
    patches.span(executors, "run_task_serial", "run_task_serial")
    patches.span(executors, "pack_tasks", "pack_tasks")
    patches.span(executors, "unpack_outcomes", "unpack_outcomes")
    for cls in _class_tree(TrialKernel):
        if "setup" in cls.__dict__:
            patches.span(cls, "setup", "kernel.setup")
        if "run_slice" in cls.__dict__:
            patches.span(cls, "run_slice", "kernel.run_slice",
                         count=lambda a, k, _: len(a[2]))
    for cls in _class_tree(TestBench):
        if "run" in cls.__dict__:
            patches.span(cls, "run", "bench.run")
    patches.span(rngblock, "uniform_bit_block", "uniform_bit_block",
                 count=lambda a, k, bits: int(np.size(bits)))
    patches.span(ReliabilityModel, "context_noise_block", "context_noise_block")
    for fn in ("and_accumulate", "pack_matrix", "unpack_mask"):
        patches.span(bitplane, fn, "bitplane")
    patches.span(AdaptivePlanner, "run_program", "planner.run_program")
    patches.span(StreamingBootstrap, "extend", "bootstrap")
    patches.span(StreamingBootstrap, "ci", "bootstrap")
    patches.span(planner, "slice_plan", "slice_merge")
    patches.span(planner, "merge_outcomes", "slice_merge")


_LAYER_OF_SPAN = {
    "Campaign.run": "characterization.campaign.self_s",
    "figure": "characterization.build_s",
    "program": "characterization.build_s",
    "store.save": "characterization.store.commit_s",
    "store.save_manifest": "characterization.store.commit_s",
    "store.journal_append": "characterization.store.commit_s",
    "executor.run": "engine.executors.run_s",
    "executor.run_many": "engine.executors.run_s",
    "run_tasks_fused": "engine.executors.run_s",
    "run_task_serial": "engine.executors.fallback_s",
    "kernel.run_slice": "engine.kernels.run_slice_s",
    "uniform_bit_block": "rngblock.uniform_bit_block_s",
    "context_noise_block": "dram.behavior.context_noise_block_s",
    "bitplane": "engine.bitplane.reduce_s",
    "planner.run_program": "engine.planner.self_s",
    "bootstrap": "characterization.stats.bootstrap_s",
    "slice_merge": "engine.plan.slice_merge_s",
    "pack_tasks": "engine.columnar.pack_s",
    "unpack_outcomes": "engine.columnar.unpack_s",
}


def pool_fallback_tasks(records: List[Tuple[Any, Any]]) -> int:
    """Tasks that fell back on the pool, from each plan's metrics delta.

    A fused task costs one APA program (its probe); one that falls back
    costs its trials more.  Every plan's tasks share one trial count
    (built plans and the planner's slices alike), so a plan's extra APA
    programs divide into whole tasks.
    """
    tasks = 0
    for plan, result in records:
        if isinstance(result, Exception):
            continue
        extra = result.metrics.apa_programs - result.metrics.tasks
        tasks += extra // plan.tasks[0].trials if extra else 0
    return tasks


def campaign_layers(spans: List[list], metrics: Dict[str, Any],
                    pool_fallbacks: Optional[int]) -> Dict[str, float]:
    """Per-layer self times and counts of one traced round."""
    own = self_times(spans)
    out: Dict[str, float] = {name: 0.0 for name in set(_LAYER_OF_SPAN.values())}
    out["engine.executors.probe_s"] = 0.0
    out["engine.executors.wait_s"] = 0.0
    counts = {
        "commits": 0, "bytes_written": 0, "plans": 0, "probes": 0,
        "fallback_tasks": 0, "fused_tasks": 0, "bits": 0, "bench_runs": 0,
    }
    for index, span in enumerate(spans):
        name = span[NAME]
        parent = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else ""
        if name in ("kernel.setup", "bench.run"):
            # A probe is the setup plus one APA under run_tasks_fused;
            # the same calls under run_task_serial are fallback work.
            layer = ("engine.executors.probe_s" if parent == "run_tasks_fused"
                     else "engine.executors.fallback_s")
            if name == "bench.run":
                counts["bench_runs"] += 1
                if parent == "run_tasks_fused":
                    counts["probes"] += 1
        else:
            layer = _LAYER_OF_SPAN[name]
        out[layer] += own[index]
        if name == "executor.run_many":
            out["engine.executors.wait_s"] += own[index]
            counts["plans"] += span[COUNT]
        elif name == "executor.run":
            counts["plans"] += 1
        elif name.startswith("store."):
            counts["bytes_written"] += span[COUNT]
            counts["commits"] += name == "store.save"
        elif name == "run_task_serial" and parent == "run_tasks_fused":
            counts["fallback_tasks"] += 1
        elif name == "kernel.run_slice":
            counts["fused_tasks"] += span[COUNT]
        elif name == "uniform_bit_block":
            counts["bits"] += span[COUNT]
    stages = metrics["stages"]
    pool = pool_fallbacks is not None
    if pool:
        # Worker-side work is not traceable from the parent; it comes
        # from the stage totals and counters the pool harvests.
        out["engine.executors.probe_s"] += stages.get("probe", 0.0)
        out["engine.executors.fallback_s"] += stages.get("fallback", 0.0)
        out["engine.kernels.run_slice_s"] += stages.get("fuse", 0.0)
        counts["probes"] += metrics["tasks"]
        counts["fallback_tasks"] += pool_fallbacks
        counts["fused_tasks"] += metrics["tasks"] - pool_fallbacks
    out.update({
        "characterization.store.commits": counts["commits"],
        "characterization.store.bytes_written": counts["bytes_written"],
        "engine.executors.plans": counts["plans"],
        "engine.executors.probes": counts["probes"],
        "engine.executors.fallback_tasks": counts["fallback_tasks"],
        "engine.kernels.fused_tasks": counts["fused_tasks"],
        "rngblock.bits": counts["bits"],
        "engine.fused_task_share": (
            counts["fused_tasks"] / counts["probes"] if counts["probes"] else 0.0
        ),
        "bender.apa_programs": metrics["apa_programs"],
        "engine.planner.rounds": metrics["rounds"],
        "engine.planner.cells_converged": metrics["cells_converged"],
        "engine.planner.trials_saved": metrics["trials_saved"],
        "engine.executors.dispatches": metrics["dispatches"],
        "engine.executors.bytes_down": metrics["bytes_shipped_down"],
        "engine.executors.bytes_up": metrics["bytes_shipped"],
        "engine.executors.busy_fraction": (
            metrics["busy_fraction"] if pool else 0.0
        ),
        "engine.worker.probe_s": stages.get("probe", 0.0) if pool else 0.0,
        "engine.worker.fuse_s": stages.get("fuse", 0.0) if pool else 0.0,
        "trace.spans": len(spans),
        "trace.bench_runs": counts["bench_runs"],
    })
    return out


# -- checks -------------------------------------------------------------------


def _summaries(value: Any):
    if isinstance(value, DistributionSummary):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _summaries(item)


def check_paper_properties(checks: Checks, data: Dict[str, Any],
                           smoke: bool) -> None:
    """Properties the paper's method implies, on whichever figures ran."""
    bad = [
        (name, s) for name, figure in data.items() for s in _summaries(figure)
        if not all(0.0 <= v <= 1.0 for v in
                   (s.mean, s.minimum, s.q1, s.median, s.q3, s.maximum))
    ]
    checks.check("rates-in-unit-interval", not bad, bad[:3])
    if smoke:
        return  # the anchors below hold at the paper's scope only
    if "fig3" in data:
        point = data["fig3"][(3.0, 3.0)]
        low = {rows: s.mean for rows, s in point.items() if s.mean < 0.99}
        checks.check("fig3-3ns-at-least-99pct", not low, low)
    if "fig6" in data:
        point = data["fig6"][(1.5, 3.0)]
        gap = point[32].mean - point[4].mean
        checks.check("fig6-maj3-32-beats-4-by-20pts", gap >= 0.20,
                     f"{point[32].mean:.4f} vs {point[4].mean:.4f}")
    if "fig7" in data:
        rates = [data["fig7"][x]["random"][32].mean for x in (3, 5, 7)]
        checks.check("fig7-maj3-gt-maj5-gt-maj7",
                     rates[0] > rates[1] > rates[2], rates)
    if "fig10" in data:
        grid = data["fig10"]
        best = max(grid, key=lambda t: statistics.mean(
            s.mean for s in grid[t].values()))
        low = {d: s.mean for d, s in grid[best].items() if s.mean < 0.99}
        checks.check("fig10-best-timing-at-least-99pct", not low,
                     (best, low))
        high = {
            (t, d): s.mean for t, row in grid.items() if t[0] == 1.5
            for d, s in row.items() if s.mean >= 0.10
        }
        checks.check("fig10-t1-1.5ns-below-10pct", not high, high)


def _same_outcomes(left, right) -> bool:
    a = sorted(left.outcomes, key=lambda o: o.index)
    b = sorted(right.outcomes, key=lambda o: o.index)
    return len(a) == len(b) and all(
        x.index == y.index and x.rate == y.rate and x.trials == y.trials
        and x.cells == y.cells and np.array_equal(x.mask, y.mask)
        and tuple(x.trial_rates) == tuple(y.trial_rates)
        and tuple(x.checkpoint_rates) == tuple(y.checkpoint_rates)
        for x, y in zip(a, b)
    )


def check_reference(checks: Checks, ops: OpLog, workload: str,
                    rng: random.Random) -> None:
    """Recompute a seeded sample on a reference path, bit for bit."""
    done = [(plan, result) for plan, result in ops.records
            if not isinstance(result, Exception)]
    if workload == "paper-fused":
        reference = make_executor("serial")
        for plan, result in rng.sample(done, min(CROSSCHECK_PLANS, len(done))):
            checks.check(f"serial-recompute:{plan.name}",
                         _same_outcomes(result, reference.run(plan)))
        return
    # Adaptive: a cell's slices share the cell plan's kernel and point.
    cells: Dict[Tuple, List] = {}
    for plan, result in done:
        cells.setdefault((plan.name, id(plan.kernel), plan.point), []).append(
            (plan, result))
    reference = make_executor("fused")
    keys = sorted(cells, key=lambda key: (key[0], repr(key[2])))
    for key in rng.sample(keys, min(CROSSCHECK_CELLS, len(keys))):
        slices = cells[key]
        checks.check(
            f"fused-recompute:{key[0]}",
            all(_same_outcomes(result, reference.run(plan))
                for plan, result in slices),
            f"{len(slices)} slices",
        )


def check_artifacts(checks: Checks, store_dir, expected: Dict[str, str]
                    ) -> Dict[str, str]:
    """Every artifact reloads checksum-verified; digests match round 0."""
    reader = ResultReader(store_dir)
    digests = {}
    for name in reader.names():
        try:
            reader.load(name, verify=True)
            digests[name] = reader.content_digest(name)
            ok = True
        except Exception as exc:  # noqa: BLE001 -- any failure fails the check
            ok, digests[name] = False, repr(exc)
        # engine-stats carries this round's timings, so only it may differ.
        same = (name == "engine-stats"
                or digests[name] == expected.get(name, digests[name]))
        checks.check(f"artifact:{name}", ok and same, digests[name])
    return digests


# -- the workload ------------------------------------------------------------


def _metrics_of(executor: ExecutorBase) -> Dict[str, Any]:
    m = executor.metrics
    return {
        "plans": m.plans, "tasks": m.tasks, "apa_programs": m.apa_programs,
        "rounds": m.rounds, "cells_converged": m.cells_converged,
        "trials_saved": m.trials_saved, "dispatches": m.dispatches,
        "bytes_shipped_down": m.bytes_shipped_down,
        "bytes_shipped": m.bytes_shipped,
        "busy_fraction": m.executor_busy_fraction,
        "stages": dict(m.stages),
    }


def one_round(ctx: Context, scope, figures: List[str], traced: bool,
              index: int, checks: Checks, expected: Dict[str, str]
              ) -> Dict[str, Any]:
    store_dir = ctx.new_dir("store")
    executor = build_executor(ctx.workload)
    start_executor(executor)
    ops = OpLog(executor)
    campaign = Campaign(
        scope, store=ResultStore(store_dir), executor=executor,
        adaptive=(adaptive_config(ctx.smoke)
                  if ctx.workload == "adaptive-pool" else None),
    )
    recorder = SpanRecorder()
    patches = Patches(recorder)
    try:
        before = procstat.snapshot()
        if traced:
            install_campaign_spans(patches, ctx.workload)
        started = now()
        try:
            result = campaign.run(figures)
        finally:
            wall = now() - started
            patches.undo()
        after = procstat.snapshot()
        rss = procstat.peak_rss(pid for pid in after if pid != os.getpid())
        metrics = _metrics_of(executor)
    finally:
        executor.close()
    checks.check("campaign-completed", result.succeeded
                 and sorted(result.completed) == sorted(figures),
                 [f.error for f in result.failures])
    check_paper_properties(checks, result.data, ctx.smoke)
    check_reference(checks, ops, ctx.workload,
                    random.Random(f"{ctx.seed}:{index}"))
    digests = check_artifacts(checks, store_dir, expected)
    planner_trials = 0
    if ctx.workload == "adaptive-pool":
        reader = ResultReader(store_dir)
        planner_trials = sum(
            (reader.metadata(name).get("quality") or {})
            .get("planner", {}).get("trials_run", 0)
            for name in figures if reader.has(name)
        )
    cell_trials = sum(task.cells * task.trials for plan, _ in ops.records
                      for task in plan.tasks)
    record = {
        "wall": wall,
        "cpu": procstat.cpu_between(before, after),
        "rss": rss,
        "ops": len(ops.latencies) + ops.failed,
        "ops_failed": ops.failed,
        "latencies": ops.latencies,
        "digests": digests,
        "cell_trials": cell_trials,
        "metrics": metrics,
    }
    if traced:
        layers = campaign_layers(
            recorder.spans, metrics,
            pool_fallback_tasks(ops.records)
            if ctx.workload == "adaptive-pool" else None)
        layers["engine.planner.trials_run"] = planner_trials
        layers["engine.cell_trials"] = cell_trials
        layers["trace.wall_s"] = wall
        record["bench_runs"] = layers.pop("trace.bench_runs")
        record["layers"] = layers
    return record


def run(ctx: Context) -> Outcome:
    figures = ALL_FIGURES if ctx.workload == "paper-fused" else ADAPTIVE_FIGURES
    repeats = 1 if ctx.smoke else SETUP_REPEATS
    imports = import_seconds(ctx, repeats)
    setups = []
    for _ in range(repeats):
        started = now()
        scope = build_scope(ctx.smoke)
        ResultStore(ctx.new_dir("setup-store"))
        executor = build_executor(ctx.workload)
        start_executor(executor)
        setups.append(now() - started)
        executor.close()
    setup_s = imports + statistics.median(setups)

    checks = Checks()
    rounds: List[Dict[str, Any]] = []
    expected: Dict[str, str] = {}
    wanted = 1 if ctx.smoke else max(
        1, int(ctx.seconds // SECONDS_PER_ROUND[ctx.workload]))
    # A traced run pairs every traced round with a plain one, in
    # plain-traced-traced-plain order, so the tracing overhead is
    # measured within the run and a drift across rounds cancels out.
    for index in range(2 * wanted if ctx.trace else wanted):
        traced = ctx.trace and index % 4 in (1, 2)
        record = one_round(ctx, scope, figures, traced, index, checks,
                           expected)
        if not expected:
            expected = {k: v for k, v in record["digests"].items()
                        if k != "engine-stats"}
        rounds.append(record)

    plain = [r for r in rounds if "layers" not in r]
    latencies = [lat for r in plain for lat in r["latencies"]]
    ops = sum(r["ops"] for r in rounds)
    ops_failed = sum(r["ops_failed"] for r in rounds)
    info = {
        "rounds": len(rounds),
        "round_wall_s": [round(r["wall"], 4) for r in rounds],
        "plans_per_round": rounds[0]["ops"],
        "cell_trials": rounds[0]["cell_trials"],
        "apa_programs": rounds[0]["metrics"]["apa_programs"],
        "digests": expected,
    }
    if ctx.trace:
        traced_rounds = [r for r in rounds if "layers" in r]
        metrics = mean_per_round([r["layers"] for r in traced_rounds])
        untraced_wall = statistics.median(r["wall"] for r in plain)
        metrics["engine.host_ns_per_cell_trial"] = (
            untraced_wall * 1e9 / rounds[0]["cell_trials"])
        metrics["trace.overhead_frac"] = (
            statistics.median(r["wall"] for r in traced_rounds)
            / untraced_wall - 1.0)
        info["bench_runs"] = traced_rounds[0]["bench_runs"]
    else:
        p95 = tail_percentile(latencies, 95)
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r["wall"] for r in plain),
            "cpu_s": statistics.median(r["cpu"] for r in plain),
            # The first round's: later ones would also see the memory
            # the previous round's reference recompute took.
            "peak_rss_mb": plain[0]["rss"],
            "ops_per_s": statistics.median(r["ops"] / r["wall"] for r in plain),
            "op_p50_ms": statistics.median(latencies) * 1e3,
        }
        if p95 is not None:
            metrics["op_p95_ms"] = p95 * 1e3
        info.update(setup_imports_s=imports, setup_rest_s=setups,
                    ops_latency_samples=len(latencies))
    return Outcome(
        attempted=ops + checks.attempted,
        failed=ops_failed + checks.failed,
        metrics=metrics,
        info=info,
        failures=checks.failures,
    )
