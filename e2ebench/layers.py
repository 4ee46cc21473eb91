"""Names, units and better-direction of the per-layer metrics.

``BENCHMARK.json`` lists the same metrics; the benchmark's tests keep
the two in step.  Times are self times in seconds per measured round;
counts are per round too.  A workload reports 0 for a layer it does not
run.
"""

PER_LAYER = [
    # Campaign orchestration and commit.
    ("characterization.campaign.self_s", "s", "lower"),
    ("characterization.build_s", "s", "lower"),
    ("characterization.store.commit_s", "s", "lower"),
    ("characterization.store.commits", "count", "lower"),
    ("characterization.store.bytes_written", "bytes", "lower"),
    # Executors, probe and fallback.
    ("engine.executors.run_s", "s", "lower"),
    ("engine.executors.plans", "count", "higher"),
    ("engine.executors.probe_s", "s", "lower"),
    ("engine.executors.probes", "count", "lower"),
    ("engine.executors.fallback_s", "s", "lower"),
    ("engine.executors.fallback_tasks", "count", "lower"),
    # Fused math.
    ("engine.kernels.run_slice_s", "s", "lower"),
    ("engine.kernels.fused_tasks", "count", "higher"),
    ("rngblock.uniform_bit_block_s", "s", "lower"),
    ("rngblock.bits", "count", "lower"),
    ("dram.behavior.context_noise_block_s", "s", "lower"),
    ("engine.bitplane.reduce_s", "s", "lower"),
    ("engine.fused_task_share", "ratio", "higher"),
    ("bender.apa_programs", "count", "lower"),
    ("engine.cell_trials", "count", "lower"),
    ("engine.host_ns_per_cell_trial", "ns", "lower"),
    # Adaptive planner.
    ("engine.planner.self_s", "s", "lower"),
    ("characterization.stats.bootstrap_s", "s", "lower"),
    ("engine.plan.slice_merge_s", "s", "lower"),
    ("engine.planner.rounds", "count", "lower"),
    ("engine.planner.cells_converged", "count", "higher"),
    ("engine.planner.trials_run", "count", "lower"),
    ("engine.planner.trials_saved", "count", "higher"),
    # Pool dispatch and columnar transport.
    ("engine.columnar.pack_s", "s", "lower"),
    ("engine.columnar.unpack_s", "s", "lower"),
    ("engine.executors.dispatches", "count", "lower"),
    ("engine.executors.bytes_down", "bytes", "lower"),
    ("engine.executors.bytes_up", "bytes", "lower"),
    ("engine.executors.wait_s", "s", "lower"),
    ("engine.executors.busy_fraction", "ratio", "higher"),
    ("engine.worker.probe_s", "s", "lower"),
    ("engine.worker.fuse_s", "s", "lower"),
    # Query service.
    ("service.api.handle_s", "s", "lower"),
    ("service.api.figure_s", "s", "lower"),
    ("service.api.figures_s", "s", "lower"),
    ("service.api.fleet_summary_s", "s", "lower"),
    ("service.api.ci_s", "s", "lower"),
    ("service.cache.hits", "count", "higher"),
    ("service.cache.misses", "count", "lower"),
    ("service.cache.hit_ratio", "ratio", "higher"),
    ("characterization.reader.load_s", "s", "lower"),
    ("characterization.reader.digest_recomputes", "count", "lower"),
    ("service.http.transport_s", "s", "lower"),
    ("service.http.not_modified", "count", "higher"),
    # The trace itself.
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
]

PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def complete(measured: dict) -> dict:
    """Every per-layer metric, 0 where the workload has no such layer."""
    unknown = set(measured) - set(PER_LAYER_UNITS)
    if unknown:
        raise KeyError(f"unlisted per-layer metrics: {sorted(unknown)}")
    return {name: measured.get(name, 0) for name, _, _ in PER_LAYER}
