"""The benchmark driver: set up, run timed rounds, check, report.

A run is one workload, one seed.  Each workload is a seeded, endless
sequence of *rounds*; every round holds the same operation kinds in the
same order (only the seeded values differ), so failures are the same share
of the attempted operations in every run.  The timed phase runs whole
rounds until ``--seconds`` have passed and at least the workload's
``min_ops`` operations completed.  The work ledger is the per-operation count over
round 0, which every run executes, so it repeats exactly for a given seed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import time

from . import common
from .common import Calibrator, CheckFailed, log, percentile

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3

#: Per-layer metrics, in BENCHMARK.json order, with their units.
PER_LAYER = {
    "devices.eval_calls": "count", "devices.eval_points": "count",
    "devices.self_ms": "ms",
    "spice.mna.assemblies": "count", "spice.mna.factorizations": "count",
    "spice.mna.lu_cache_hits": "count", "spice.mna.stamp_self_ms": "ms",
    "spice.mna.lu_self_ms": "ms",
    "spice.solver.newton_solves": "count", "spice.solver.newton_iterations": "count",
    "spice.solver.self_ms": "ms",
    "spice.transient.accepted_steps": "count", "spice.transient.step_rejections": "count",
    "spice.transient.lte_rejections": "count", "spice.transient.self_ms": "ms",
    "spice.batch.lockstep_runs": "count", "spice.batch.mask_steps": "count",
    "spice.batch.fallbacks": "count", "spice.batch.self_ms": "ms",
    "analysis.campaign.chunks": "count", "analysis.campaign.checkpoint_bytes": "bytes",
    "analysis.campaign.self_ms": "ms", "analysis.simulate.memo_hits": "count",
    "surrogate.answers": "count", "surrogate.refusals": "count", "surrogate.self_ms": "ms",
    "service.keys.self_ms": "ms", "service.store.bytes_read": "bytes",
    "service.store.bytes_written": "bytes", "service.store.load_ms": "ms",
    "service.store.put_ms": "ms",
    "service.server.response_bytes": "bytes", "service.server.computes": "count",
    "service.server.hit_ms": "ms", "service.server.surrogate_ms": "ms",
    "service.server.miss_ms": "ms", "service.server.drain_ms": "ms",
    "service.server.self_ms": "ms",
    "observability.journal_bytes": "bytes", "observability.metric_series": "count",
    "observability.self_ms": "ms",
    "host.calibration_ms": "ms",
    "trace.overhead_pct": "%",
}

#: Traced-run layer name -> per-layer self-time metric.
SELF_TIME_METRICS = {
    "devices": "devices.self_ms",
    "spice.mna.stamp": "spice.mna.stamp_self_ms",
    "spice.mna.lu": "spice.mna.lu_self_ms",
    "spice.solver": "spice.solver.self_ms",
    "spice.transient": "spice.transient.self_ms",
    "spice.batch": "spice.batch.self_ms",
    "analysis.campaign": "analysis.campaign.self_ms",
    "surrogate": "surrogate.self_ms",
    "service.keys": "service.keys.self_ms",
    "service.store.load": "service.store.load_ms",
    "service.store.put": "service.store.put_ms",
    "service.server": "service.server.self_ms",
    "observability": "observability.self_ms",
}


class Phase:
    """Outcome of one run of whole rounds."""

    def __init__(self):
        self.latencies: list[float] = []  # wall seconds of successful ops
        self.by_class: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0
        self.rounds = 0
        self.ledger: dict[str, float] = {}
        self.round0_ops = 0
        self.first_round = 0
        self.op_spans: list[tuple[float, float]] = []  # (midpoint, wall s) per op

    def record(self, kind: str, seconds: float, ok: bool) -> None:
        entry = self.by_class.setdefault(kind, {"attempted": 0, "failed": 0, "latencies": []})
        entry["attempted"] += 1
        self.attempted += 1
        at = self.op_spans[-1][0]
        if ok:
            entry["latencies"].append((seconds, at))
            self.latencies.append((seconds, at))
        else:
            entry["failed"] += 1
            self.failed += 1

    def calibrated_busy_s(self, calib: Calibrator) -> float:
        """Timed-phase seconds on the reference host, op by op."""
        in_ops = sum(wall for _, wall in self.op_spans)
        return (sum(wall * calib.factor(at) for at, wall in self.op_spans)
                + (self.busy_s - in_ops) * calib.factor())


def run_phase(workload, calib: Calibrator, first_round: int, seconds: float,
              min_ops: int, max_rounds: int | None = None,
              ledger=None) -> Phase:
    """Run whole rounds from ``first_round`` until time and op floors are met."""
    phase = Phase()
    phase.first_round = first_round
    calib_s = 0.0
    start = time.perf_counter()
    r = first_round
    while True:
        before = ledger() if (ledger is not None and r == first_round) else None
        ops = workload.round_ops(r)
        for op in ops:
            t0 = time.perf_counter()
            outcome = workload.run_op(op)
            t1 = time.perf_counter()
            phase.op_spans.append((0.5 * (t0 + t1), t1 - t0))
            if isinstance(outcome, list):
                # Several requests in one operation, each timed by the workload.
                for took, ok in outcome:
                    phase.record(op.kind, took, ok)
            else:
                phase.record(op.kind, t1 - t0, outcome)
            c0 = time.perf_counter()
            calib.maybe_sample()
            calib_s += time.perf_counter() - c0
        workload.end_round(r)
        if before is not None:
            after = ledger()
            phase.round0_ops = phase.attempted
            phase.ledger = {k: (after.get(k, 0) - before.get(k, 0)) / phase.attempted
                            for k in set(before) | set(after)}
        r += 1
        phase.rounds += 1
        phase.busy_s = time.perf_counter() - start - calib_s
        if max_rounds is not None and phase.rounds >= max_rounds:
            break
        if max_rounds is None and phase.busy_s >= seconds and phase.attempted >= min_ops:
            break
    return phase


def calibrated_ms(latencies, calib: Calibrator) -> list[float]:
    """Reference-host milliseconds of (wall seconds, midpoint) latencies."""
    return [wall * calib.factor(at) * 1e3 for wall, at in latencies]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly this many rounds (ledger checks)")
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     rounds=args.rounds)
    except CheckFailed as exc:
        log(f"correctness check failed during the timed phase: {exc}")
        return 1
    common.emit_result(**result)
    return 0 if result["correct"] else 1


def import_probe() -> None:
    """Import the program in a fresh interpreter: the import part of set-up."""
    subprocess.run([sys.executable, "-c", "import repro.analysis, repro.service"],
                   check=True, cwd=common.ROOT, env=common.child_env(), timeout=120)


def run(name: str, seed: int, seconds: float, trace: bool, *,
        rounds: int | None = None, hooks=None) -> dict:
    """One benchmark run; returns the fields of the printed result."""
    from . import WORKLOADS

    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    calib = Calibrator()
    calib.sample()
    scratch = common.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=scratch)
    workload = WORKLOADS[name](seed=seed, tmpdir=tmp, in_process=trace)
    try:
        setup_times = []
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            import_probe()
            workload.setup(rep)
            setup_times.append(time.perf_counter() - t0)
            calib.sample()
            if rep < SETUP_REPS - 1:
                workload.discard_setup()
        if hooks is not None:
            hooks(workload)

        tracer = None
        if trace:
            from . import tracer as tracer_mod

            tracer = tracer_mod.Tracer()
            tracer_mod.install(tracer)

        def ledger():
            counts = dict(workload.ledger())
            if tracer is not None:
                counts.update(tracer.counts)
            return counts

        try:
            main_phase = run_phase(
                workload, calib, 0, seconds / 2 if trace else seconds,
                1 if trace else workload.min_ops,
                max_rounds=rounds, ledger=ledger)
        finally:
            if tracer is not None:
                tracer.restore()
        untraced = outcomes = None
        if trace:
            untraced = outcomes = run_phase(workload, calib, main_phase.rounds, seconds,
                                            1, max_rounds=main_phase.rounds)
            if workload.leave_in_process():
                # Client-side outcome latencies, against the production layout.
                outcomes = run_phase(workload, calib, 2 * main_phase.rounds, seconds,
                                     1, max_rounds=main_phase.rounds)
        rss = workload.peak_rss_mb()
        correct = True
        try:
            workload.verify()
        except CheckFailed as exc:
            log(f"correctness check failed: {exc}")
            correct = False
    finally:
        workload.close()
        shutil.rmtree(tmp, ignore_errors=True)

    factor = calib.factor()
    report = {
        "workload": name, "seed": seed, "trace": trace,
        "provenance": common.provenance(calib),
        "rounds": main_phase.rounds,
        "round_ops": main_phase.round0_ops,
        "classes": {k: {"attempted": v["attempted"], "failed": v["failed"],
                        "p50_ms": (percentile(calibrated_ms(v["latencies"], calib), 50)
                                   if v["latencies"] else None)}
                    for k, v in sorted(main_phase.by_class.items())},
        "ledger": {k: main_phase.ledger[k] for k in sorted(main_phase.ledger)},
        "raw": {"busy_s": main_phase.busy_s, "setup_s": setup_times},
        "calibration_factor": factor,
    }
    if trace:
        metrics = _per_layer(workload, main_phase, untraced, outcomes, tracer, calib,
                             factor)
        report["trace_spans"] = tracer.spans_closed
    else:
        setup_s = sorted(setup_times)[len(setup_times) // 2] * factor
        latencies = calibrated_ms(main_phase.latencies, calib)
        report["raw"]["throughput_ops_s"] = main_phase.attempted / main_phase.busy_s
        metrics = {
            "setup_s": (setup_s, "s"),
            "throughput_ops_s": (main_phase.attempted / main_phase.calibrated_busy_s(calib),
                                 "ops/s"),
            "latency_p50_ms": (percentile(latencies, 50), "ms"),
            "latency_p90_ms": (percentile(latencies, 90), "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
    return {"correct": correct, "attempted": main_phase.attempted,
            "failed": main_phase.failed, "metrics": metrics, "report": report}


def _per_layer(workload, traced, untraced, outcomes, tracer, calib, factor) -> dict:
    per_op = traced.attempted
    values = {name: 0.0 for name in PER_LAYER}
    values.update(workload.layer_counts(traced.ledger))
    for layer, metric in SELF_TIME_METRICS.items():
        values[metric] = tracer.self_seconds.get(layer, 0.0) * factor * 1e3 / per_op
    values.update({k: v * factor * 1e3 for k, v in workload.outcome_seconds(outcomes).items()})
    values["host.calibration_ms"] = calib.loop_ms()
    traced_tput = traced.attempted / traced.busy_s
    untraced_tput = untraced.attempted / untraced.busy_s
    values["trace.overhead_pct"] = 100.0 * (untraced_tput / traced_tput - 1.0)
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}


def self_check(workloads, seed: int = 1) -> int:
    """Run each workload twice for one round; every count must repeat exactly."""
    status = 0
    for name in workloads:
        ledgers = []
        for _ in range(2):
            out = subprocess.run(
                [sys.executable, str(common.ROOT / "perfbench" / "run.py"),
                 "--workload", name, "--seed", str(seed), "--seconds", "1",
                 "--trace", "1", "--rounds", "1"],
                capture_output=True, text=True, timeout=600, cwd=common.ROOT)
            if out.returncode != 0:
                log(out.stderr[-2000:])
                log(f"{name}: run failed with exit code {out.returncode}")
                return 1
            metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
            ledgers.append({k: v["value"] for k, v in metrics.items()
                            if v["unit"] in ("count", "bytes")})
        diff = sorted(k for k in ledgers[0] if ledgers[0][k] != ledgers[1].get(k))
        if diff:
            status = 1
            for k in diff:
                log(f"{name}: {k} differs: {ledgers[0][k]} vs {ledgers[1][k]}")
        else:
            log(f"{name}: {len(ledgers[0])} ledger counts identical")
    return status
