"""The benchmark must see the regressions it exists to catch.

Run from the checkout root:

    python3 -m pytest perfbench/tests -q

Neither test depends on the host.  The busy-wait test runs every operation
twice back to back, plain and then slowed, with the busy-wait sized from
the plain run just before, so host drift between the two sides of a pair
lasts a fraction of a second and cancels in the comparison.  The Newton
test compares exact work counts.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import run as entry  # noqa: E402

entry.pin_environment(str(ROOT))

from ssnbench import main as bench  # noqa: E402
from ssnbench.common import Calibrator  # noqa: E402
from ssnbench.golden import GoldenSingle  # noqa: E402
from ssnbench.tracer import device_entry_points  # noqa: E402
from ssnbench.workload import Op  # noqa: E402

#: Rounds per measurement: 40 golden transients, a few seconds each way.
ROUNDS = 2
#: The injected slowdown, as a share of each operation's own time.
BUSY_SHARE = 0.2


def _bound(metric: str) -> float:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == metric)


def _golden(hooks=None) -> dict:
    return bench.run("golden_single", seed=11, seconds=0.0, trace=False,
                     rounds=ROUNDS, hooks=hooks)


class _BusyWait:
    """Counts top-level device evaluations; when on, spins after each one.

    Each spin pays ``spin_s`` plus what the spins before it fell short by,
    measured with the loop's own overhead, so an operation's spins add up
    to ``calls * spin_s`` however short each one is.
    """

    def __init__(self):
        self.calls = 0
        self.spin_s = 0.0
        self.owed_s = 0.0
        self.on = False
        self._depth = 0

    def wrap(self, fn):
        def wrapper(*args, **kwargs):
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:  # once per top-level evaluation
                    self.calls += 1
                    if self.on:
                        start = time.perf_counter()
                        self.owed_s += self.spin_s
                        end = start + self.owed_s
                        while time.perf_counter() < end:
                            pass
                        self.owed_s -= time.perf_counter() - start
        return wrapper


class _Paired:
    """A workload whose rounds run each operation twice: plain, then slowed.

    The slowed run spins ``BUSY_SHARE`` of the plain run's wall time, spread
    evenly over the same operation's device evaluations.
    """

    def __init__(self, inner, busy: _BusyWait):
        self.inner = inner
        self.busy = busy

    def round_ops(self, r: int) -> list[Op]:
        return [Op(kind, op) for op in self.inner.round_ops(r)
                for kind in ("base", "slowed")]

    def run_op(self, op: Op):
        busy = self.busy
        busy.on = op.kind == "slowed"
        busy.calls = 0
        busy.owed_s = 0.0
        t0 = time.perf_counter()
        outcome = self.inner.run_op(op.payload)
        if not busy.on:
            busy.spin_s = BUSY_SHARE * (time.perf_counter() - t0) / busy.calls
        return outcome

    def end_round(self, r: int) -> None:
        self.inner.end_round(r)


def test_device_busy_wait_fails_throughput_bound(monkeypatch, tmp_path):
    """A busy-wait worth 20% of each operation moves throughput past its bound.

    ``throughput_ops_s`` is operations over their summed calibrated time, so
    the two sides are compared as summed calibrated operation times, each
    operation calibrated by the samples around it as in a benchmark run.
    """
    busy = _BusyWait()
    for cls, attr in device_entry_points():
        monkeypatch.setattr(cls, attr, busy.wrap(cls.__dict__[attr]))
    workload = GoldenSingle(seed=11, tmpdir=str(tmp_path), in_process=False)
    try:
        workload.setup(0)
        calib = Calibrator()
        calib.sample()
        phase = bench.run_phase(_Paired(workload, busy), calib, 0, 0.0, 1,
                                max_rounds=ROUNDS)
    finally:
        workload.close()
    assert phase.failed == 0
    base = bench.calibrated_ms(phase.by_class["base"]["latencies"], calib)
    slowed = bench.calibrated_ms(phase.by_class["slowed"]["latencies"], calib)
    change = sum(base) / sum(slowed) - 1.0
    ratios = statistics.quantiles([s / b for s, b in zip(slowed, base)], n=4)
    bound = _bound("throughput_ops_s")
    assert change < -bound, (
        f"throughput moved {change:+.1%} under a {BUSY_SHARE:.0%} device busy-wait "
        f"(at least {1 / (1 + BUSY_SHARE) - 1:+.1%} expected); bound is {bound:.0%}; "
        f"per-operation slowed/plain quartiles {[round(q, 3) for q in ratios]}")


def test_extra_newton_iteration_changes_ledger(monkeypatch):
    """Re-solving from each converged point adds one iteration per solve."""
    import importlib

    transient = importlib.import_module("repro.spice.transient")
    real = transient.newton_solve

    def one_more(*args, **kwargs):
        x, _ = real(*args, **kwargs)
        kwargs["x0"] = x
        return real(*args, **kwargs)

    base = _golden()
    slow = _golden(hooks=lambda w: monkeypatch.setattr(transient, "newton_solve", one_more))
    monkeypatch.undo()
    before = base["report"]["ledger"]
    after = slow["report"]["ledger"]
    assert after["tel.newton_iterations"] >= (
        before["tel.newton_iterations"] + before["tel.newton_solves"])
    assert base["report"]["ledger"] == _golden()["report"]["ledger"], (
        "the ledger must repeat exactly on unchanged code")


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
