"""What every workload provides to the driver (:mod:`ssnbench.main`)."""

from __future__ import annotations

import copy
import dataclasses
import threading

import numpy as np


@dataclasses.dataclass
class Op:
    """One operation of a round: its outcome class and its inputs."""

    kind: str
    payload: object
    result: object = None


class Workload:
    """Base class: seeded rounds of operations plus checks and a ledger."""

    name = "workload"
    #: Operations a timed phase completes at least, so its p90 has >= 10
    #: samples beyond it.
    min_ops = 100

    def __init__(self, seed: int, tmpdir: str, in_process: bool):
        self.seed = seed
        self.tmpdir = tmpdir
        self.in_process = in_process

    def rng(self, round_index: int) -> np.random.Generator:
        """The generator of one round: a pure function of (seed, round)."""
        return np.random.default_rng([self.seed, round_index])

    # -- lifecycle -------------------------------------------------------------------

    def setup(self, rep: int) -> None:
        """One set-up repetition (the last one stays live)."""

    def discard_setup(self) -> None:
        """Tear down a set-up repetition that will not be measured."""

    def close(self) -> None:
        """Stop everything the workload started."""

    def leave_in_process(self) -> bool:
        """Move from the traced pass's process layout to the production one.

        True when the layout changed; the driver then measures the
        client-side outcome latencies (:meth:`outcome_seconds`) in a further
        untraced phase.
        """
        return False

    # -- rounds ----------------------------------------------------------------------

    def round_ops(self, round_index: int) -> list[Op]:
        raise NotImplementedError

    def run_op(self, op: Op):
        """Execute one operation; False marks it failed (counted, not timed).

        An operation made of several requests returns ``[(seconds, ok), ...]``
        instead, one entry per request.
        """
        raise NotImplementedError

    def end_round(self, round_index: int) -> None:
        """Work that closes a round (e.g. waiting for background work)."""

    # -- results ---------------------------------------------------------------------

    def verify(self) -> None:
        """Correctness pass after the timed phase; raises CheckFailed."""

    def peak_rss_mb(self) -> float:
        from .common import peak_rss_mb_self

        return peak_rss_mb_self()

    def ledger(self) -> dict[str, float]:
        """Cumulative work counts; the driver differences them over round 0."""
        return {}

    def layer_counts(self, ledger: dict[str, float]) -> dict[str, float]:
        """Per-layer count metrics from a round-0 per-operation ledger."""
        return {}

    def outcome_seconds(self, phase) -> dict[str, float]:
        """Client-measured per-outcome median wall seconds (service workloads)."""
        return {}


class TelemetryTap:
    """Thread-safe collector of every finished engine run's telemetry.

    Stands in for ``record_session`` at each place the engine imported it,
    so counts are taken where the work happens without enabling the
    program's own (single-threaded) session aggregator.
    """

    MODULES = ("repro.spice.transient", "repro.spice.batch", "repro.spice.dc",
               "repro.analysis.simulate", "repro.analysis.campaign")

    def __init__(self):
        from repro.spice.telemetry import SolverTelemetry

        self.total = SolverTelemetry()
        self._lock = threading.Lock()
        self._saved = []

    def record(self, telemetry) -> None:
        if telemetry is not None:
            with self._lock:
                self.total.merge(telemetry)

    def install(self) -> None:
        import importlib

        for name in self.MODULES:
            module = importlib.import_module(name)
            self._saved.append((module, module.record_session))
            module.record_session = self.record

    def uninstall(self) -> None:
        while self._saved:
            module, original = self._saved.pop()
            module.record_session = original

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            total = copy.deepcopy(self.total)
        return {f"tel.{k}": float(v) for k, v in total.as_dict().items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)}


def telemetry_layer_counts(ledger: dict[str, float]) -> dict[str, float]:
    """Per-layer counts read from the SolverTelemetry ledger entries."""
    t = lambda key: ledger.get(f"tel.{key}", 0.0)  # noqa: E731
    return {
        "spice.mna.assemblies": t("base_assemblies") + t("nonlinear_restamps")
        + t("full_assemblies"),
        "spice.mna.factorizations": t("lu_cache_misses") + t("sparse_factorizations"),
        "spice.mna.lu_cache_hits": t("lu_cache_hits"),
        "spice.solver.newton_solves": t("newton_solves"),
        "spice.solver.newton_iterations": t("newton_iterations"),
        "spice.transient.accepted_steps": t("accepted_steps"),
        "spice.transient.step_rejections": t("step_rejections"),
        "spice.transient.lte_rejections": t("lte_rejections"),
        "spice.batch.mask_steps": t("mask_steps"),
        "spice.batch.fallbacks": t("batch_fallbacks"),
        "spice.batch.lockstep_runs": ledger.get("batch.lockstep_runs", 0.0),
        "devices.eval_calls": ledger.get("devices.eval_calls", 0.0),
        "devices.eval_points": ledger.get("devices.eval_points", 0.0),
        "analysis.simulate.memo_hits": ledger.get("memo.hits", 0.0),
    }
