"""``ensemble_campaign``: one checkpointed ``CampaignRunner`` campaign per op.

Campaigns run serially with engine ``auto`` and a checkpoint journal in a
temp dir, as ``repro sweep --checkpoint`` runs them, so the lockstep
engine, vectorized device banks, campaign chunking and checkpoint writes
do the work; the scalar path runs only singletons (capacitance sweeps,
whose points differ in time grid).  A round is 8 campaigns in fixed slots
of 4-12 instances:

* a driver-count sweep of 8 L-only banks;
* inductance sweeps of 6 and 10 banks;
* device-spread Monte Carlo fleets of 8, 10 and 12 trials;
* a capacitance sweep of 6 LC banks (ring periods 0.6-1.6 rise times);
* an adaptive-stepping campaign of 2, 6, 12 and 20 drivers.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

from .common import check
from .workload import Op, TelemetryTap, Workload, telemetry_layer_counts

#: (kind, instances) of the eight campaign slots of a round.  Ordered by
#: cost they run n < l < montecarlo < c < adaptive, so the median falls
#: inside the Monte Carlo slots and the p90 inside the adaptive one.
SLOTS = (("n_sweep", 8), ("l_sweep", 6), ("l_sweep", 10), ("montecarlo", 8),
         ("montecarlo", 10), ("montecarlo", 12), ("c_sweep", 6), ("adaptive", 4))
CHUNK_SIZE = 8
#: Driver counts of the adaptive-stepping campaign.
ADAPTIVE_DRIVERS = (2, 6, 12, 20)


def _strip_timings(value):
    """A journal entry without its wall-clock ``phase_seconds`` members."""
    if isinstance(value, dict):
        return {k: _strip_timings(v) for k, v in value.items() if k != "phase_seconds"}
    if isinstance(value, list):
        return [_strip_timings(v) for v in value]
    return value


def journal_bytes_written(path: str) -> tuple[int, int]:
    """(chunk lines, bytes committed over all rewrites) of one journal.

    The runner rewrites the whole journal after every chunk (header-only
    first), so write ``w`` commits the header plus the first ``w`` chunk
    lines.  Wall-clock timings are left out: their digit count varies.
    """
    with open(path) as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    sizes = [len(json.dumps(_strip_timings(entry), sort_keys=True)) + 1
             for entry in lines]
    header, chunks = sizes[0], sizes[1:]
    total = sum(header + sum(chunks[:w]) for w in range(len(chunks) + 1))
    return len(chunks), total


class EnsembleCampaign(Workload):
    name = "ensemble_campaign"
    #: Five rounds: a campaign takes ~0.8 s, so 100 would take 80 s a run.
    min_ops = 40

    def setup(self, rep: int) -> None:
        from repro.process import get_technology

        self.tech = get_technology("tsmc018")
        self.journal_dir = os.path.join(self.tmpdir, f"journals-{rep}")
        os.makedirs(self.journal_dir, exist_ok=True)
        self.chunks = 0
        self.checkpoint_bytes = 0
        self.samples: list[Op] = []
        self._n = 0
        self.run_campaign(Op("n_sweep", self._sweep("n_drivers", self._base(
            np.random.default_rng(0)), [1, 2])))
        if rep == 0:
            self.tap = TelemetryTap()
            self.tap.install()

    def close(self) -> None:
        tap = getattr(self, "tap", None)
        if tap is not None:
            tap.uninstall()

    # -- inputs ----------------------------------------------------------------------

    def _base(self, rng):
        from repro.analysis.driver_bank import DriverBankSpec

        return DriverBankSpec(
            technology=self.tech, n_drivers=int(rng.integers(2, 13)),
            inductance=float(rng.uniform(1e-9, 10e-9)),
            rise_time=float(rng.uniform(0.2e-9, 1e-9)))

    @staticmethod
    def _sweep(knob, base, values):
        return {"knob": knob, "base": base, "values": [float(v) for v in values]}

    def round_ops(self, r: int) -> list[Op]:
        rng = self.rng(r)
        ops = []
        for kind, k in SLOTS:
            base = self._base(rng)
            if kind == "n_sweep":
                start = int(rng.integers(1, 9))
                step = int(rng.integers(1, 4))
                payload = self._sweep("n_drivers", base, start + step * np.arange(k))
            elif kind == "l_sweep":
                payload = self._sweep("inductance", base,
                                      np.sort(rng.uniform(1e-9, 10e-9, size=k)))
            elif kind == "c_sweep":
                # Ring periods evenly over 0.6-1.6 rise times: the step counts
                # scale with the seeded rise, so the slot's cost is steady.
                periods = base.rise_time * np.linspace(0.6, 1.6, k)
                payload = self._sweep("capacitance", base,
                                      (periods / (2 * math.pi)) ** 2 / base.inductance)
            elif kind == "montecarlo":
                payload = {"spec": base, "trials": k,
                           "seed": int(rng.integers(0, 2**31))}
            else:
                # Fixed driver counts: the step controller's work depends on
                # them, the seeded L and rise vary the rest.
                payload = {"specs": [dataclasses.replace(base, n_drivers=n)
                                     for n in ADAPTIVE_DRIVERS]}
            ops.append(Op(kind, payload))
        if r == 0:
            self.samples = [op for op in ops if op.kind != "montecarlo"]
        return ops

    # -- execution -------------------------------------------------------------------

    def _runner(self):
        from repro.analysis.campaign import CampaignConfig, CampaignRunner

        self._n += 1
        path = os.path.join(self.journal_dir, f"campaign-{self._n}.jsonl")
        return path, CampaignRunner(CampaignConfig(
            checkpoint=path, engine="auto", chunk_size=CHUNK_SIZE))

    def run_campaign(self, op: Op):
        from repro.spice import TransientOptions

        path, runner = self._runner()
        p = op.payload
        if op.kind == "montecarlo":
            from repro.analysis.montecarlo import DeviceSpread

            result = runner.run_montecarlo(p["spec"], spread=DeviceSpread(),
                                           trials=p["trials"], seed=p["seed"])
        elif op.kind == "adaptive":
            result = runner.run_specs(p["specs"], kind="adaptive",
                                      options=TransientOptions(adaptive=True))
        else:
            knob = p["knob"]
            coerce = int if knob == "n_drivers" else float
            result = runner.run_sweep(
                knob, p["base"], p["values"],
                lambda spec, v: dataclasses.replace(spec, **{knob: coerce(v)}), {})
        return path, result

    def run_op(self, op: Op) -> bool:
        path, result = self.run_campaign(op)
        self._check(op, path, result)
        if any(op is sample for sample in self.samples):
            op.result = result
        return True

    def _check(self, op: Op, path: str, result) -> None:
        vdd = self.tech.vdd
        n_items = (op.payload["trials"] if op.kind == "montecarlo"
                   else len(op.payload.get("specs") or op.payload.get("values")))
        chunks, written = journal_bytes_written(path)
        check(chunks == math.ceil(n_items / CHUNK_SIZE),
              f"{op.kind}: journal holds {chunks} chunk lines for {n_items} items")
        self.chunks += chunks
        self.checkpoint_bytes += written
        if op.kind == "montecarlo":
            samples = np.asarray(result.samples)
            check(samples.shape == (n_items,), "montecarlo: wrong sample count")
            check(result.mean == float(np.mean(samples)), "montecarlo: mean")
            check(result.std == float(np.std(samples)), "montecarlo: std")
            check(result.p95 == float(np.percentile(samples, 95.0)), "montecarlo: p95")
            peaks = samples
        elif op.kind == "adaptive":
            peaks = np.array([rec["peak"] for rec in result])
        else:
            peaks = np.array([point.simulated_peak for point in result.points])
        check(bool(np.all(np.isfinite(peaks))), f"{op.kind}: non-finite peak")
        check(bool(np.all((peaks > 0.0) & (peaks < vdd))), f"{op.kind}: peak outside (0, VDD)")
        if op.kind == "n_sweep":
            check(bool(np.all(np.diff(peaks) > 0.0)),
                  "n_sweep: L-only peaks do not rise with N")

    # -- results ---------------------------------------------------------------------

    def verify(self) -> None:
        """Round-0 instances agree <= 1e-9 V with a scalar recompute."""
        from repro.analysis.simulate import simulate_ssn
        from repro.spice import TransientOptions

        rng = np.random.default_rng([self.seed, 1_000_003])
        for op in self.samples:
            if op.kind == "adaptive":
                i = int(rng.integers(len(op.payload["specs"])))
                spec = op.payload["specs"][i]
                got = op.result[i]["peak"]
                want = simulate_ssn(spec, options=TransientOptions(adaptive=True)).peak_voltage
            else:
                i = int(rng.integers(len(op.result.points)))
                point = op.result.points[i]
                spec, got = point.spec, point.simulated_peak
                want = simulate_ssn(spec).peak_voltage
            check(abs(got - want) <= 1e-9,
                  f"{op.kind}: instance {i} is {abs(got - want):.3g} V from scalar")

    def ledger(self) -> dict[str, float]:
        from repro.analysis.simulate import simulate_ssn_cache_stats

        counts = self.tap.snapshot()
        counts["memo.hits"] = simulate_ssn_cache_stats()["hits"]
        counts["campaign.chunks"] = self.chunks
        counts["campaign.checkpoint_bytes"] = self.checkpoint_bytes
        return counts

    def layer_counts(self, ledger):
        counts = telemetry_layer_counts(ledger)
        counts["analysis.campaign.chunks"] = ledger.get("campaign.chunks", 0.0)
        counts["analysis.campaign.checkpoint_bytes"] = ledger.get(
            "campaign.checkpoint_bytes", 0.0)
        return counts
