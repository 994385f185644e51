"""``golden_single``: one uncached golden transient per operation.

The scalar engine does all the work — device evaluation, stamping, dense
and sparse LU, Newton, step control and the recorder — and no service,
store or batch code runs.  A round is 20 operations in fixed slots.  Each
slot pins what sets an operation's cost (driver count of the explicit
banks, ring period over rise time, ladder length) and seeds the rest, so
every round costs about the same and the slowest fifth of a round (the
explicit 6- and 7-driver banks) holds the p90:

* 6 collapsed L-only banks (N 1-32, L 1-10 nH, rise 0.2-1 ns);
* 6 collapsed LC banks, two per damping class (under, near-critical,
  over), with the ring period one rise time (1000 steps);
* 1 uncollapsed and 1 staggered-input bank of 3 drivers;
* 2 uncollapsed and 2 staggered-input banks, of 6 and of 7 drivers;
* 2 driven RC-ladder interconnect transients of 180 and 220 sections,
  above the sparse tier's 150-unknown threshold.
"""

from __future__ import annotations

import math

import numpy as np

from .common import check
from .workload import Op, TelemetryTap, Workload, telemetry_layer_counts

#: Target damping ratios of the LC slots: two under, two near-critical, two over.
LC_ZETA = ((0.3, 0.6), (0.3, 0.6), (0.9, 1.1), (0.9, 1.1), (1.6, 2.6), (1.6, 2.6))
#: (kind, driver count) of the explicit-bank slots.
BANK_SLOTS = (("uncollapsed", 3), ("staggered", 3), ("uncollapsed", 6),
              ("uncollapsed", 7), ("staggered", 6), ("staggered", 7))
#: Ladder lengths of the interconnect slots.
LADDER_SECTIONS = (180, 220)
#: Ladder transient span and step (100 steps).
LADDER_TSTOP = 1.5e-9
LADDER_DT = 0.015e-9
#: Round-0 operations re-run on the frozen seed engine by the parity check.
PARITY_SAMPLES = 2


class GoldenSingle(Workload):
    name = "golden_single"

    def setup(self, rep: int) -> None:
        from repro.core.fitting import fit_asdm
        from repro.devices.sweep import sweep_id_vg
        from repro.process import get_technology

        self.tech = get_technology("tsmc018")
        # The device's ASDM slope sizes the LC slots into damping classes.
        surface = sweep_id_vg(self.tech.driver_device(1.0), self.tech.vdd)
        asdm, _ = fit_asdm(surface)
        self.k_lambda = asdm.k * asdm.lam
        self.warm_up()
        self.parity: list[Op] = []
        if rep == 0:
            self.tap = TelemetryTap()
            self.tap.install()

    def warm_up(self) -> None:
        from repro.analysis.driver_bank import DriverBankSpec
        from repro.analysis.simulate import simulate_ssn

        spec = DriverBankSpec(technology=self.tech, n_drivers=2,
                              inductance=2e-9, rise_time=0.1e-9)
        simulate_ssn(spec, tstop=0.05e-9, dt=0.5e-12)

    def close(self) -> None:
        tap = getattr(self, "tap", None)
        if tap is not None:
            tap.uninstall()

    # -- rounds ----------------------------------------------------------------------

    def round_ops(self, r: int) -> list[Op]:
        from repro.analysis.driver_bank import DriverBankSpec

        rng = self.rng(r)
        tech = self.tech
        ops = []
        for _ in range(6):
            ops.append(Op("lonly", DriverBankSpec(
                technology=tech, n_drivers=int(rng.integers(1, 33)),
                inductance=float(rng.uniform(1e-9, 10e-9)),
                rise_time=float(rng.uniform(0.2e-9, 1e-9)))))
        for lo, hi in LC_ZETA:
            zeta = float(rng.uniform(lo, hi))
            rise = float(rng.uniform(0.2e-9, 1e-9))
            inductance = float(rng.uniform(1e-9, 10e-9))
            capacitance = (rise / (2 * math.pi)) ** 2 / inductance
            # zeta = N K lambda pi L / period, with the period one rise time
            # (repro.core.damping).
            n = round(zeta * rise / (self.k_lambda * math.pi * inductance))
            ops.append(Op("lc", DriverBankSpec(
                technology=tech, n_drivers=min(max(n, 1), 32),
                inductance=inductance, rise_time=rise, capacitance=capacitance)))
        for kind, n in BANK_SLOTS:
            rise = float(rng.uniform(0.2e-9, 1e-9))
            # Evenly staggered launches over 0.3 rise times: the breakpoint
            # pattern, and so the step count, scales with the seeded rise.
            offsets = (tuple(0.3 * rise * i / (n - 1) for i in range(n))
                       if kind == "staggered" else None)
            ops.append(Op(kind, DriverBankSpec(
                technology=tech, n_drivers=n,
                inductance=float(rng.uniform(1e-9, 10e-9)), rise_time=rise,
                collapse=kind != "uncollapsed", input_offsets=offsets)))
        for sections in LADDER_SECTIONS:
            ops.append(Op("ladder", {
                "sections": sections,
                "resistance": float(rng.uniform(15.0, 35.0)),
                "capacitance": float(rng.uniform(0.03e-12, 0.07e-12)),
                "rise_time": float(rng.uniform(0.15e-9, 0.3e-9)),
            }))
        if r == 0:
            picks = rng.choice(12, size=PARITY_SAMPLES, replace=False)
            self.parity = [ops[int(i)] for i in picks]
        return ops

    def run_op(self, op: Op) -> bool:
        import repro.spice as spice
        from repro.analysis.simulate import simulate_ssn
        from repro.testing.netlists import ladder_circuit

        if op.kind == "ladder":
            circuit = ladder_circuit(driver=True, **op.payload)
            result = spice.transient(circuit, LADDER_TSTOP, LADDER_DT)
        else:
            result = simulate_ssn(op.payload)
        self._check(op, result)
        if any(op is sample for sample in self.parity):
            op.result = result
        return True

    def _check(self, op: Op, result) -> None:
        vdd = self.tech.vdd
        if op.kind == "ladder":
            names = result.node_names
            check(result.times.size > 0, "ladder produced no samples")
            for name in names:
                y = result.voltage(name).y
                check(bool(np.all(np.isfinite(y))), f"ladder node {name} not finite")
            far = result.voltage(f"n{op.payload['sections']}").y
            check(-1e-6 <= float(far.min()) and float(far.max()) <= vdd + 1e-6,
                  "ladder far end left the rails")
            return
        for wf in (result.ssn, result.inductor_current, result.driver_current,
                   result.input_voltage, result.output_voltage):
            check(bool(np.all(np.isfinite(wf.y))), f"{op.kind}: non-finite waveform")
        check(0.0 < result.peak_voltage < vdd,
              f"{op.kind}: peak {result.peak_voltage} outside (0, VDD)")

    # -- results ---------------------------------------------------------------------

    def verify(self) -> None:
        """A seeded round-0 sample agrees <= 1e-9 V with the frozen seed engine."""
        from repro.analysis.simulate import simulate_ssn
        from repro.spice import TransientOptions

        legacy = TransientOptions(legacy_reference=True)
        for op in self.parity:
            reference = simulate_ssn(op.payload, options=legacy)
            check(reference.ssn.y.shape == op.result.ssn.y.shape,
                  f"{op.kind}: step sequence differs from the seed engine")
            gap = float(np.max(np.abs(reference.ssn.y - op.result.ssn.y)))
            check(gap <= 1e-9, f"{op.kind}: {gap:.3g} V from the seed engine")

    def ledger(self) -> dict[str, float]:
        return self.tap.snapshot()

    def layer_counts(self, ledger):
        return telemetry_layer_counts(ledger)
