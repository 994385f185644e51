"""Shared benchmark plumbing: host calibration, provenance, timing, output.

Calibration.  Wall times on a shared host drift by tens of percent between
processes and within one.  Every run therefore interleaves a fixed
reference loop (benchmark-only code, so no program change can speed it up)
with the workload while the program is idle, and scales its wall times by
``(REFERENCE_LOOP_MS / measured loop time) ** CALIBRATION_EXPONENT``, the
square root (see :data:`CALIBRATION_EXPONENT`).  Calibrated figures read as
seconds on the reference host described in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: Median wall time of :func:`reference_loop` on the reference host, in ms.
#: Regenerate with ``python3 perfbench/run.py --calibrate`` on that host.
REFERENCE_LOOP_MS = 4.0

#: Minimum wall time between two interleaved calibration samples.
CALIBRATION_INTERVAL_S = 0.25
#: Half-width of the window of samples that calibrates one operation.
LOCAL_WINDOW_S = 2.0
LOCAL_MIN_SAMPLES = 5
#: Power applied to the reference-loop ratio.  Measured on the reference
#: host, the loop's time responds to host drift about twice as strongly as
#: the workloads' (see README.md); the square root matches their response.
CALIBRATION_EXPONENT = 0.5

#: The program's root: the checkout this file sits in (``perfbench/..``).
ROOT = Path(__file__).resolve().parents[2]

class _RefDevice:
    """Square-law NMOS with a smooth turn-on (frozen; reference loop only)."""

    def __init__(self, k: float, vt: float):
        self.k = k
        self.vt = vt

    def ids(self, vgs: float, vds: float) -> float:
        vov = vgs - self.vt
        s = 0.05 * math.log1p(math.exp(vov / 0.05)) if vov < 1.0 else vov
        if vds < s:
            return self.k * (s - 0.5 * vds) * vds * (1.0 + 0.05 * vds)
        return 0.5 * self.k * s * s * (1.0 + 0.05 * vds)

    def partials(self, vgs: float, vds: float) -> tuple[float, float, float]:
        h = 1e-6
        f = self.ids
        return (f(vgs, vds), (f(vgs + h, vds) - f(vgs - h, vds)) / (2 * h),
                (f(vgs, vds + h) - f(vgs, vds - h)) / (2 * h))


def reference_loop(steps: int = 60) -> float:
    """Fixed host-speed probe: a frozen miniature of the golden engine.

    A backward-Euler Newton transient of one driver discharging its load
    into a resistive ground node (4 unknowns): finite-difference device
    partials in interpreted math, stamping into small numpy arrays, dense
    solves and per-step records — the program's own mix of work, so host
    slowdowns hit it as they hit the program.  (Pure arithmetic loops
    swing ~1.4x more than the simulator when the host's speed drifts.)
    """
    device = _RefDevice(2e-3, 0.5)
    x = np.array([0.0, 1.8, 0.0, 0.0])
    dt, c_load, g_gnd = 1e-11, 1e-12, 1e-3
    records = []
    t = 0.0
    for _ in range(steps):
        t += dt
        vin = min(1.8, 1.8 * t / 3e-10)
        xk = x.copy()
        for _ in range(20):
            a = np.zeros((4, 4))
            z = np.zeros(4)
            a[0, 0] = 1.0
            z[0] = vin
            a[1, 1] += c_load / dt
            z[1] += c_load / dt * x[1]
            a[2, 2] += g_gnd + 1e-13 / dt
            z[2] += 1e-13 / dt * x[2]
            a[3, 3] = 1.0
            a[3, 2] = -1.0
            vgs, vds = xk[0] - xk[2], xk[1] - xk[2]
            i0, gm, gds = device.partials(vgs, vds)
            ieq = i0 - gm * vgs - gds * vds
            a[1, 0] += gm
            a[1, 1] += gds
            a[1, 2] -= gm + gds
            a[2, 0] -= gm
            a[2, 1] -= gds
            a[2, 2] += gm + gds
            z[1] -= ieq
            z[2] += ieq
            new = np.linalg.solve(a, z)
            done = float(np.max(np.abs(new - xk))) < 1e-9
            xk = new
            if done:
                break
        x = xk
        records.append((t, x))
    return float(records[-1][1][1])


class Calibrator:
    """Collects reference-loop samples interleaved through one run."""

    def __init__(self):
        self.samples_ms: list[float] = []
        self.times: list[float] = []
        self._last = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.samples_ms.append((end - start) * 1e3)
        self.times.append(end)
        self._last = end

    def maybe_sample(self) -> None:
        """Take a sample if the last one is older than the interval."""
        if time.perf_counter() - self._last >= CALIBRATION_INTERVAL_S:
            self.sample()

    def loop_ms(self) -> float:
        return statistics.median(self.samples_ms)

    def factor(self, at: float | None = None) -> float:
        """Multiply a wall time by this to get reference-host time.

        With ``at`` (a ``perf_counter`` instant) the divisor is the median of
        the samples within :data:`LOCAL_WINDOW_S` of it (at least the
        :data:`LOCAL_MIN_SAMPLES` nearest), so drift within a run is
        followed; without, the median of the whole run.
        """
        if at is None:
            loop_ms = self.loop_ms()
        else:
            near = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - at))
            chosen = [i for i in near if abs(self.times[i] - at) <= LOCAL_WINDOW_S]
            if len(chosen) < LOCAL_MIN_SAMPLES:
                chosen = near[:LOCAL_MIN_SAMPLES]
            loop_ms = statistics.median(self.samples_ms[i] for i in chosen)
        return (REFERENCE_LOOP_MS / loop_ms) ** CALIBRATION_EXPONENT


def child_env() -> dict:
    """Environment for child interpreters: this one's, importing ``src/``."""
    env = os.environ.copy()
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb_self() -> float:
    """Peak resident set size of this process in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live child process in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def stripped_json_bytes(record: dict) -> int:
    """Canonical JSON size of a record or response without its telemetry.

    The telemetry carries wall-clock phase timings whose digit count varies
    run to run; leaving it out makes the byte counts repeat exactly.
    """
    return len(json.dumps({k: v for k, v in record.items() if k != "telemetry"},
                          sort_keys=True))


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the program's source tree (``src/``), path-ordered.

    Identifies the measured tree even where the checkout is not a git
    repository.
    """
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(calibration: Calibrator) -> dict:
    """What was measured, where: tree identity, host and library versions."""
    import scipy

    try:
        import numba  # noqa: F401
        numba_present = True
    except ImportError:
        numba_present = False
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": numba_present,
        "calibration_ms": round(calibration.loop_ms(), 4),
        "calibration_samples": len(calibration.samples_ms),
        "reference_loop_ms": REFERENCE_LOOP_MS,
    }


def emit_result(correct: bool, attempted: int, failed: int,
                metrics: dict[str, tuple[float, str]], report: dict) -> None:
    """Print the human report, then the one-line JSON result as last line."""
    print("report " + json.dumps(report, sort_keys=True, default=str))
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True), flush=True)


class CheckFailed(AssertionError):
    """A correctness check on the program's outputs failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
