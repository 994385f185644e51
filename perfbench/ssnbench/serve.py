"""``serve_mix``: one HTTP request per operation to ``python -m repro serve``.

The server runs in a child process with production defaults (surrogate
on, refinement on, audit 0.1, metrics and journal on) over a store that is
fresh each run and seeded by set-up with the stock fitted surrogate and 12
precomputed golden records.  One closed-loop client sends the script; a
second connection is used only for the follower of each dedup pair.
A round is 40 requests in a fixed order with fixed shares and seeded values:

* 22 stored-record hits with waveforms;
* 4 in-region surrogate answers (each schedules a background refinement);
* 3 out-of-region misses (L-only banks of 14-32 drivers);
* 1 dedup pair (2 requests for one out-of-region spec);
* 3 ``/sweep`` requests over stored points;
* 3 unknown-path requests (404);
* 3 requests with a negative or non-numeric ``Content-Length``.

A round ends when every refinement it scheduled has landed in the store,
so background work never backlogs with run length.  The 5 slowest
requests of a round (misses and the dedup pair, 1 in 8) hold the p90,
which therefore falls inside one class of operation.  The malformed
requests are answered 500 today where 400 is correct; they count as
failed operations until the server answers them 400.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np

from .common import (ROOT, CheckFailed, check, child_env, peak_rss_mb_of,
                     peak_rss_mb_self, stripped_json_bytes)
from .workload import Op, TelemetryTap, Workload, telemetry_layer_counts

#: Stock surrogate box (the CLI's ``repro surrogate fit`` defaults).
BOX = {"n_drivers": (2, 12), "inductance": (2e-9, 8e-9), "rise_time": (0.2e-9, 0.8e-9)}
#: Driver counts of the stored golden records (one lockstep batch).
STORED_N = tuple(range(1, 13))
#: Request kinds of one round, with their counts (a dedup pair counts once).
SCRIPT = (("hit", 22), ("surrogate", 4), ("miss", 3), ("dedup", 1),
          ("sweep", 3), ("not_found", 3), ("malformed", 3))
#: The fixed interleaving of a round's requests.  Where a miss falls
#: relative to the refinements of earlier surrogate answers sets how much
#: it waits for the GIL, so the order is the same for every seed and round.
ORDER = np.random.default_rng(20020304).permutation(sum(n for _, n in SCRIPT))
#: Content-Length values of the malformed requests (not seed-dependent).
MALFORMED_LENGTHS = ("-1", "abc", "-40")
#: Surrogate answers re-checked against a golden recompute.
SURROGATE_SAMPLES = 3
#: Per-request socket timeout (a miss computes for well under a second).
TIMEOUT_S = 120.0
#: Journal fields that differ between identical runs.
VOLATILE_EVENT_KEYS = ("t", "pid", "seq", "span_id")


# -- HTTP client ---------------------------------------------------------------------


def _send(port: int, method: str, path: str, body: dict | None = None,
          content_length: str | None = None) -> socket.socket:
    data = b"" if body is None else json.dumps(body).encode()
    length = str(len(data)) if content_length is None else content_length
    head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {length}\r\n"
            f"Connection: close\r\n\r\n").encode()
    sock = socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S)
    sock.sendall(head + data)
    return sock


def _parse(raw: bytes) -> tuple[int, bytes]:
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body


def _receive(socks: list[socket.socket]) -> list[tuple[int, bytes, float]]:
    """Read every socket to EOF concurrently: (status, body, end time) each."""
    selector = selectors.DefaultSelector()
    chunks = {s: [] for s in socks}
    ends: dict[socket.socket, float] = {}
    for s in socks:
        s.setblocking(False)
        selector.register(s, selectors.EVENT_READ)
    deadline = time.monotonic() + TIMEOUT_S
    try:
        while len(ends) < len(socks):
            if time.monotonic() > deadline:
                raise CheckFailed("server did not answer in time")
            for key, _ in selector.select(timeout=1.0):
                data = key.fileobj.recv(1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    ends[key.fileobj] = time.perf_counter()
                    selector.unregister(key.fileobj)
    finally:
        selector.close()
        for s in socks:
            s.close()
    return [(*_parse(b"".join(chunks[s])), ends[s]) for s in socks]


def request(port, method, path, body=None, content_length=None):
    """One blocking request: (status, body bytes, seconds from send to EOF)."""
    start = time.perf_counter()
    status, data, end = _receive([_send(port, method, path, body, content_length)])[0]
    return status, data, end - start


def scrape(port: int) -> dict[str, float]:
    """The server's Prometheus metrics, summed over label sets, plus series."""
    status, body, _ = request(port, "GET", "/metrics")
    check(status == 200, f"/metrics answered {status}")
    totals: dict[str, float] = {}
    series = 0
    for line in body.decode().splitlines():
        if not line or line.startswith("#"):
            continue
        name_labels, value = line.rsplit(" ", 1)
        name = re.split(r"[{ ]", name_labels, maxsplit=1)[0]
        if name.endswith("_bucket"):
            continue
        if not name.endswith("_sum"):
            series += 1
        totals[name] = totals.get(name, 0.0) + float(value)
    totals["series"] = series
    return totals


# -- server processes ----------------------------------------------------------------


class ChildServer:
    """``python -m repro serve`` in a child process (production shape)."""

    def __init__(self, store: str, logdir: str):
        self.out = open(os.path.join(logdir, "server.out"), "w")
        self.err = open(os.path.join(logdir, "server.err"), "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--store", store],
            stdout=self.out, stderr=self.err, cwd=ROOT, env=child_env())
        deadline = time.monotonic() + 120
        pattern = re.compile(r"listening on http://127\.0\.0\.1:(\d+)")
        while True:
            with open(self.out.name) as fh:
                match = pattern.search(fh.read())
            if match:
                self.port = int(match.group(1))
                return
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"server did not start; see {self.err.name}")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_of(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        self.out.close()
        self.err.close()


class InProcessServer:
    """The same service on a thread of this process (the traced pass only)."""

    def __init__(self, store: str, logdir: str):
        from repro.service import ServiceConfig, SsnService

        self.service = SsnService(ServiceConfig(host="127.0.0.1", port=0,
                                                store_root=store))
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        asyncio.run_coroutine_threadsafe(self.service.start(), self.loop).result(120)
        self.port = self.service.port

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_self()

    def stop(self) -> None:
        asyncio.run_coroutine_threadsafe(self.service.close(), self.loop).result(60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=60)
        self.loop.close()


# -- the workload --------------------------------------------------------------------


class ServeMix(Workload):
    name = "serve_mix"

    def setup(self, rep: int) -> None:
        from repro.analysis.driver_bank import DriverBankSpec
        from repro.analysis.simulate import simulate_many
        from repro.process import get_technology
        from repro.service import ResultStore, result_key, surrogate_key
        from repro.service.store import simulation_record
        from repro.surrogate import fit_surrogate

        self.tech = get_technology("tsmc018")
        model = fit_surrogate(self.tech, samples_per_knob=2, **BOX)
        rng = np.random.default_rng([self.seed, 7_000_001])
        self.base = {"inductance": float(rng.uniform(*BOX["inductance"])),
                     "rise_time": float(rng.uniform(*BOX["rise_time"]))}
        specs = [DriverBankSpec(technology=self.tech, n_drivers=n, **self.base)
                 for n in STORED_N]
        sims = simulate_many(specs, engine="batch")
        self.store_root = os.path.join(self.tmpdir, f"store-{rep}")
        store = ResultStore(self.store_root)
        store.put_surrogate(surrogate_key(model.technology, model.topology,
                                          model.operating_region), model)
        self.stored = {}
        for n, spec, sim in zip(STORED_N, specs, sims):
            key = result_key(spec)
            record = simulation_record(key, sim, meta={"engine": "batch"})
            store.put(key, record)
            # What a hit must return, after the same JSON round trip.
            self.stored[n] = json.loads(json.dumps(record))
        self.pending_keys: list[str] = []
        self.surrogate_answers: list[tuple] = []
        self.recompute: list[tuple] = []
        self.response_bytes = 0
        self.drains: list[tuple[int, float]] = []
        self._start_server()
        if rep == 0 and self.in_process:
            self.tap = TelemetryTap()
            self.tap.install()

    def _start_server(self) -> None:
        """Start a server on the store, wait until ready, warm it with one hit."""
        server_cls = InProcessServer if self.in_process else ChildServer
        self.server = server_cls(self.store_root, self.tmpdir)
        self.port = self.server.port
        deadline = time.monotonic() + 120
        while json.loads(request(self.port, "GET", "/healthz")[1])["status"] != "ok":
            check(time.monotonic() < deadline, "server never became ready")
            time.sleep(0.02)
        self._hit(1)  # warm-up: one stored-record hit
        self.expected_computes = 0
        self.computes_at_start = scrape(self.port).get("repro_service_computes_total", 0.0)

    def discard_setup(self) -> None:
        self.server.stop()

    def close(self) -> None:
        tap = getattr(self, "tap", None)
        if tap is not None:
            tap.uninstall()
            self.tap = None
        server = getattr(self, "server", None)
        if server is not None:
            server.stop()
            self.server = None

    def leave_in_process(self) -> bool:
        """Check the in-process server's computes, then serve from a child."""
        if not self.in_process:
            return False
        self._check_computes()
        self.close()
        self.in_process = False
        self._start_server()
        return True

    # -- rounds ----------------------------------------------------------------------

    def round_ops(self, r: int) -> list[Op]:
        rng = self.rng(r)
        ops = []
        for kind, count in SCRIPT:
            for i in range(count):
                ops.append(Op(kind, self._payload(kind, i, rng)))
        return [ops[int(i)] for i in ORDER]

    def _payload(self, kind: str, i: int, rng):
        if kind == "hit":
            return int(rng.choice(STORED_N))
        if kind == "surrogate":
            return {"n_drivers": int(rng.integers(BOX["n_drivers"][0], BOX["n_drivers"][1] + 1)),
                    "inductance": float(rng.uniform(*BOX["inductance"])),
                    "rise_time": float(rng.uniform(*BOX["rise_time"]))}
        if kind in ("miss", "dedup"):
            return {"n_drivers": int(rng.integers(14, 33)),
                    "inductance": float(rng.uniform(1e-9, 10e-9)),
                    "rise_time": float(rng.uniform(0.2e-9, 1e-9))}
        if kind == "sweep":
            return sorted(int(n) for n in rng.choice(STORED_N, size=4, replace=False))
        if kind == "not_found":
            return f"/v1/{rng.integers(0, 2**63):016x}"
        return MALFORMED_LENGTHS[i]

    def _spec(self, params: dict):
        from repro.analysis.driver_bank import DriverBankSpec

        return DriverBankSpec(technology=self.tech, **params)

    def _hit(self, n: int) -> float:
        status, body, seconds = request(
            self.port, "POST", "/simulate",
            {"n_drivers": n, **self.base, "include_waveforms": True})
        check(status == 200, f"hit answered {status}")
        payload = json.loads(body)
        stored = self.stored[n]
        check(payload["outcome"] == "hit", f"stored record answered {payload['outcome']}")
        check(payload["key"] == stored["key"], "hit key differs from the stored key")
        check(payload["peak_voltage"] == stored["peak_voltage"]
              and payload["waveforms"] == stored["waveforms"],
              "hit is not bit-identical to the stored record")
        self.response_bytes += stripped_json_bytes(payload)
        return seconds

    def run_op(self, op: Op):
        """One request (two for a dedup pair), timed from send to last byte."""
        kind, p = op.kind, op.payload
        if kind == "hit":
            return [(self._hit(p), True)]
        if kind == "dedup":
            body = {**p, "include_waveforms": True}
            start = time.perf_counter()
            socks = [_send(self.port, "POST", "/simulate", body),
                     _send(self.port, "POST", "/simulate", body)]
            answers = _receive(socks)
            payloads = []
            for status, data, _ in answers:
                check(status == 200, f"dedup request answered {status}")
                payloads.append(json.loads(data))
                self.response_bytes += stripped_json_bytes(payloads[-1])
            check(sorted(x["outcome"] for x in payloads) == ["dedup", "miss"],
                  f"dedup pair answered {[x['outcome'] for x in payloads]}")
            check(payloads[0]["waveforms"] == payloads[1]["waveforms"],
                  "dedup pair got different waveforms")
            self.recompute.append((p, payloads[0]))
            self.expected_computes += 1
            return [(end - start, True) for _, _, end in answers]
        if kind in ("surrogate", "miss"):
            status, data, seconds = request(self.port, "POST", "/simulate",
                                            {**p, "include_waveforms": True})
            check(status == 200, f"{kind} request answered {status}")
            payload = json.loads(data)
            check(payload["outcome"] == kind, f"{kind} request answered {payload['outcome']}")
            self.response_bytes += stripped_json_bytes(payload)
            self.expected_computes += 1
            if kind == "surrogate":
                self.pending_keys.append(payload["key"])
                self.surrogate_answers.append((p, payload))
            else:
                self.recompute.append((p, payload))
            return [(seconds, True)]
        if kind == "sweep":
            status, data, seconds = request(self.port, "POST", "/sweep", {
                "n_drivers": 4, **self.base, "knob": "n_drivers", "values": p})
            check(status == 200, f"sweep answered {status}")
            payload = json.loads(data)
            for n, point in zip(p, payload["points"]):
                check(point["outcome"] == "hit", f"sweep point answered {point['outcome']}")
                check(point["key"] == self.stored[n]["key"]
                      and point["peak_voltage"] == self.stored[n]["peak_voltage"],
                      "sweep point differs from the stored record")
            check(len(payload["points"]) == len(p), "sweep lost points")
            self.response_bytes += len(data)
            return [(seconds, True)]
        if kind == "not_found":
            status, data, seconds = request(self.port, "GET", p)
            check(status == 404, f"unknown path answered {status}")
            self.response_bytes += len(data)
            return [(seconds, True)]
        status, data, seconds = request(self.port, "POST", "/simulate", None,
                                        content_length=p)
        self.response_bytes += len(data)
        if status == 400:
            return [(seconds, True)]
        # Known fault: a bad Content-Length is answered 500 (a server error)
        # instead of 400; counted as a failed operation.
        check(status == 500, f"malformed request answered {status}")
        return [(seconds, False)]

    def end_round(self, r: int) -> None:
        """Wait until every refinement scheduled this round has landed."""
        from repro.service import ResultStore

        store = ResultStore(self.store_root)
        start = time.perf_counter()
        deadline = time.monotonic() + TIMEOUT_S
        while True:
            health = json.loads(request(self.port, "GET", "/healthz")[1])
            if health["inflight"] == 0 and all(k in store for k in self.pending_keys):
                break
            check(time.monotonic() < deadline, "refinements never landed")
            time.sleep(0.005)
        self.pending_keys.clear()
        self.drains.append((r, time.perf_counter() - start))

    # -- results ---------------------------------------------------------------------

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def _check_computes(self) -> None:
        """One compute per miss, dedup pair and refinement since the warm-up."""
        computes = scrape(self.port).get("repro_service_computes_total", 0.0)
        check(computes - self.computes_at_start == self.expected_computes,
              f"{computes - self.computes_at_start:.0f} computes for "
              f"{self.expected_computes} misses, dedup pairs and refinements")

    def verify(self) -> None:
        from repro.analysis.simulate import simulate_ssn

        self._check_computes()
        for params, payload in self.recompute:
            sim = simulate_ssn(self._spec(params))
            gap = float(np.max(np.abs(np.asarray(payload["waveforms"]["ssn"]["y"]) - sim.ssn.y)))
            check(gap <= 1e-9, f"miss is {gap:.3g} V from a direct simulate_ssn")
        rng = np.random.default_rng([self.seed, 1_000_003])
        picks = rng.choice(len(self.surrogate_answers),
                           size=min(SURROGATE_SAMPLES, len(self.surrogate_answers)),
                           replace=False)
        for i in picks:
            params, payload = self.surrogate_answers[int(i)]
            golden = simulate_ssn(self._spec(params)).peak_voltage
            error = 100.0 * abs(payload["peak_voltage"] - golden) / golden
            check(error <= payload["surrogate"]["tolerance_percent"],
                  f"surrogate answer {error:.2f}% from golden")

    def ledger(self) -> dict[str, float]:
        metrics = scrape(self.port)
        counts = {
            "server.computes": metrics.get("repro_service_computes_total", 0.0),
            "surrogate.answers": metrics.get("repro_surrogate_hits_total", 0.0),
            "surrogate.refusals": metrics.get("repro_surrogate_refusals_total", 0.0),
            "memo.hits": metrics.get("repro_ssn_memo_hits_total", 0.0),
            "newton.solves": metrics.get("repro_newton_iterations_per_solve_count", 0.0),
            "newton.iterations": metrics.get("repro_newton_iterations_per_solve_sum", 0.0),
            "steps": metrics.get("repro_step_seconds_count", 0.0),
            "series": metrics["series"],
            "response.bytes": self.response_bytes,
            "journal.bytes": self._journal_bytes(),
        }
        tap = getattr(self, "tap", None)
        if tap is not None:
            counts.update(tap.snapshot())
        return counts

    def _journal_bytes(self) -> int:
        path = os.path.join(self.store_root, "events.jsonl")
        total = 0
        with open(path) as fh:
            for line in fh:
                if line.strip():
                    event = {k: v for k, v in json.loads(line).items()
                             if k not in VOLATILE_EVENT_KEYS}
                    total += len(json.dumps(event, sort_keys=True)) + 1
        return total

    def layer_counts(self, ledger):
        counts = telemetry_layer_counts(ledger)
        counts.update({
            "surrogate.answers": ledger.get("surrogate.answers", 0.0),
            "surrogate.refusals": ledger.get("surrogate.refusals", 0.0),
            "analysis.simulate.memo_hits": ledger.get("memo.hits", 0.0),
            "service.store.bytes_read": ledger.get("store.bytes_read", 0.0),
            "service.store.bytes_written": ledger.get("store.bytes_written", 0.0),
            "service.server.response_bytes": ledger.get("response.bytes", 0.0),
            "service.server.computes": ledger.get("server.computes", 0.0),
            "observability.journal_bytes": ledger.get("journal.bytes", 0.0),
            "observability.metric_series": ledger.get("series", 0.0),
        })
        return counts

    def outcome_seconds(self, phase) -> dict[str, float]:
        out = {}
        for kind in ("hit", "surrogate", "miss"):
            latencies = phase.by_class.get(kind, {}).get("latencies")
            if latencies:
                out[f"service.server.{kind}_ms"] = float(np.median([w for w, _ in latencies]))
        drains = [s for r, s in self.drains if r >= phase.first_round]
        if drains:
            out["service.server.drain_ms"] = float(np.median(drains))
        return out
