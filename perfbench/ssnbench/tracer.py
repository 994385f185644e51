"""Outside-in layer tracing: wrap each layer's public functions, keep spans.

The traced run patches the program's layer entry points from here, at the
places their callers look them up (a class attribute, or a module global
that a caller imported by name).  Each wrapper records one span — name,
layer, start, end, parent — in memory, and may count work.  A layer's self
time is the summed duration of its spans minus the part of each covered by
its direct children.  Parents follow a context variable, so spans stay
correctly nested across asyncio tasks and ``asyncio.to_thread`` workers.

Nothing here is imported by the program; untraced runs never load it.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import threading
import time
import types

from .common import stripped_json_bytes

#: (span id, layer) of the innermost open span of the current context.
_parent: contextvars.ContextVar[tuple] = contextvars.ContextVar(
    "perfbench_span", default=(-1, None))


class Tracer:
    """In-memory spans plus call counters for one traced run.

    Each open span is held as ``[start, parent, covered]``; when it closes,
    its self time (duration minus the time its direct children covered) is
    folded into its layer's total and its duration into its parent's
    ``covered``.  Folding as spans close keeps memory bounded by the open
    spans, where a run of golden transients closes millions.
    """

    def __init__(self):
        self.spans_closed = 0
        self.counts: dict[str, float] = {}
        self.self_seconds: dict[str, float] = {}
        self._open_spans: dict[int, list] = {}  # id -> [start, parent, covered]
        self._next = 0
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def _open(self, layer: str) -> tuple[int, contextvars.Token]:
        parent = _parent.get()[0]
        with self._lock:
            index = self._next
            self._next += 1
            self._open_spans[index] = [time.perf_counter(), parent, 0.0]
        return index, _parent.set((index, layer))

    def _close(self, index: int, token: contextvars.Token, layer: str) -> None:
        end = time.perf_counter()
        _parent.reset(token)
        with self._lock:
            start, parent, covered = self._open_spans.pop(index)
            duration = end - start
            self.self_seconds[layer] = (self.self_seconds.get(layer, 0.0)
                                        + max(0.0, duration - covered))
            record = self._open_spans.get(parent)
            if record is not None:
                # A child that outlives its parent (a background task) is
                # clipped: only time inside the parent's span is covered.
                record[2] += duration
            self.spans_closed += 1

    def wrap_function(self, fn, layer: str, counter=None):
        """A span-recording (and optionally counting) stand-in for ``fn``."""
        tracer = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                index, token = tracer._open(layer)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer._close(index, token, layer)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counter(tracer, args, kwargs)
            index, token = tracer._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index, token, layer)
        return wrapper

    # -- patching --------------------------------------------------------------------

    def patch(self, owner, attr: str, layer: str, counter=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper (undone by :meth:`restore`).

        ``owner`` is a class (methods, staticmethods) or a module (globals
        a caller looks up by name).
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap_function(raw.__func__, layer, counter))
        else:
            wrapped = self.wrap_function(raw, layer, counter)
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def patch_namespace(self, owner, attr: str, replacement) -> None:
        """Swap a module global for a proxy object (undone by :meth:`restore`)."""
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)


class _Proxy(types.SimpleNamespace):
    """Attribute-forwarding stand-in for a module, with some names replaced."""

    def __init__(self, target, **overrides):
        super().__init__(**overrides)
        object.__setattr__(self, "_target", target)

    def __getattr__(self, attr):
        return getattr(object.__getattribute__(self, "_target"), attr)


def numpy_proxy(tracer: Tracer, numpy_module, layer: str):
    """A ``numpy`` stand-in whose ``linalg.solve`` (dense LU) is traced."""
    linalg = _Proxy(numpy_module.linalg, solve=tracer.wrap_function(
        numpy_module.linalg.solve, layer))
    return _Proxy(numpy_module, linalg=linalg)


def json_proxy(tracer: Tracer, json_module, layer: str):
    """A ``json`` stand-in whose ``dumps``/``loads`` are traced."""
    return _Proxy(json_module,
                  dumps=tracer.wrap_function(json_module.dumps, layer),
                  loads=tracer.wrap_function(json_module.loads, layer))


def _inside_devices() -> bool:
    return _parent.get()[1] == "devices"


def _count_eval_scalar(t, args, kwargs):
    # Nested evaluations (``partials`` calling ``ids_scalar``) count once.
    if _inside_devices():
        return
    t.count("devices.eval_calls")
    t.count("devices.eval_points")


def _count_eval_array(t, args, kwargs):
    import numpy as np

    if _inside_devices():
        return
    t.count("devices.eval_calls")
    t.count("devices.eval_points", int(np.size(args[1])))


def _count_load_bytes(t, args, kwargs):
    import json

    path = args[0].path_for(args[1])
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):
        return
    if isinstance(record, dict):
        t.count("store.bytes_read", stripped_json_bytes(record))


def _count_put_bytes(t, args, kwargs):
    t.count("store.bytes_written", stripped_json_bytes(args[2]))


def _count_call(key):
    def counter(t, args, kwargs):
        t.count(key)
    return counter


#: Device evaluation methods, with the counter each one's wrapper uses.
DEVICE_METHODS = {"partials": _count_eval_scalar, "ids_scalar": _count_eval_scalar,
                  "partials_array": _count_eval_array}


def device_entry_points() -> list[tuple[type, str]]:
    """(class, method) for every ``MosfetModel`` class defining an evaluation."""
    from repro.devices.base import MosfetModel

    classes, pending = [], [MosfetModel]
    while pending:
        cls = pending.pop()
        classes.append(cls)
        pending.extend(cls.__subclasses__())
    return [(cls, attr) for cls in classes for attr in DEVICE_METHODS
            if attr in cls.__dict__]


def install(tracer: Tracer) -> None:
    """Patch every layer's public entry points (see ``perfbench/README.md``)."""
    import importlib
    import json

    import numpy as np

    import repro.spice as spice_pkg
    from repro.analysis import campaign, simulate
    from repro.observability import events as obs_events
    from repro.observability import metrics as obs_metrics
    from repro.service import server, store
    from repro.spice import batch, dc, mna, solver
    from repro.surrogate import model as surrogate_model
    from repro.surrogate import registry as surrogate_registry

    # The package re-exports the function ``transient`` under its module's name.
    transient = importlib.import_module("repro.spice.transient")

    # devices: every MosfetModel class that defines an evaluation method.
    for cls, attr in device_entry_points():
        tracer.patch(cls, attr, "devices", counter=DEVICE_METHODS[attr])

    # spice.mna: stamping and LU.
    for attr in ("assemble", "assemble_base", "assemble_nonlinear", "assemble_sparse"):
        tracer.patch(mna.MnaSystem, attr, "spice.mna.stamp",
                     counter=_count_call("mna.assemblies"))
    for attr in ("solve_linear_cached", "solve_sparse_cached"):
        tracer.patch(mna.MnaSystem, attr, "spice.mna.lu")
    tracer.patch(mna.MnaSystem, "sparse_factorize", "spice.mna.lu",
                 counter=_count_call("factorizations.sparse"))
    tracer.patch_namespace(solver, "np", numpy_proxy(tracer, np, "spice.mna.lu"))
    tracer.patch_namespace(batch, "np", numpy_proxy(tracer, np, "spice.mna.lu"))

    # spice.solver / spice.transient / spice.batch, where callers import them.
    tracer.patch(transient, "newton_solve", "spice.solver")
    tracer.patch(dc, "newton_solve", "spice.solver")
    tracer.patch(simulate, "transient", "spice.transient")
    tracer.patch(spice_pkg, "transient", "spice.transient")
    tracer.patch(simulate, "batch_transient", "spice.batch",
                 counter=_count_call("batch.lockstep_runs"))

    # analysis.
    tracer.patch(campaign.CampaignRunner, "run_specs", "analysis.campaign")
    tracer.patch(campaign, "atomic_write", "analysis.campaign")

    # service.keys / service.store / service.server.
    tracer.patch(server, "result_key", "service.keys")
    tracer.patch(store.ResultStore, "load", "service.store.load",
                 counter=_count_load_bytes)
    tracer.patch(store.ResultStore, "put", "service.store.put",
                 counter=_count_put_bytes)
    tracer.patch(store, "atomic_write", "service.store.put")
    # HTTP framing and dispatch; the response write runs inline in the
    # connection handler, whose JSON encoding the json proxy below sees.
    tracer.patch(server.SsnService, "_read_request", "service.server")
    tracer.patch(server.SsnService, "_dispatch", "service.server")
    # Awaiting a dispatched compute is waiting, not server work.
    tracer.patch(server.SsnService, "_compute_and_publish", "service.wait")
    tracer.patch_namespace(server, "json", json_proxy(tracer, json, "service.server"))

    # surrogate (the closed forms of repro.core run inside these).
    tracer.patch(surrogate_registry.SurrogateRegistry, "lookup", "surrogate")
    tracer.patch(surrogate_model.SurrogateModel, "simulation", "surrogate")

    # observability: metrics and the event journal.
    for attr in ("inc", "observe", "set_gauge"):
        if hasattr(obs_metrics, attr):
            tracer.patch(obs_metrics, attr, "observability")
    tracer.patch(obs_events, "emit", "observability")
