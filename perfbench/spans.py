"""Outside-in layer tracing for the repository benchmark.

The benchmark measures the program users run, so it never edits code
under ``src/``.  Instead it wraps the public entry point of each layer
from here: module functions are rebound in *every* loaded ``repro.*``
module that holds them (``core/robust.py`` and the experiment modules
import by name, so patching only the defining module would miss calls),
and methods are replaced on their class.

Every wrapped call appends one span ``[name, parent, start, end]`` to
the active :class:`Recorder`; spans of one sweep cell share the cell
key as trace id.  Cells are solved through :func:`bench_solve`, the
``solve=`` argument of ``run_sweep``: it gives each cell a fresh
recorder and ships the cell's spans, counters and process resource
usage to a directory the benchmark process reads back after the pass.
That one path serves in-process (``jobs=1``) and pool-worker cells
alike, so worker spans and worker CPU are never lost.

Two modes exist.  ``observe`` (the untraced runs that yield the
end-to-end metrics) wraps only ``optimize_robust_splitting``, to read
each result's oracle ratio, and records no spans.  ``trace`` wraps every
layer in :data:`LAYERS`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

#: Environment variables through which the benchmark process tells the
#: cell wrapper (possibly in a pool worker) where to ship and what to do.
SHIP_ENV = "PERFBENCH_SHIP_DIR"
MODE_ENV = "PERFBENCH_MODE"

OBSERVE, TRACE = "observe", "trace"

#: Root spans: a sweep cell's solve, or one whole in-process pass.  They
#: bound the time the named layers are attributed against.
ROOTS = ("cell", "pass")


class Recorder:
    """Spans, counters and observed oracle ratios of one trace.

    ``spans`` holds ``[name, parent_index, start, end]`` lists, where
    ``parent_index`` points into the same list (``None`` for a root).
    Times are ``time.perf_counter`` seconds, which on Linux is the
    system-wide monotonic clock, so spans shipped from pool workers line
    up with the benchmark process's own.
    """

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.robust_ratios: list[float] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        record = [name, self.stack[-1] if self.stack else None, time.perf_counter(), 0.0]
        self.spans.append(record)
        self.stack.append(index)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self.stack.pop()

    def export(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "pid": os.getpid(),
            "spans": self.spans,
            "counters": self.counters,
            "robust_ratios": self.robust_ratios,
        }


class _Active:
    """The recorder wrapped calls report to.

    Patched functions are process-global by nature, so the recorder they
    find must be too; :func:`recording` sets and restores it.
    """

    recorder: Recorder | None = None


@contextmanager
def recording(recorder: Recorder) -> Iterator[Recorder]:
    previous = _Active.recorder
    _Active.recorder = recorder
    try:
        yield recorder
    finally:
        _Active.recorder = previous


# -- what each layer counts besides its calls ------------------------------


def _softmax_evals(rec: Recorder, solution) -> None:
    rec.count("core.softmax_opt.evals", solution.evaluations)


def _robust_result(rec: Recorder, result) -> None:
    rec.count("core.robust.rounds", result.rounds)
    rec.count("core.robust.cuts", len(result.matrices))
    rec.robust_ratios.append(float(result.oracle.ratio))


def _local_search_rounds(rec: Recorder, result) -> None:
    rec.count("core.local_search.rounds", result.rounds)


def _edge_lps(rec: Recorder, result) -> None:
    rec.count("lp.worst_case.edge_lps", len(result.per_edge))


#: (span name, module, attribute path, result hook).  The attribute path
#: is ``function`` or ``Class.method``.  ``lp.backend`` is added by
#: :func:`_targets`: the ``solve`` of every backend instance class.
LAYERS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("core.softmax_opt", "repro.core.softmax_opt", "optimize_splitting_softmax", _softmax_evals),
    ("core.softmax_opt", "repro.core.softmax_opt", "polish_balanced", _softmax_evals),
    ("core.robust", "repro.core.robust", "optimize_robust_splitting", _robust_result),
    ("core.local_search", "repro.core.local_search", "local_search_weights", _local_search_rounds),
    ("kernel.delta", "repro.kernel.delta", "EcmpDeltaEvaluator.evaluate_move", None),
    ("kernel.coefficients", "repro.kernel.coefficients", "load_coefficients", None),
    ("lp.worst_case", "repro.lp.worst_case", "WorstCaseOracle.evaluate", _edge_lps),
    ("lp.worst_case.build", "repro.lp.worst_case", "WorstCaseOracle.__init__", None),
    ("lp.mcf", "repro.lp.mcf", "MinCongestionSolver.solve", None),
    ("runner.store.get", "repro.runner.store", "DirStore.get", None),
    ("runner.store.put", "repro.runner.store", "DirStore.put", None),
)


def _targets(mode: str) -> list[tuple[str, object, str, Callable | None]]:
    """Resolve (span name, owner object, attribute, hook) for ``mode``."""
    targets = []
    for name, module_name, path, hook in LAYERS:
        if mode == OBSERVE and name != "core.robust":
            continue
        owner = importlib.import_module(module_name)
        *classes, attribute = path.split(".")
        for class_name in classes:
            owner = getattr(owner, class_name)
        targets.append((name, owner, attribute, hook))
    if mode == TRACE:
        from repro.lp import backend

        backend.backend_names()  # imports every built-in engine
        # Every solve of the default engine, persistent or one-shot, goes
        # through its instance class's ``solve`` (``HighsInstance``).
        pending = [backend.BackendInstance]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "solve" in cls.__dict__ and not getattr(cls.solve, "__isabstractmethod__", False):
                targets.append(("lp.backend", cls, "solve", None))
    return targets


def _wrap(name: str, fn: Callable, hook: Callable | None, timed: bool) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = _Active.recorder
        if rec is None:
            return fn(*args, **kwargs)
        if timed:
            with rec.span(name):
                result = fn(*args, **kwargs)
        else:
            result = fn(*args, **kwargs)
        if hook is not None:
            hook(rec, result)
        return result

    wrapper.__perfbench_original__ = fn
    return wrapper


class _Installed:
    """Which mode is installed in this process, and how to undo it."""

    mode: str | None = None
    undo: list[tuple[object, str, object]] = []


def install(mode: str) -> None:
    """Wrap the layers for ``mode`` (replacing any other installed mode)."""
    if _Installed.mode == mode:
        return
    uninstall()
    undo: list[tuple[object, str, object]] = []
    for name, owner, attribute, hook in _targets(mode):
        if isinstance(owner, type):
            original = owner.__dict__[attribute]
            setattr(owner, attribute, _wrap(name, original, hook, timed=(mode == TRACE)))
            undo.append((owner, attribute, original))
            continue
        # A module function: rebind every repro.* module attribute that
        # *is* the function, so name-imports see the wrapper too.
        original = getattr(owner, attribute)
        wrapper = _wrap(name, original, hook, timed=(mode == TRACE))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    undo.append((module, key, original))
    _Installed.mode, _Installed.undo = mode, undo


def uninstall() -> None:
    for owner, attribute, original in reversed(_Installed.undo):
        setattr(owner, attribute, original)
    _Installed.mode, _Installed.undo = None, []


# -- the cell wrapper and its shipping ------------------------------------

_SEQUENCE = itertools.count()


def process_usage() -> tuple[float, int]:
    """(user + system CPU seconds, peak RSS in KiB) of this process."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def bench_solve(cell) -> dict[str, float]:
    """Solve one sweep cell through the production ``solve_cell``.

    Passed to ``run_sweep(solve=...)``, so it runs wherever the executor
    solves cells.  In a pool worker started without the parent's
    patches (a ``spawn`` start method), it installs them itself.
    """
    from repro.runner.executor import solve_cell
    from repro.runner.spec import cell_key

    mode = os.environ[MODE_ENV]
    install(mode)
    rec = Recorder(cell_key(cell))
    with recording(rec):
        if mode == TRACE:
            with rec.span("cell"):
                ratios = solve_cell(cell)
        else:
            ratios = solve_cell(cell)
    cpu_s, maxrss_kb = process_usage()
    payload = {**rec.export(), "cpu_s": cpu_s, "maxrss_kb": maxrss_kb}
    ship = Path(os.environ[SHIP_ENV])
    name = f"{os.getpid()}-{next(_SEQUENCE)}"
    (ship / f"{name}.tmp").write_text(json.dumps(payload))
    os.replace(ship / f"{name}.tmp", ship / f"{name}.json")
    return ratios


def collect(ship: Path) -> list[dict]:
    """Read back (and delete) every payload shipped into ``ship``."""
    payloads = []
    for path in sorted(ship.glob("*.json")):
        payloads.append(json.loads(path.read_text()))
        path.unlink()
    return payloads


# -- aggregation -----------------------------------------------------------


def layer_totals(traces: list[dict]) -> tuple[dict[str, dict[str, float]], float]:
    """Per-layer ``{"calls", "self_s"}`` and the time inside root spans.

    A span's self time is its duration minus the durations of its direct
    children.  Root spans (:data:`ROOTS`) are the attribution base, not
    layers.
    """
    layers: dict[str, dict[str, float]] = {}
    rooted = 0.0
    for trace in traces:
        spans = trace["spans"]
        children = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent is not None:
                children[parent] += end - start
        for index, (name, _parent, start, end) in enumerate(spans):
            if name in ROOTS:
                rooted += end - start
                continue
            layer = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
            layer["calls"] += 1
            layer["self_s"] += (end - start) - children[index]
    return layers, rooted


def merged_counters(traces: list[dict]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for trace in traces:
        for name, value in trace["counters"].items():
            totals[name] = totals.get(name, 0) + value
    return totals


def span_records(traces: list[dict]) -> list[dict]:
    """Flatten traces into self-describing span records for the trace file."""
    records = []
    for trace in traces:
        prefix = f"{trace['pid']}:{trace['trace_id']}:"
        for index, (name, parent, start, end) in enumerate(trace["spans"]):
            records.append(
                {
                    "id": f"{prefix}{index}",
                    "parent": None if parent is None else f"{prefix}{parent}",
                    "name": name,
                    "start": start,
                    "end": end,
                    "trace_id": trace["trace_id"],
                    "pid": trace["pid"],
                }
            )
    return records
