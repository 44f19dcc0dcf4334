"""Pull-based sweep execution: one store-aware frontier, reassembled in order.

Every sweep, at any job count, runs through one loop (the frontier in
:func:`run_sweep`).  It keeps the grid's unresolved cells and pulls
work from them as slots free up:

1. **Probe** — every cell is checked against the store first; hits are
   recorded as ``cache-hit`` lifecycle events and never scheduled.
   Cells with a persisted *failure record* at or past the attempt
   budget are quarantined up front instead of re-attempted (see
   :mod:`repro.runner.faults`).
2. **Partition** — under ``--shard i/N`` the remaining cells split into
   ours and foreign (deterministic hash of the cell key, see
   :mod:`repro.runner.campaign`); foreign cells are skipped, or queued
   *after* our own when work stealing is on.
3. **Pull** — chunks are dispatched one at a time as slots become idle.
   Immediately before dispatch each chunk is *re*-probed against the
   store (another host may have stored the cell since step 1) and, when
   a claim policy is active, claimed: a live foreign claim defers the
   cell to its owner, an expired one is stolen.
4. **Record** — results are stored and their claims released as they
   arrive (not at sweep end), so a killed run preserves every solved
   cell and a resumed run re-solves none of them.

**Slots.**  ``jobs == 1`` has one in-process slot: each chunk is a
single cell, solved in the calling process in spec order, sharing one
:class:`~repro.experiments.common.ExperimentSetup` per topology through
the process's memo.  ``jobs > 1`` fans chunks over a
:class:`concurrent.futures.ProcessPoolExecutor`.  There, cells that
share a setup key are chunked onto one worker so the expensive
margin-independent setup (DAG construction, ECMP projection, the
oblivious optimization) is built once per chunk; a per-process LRU memo
(see :mod:`repro.runner.memo`) additionally shares setups between
chunks that land on the same long-lived worker.

**Failure domain.**  A failing cell does not sink the sweep outright,
and the rules below hold at every job count:

* A solve that raises a *transient* error (OS error, memory pressure,
  unknown exceptions — :func:`~repro.runner.faults.is_transient`) is
  retried with exponential backoff and deterministic jitter, up to the
  policy's ``max_attempts``; *deterministic* errors (``ValueError``
  bugs, LP infeasibility) quarantine immediately.
* Quarantining a cell persists a failure record in the store, releases
  its claim, and emits a ``quarantined`` event.  By default any
  quarantine aborts the sweep with the original error once in-flight
  work drains; ``--max-failures N`` / ``--keep-going`` instead turn
  quarantined cells into ``SkippedCell(reason="failed")`` rows of a
  partially-complete report.  When the sweep does abort, the raised
  exception carries a ``partial_report`` attribute so callers can still
  flush lifecycle events and recovered results.

Two rules need a worker process, so they apply at ``jobs > 1`` only:

* A dead worker (``BrokenProcessPool`` — segfault, OOM kill) costs only
  its in-flight chunks, which are **bisected** and re-queued so one
  poison cell is isolated instead of failing its setup-sharing
  siblings; the pool is replaced and the sweep continues.
* A wall-clock budget needs a worker to kill: ``--cell-timeout`` (or
  the kind's :attr:`~repro.runner.spec.CellKind.timeout`) sets a
  **watchdog** deadline on each dispatched chunk, which kills the
  pool's workers when exceeded, re-queues the innocent chunks, and
  retries (then quarantines) the overdue cell.

Cells are solved by their registered :class:`~repro.runner.spec.CellKind`
— :func:`solve_cell` just dispatches — so any experiment that
decomposes into independent units rides the same executor.

Results are reassembled strictly in ``spec.cells`` order regardless of
completion order, so a parallel sweep emits a table row-for-row
identical to the serial one.  Sharded runs resolve only part of the
grid: unresolved cells are reported as *skipped* (with a reason), the
report's ``complete`` flag turns false, and table assembly refuses to
emit a partial table — merge the shard stores (``repro cache merge``)
and re-run against the merged store to assemble the full table from
hits alone.  The one sanctioned exception: a report whose only skips
are quarantined cells still assembles its table, omitting those rows
with a note, so ``--keep-going`` campaigns yield usable output.
"""

from __future__ import annotations

import heapq
import itertools
import os
import signal
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Executor, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable

from repro.exceptions import ExperimentError
from repro.runner import faults
from repro.runner.campaign import (
    ClaimPolicy,
    Shard,
    cell_shard,
    release_claim,
    try_claim,
)
from repro.runner.faults import (
    CellTimeoutError,
    FailurePolicy,
    WorkerCrashError,
    backoff_delay,
    error_class,
    failure_record,
    is_transient,
)
from repro.runner.memo import clear_all_memos
from repro.runner.spec import SweepCell, SweepSpec, cell_key, cell_kind
from repro.runner.store import CellStore
from repro.runner.timing import CellEvent, EventLog, timed_solve
from repro.topologies.zoo import topology_info
from repro.utils.tables import Table

#: A pullable unit of work: (spec index, cell) pairs solved in order.
_Chunk = list[tuple[int, SweepCell]]


def solve_cell(cell: SweepCell) -> dict[str, float]:
    """Solve one cell by dispatching through its registered kind."""
    return cell_kind(cell.kind).solve(cell)


def _solve_chunk(
    solve: Callable[[SweepCell], dict[str, float]],
    cells: list[tuple[str, SweepCell]],
    kernel_mode: bool | None = None,
) -> list[tuple[str, object, str | None, dict[str, float]]]:
    """Solve same-setup cells one after another, stopping at a failure.

    ``cells`` carries each cell's content key alongside it so the worker
    can fire key-addressed injected faults (:func:`repro.runner.faults.
    trigger`) without re-deriving keys.  Returns per-cell ("ok", ratios,
    None, timings) / ("error", exception, detail, {}) outcomes so the
    frontier still records and caches every cell solved before a failure.
    ``detail`` carries the failing cell's identity and the traceback,
    which pickling the exception out of a worker alone would lose;
    ``timings`` carries the per-phase durations the worker recorded
    (see :mod:`repro.runner.timing`).

    ``kernel_mode`` is the coordinator's resolved
    :func:`repro.kernel.kernel_enabled` value: cache keys were computed
    under it, so the worker must solve under it too — a spawn-start
    worker would otherwise re-derive the mode from its own (fresh)
    process state and could cache one mode's rows under the other's keys.
    """
    if kernel_mode is not None:
        from repro.kernel import set_kernel_enabled

        set_kernel_enabled(kernel_mode)
    outcomes: list[tuple[str, object, str | None, dict[str, float]]] = []
    for key, cell in cells:
        try:
            faults.trigger("solve", key)
            ratios, timings = timed_solve(solve, cell)
            outcomes.append(("ok", ratios, None, timings))
        except Exception as error:
            detail = (
                f"cell {cell.topology}/{cell.demand_model} margin={cell.margin:g} "
                f"kind={cell.kind} failed:\n{traceback.format_exc()}"
            )
            outcomes.append(("error", error, detail, {}))
            break
    return outcomes


def _split_chunk(chunk: _Chunk) -> list[_Chunk]:
    """Split one chunk in two, preferring a margin boundary near the middle.

    Cells of one margin can share per-margin state beyond the setup
    (fig10's worst-case oracle and ideal routing), so a mid-margin split
    would rebuild that state in both workers; the boundary nearest the
    midpoint keeps each margin's cells together at no cost to balance.
    """
    half = len(chunk) // 2
    boundaries = [
        i for i in range(1, len(chunk)) if chunk[i - 1][1].margin != chunk[i][1].margin
    ]
    split = min(boundaries, key=lambda i: abs(i - half)) if boundaries else half
    return [chunk[:split], chunk[split:]]


def _chunk_pending(pending: _Chunk, workers: int) -> list[_Chunk]:
    """Group unsolved cells by setup key, splitting groups to fill workers.

    One chunk = one pullable unit of work: its cells share a setup, so
    the expensive margin-independent preparation runs once per chunk.
    Groups are split in two (largest first, at margin boundaries where
    possible) only while workers would otherwise be idle.
    """
    groups: dict[tuple, _Chunk] = {}
    for index, cell in pending:
        groups.setdefault(cell.setup_key(), []).append((index, cell))
    chunks = list(groups.values())
    while len(chunks) < workers and any(len(chunk) > 1 for chunk in chunks):
        chunks.sort(key=len)
        largest = chunks.pop()
        chunks += _split_chunk(largest)
    return chunks


def _row_value(cell: SweepCell, column: str, *, display: bool):
    """Resolve one row-identity column for a cell.

    ``display=False`` yields the raw merge key (topology name);
    ``display=True`` yields what the table prints (paper label).
    """
    if column == "network":
        return topology_info(cell.topology).paper_label if display else cell.topology
    if column == "margin":
        return cell.margin
    params = cell.params_dict()
    if column in params:
        return params[column]
    raise ExperimentError(
        f"cell kind {cell.kind!r} cannot resolve row column {column!r} "
        f"(known: network, margin, or a param name)"
    )


@dataclass(frozen=True)
class CellResult:
    """One solved (or store-served) cell.

    ``timings`` maps phase names ("setup"/"solve"/"evaluate" plus
    "total") to seconds for freshly solved cells; store-served cells
    carry an empty dict — no work was timed.  ``stolen`` marks results
    this run produced by taking over an abandoned claim or a foreign
    shard's cell under work stealing.
    """

    cell: SweepCell
    key: str
    ratios: dict[str, float]
    cached: bool
    timings: dict[str, float] = field(default_factory=dict)
    stolen: bool = False

    @property
    def status(self) -> str:
        """``"cache-hit"``, ``"stolen"``, or ``"solved"``."""
        if self.cached:
            return "cache-hit"
        return "stolen" if self.stolen else "solved"


@dataclass(frozen=True)
class SkippedCell:
    """One cell this run deliberately did not resolve, and why.

    ``reason`` is ``"foreign-shard"`` (belongs to another shard, work
    stealing off), ``"claimed-elsewhere"`` (another owner holds a live
    claim; resume picks the result up from the store once they finish),
    or ``"failed"`` (quarantined after exhausting its attempts — a
    failure record in the store carries the error; triage with
    ``repro cache failures``).  ``detail`` refines the reason (e.g. the
    failure's error class).
    """

    cell: SweepCell
    key: str
    reason: str
    detail: str = ""


@dataclass
class SweepReport:
    """A completed sweep: per-cell results in spec order, plus counters.

    ``elapsed`` is measured on the monotonic clock
    (``time.perf_counter``), so wall-clock adjustments (NTP steps, DST)
    can never corrupt benchmark payloads; lifecycle *events* keep epoch
    timestamps for cross-host merging (see :mod:`repro.runner.timing`).
    ``aborted`` marks the partial report attached to a raised sweep
    error — its results are real, but the run did not finish.
    """

    spec: SweepSpec
    results: list[CellResult]
    elapsed: float = 0.0
    jobs: int = 1
    skipped: list[SkippedCell] = field(default_factory=list)
    events: list[CellEvent] = field(default_factory=list)
    shard: Shard | None = None
    aborted: bool = False

    @property
    def solved(self) -> int:
        return sum(1 for result in self.results if not result.cached)

    @property
    def cached(self) -> int:
        return sum(1 for result in self.results if result.cached)

    @property
    def stolen(self) -> int:
        return sum(1 for result in self.results if result.stolen)

    @property
    def quarantined(self) -> int:
        """Cells skipped as ``"failed"`` (quarantined) by this run."""
        return sum(1 for skip in self.skipped if skip.reason == "failed")

    @property
    def complete(self) -> bool:
        """Whether every cell of the spec was resolved by this run."""
        return not self.skipped and not self.aborted

    @property
    def table_ready(self) -> bool:
        """Whether :meth:`table` can assemble a faithful table.

        True for complete runs, and for runs whose *only* skips are
        quarantined cells — those assemble with the failed rows omitted
        and a note, so ``--keep-going`` campaigns still emit output.
        Sharded/deferred partials (and aborted reports) stay False.
        """
        return not self.aborted and all(skip.reason == "failed" for skip in self.skipped)

    def lifecycle_counts(self) -> dict[str, int]:
        """Event-name -> occurrence totals for this run's lifecycle log."""
        totals: dict[str, int] = {}
        for event in self.events:
            totals[event.event] = totals.get(event.event, 0) + 1
        return totals

    def phase_totals(self) -> dict[str, float]:
        """Per-phase seconds summed over every freshly solved cell.

        Cached cells contribute nothing (their timings are empty), so
        the totals measure work actually performed by this sweep.
        """
        totals: dict[str, float] = {}
        for result in self.results:
            for name, seconds in result.timings.items():
                totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def table(self) -> Table:
        """Reassemble the table in declared cell order.

        Consecutive cells that share a row identity (all ``row_columns``
        values equal) merge their result dicts into one row; the row's
        values are then picked in the spec's declared column order.

        A partial (sharded / claim-deferred) report cannot assemble a
        faithful table and refuses to: merge the shard stores and re-run
        against the merged store to serve every cell from hits.  A
        report whose only skips are *quarantined* cells does assemble —
        rows touching a failed cell are omitted and counted in a note,
        which is the usable-partial-output contract of ``--keep-going``.
        """
        if not self.table_ready:
            reasons = sorted({skip.reason for skip in self.skipped} or {"aborted"})
            raise ExperimentError(
                f"sweep {self.spec.experiment!r} is partial: {len(self.skipped)} of "
                f"{len(self.spec.cells)} cells unresolved ({', '.join(reasons)}); "
                f"merge the campaign stores (repro cache merge) and re-run against "
                f"the merged store to assemble the full table"
            )
        spec = self.spec
        omitted = {
            tuple(_row_value(skip.cell, column, display=False) for column in spec.row_columns)
            for skip in self.skipped
        }
        value_columns = spec.resolved_value_columns()
        table = Table(spec.title, list(spec.columns()))
        groups: list[tuple[tuple, SweepCell, dict[str, float]]] = []
        for result in self.results:
            identity = tuple(
                _row_value(result.cell, column, display=False) for column in spec.row_columns
            )
            if groups and groups[-1][0] == identity:
                merged = groups[-1][2]
                clashing = sorted(set(merged) & set(result.ratios))
                if clashing:
                    # Complementary cells (fig10's base + budget cells) have
                    # disjoint columns; an overlap means the row identity is
                    # under-declared and merging would silently drop data.
                    raise ExperimentError(
                        f"sweep {spec.experiment!r}: consecutive cells share row "
                        f"identity {identity!r} but both produce {clashing!r}; "
                        f"declare a distinguishing row column (row_columns="
                        f"{spec.row_columns!r})"
                    )
                merged.update(result.ratios)
            else:
                groups.append((identity, result.cell, dict(result.ratios)))
        for identity, cell, merged in groups:
            if identity in omitted:
                # A sibling cell of this row was quarantined; a partial
                # row would render as silently-missing columns.
                continue
            prefix = tuple(_row_value(cell, column, display=True) for column in spec.row_columns)
            missing = [column for column in value_columns if column not in merged]
            if missing:
                raise ExperimentError(
                    f"sweep {spec.experiment!r}: row {prefix!r} is missing result "
                    f"columns {missing!r} (cells produced {sorted(merged)!r})"
                )
            table.add_row(*prefix, *(merged[column] for column in value_columns))
        if omitted:
            table.add_note(
                f"{len(omitted)} row(s) omitted: cell(s) quarantined after repeated "
                f"failures (triage: repro cache failures)"
            )
        for note in spec.notes:
            table.add_note(note)
        if spec.footer is not None:
            for note in spec.footer(self):
                table.add_note(note)
        return table

    def summary(self) -> str:
        base = (
            f"{len(self.results)} cells: {self.solved} solved, "
            f"{self.cached} from cache (jobs={self.jobs}, {self.elapsed:.1f}s)"
        )
        if self.stolen:
            base += f" [{self.stolen} stolen]"
        if self.skipped:
            reasons: dict[str, int] = {}
            for skip in self.skipped:
                reasons[skip.reason] = reasons.get(skip.reason, 0) + 1
            detail = ", ".join(f"{count} {reason}" for reason, count in sorted(reasons.items()))
            base += f"; {len(self.skipped)} skipped ({detail})"
        if self.aborted:
            base += " [aborted]"
        if self.shard is not None:
            base = f"shard {self.shard}: {base}"
        return base


def run_sweep(
    spec: SweepSpec,
    *,
    jobs: int = 1,
    cache: CellStore | None = None,
    solve: Callable[[SweepCell], dict[str, float]] = solve_cell,
    shard: Shard | None = None,
    claims: ClaimPolicy | None = None,
    steal: bool = False,
    failures: FailurePolicy | None = None,
) -> SweepReport:
    """Execute a sweep spec through the pull-based frontier.

    Args:
        spec: the declared grid.
        jobs: frontier slots; 1 solves each cell in the calling process,
            more fan chunks over that many worker processes.
        cache: result store consulted before solving and updated after;
            ``None`` disables caching entirely (including failure
            records — nothing persists, so every run re-attempts).
        solve: cell solver (injectable for tests).
        shard: restrict solving to one deterministic slice of the grid;
            cells outside it are skipped (``"foreign-shard"``) unless
            ``steal`` is set.  Requires ``cache``: a sharded run only
            makes sense against a store that outlives it.
        claims: participate in claim-file coordination rooted at the
            policy's store directory — live foreign claims defer cells,
            expired ones are stolen.  Claims held when the sweep exits
            for *any* reason (abort, ``KeyboardInterrupt``) are released
            on the way out, so sibling owners never wait out the TTL.
        steal: after this shard's own cells, also pull unstored foreign
            cells (claim-guarded).  Requires ``claims`` so two stealing
            hosts don't duplicate whole shards.
        failures: the retry/timeout/quarantine policy (see
            :class:`~repro.runner.faults.FailurePolicy`); defaults to
            3 attempts with backoff, kind-default timeouts, and abort on
            the first quarantined cell.

    Returns:
        A :class:`SweepReport` whose ``results`` hold every resolved
        cell in ``spec.cells`` order; unresolved cells (sharded,
        deferred, or quarantined) appear in ``skipped`` and flip
        ``complete`` to False.

    Raises:
        The first failing cell's error once quarantined cells exceed the
        policy's budget (in-flight work still drains and is cached
        first).  The raised exception carries a ``partial_report``
        attribute — an ``aborted`` :class:`SweepReport` with everything
        resolved so far — so callers can flush artifacts.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if steal and claims is None:
        raise ValueError("work stealing requires a claim policy (claims=...)")
    if (shard is not None or claims is not None) and cache is None:
        raise ValueError("sharded or claim-coordinated sweeps need a result store (cache=...)")
    # Each sweep starts from cold per-process memos so its cost never
    # depends on what an earlier in-process sweep happened to solve
    # (forked workers would otherwise inherit a warm parent memo too).
    clear_all_memos()
    started = time.perf_counter()
    frontier = _Frontier(
        spec, jobs=jobs, cache=cache, solve=solve, shard=shard, claims=claims,
        steal=steal, policy=failures if failures is not None else FailurePolicy(),
    )
    frontier.run()

    key_order = {key: index for index, key in enumerate(frontier.keys)}
    skipped = frontier.skipped + list(frontier.failed.values())
    skipped.sort(key=lambda skip: key_order[skip.key])
    error = frontier.first_error
    report = SweepReport(
        spec=spec,
        results=[frontier.resolved[index] for index in sorted(frontier.resolved)],
        elapsed=time.perf_counter() - started,
        jobs=jobs,
        skipped=skipped,
        events=frontier.events.events,
        shard=shard,
        aborted=error is not None,
    )
    if error is not None:
        # Failing runs still carry everything they resolved: the CLI
        # flushes lifecycle events (and recovered results) from this.
        error.partial_report = report
        raise error
    return report



class _InProcessExecutor(Executor):
    """The ``jobs == 1`` slot: ``submit`` runs the call here, to completion.

    The returned future is already finished, so the frontier drives it
    exactly like a pool's.  Anything that is not an ``Exception``
    (``KeyboardInterrupt``) propagates out of ``submit`` unparked.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as error:
            future.set_exception(error)
        return future


class _Frontier:
    """One sweep's unresolved cells and the single loop that resolves them.

    :meth:`run` probes, partitions and gates the grid, then :meth:`pump`
    dispatches chunks while a slot is idle, waits for the first to
    finish (or for the next watchdog deadline or retry wake-up), and
    records what came back.  Every cell outcome — store, claim release,
    retry, quarantine — is decided here, once, for every job count; see
    the module docstring for what differs between the slot kinds.
    """

    def __init__(
        self,
        spec: SweepSpec,
        *,
        jobs: int,
        cache: CellStore | None,
        solve: Callable[[SweepCell], dict[str, float]],
        shard: Shard | None,
        claims: ClaimPolicy | None,
        steal: bool,
        policy: FailurePolicy,
    ) -> None:
        self.spec = spec
        self.jobs = jobs
        self.cache = cache
        self.solve = solve
        self.shard = shard
        self.claims = claims
        self.steal = steal
        self.policy = policy
        self.keys = [cell_key(cell) for cell in spec.cells]
        self.events = EventLog()
        self.resolved: dict[int, CellResult] = {}
        self.failed: dict[int, SkippedCell] = {}
        self.skipped: list[SkippedCell] = []
        self.deferred: _Chunk = []
        self.attempts: dict[int, int] = {}
        self.claimed: set[int] = set()
        self.stolen: set[int] = set()
        self.foreign: set[int] = set()
        self.first_error: Exception | None = None
        self.queue: deque[_Chunk] = deque()
        # Retries wait out their backoff in this heap (ready-time ordered)
        # without blocking dispatch of other work; the tickets break ties.
        self.retries: list[tuple[float, int, _Chunk]] = []
        self.tickets = itertools.count()
        self.in_flight: dict[Future, tuple[_Chunk, float | None]] = {}
        self.pool: Executor | None = None

    def run(self) -> None:
        """Resolve every cell this run owns, then settle deferred cells."""
        try:
            pending = [
                (index, cell) for index, cell in enumerate(self.spec.cells)
                if not self.probe(index, cell)
            ]
            worklist = self.honor_records(self.partition(pending))
            if worklist and self.first_error is None:
                self.pump(worklist)
        finally:
            # Claims must never outlive the run that holds them: on abort,
            # KeyboardInterrupt, or SIGTERM-turned-exception, releasing here
            # lets sibling owners reclaim the cells immediately instead of
            # waiting out the TTL.
            self.retire_pool()
            for index in list(self.claimed):
                self.release(index)
        # Cells deferred to a live claim may have been stored by their owner
        # while we worked; pick those up as hits, report the rest as skipped.
        for index, cell in self.deferred:
            if index in self.resolved:
                continue
            if self.first_error is None and self.probe(index, cell):
                continue
            self.skipped.append(
                SkippedCell(cell=cell, key=self.keys[index], reason="claimed-elsewhere")
            )

    # -- store, shard and claim gates ------------------------------------

    def probe(self, index: int, cell: SweepCell) -> bool:
        """Serve the cell from the store if present; record the hit."""
        hit = self.cache.get(cell) if self.cache is not None else None
        if hit is None:
            return False
        self.events.emit(self.keys[index], "cache-hit")
        self.resolved[index] = CellResult(
            cell=cell, key=self.keys[index], ratios=hit, cached=True
        )
        return True

    def release(self, index: int) -> None:
        if self.claims is not None and index in self.claimed:
            release_claim(self.claims, self.keys[index])
            self.claimed.discard(index)

    def partition(self, pending: _Chunk) -> _Chunk:
        """Split off foreign-shard cells: skipped, or queued last when stealing."""
        if self.shard is None:
            return pending
        count = self.shard.count
        mine: _Chunk = []
        foreign: _Chunk = []
        for index, cell in pending:
            slot = cell_shard(self.keys[index], count)
            (mine if slot == self.shard.index else foreign).append((index, cell))
        self.foreign = {index for index, _ in foreign}
        if self.steal:
            # Own cells first, so stealing never delays our own shard.
            return mine + foreign
        for index, cell in foreign:
            self.events.emit(
                self.keys[index], "foreign",
                detail=f"shard {cell_shard(self.keys[index], count)}/{count}",
            )
            self.skipped.append(
                SkippedCell(cell=cell, key=self.keys[index], reason="foreign-shard")
            )
        return mine

    def honor_records(self, worklist: _Chunk) -> _Chunk:
        """Resume gate: quarantine cells with a persisted deterministic record.

        A deterministic record marks a poison cell — resume quarantines
        it up front instead of blindly re-attempting it (re-arm with
        ``repro cache failures --clear``).  Transient records (worker
        death, timeout, OS errors) describe the environment, not the
        cell: those cells are re-attempted, with the recorded attempt
        count seeding the budget so it stays cumulative across runs;
        success clears the record.
        """
        if self.cache is None:
            return worklist
        remaining: _Chunk = []
        for index, cell in worklist:
            record = self.cache.get_failure(cell)
            if record is None:
                remaining.append((index, cell))
                continue
            prior = record.get("attempts")
            if isinstance(prior, (int, float)) and prior >= 0:
                self.attempts[index] = int(prior)
            if record.get("error_class") != "deterministic":
                remaining.append((index, cell))
                continue
            error = ExperimentError(
                f"cell {self.keys[index]} carries a persisted failure record "
                f"({record.get('error_type', '?')}: {record.get('message', '?')}); "
                f"re-arm it with `repro cache failures --clear`, or run with "
                f"--keep-going / --max-failures to skip its row"
            )
            self.quarantine(index, cell, error, "persisted-record", "", persist=False)
        return remaining

    def prepare(self, chunk: _Chunk) -> _Chunk:
        """Frontier gate: re-probe the store, then claim, just before dispatch."""
        runnable: _Chunk = []
        for index, cell in chunk:
            if index in self.resolved or index in self.failed:
                continue
            if self.probe(index, cell):
                self.release(index)  # a retried cell may already hold its claim
                continue  # another host stored it since the first probe
            if self.claims is not None and index not in self.claimed:
                outcome = try_claim(self.claims, self.keys[index])
                if outcome == "held":
                    self.events.emit(
                        self.keys[index], "deferred", detail="live claim by another owner"
                    )
                    self.deferred.append((index, cell))
                    continue
                self.claimed.add(index)
                # Probe-then-claim is not atomic: another owner can store
                # the result and release its claim between our miss above
                # and this acquisition.  An owner always stores before
                # releasing, so one more probe now that we hold the claim
                # closes that duplicate-solve window (only claim-*expiry*
                # races can still duplicate work, which is the documented
                # cost).
                if self.probe(index, cell):
                    self.release(index)
                    continue
                foreign = index in self.foreign
                if outcome == "stolen" or foreign:
                    self.stolen.add(index)
                detail = "expired claim taken over" if outcome == "stolen" else ""
                if foreign:
                    detail = (detail + "; " if detail else "") + "foreign-shard steal"
                self.events.emit(
                    self.keys[index], "stolen" if index in self.stolen else "claimed",
                    detail=detail,
                )
            runnable.append((index, cell))
        return runnable

    # -- cell outcomes -----------------------------------------------------

    def record(
        self, index: int, cell: SweepCell, ratios: dict[str, float], timings: dict[str, float]
    ) -> None:
        """Store one solved cell as it arrives, so an interrupted run keeps it."""
        self.resolved[index] = CellResult(
            cell=cell, key=self.keys[index], ratios=ratios, cached=False,
            timings=timings, stolen=index in self.stolen,
        )
        if self.cache is not None:
            self.cache.put(cell, ratios)
            if index in self.attempts:
                # Success after failures: the record is stale — leaving
                # it would quarantine a now-working cell on resume.
                self.cache.clear_failure(cell)
        self.events.emit(self.keys[index], "solved")
        self.release(index)

    def fail(
        self, index: int, cell: SweepCell, error: Exception, detail: str,
        *, label: str | None = None,
    ) -> None:
        """Count one failed attempt: schedule a backed-off retry, or quarantine.

        ``label`` overrides classification for synthetic failures the
        classifier never sees (worker death, watchdog timeout) — both
        count as transient, since a retry gets a fresh worker.
        """
        count = self.attempts.get(index, 0) + 1
        self.attempts[index] = count
        transient = True if label is not None else is_transient(error)
        label = label if label is not None else error_class(error)
        if not transient or count >= self.policy.max_attempts:
            self.quarantine(index, cell, error, label, detail)
            return
        delay = backoff_delay(self.policy, self.keys[index], count)
        self.events.emit(
            self.keys[index], "retried",
            detail=(
                f"attempt {count} failed ({label}: {type(error).__name__}); "
                f"backing off {delay:.2f}s"
            ),
        )
        ready = time.monotonic() + delay
        heapq.heappush(self.retries, (ready, next(self.tickets), [(index, cell)]))

    def quarantine(
        self, index: int, cell: SweepCell, error: Exception, label: str, detail: str,
        *, persist: bool = True,
    ) -> None:
        """Give up on a cell: persist its failure record, skip its row.

        ``persist=False`` skips (re)writing the record — used when the
        quarantine *came from* a persisted record, which already carries
        the original error and must not be clobbered with a synthetic one.
        """
        key = self.keys[index]
        count = self.attempts.get(index, 0)
        self.events.emit(key, "quarantined", detail=f"{label} after {count} attempt(s)")
        if self.cache is not None and persist:
            self.cache.put_failure(
                cell,
                failure_record(
                    cell, key, attempts=count, label=label, error=error, detail=detail
                ),
            )
        self.release(index)
        self.failed[index] = SkippedCell(cell=cell, key=key, reason="failed", detail=label)
        over_budget = not self.policy.keep_going and len(self.failed) > self.policy.max_failures
        if over_budget and self.first_error is None:
            self.first_error = error

    def live(self, chunk: _Chunk) -> _Chunk:
        return [(i, c) for i, c in chunk if i not in self.resolved and i not in self.failed]

    def process_outcomes(
        self,
        chunk: _Chunk,
        outcomes: list[tuple[str, object, str | None, dict[str, float]]],
    ) -> None:
        for (index, cell), (status, value, detail, timings) in zip(chunk, outcomes):
            if status == "ok":
                self.record(index, cell, value, timings)
                continue
            self.events.emit(self.keys[index], "failed", detail=type(value).__name__)
            # Re-attach the worker-side context lost to pickling: raising
            # the error then chains the original traceback and
            # failing-cell identity as its cause.  An in-process error
            # arrives unpickled and keeps a cause of its own.
            if value.__cause__ is None:
                value.__cause__ = RuntimeError(detail)
            self.fail(index, cell, value, detail or "")
        # A failed chunk stops mid-way; its unreached cells are innocent
        # — re-queue them as one chunk (we may still hold their claims,
        # which prepare() won't re-take).
        rest = self.live(chunk[len(outcomes):])
        if rest:
            self.queue.append(rest)

    def on_worker_death(self, chunk: _Chunk, error: Exception) -> None:
        """A chunk lost its worker: bisect multi-cell chunks, count singletons.

        Bisection isolates a crashing cell in O(log n) kills instead of
        discarding (or endlessly re-running) its setup-sharing siblings.
        Only a *singleton* chunk's death counts as an attempt against
        its cell — a multi-cell chunk's death doesn't identify the
        culprit, and charging innocents could quarantine them.
        """
        live = self.live(chunk)
        if len(live) == 1:
            [(index, cell)] = live
            self.events.emit(self.keys[index], "failed", detail="worker died")
            crash = WorkerCrashError(
                f"worker died while solving cell {self.keys[index]} "
                f"({cell.topology}/{cell.demand_model} margin={cell.margin:g} "
                f"kind={cell.kind}); suspect a segfault, OOM kill, or injected fault"
            )
            crash.__cause__ = error
            self.fail(
                index, cell, crash, f"{type(error).__name__}: {error}", label="worker-death"
            )
            return
        for index, _ in live:
            self.events.emit(
                self.keys[index], "retried",
                detail="worker died; chunk bisected to isolate the poison cell",
            )
        if live:
            self.queue.extend(_split_chunk(live))

    def on_timeout(self, chunk: _Chunk) -> None:
        """A chunk blew its deadline: split it, or charge the lone cell."""
        live = self.live(chunk)
        if len(live) == 1:
            [(index, cell)] = live
            budget = self.cell_budget(cell)
            self.events.emit(
                self.keys[index], "timed-out",
                detail=f"exceeded its {budget:g}s wall-clock budget; worker killed",
            )
            error = CellTimeoutError(
                f"cell {self.keys[index]} ({cell.topology}/{cell.demand_model} "
                f"margin={cell.margin:g} kind={cell.kind}) exceeded its "
                f"{budget:g}s wall-clock budget"
            )
            self.fail(index, cell, error, "", label="timeout")
            return
        for index, _ in live:
            self.events.emit(
                self.keys[index], "timed-out",
                detail="chunk exceeded its combined budget; split to isolate the slow cell",
            )
        if live:
            self.queue.extend(_split_chunk(live))

    # -- the pump ----------------------------------------------------------

    def cell_budget(self, cell: SweepCell) -> float | None:
        """The effective wall-clock budget for one cell, if any."""
        timeout = self.policy.cell_timeout
        if timeout is None:
            timeout = cell_kind(cell.kind).timeout
        return timeout if timeout and timeout > 0 else None

    def chunk_deadline(self, chunk: _Chunk) -> float | None:
        """When the watchdog gives up on a dispatched chunk.

        A chunk solves its cells serially, so its budget is the *sum* of
        per-cell budgets; one unbudgeted cell disables the deadline (the
        watchdog cannot attribute overrun without a full budget).  The
        in-process slot has no worker to kill, so it never has one.
        """
        if self.jobs == 1:
            return None
        total = 0.0
        for _, cell in chunk:
            budget = self.cell_budget(cell)
            if budget is None:
                return None
            total += budget
        return time.monotonic() + total

    def retire_pool(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=False, cancel_futures=True)
            self.pool = None

    def kill_pool_workers(self) -> None:
        """SIGKILL the pool's worker processes (watchdog strike).

        ``_processes`` is private executor state, but there is no public
        kill; the fallback (no attribute) degrades to pool abandonment —
        the stuck worker leaks until the sweep exits, which is still
        bounded.
        """
        for pid in list(getattr(self.pool, "_processes", None) or {}):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass

    def pump(self, worklist: _Chunk) -> None:
        """Dispatch, wait, record — until nothing is queued, retrying or in flight."""
        if self.jobs == 1:
            # One cell per chunk: a chunk reports its outcomes only when it
            # ends, so single cells store each result before the next cell
            # starts; the in-process memo already shares their setups.  No
            # kernel mode either: this process already solves under its
            # own, and passing one would set a process-global override.
            self.queue.extend([item] for item in worklist)
            kernel_mode = None
        else:
            from repro.kernel import kernel_enabled

            self.queue.extend(_chunk_pending(worklist, self.jobs))
            # Cache keys were computed under the coordinator's kernel mode;
            # workers must solve under it too.
            kernel_mode = kernel_enabled()
        workers = min(self.jobs, len(self.queue))
        while True:
            now = time.monotonic()
            while self.retries and self.retries[0][0] <= now and self.first_error is None:
                self.queue.append(heapq.heappop(self.retries)[2])
            if self.first_error is None and (self.queue or self.retries) and self.pool is None:
                self.pool = (
                    _InProcessExecutor() if self.jobs == 1
                    else ProcessPoolExecutor(max_workers=workers)
                )
            # Dispatch while slots are idle.  Chunks already in flight when
            # an error hits still complete and store their results; we just
            # stop feeding the frontier.
            while self.queue and len(self.in_flight) < workers and self.first_error is None:
                runnable = self.prepare(self.queue.popleft())
                if runnable:
                    future = self.pool.submit(
                        _solve_chunk, self.solve,
                        [(self.keys[i], c) for i, c in runnable], kernel_mode,
                    )
                    self.in_flight[future] = (runnable, self.chunk_deadline(runnable))
            if not self.in_flight:
                if self.first_error is not None or not (self.queue or self.retries):
                    return
                if not self.queue:
                    # Only backoff sleepers remain; wait for the earliest.
                    time.sleep(max(0.0, self.retries[0][0] - time.monotonic()))
                continue
            wake_times = [
                deadline for _, deadline in self.in_flight.values() if deadline is not None
            ]
            if self.retries and self.first_error is None:
                wake_times.append(self.retries[0][0])
            timeout = max(0.0, min(wake_times) - time.monotonic()) if wake_times else None
            done, _ = wait(list(self.in_flight), timeout=timeout, return_when=FIRST_COMPLETED)
            death: Exception | None = None
            for future in done:
                chunk, _deadline = self.in_flight.pop(future)
                try:
                    outcomes = future.result()
                except Exception as error:  # BrokenProcessPool: a worker died
                    death = error
                    self.on_worker_death(chunk, error)
                    continue
                self.process_outcomes(chunk, outcomes)
            if death is not None:
                # One dead worker breaks the whole pool: every other
                # in-flight future is poisoned too.  Requeue their live
                # cells through the same bisection path and start fresh.
                for chunk, _deadline in self.in_flight.values():
                    self.on_worker_death(chunk, death)
                self.in_flight.clear()
                self.retire_pool()
                continue
            now = time.monotonic()
            overdue = [
                future for future, (_, deadline) in self.in_flight.items()
                if deadline is not None and now >= deadline
            ]
            if overdue:
                # Watchdog strike.  There is no per-task kill in
                # ProcessPoolExecutor, so the whole pool goes: overdue
                # chunks are charged/split, innocent in-flight chunks
                # requeue unchanged, and the next iteration builds a
                # replacement pool.
                for future in overdue:
                    self.on_timeout(self.in_flight.pop(future)[0])
                for chunk, _deadline in self.in_flight.values():
                    live = self.live(chunk)
                    if live:
                        self.queue.append(live)
                self.in_flight.clear()
                self.kill_pool_workers()
                self.retire_pool()
