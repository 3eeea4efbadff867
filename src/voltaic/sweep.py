"""The sweep, the task engine's first client: runs a scenario table's rows
as tasks of :mod:`voltaic.engine`.

It owns the plan (:func:`_plan`: each country set's one build, each row's
deltas and each warm set's tree, :func:`_tree`), the tasks a process runs
(:class:`_Tasks`: a warm set's base solve, or a row's solve and finish)
and the queue that orders them (:class:`_Ready`). The table itself is
:mod:`voltaic.scenarios`'s.
"""

from __future__ import annotations

import heapq
import os
import time
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .engine import Queue
from .model import LinearProgram, apply_dispatch_only, build_model
from .scenarios import ScenarioSpec, _echo, expand_overrides
from .solver import (DELTA_KINDS, Delta, ModelInstance, Solution, _locate, base_statuses, basis_statuses, certified,
                     solve)
from .system import FeatureMatrix, ModelConfig, SystemData, ValidationError

MODES = ("rebuild", "single_instance", "parallel")
# Rows a country set needs before its instance re-solves warm. The sweep
# pays one base solve per warm set, whatever the worker count, and one row
# far from the base costs more warm than cold: example1's three rows at
# 48 h take 6.8 s of uncapped warm solves against 4.1 s cold. A row of the
# 24 h benchmark sweep takes 2.2-154 ms warm, 0.22-0.43 s cold (seed 1,
# 2-vCPU Xeon VM, 4e6707a). Smaller sets solve exactly as ``rebuild`` does.
_WARM_MIN_ROWS = 8


class _Program:
    """The ``lp`` of a :class:`RunResult`: the program it was given, or, if
    it was given a callable instead, what that returns, made when ``lp`` is
    first read and kept."""

    def __get__(self, result, owner=None):
        if result is None:
            return None
        lp = result.__dict__["lp"]
        if callable(lp):
            lp = result.__dict__["lp"] = lp()
        return lp

    def __set__(self, result, lp) -> None:
        result.__dict__["lp"] = lp


@dataclass
class RunResult:
    """Outcome of one scenario run, present even when the run failed.

    A sweep gives each row that ran a callable for its program (``lp``),
    which derives it from the sweep's plan when first read, in every mode:
    the row's country-set build with its deltas applied, bitwise what was
    solved. A pickled result carries its program.
    """

    run_id: str
    solution: Solution | None
    overrides: tuple[tuple[str, str], ...]
    error: str | None = None
    lp: LinearProgram | None = field(default=None, repr=False, compare=False)
    wall_time: float = 0.0

    @property
    def status(self) -> str:
        if self.error is not None:
            return "error"
        return self.solution.status

    @property
    def objective(self) -> float | None:
        return self.solution.objective if self.solution is not None else None

    def __getstate__(self) -> dict:
        return {**self.__dict__, "lp": self.lp}


RunResult.lp = _Program()  # after the dataclass has made ``lp`` an init field


def _run_on_instance(inst: ModelInstance, spec: ScenarioSpec, deltas: list[Delta], warm: bool = False,
                     start=None) -> tuple[RunResult, object]:
    """Run one row's planned ``deltas`` on ``inst``: its result, and the
    optimal basis it was solved warm from ``start`` to (None if it was not
    solved warm). The plan has applied the deltas once already, so they
    apply; anything this raises fails the row."""
    started = time.perf_counter()
    inst.reset()
    inst.apply(deltas)
    # resolve certifies whatever it returns; a cold solve is checked here.
    solution = inst.resolve(start) if warm else certified(inst.lp, solve(inst.lp))
    result = RunResult(spec.run_id, solution, _echo(spec), lp=inst.snapshot(),
                       wall_time=time.perf_counter() - started)
    return result, inst.basis if warm else None


@dataclass(frozen=True)
class _Sweep:
    """A planned sweep: each country set's one build, each row's deltas
    against it (or its issue, or the message its build, expansion or
    deltas failed with), the rows that can run in the order to run them,
    and each row's parent (None for the base)."""

    specs: list[ScenarioSpec]
    builds: dict[tuple[str, ...] | None, LinearProgram]
    deltas: list[list[Delta] | str]
    order: list[int]
    parents: list[int | None]
    warm_keys: frozenset

    @cached_property
    def rank(self) -> dict[int, int]:
        """Each row's place in the order ready rows run in: the longest chain
        of rows from it down its tree first, tree order among equals."""
        heights = [1] * len(self.specs)
        for idx in reversed(self.order):  # children after their parent in depth-first order
            if self.parents[idx] is not None:
                heights[self.parents[idx]] = max(heights[self.parents[idx]], heights[idx] + 1)
        return {idx: k for k, idx in enumerate(sorted(self.order, key=lambda idx: -heights[idx]))}

    @cached_property
    def children(self) -> list[list[int]]:
        """Each row's tree children in :attr:`rank` order."""
        children: list[list[int]] = [[] for _ in self.specs]
        for idx in self.order:
            if self.parents[idx] is not None:
                children[self.parents[idx]].append(idx)
        return [sorted(rows, key=self.rank.__getitem__) for rows in children]


# A value moved to or from infinity has no finite relative change. It counts
# as this far along its coordinate, so such rows join each other and stay
# away from every finite row.
_FAR = 1e6


def _tree(lp: LinearProgram, rows: list[list[Delta]]) -> tuple[list[int], list[int | None]]:
    """Plan the warm starts of one instance's rows from their deltas alone.

    A row is the vector of its relative changes ``(v - base) / max(1,
    |base|)`` at every position (cost, bound, rhs or matrix cell) any row
    changes; a cell's base is its one entry's value (see
    :func:`solver._cell_index`), 0 where it has none. The rows form a Prim
    minimum spanning tree under the L2 distance, rooted at the base (the
    zero vector); ties go to the lower row index, and the base wins a tie
    for parent. Returns the rows in depth-first order, each node's children
    by distance and then index, and each row's parent (None for the base).
    """
    coordinate = {kind: k for k, kind in enumerate(DELTA_KINDS)}
    changes = [
        {(coordinate[d.kind], -1 if d.row is None else d.row, -1 if d.col is None else d.col): d.value
         for d in deltas}
        for deltas in rows
    ]
    positions = sorted(set().union(*changes))
    kind, row, col = np.array(positions, dtype=np.int64).reshape(-1, 3).T
    base = np.zeros(len(positions))
    for k, (name, target) in enumerate(DELTA_KINDS.values()):
        if (on := np.flatnonzero(kind == k)).size:
            at = _locate(lp, target, row[on], col[on])
            base[on[at >= 0]] = getattr(lp, name)[at[at >= 0]]

    column = {p: k for k, p in enumerate(positions)}
    n = len(rows)
    at = np.repeat(np.arange(n), [len(c) for c in changes])
    k = np.fromiter((column[p] for c in changes for p in c), np.int64, len(at))
    v = np.fromiter((x for c in changes for x in c.values()), float, len(at))
    b = base[k]
    with np.errstate(invalid="ignore"):
        rel = (v - b) / np.maximum(1.0, np.abs(b))
        rel = np.where(v == b, 0.0, np.where(np.isfinite(rel), rel, np.copysign(_FAR, v - b)))
    # Each row's entries by position.
    by_row = np.argsort(at * len(positions) + k, kind="stable")
    at, k, rel = at[by_row], k[by_row], rel[by_row]
    # Squared distances order as the distances do: |a - b|^2 = |a|^2 +
    # |b|^2 - 2 a.b, with a.b taken one tree row at a time, so memory stays
    # linear in the rows. |a|^2 sums a row's nonzero squares as
    # ``np.add.reduceat`` does, and a.b sums its products from zero in
    # position order, as scipy's sparse sum and product do.
    square = rel * rel
    nonzero = square != 0.0
    near = np.zeros(n)
    rows_with = np.flatnonzero(np.bincount(at[nonzero], minlength=n))
    if rows_with.size:
        near[rows_with] = np.add.reduceat(square[nonzero], np.searchsorted(at[nonzero], rows_with))
    ends = np.searchsorted(at, np.arange(n + 1))
    parent, dist, free = np.full(n, -1), near.copy(), np.ones(n, dtype=bool)
    for _ in range(n):
        u = int(np.argmin(np.where(free, dist, np.inf)))  # the lowest index among ties
        free[u] = False
        w, entries = np.zeros(len(positions)), slice(ends[u], ends[u + 1])
        w[k[entries]] = rel[entries]
        to_u = np.maximum(near + near[u] - 2.0 * np.bincount(at, weights=rel * w[k], minlength=n), 0.0)
        closer = free & ((to_u < dist) | ((to_u == dist) & (u < parent)))
        dist[closer], parent[closer] = to_u[closer], u

    children: list[list[int]] = [[] for _ in range(n + 1)]  # the base's last
    for j in sorted(range(n), key=lambda j: (dist[j], j)):
        children[parent[j]].append(j)
    order, stack = [], children[-1][::-1]
    while stack:
        j = stack.pop()
        order.append(j)
        stack.extend(reversed(children[j]))
    return order, [None if p < 0 else int(p) for p in parent]


def _plan(specs: list[ScenarioSpec], data: SystemData, config: ModelConfig, features: FeatureMatrix | None = None,
          constraint_blocks: dict[str, tuple[str, ...]] | None = None, fixed_capacities=None,
          warm: bool = True) -> _Sweep:
    """Build each country set once, expand each row once against it and
    apply each row's deltas once to a scratch copy of it. Country sets
    follow their first row; with ``warm``, a set of ``_WARM_MIN_ROWS`` or
    more rows runs as its :func:`_tree`, any other in table order. A row
    with an ``issue`` (it joins no set), or whose set does not build, whose
    overrides do not expand or whose deltas do not apply, keeps the message
    and is left out of the order; it is planned as the base if it does not
    expand, and its tree children start from the base."""
    groups: dict[tuple[str, ...] | None, list[int]] = {}
    for idx, spec in enumerate(specs):
        if not spec.issue:
            groups.setdefault(spec.country_set, []).append(idx)
    builds: dict[tuple[str, ...] | None, LinearProgram] = {}
    deltas: list[list[Delta] | str] = [spec.issue or [] for spec in specs]
    order: list[int] = []
    parents: list[int | None] = [None] * len(specs)
    warm_keys = set()
    for key, members in groups.items():
        try:
            lp = build_model(data, config, features, None if key is None else list(key))
            builds[key] = lp = apply_dispatch_only(lp, fixed_capacities) if fixed_capacities else lp
        except (ValidationError, KeyError, ValueError) as exc:
            for idx in members:
                deltas[idx] = str(exc)
            continue
        for idx in members:
            try:
                deltas[idx] = expand_overrides(specs[idx], lp, data, config, constraint_blocks)
            except (ValidationError, KeyError, ValueError) as exc:
                deltas[idx] = str(exc)
        if not warm or len(members) < _WARM_MIN_ROWS:
            order.extend(members)
            continue
        warm_keys.add(key)
        rows = [deltas[idx] if isinstance(deltas[idx], list) else [] for idx in members]
        tree_order, tree_parents = _tree(lp, rows)
        order.extend(members[j] for j in tree_order)
        for j, p in enumerate(tree_parents):
            parents[members[j]] = None if p is None else members[p]
    scratch = {key: ModelInstance(lp) for key, lp in builds.items()}
    for idx, row in enumerate(deltas):
        if isinstance(row, list):
            try:
                scratch[specs[idx].country_set].reset()
                scratch[specs[idx].country_set].apply(row)
            except (KeyError, ValueError) as exc:
                deltas[idx] = str(exc)
    order = [idx for idx in order if isinstance(deltas[idx], list)]
    parents = [None if p is None or isinstance(deltas[p], str) else p for p in parents]
    return _Sweep(specs, builds, deltas, order, parents, frozenset(warm_keys))


# A row's start when it runs in the process that ran its tree parent just
# before: the basis that row left there. A value, not an object, so it
# keeps its meaning once pickled.
_LEFT = "left"


class _Tasks:
    """Runs sweep tasks in one process: the calling one in ``rebuild`` and
    ``single_instance`` mode, each worker in ``parallel``.

    ``("base", key)`` solves warm country set ``key``'s build cold, the
    set's one base solve, on no instance, and returns ``("base", key,
    statuses)``: its :func:`~voltaic.solver.base_statuses` (None if there
    are none or the solve raised: the set's rows then run cold). ``("row",
    idx, start, base)`` solves row ``idx``, one the plan found can run, and
    finishes it: from the base basis (``start`` None), from shipped
    statuses, or from the basis the last row run here left (``_LEFT``).
    ``base`` is the set's base statuses, from which a process opens its
    handle (None: the row runs cold). It returns ``("row", idx, result,
    done, statuses)``: the result without its program, what ``finish``
    made of it and, only for a row with two or more tree children, the
    statuses of the basis it left; or ``("fail", idx, error, wall_time)``
    if solving or finishing the row raised: the exception's name and
    message, and the seconds the row ran for. Rows compile one
    instance per country set, which each row resets; a row that raised
    drops its set's instance, so the next row here opens a fresh one."""

    def __init__(self, sweep: _Sweep, finish=None):
        self.sweep, self.finish = sweep, finish
        self.instances: dict[tuple[str, ...] | None, ModelInstance] = {}
        self.left = None  # the basis the last row run here left

    def _instance(self, key) -> ModelInstance:
        if key not in self.instances:
            self.instances[key] = ModelInstance(self.sweep.builds[key])
        return self.instances[key]

    def __call__(self, task: tuple) -> tuple:
        sweep = self.sweep
        if task[0] == "base":
            try:
                statuses = base_statuses(sweep.builds[task[1]])
            except Exception:  # noqa: BLE001 - the set's rows run cold
                statuses = None
            return "base", task[1], statuses
        _, idx, start, base = task
        spec = sweep.specs[idx]
        key = spec.country_set
        started = time.perf_counter()
        try:
            inst = self._instance(key)
            warm = base is not None and inst.open(base) is not None
            start = self.left if start == _LEFT else start
            result, self.left = _run_on_instance(inst, spec, sweep.deltas[idx], warm, start)
            done = None if self.finish is None else self.finish(result)
        except Exception as exc:  # noqa: BLE001 - fails this row alone
            self.left = None
            self.instances.pop(key, None)
            return "fail", idx, f"{type(exc).__name__}: {exc}", time.perf_counter() - started
        result.lp = None
        branches = self.left is not None and len(sweep.children[idx]) > 1
        return "row", idx, result, done, basis_statuses(self.left) if branches else None


class _Ready(Queue):
    """A sweep's ready queue for the task engine, kept by the calling
    process in every mode, and each row's ``(result, done)`` as it comes
    back.

    Rows the plan found cannot run are finished first, here, as errors.
    Then warm country sets' bases go out, for sets with a row that can run,
    then rows, the longest chain below first (tree order among equals). A
    solved base makes its set's tree roots ready, to start from the base
    basis. A finished row's first tree child goes straight back to the
    process that ran the row, to start from the basis the row left there
    (``_LEFT``); its other children wait here with that basis's statuses.
    So every row starts from its tree parent's basis, whichever process
    runs it. A row that raised, or whose process died, is finished here as
    an error, and its children start from the base basis."""

    def __init__(self, sweep: _Sweep, finish=None):
        self.sweep, self.finish = sweep, finish
        self.heap: list[tuple] = []
        self.bases: dict = {}  # warm country set -> its base basis's statuses, None without a handle
        self.roots: dict = {}  # warm country set -> its tree roots, ready once its base is solved
        self.done: dict[int, tuple[RunResult, object]] = {}
        for idx, deltas in enumerate(sweep.deltas):
            if isinstance(deltas, str):
                self._fail(idx, deltas)
        for idx in sweep.order:
            if sweep.parents[idx] is None:
                if (key := sweep.specs[idx].country_set) in sweep.warm_keys:
                    self.roots.setdefault(key, []).append(idx)
                else:
                    self._queue([idx], None)
        for k, key in enumerate(self.roots):
            heapq.heappush(self.heap, ((0, k), ("base", key)))

    def _task(self, idx: int, start) -> tuple:
        return "row", idx, start, self.bases.get(self.sweep.specs[idx].country_set)

    def _queue(self, rows: list[int], start) -> None:
        for idx in rows:
            heapq.heappush(self.heap, ((1, self.sweep.rank[idx]), self._task(idx, start)))

    def __len__(self) -> int:
        return len(self.heap)

    def pop(self) -> tuple:
        return heapq.heappop(self.heap)[1]

    def receive(self, message: tuple) -> tuple | None:
        """Take what a process returned for its task; returns the task that
        process is to run next, if any."""
        if message[0] == "base":
            _, key, self.bases[key] = message
            self._queue(self.roots[key], None)
            return None
        if message[0] == "fail":
            self._fail(*message[1:])
            self._queue(self.sweep.children[message[1]], None)
            return None
        _, idx, result, done, statuses = message
        self.done[idx] = result, done
        first, *others = self.sweep.children[idx] or [None]
        self._queue(others, statuses)
        return None if first is None else self._task(first, _LEFT)

    def _fail(self, idx: int, error: str, wall_time: float = 0.0) -> None:
        """Row ``idx`` fails with ``error`` after ``wall_time`` seconds of
        trying, finished in this process: the one place a sweep makes an
        error result."""
        spec = self.sweep.specs[idx]
        result = RunResult(spec.run_id, None, _echo(spec), error=error, wall_time=wall_time)
        self.done[idx] = result, None if self.finish is None else self.finish(result)

    def retires(self, message: tuple) -> bool:
        """A process that solved a base retires once it has replied: no
        process that held a base's solve runs a row, and none keeps that
        solve's interior-point heap."""
        return message[0] == "base"

    def lost(self, task: tuple, exitcode) -> None:
        """The worker running ``task`` died: a base's set's roots are solved
        cold; a row fails, finished here so that its store is this sweep's,
        and its tree children start from the base basis."""
        if task[0] == "base":
            self.receive(("base", task[1], None))  # as a base without a handle
        else:
            self.receive(("fail", task[1], f"the worker process running this row died (exit code {exitcode})", 0.0))


def _program(sweep: _Sweep, idx: int) -> LinearProgram:
    """Row ``idx``'s program: its country set's build with its deltas
    applied, as the instance that solved the row held it."""
    inst = ModelInstance(sweep.builds[sweep.specs[idx].country_set])
    inst.apply(sweep.deltas[idx])
    return inst.lp


def run_scenarios(data: SystemData, config: ModelConfig, features: FeatureMatrix | None, specs: list[ScenarioSpec],
                  mode: str = "single_instance", threads: int = 0,
                  constraint_blocks: dict[str, tuple[str, ...]] | None = None,
                  fixed_capacities=None) -> list[RunResult]:
    """Execute all scenario rows and return results in spec order.

    This process plans the sweep (:func:`_plan`): one build per country
    set, and each row expanded once against it. Each mode compiles one
    instance per country set and resets it to the build, bitwise, before
    each row's deltas: ``rebuild`` solves every row cold;
    ``single_instance`` re-solves warm where it can; ``parallel`` does the
    same on forked workers, which only compile, apply and solve
    (``threads`` = 0 uses every core, and no more workers are forked than
    there are rows that can run). In the instance modes a country set with
    eight or more rows runs warm, from its one cold base solve, as its tree
    (:func:`_tree`) plans it; smaller sets solve as ``rebuild`` does. A
    row's start depends on the table alone (see :class:`_Ready`), so
    ``parallel`` returns bitwise what ``single_instance`` does, whatever
    ``threads`` is, and the three modes agree on every objective to the
    1e-6 certification. A result's ``lp`` is derived from the plan when
    first read. A row fails alone, as an ``error`` run, if it cannot run
    (see :func:`_plan`; no worker sees it), or if its solve or finish
    raises or its worker dies; its tree children then start from the base
    basis. A base solve that raises leaves its set's rows cold.
    """
    rows = _run_and_finish(data, config, features, specs, mode, threads, constraint_blocks, fixed_capacities)
    return [result for result, _ in rows]


def _run_and_finish(data: SystemData, config: ModelConfig, features: FeatureMatrix | None, specs: list[ScenarioSpec],
                    mode: str, threads: int, constraint_blocks: dict[str, tuple[str, ...]] | None = None,
                    fixed_capacities=None, finish=None) -> list[tuple[RunResult, object]]:
    """:func:`run_scenarios`, with each row's result paired with what
    ``finish(result)`` returned. ``finish`` runs once per row, in the
    process that solved the row and right after it: in a worker in
    ``parallel`` mode (so what it returns must pickle), in this process
    otherwise. A row that cannot run (see :func:`_plan`) is finished here,
    as an error, before any solve, and so is a row that raised or whose
    worker died. An error row's ``wall_time`` is the time it ran before it
    raised: 0 if it never ran or its worker died."""
    if not specs:
        raise ValidationError("run_scenarios: no scenario specs given")
    if mode not in MODES:
        raise ValidationError(f"run_scenarios: unknown mode {mode!r} (use one of {MODES})")
    if threads < 0:
        raise ValidationError(f"run_scenarios: threads must be 0 (all cores) or more, got {threads}")
    sweep = _plan(specs, data, config, features, constraint_blocks, fixed_capacities, mode != "rebuild")
    workers = min(threads or os.cpu_count() or 1, len(sweep.order)) if mode == "parallel" else 1
    ready, run = _Ready(sweep, finish), _Tasks(sweep, finish)
    if workers > 1:
        ready.serve_forked(run, workers)
        for idx in set(range(len(specs))) - set(ready.done):  # every worker died idle
            ready._fail(idx, "no worker process was left to run this row")
    else:
        ready.serve(run)
    for idx, (result, _) in ready.done.items():
        if result.error is None:
            result.lp = partial(_program, sweep, idx)
    return [ready.done[i] for i in range(len(specs))]
