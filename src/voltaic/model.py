"""Translate a :class:`SystemData` instance into a linear program.

The model minimizes total system cost over all consecutive hours of the
horizon: annualized investment and fixed costs of generation, storage and
transfer capacity (pro-rated to the horizon length) plus variable dispatch
costs. Decision variables and constraint rows are organized in *families*,
each a named block over a tuple of labeled dimensions; a family maps any
label combination to its column/row index arithmetically, which keeps the
registry small and lets coefficients be emitted as vectorized blocks.

Constraint families:

``BAL(n,h)``          hourly nodal energy balance (equality; dual = price)
``CAP_DISP(tech,n,h)`` dispatchable output capped by installed capacity
``CAP_RES(res,n,h)``  renewable output + curtailment = availability * capacity
``STO_BAL(sto,n,h)``  storage level recursion for h2..hH
``STO_CYCLE(sto,n)``  wrap-around level recursion linking h1 to hH
``STO_E_CAP``/``STO_P_IN_CAP``/``STO_P_OUT_CAP`` storage sizing limits
``FLOW_UP``/``FLOW_LO`` signed line flow bounded by transfer capacity
``RES_SHARE(n)``      minimum renewable generation share per node
``CO2_CAP(n)``        per-node emission cap, only where a cap is set
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .symbols import Layout
from .system import (
    FeatureMatrix,
    Line,
    ModelConfig,
    Node,
    StorageTech,
    SystemData,
    Technology,
    ValidationError,
    hour_label,
    validate_series,
)

SENSE_LE = "L"
SENSE_EQ = "E"
SENSE_GE = "G"

#: The vectors a scenario row may change; the senses and the matrix pattern
#: (``a_rows``, ``a_cols``) are fixed at build.
VECTORS = ("obj", "lo", "hi", "rhs", "a_vals")

#: Variable families holding capacity decisions; these are the columns fixed
#: in dispatch-only mode.
CAPACITY_FAMILIES = ("N", "N_STO_E", "N_STO_P", "NTC")


class CostTerm(NamedTuple):
    """How one variable family's objective coefficient follows from the data."""

    owner: str  # set whose records carry the cost; the family's first dimension
    params: tuple[tuple[str, str], ...]  # (override name, record attribute), summed in order
    annualized: bool  # scaled by the horizon share; otherwise charged per hour


_OWNER_RECORDS = {"tech": SystemData.technology, "sto": SystemData.storage, "l": SystemData.line}

#: The one cost rule: the base objective and every cost override read it.
COST_TERMS: dict[str, CostTerm] = {
    "N_STO_E": CostTerm("sto", (("c_i_sto_e", "c_i_sto_e"),), annualized=True),
    "N_STO_P": CostTerm("sto", (("c_i_sto_p", "c_i_sto_p"), ("c_fix_sto", "c_fix")), annualized=True),
    "STO_OUT": CostTerm("sto", (("c_var_sto", "c_var_sto"),), annualized=False),
    "N": CostTerm("tech", (("c_inv_power", "c_inv_power"), ("c_fix", "c_fix")), annualized=True),
    "G": CostTerm("tech", (("c_var", "c_var"),), annualized=False),
    "NTC": CostTerm("l", (("c_inv_ntc", "c_inv_ntc"),), annualized=True),
}


def cost_coefficient(
    data: SystemData,
    config: ModelConfig,
    family: str,
    element: str,
    node: str | None = None,
    overrides: Mapping[tuple[str, tuple[str, ...]], float] | None = None,
) -> float:
    """Objective coefficient of ``family``'s columns for one element at one node.

    ``overrides`` maps (parameter, key) to a scenario row's values, keyed
    by the parameter's domain: ``(node, element)``, or ``(line,)``. The
    parameters are summed in table order before scaling, so the result is
    bit-identical to the base build wherever nothing is overridden.
    """
    term = COST_TERMS[family]
    record = _OWNER_RECORDS[term.owner](data, element)
    key = (element,) if term.owner == "l" else (node, element)
    total = None
    for name, attr in term.params:
        value = getattr(record, attr)
        if overrides:
            value = overrides.get((name, key), value)
        total = value if total is None else total + value
    return config.horizon_share() * total if term.annualized else total


@dataclass(frozen=True)
class Family:
    """A named block of columns or rows over labeled dimensions."""

    name: str
    dims: tuple[str, ...]
    elements: tuple[tuple[str, ...], ...]
    start: int
    sense: str | None = None  # rows only
    _lookup: tuple[dict[str, int], ...] = field(repr=False, default=())
    shape: tuple[int, ...] = field(init=False, repr=False, compare=False)
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shape = tuple(len(e) for e in self.elements)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "size", math.prod(shape))

    # Shape and size are derived: a pickled program does not carry them.
    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k not in ("shape", "size")}

    def __setstate__(self, state):
        # Keys interned as pickle's default does, so a re-pickled program
        # shares them and keeps its size.
        self.__dict__.update((sys.intern(k), v) for k, v in state.items())
        self.__post_init__()

    def grid(self) -> np.ndarray:
        """All indices of the family as an array of its natural shape."""
        return np.arange(self.start, self.start + self.size).reshape(self.shape)

    def index(self, key: tuple[str, ...]) -> int:
        if len(key) != len(self.dims):
            raise KeyError(f"{self.name}: key {key} does not match dims {self.dims}")
        idx = 0
        for label, lookup, dim_size in zip(key, self._lookup, self.shape):
            try:
                pos = lookup[label]
            except KeyError:
                raise KeyError(f"{self.name}: unknown element {label!r} in {key}") from None
            idx = idx * dim_size + pos
        return self.start + idx

    def key_of(self, flat: int) -> tuple[str, ...]:
        offset = flat - self.start
        key = []
        for dim_size, labels in zip(reversed(self.shape), reversed(self.elements)):
            offset, pos = divmod(offset, dim_size)
            key.append(labels[pos])
        return tuple(reversed(key))

    def keys(self) -> Iterable[tuple[str, ...]]:
        """Every key in index order; ``()`` alone for a dimensionless family."""
        return product(*self.elements)

    def layout(self) -> Layout:
        """The family's keys in index order as label tables and codes.

        Built on first use and shared by every family over the same
        elements in the process, so each run's symbols reuse it; it is never
        part of a pickled program.
        """
        return _label_layout(self.elements)


@lru_cache(maxsize=256)
def _label_layout(elements: tuple[tuple[str, ...], ...]) -> Layout:
    per_dim = [Layout.encode([labels], len(labels)) for labels in elements]
    grids = np.meshgrid(*(d.codes[:, 0] for d in per_dim), indexing="ij")  # last dimension fastest
    codes = np.stack([g.reshape(-1) for g in grids], axis=1) if grids else np.zeros((1, 0), dtype=np.int64)
    return Layout([d.labels[0] for d in per_dim], codes)


def _make_family(name, dims, elements, start, sense=None) -> Family:
    lookup = tuple({label: i for i, label in enumerate(labels)} for labels in elements)
    return Family(name, tuple(dims), tuple(tuple(e) for e in elements), start, sense, lookup)


class LinearProgram:
    """A compiled optimization problem with a name/domain registry.

    Columns and rows live in :class:`Family` blocks; coefficients are stored
    as sparse (row, col, value) triplets, one per (row, col) cell: the
    solvers and the MPS writer reject a cell stored twice. A built
    program's arrays are never written in place: a program that differs in
    a vector (:data:`VECTORS`) holds its own copy of that vector and shares
    every other array with the program it was made from (:meth:`replace`),
    so a build is the one full copy of its program however many instances,
    snapshots and dispatch-only variants are made from it. What is derived
    from the arrays a build fixes (the senses and the matrix pattern), such
    as the solver's cell index, is kept in ``_derived``, which those
    programs share too.
    """

    def __init__(self):
        self.var_families: dict[str, Family] = {}
        self.row_families: dict[str, Family] = {}
        self.n_cols = 0
        self.n_rows = 0
        self.obj = np.zeros(0)
        self.lo = np.zeros(0)
        self.hi = np.zeros(0)
        self.rhs = np.zeros(0)
        self.sense = np.zeros(0, dtype="<U1")
        self.a_rows = np.zeros(0, dtype=np.int32)
        self.a_cols = np.zeros(0, dtype=np.int32)
        self.a_vals = np.zeros(0)
        self._col_starts: list[tuple[int, str]] = []
        self._row_starts: list[tuple[int, str]] = []
        self.sets: dict[str, tuple[str, ...]] = {}
        self._derived: dict = {}

    # -- registry ---------------------------------------------------------

    def col_index(self, name: str, key: tuple[str, ...] = ()) -> int:
        fam = self.var_families.get(name)
        if fam is None:
            raise KeyError(f"unknown variable {name!r}")
        return fam.index(key)

    def row_index(self, name: str, key: tuple[str, ...] = ()) -> int:
        fam = self.row_families.get(name)
        if fam is None:
            raise KeyError(f"unknown constraint {name!r}")
        return fam.index(key)

    def col_label(self, j: int) -> str:
        name = self._locate(self._col_starts, j)
        fam = self.var_families[name]
        key = fam.key_of(j)
        return f"{name}({','.join(key)})" if key else name

    def row_label(self, i: int) -> str:
        name = self._locate(self._row_starts, i)
        fam = self.row_families[name]
        key = fam.key_of(i)
        return f"{name}({','.join(key)})" if key else name

    @staticmethod
    def _locate(starts: list[tuple[int, str]], idx: int) -> str:
        pos = bisect.bisect_right(starts, (idx, "￿")) - 1
        return starts[pos][1]

    # -- lifecycle --------------------------------------------------------

    def __getstate__(self):
        # What is derived is made again on first use, like Family.layout().
        return {**self.__dict__, "_derived": {}}

    def replace(self, **vectors: np.ndarray) -> "LinearProgram":
        """This program with the given vectors in place of its own; it shares
        every other array, and the registry, with this one."""
        dup = object.__new__(LinearProgram)
        dup.__dict__ = {**self.__dict__, **vectors}
        return dup

    def copy(self) -> "LinearProgram":
        """A program with its own copy of every vector (:data:`VECTORS`) and
        its own ``_derived`` store, so its pattern may be changed."""
        return self.replace(_derived={}, **{name: getattr(self, name).copy() for name in VECTORS})

    def validate(self) -> None:
        """Raise if the compiled program violates its structural invariants."""
        if self.a_rows.size:
            if self.a_rows.min() < 0 or self.a_rows.max() >= self.n_rows:
                raise ValueError("coefficient references a row outside the registry")
            if self.a_cols.min() < 0 or self.a_cols.max() >= self.n_cols:
                raise ValueError("coefficient references a column outside the registry")
        bad = np.nonzero(self.lo > self.hi)[0]
        if bad.size:
            raise ValueError(f"bounds lo > hi on column {self.col_label(int(bad[0]))}")
        # Compared one sense at a time: ``np.unique`` imports ``numpy.ma``.
        if ((self.sense != SENSE_LE) & (self.sense != SENSE_EQ) & (self.sense != SENSE_GE)).any():
            raise ValueError("invalid row sense")


@dataclass
class _Build:
    """Mutable assembly state threaded through the emit_* stages."""

    data: SystemData
    config: ModelConfig
    nodes: list[Node]
    techs: list[Technology]
    lines: list[Line]
    hours: list[str]
    lp: LinearProgram
    demand: np.ndarray | None = None  # (n_nodes, H)
    tri_rows: list[np.ndarray] = field(default_factory=list)
    tri_cols: list[np.ndarray] = field(default_factory=list)
    tri_vals: list[np.ndarray] = field(default_factory=list)
    col_lo: list[np.ndarray] = field(default_factory=list)
    col_hi: list[np.ndarray] = field(default_factory=list)
    row_rhs: list[np.ndarray] = field(default_factory=list)
    row_sense: list[np.ndarray] = field(default_factory=list)

    @property
    def disp(self) -> list[Technology]:
        return [t for t in self.techs if not t.is_renewable]

    @property
    def res(self) -> list[Technology]:
        return [t for t in self.techs if t.is_renewable]

    @property
    def storages(self) -> list[StorageTech]:
        return list(self.data.storages)

    @property
    def H(self) -> int:
        return self.config.end_hour

    @staticmethod
    def _spread(value, size: int) -> np.ndarray:
        arr = np.asarray(value, dtype=float)
        if arr.ndim == 0:
            return np.full(size, float(arr))
        arr = arr.ravel()
        if arr.size != size:
            raise ValueError(f"value block has {arr.size} entries, family needs {size}")
        return arr

    def add_vars(self, name, dims, elements, lo=0.0, hi=math.inf) -> Family | None:
        if any(len(e) == 0 for e in elements):
            return None
        fam = _make_family(name, dims, elements, self.lp.n_cols)
        self.lp.var_families[name] = fam
        self.lp._col_starts.append((fam.start, name))
        self.lp.n_cols += fam.size
        self.col_lo.append(self._spread(lo, fam.size))
        self.col_hi.append(self._spread(hi, fam.size))
        return fam

    def add_rows(self, name, dims, elements, sense, rhs=0.0) -> Family | None:
        if any(len(e) == 0 for e in elements):
            return None
        fam = _make_family(name, dims, elements, self.lp.n_rows, sense)
        self.lp.row_families[name] = fam
        self.lp._row_starts.append((fam.start, name))
        self.lp.n_rows += fam.size
        self.row_rhs.append(self._spread(rhs, fam.size))
        self.row_sense.append(np.full(fam.size, sense, dtype="<U1"))
        return fam

    def add_entries(self, rows: np.ndarray, cols: np.ndarray, vals) -> None:
        rows = np.asarray(rows, dtype=np.int32).ravel()
        cols = np.asarray(cols, dtype=np.int32).ravel()
        vals = self._spread(vals, rows.size)
        if rows.size:
            self.tri_rows.append(rows)
            self.tri_cols.append(cols)
            self.tri_vals.append(vals)

    def series_matrix(self, names: list[str]) -> np.ndarray:
        """Stack the first H values of the named series into a (len, H) array."""
        return np.array([self.data.series[n].values[: self.H] for n in names], dtype=float)


def build_model(
    data: SystemData,
    config: ModelConfig,
    features: FeatureMatrix | None = None,
    country_set: list[str] | None = None,
) -> LinearProgram:
    """Compile the dispatch-and-investment LP for the selected countries.

    ``country_set`` restricts the model to a subset of nodes (``None`` keeps
    all of them); lines are included only when both endpoints are selected.
    Raises :class:`ValidationError` for an unknown country, a selected
    node's series that breaks a rule of :func:`validate_series`, or any
    active optional-feature flag.
    """
    issues: list[str] = []
    known = {n.id for n in data.nodes}
    if country_set is not None:
        if not country_set:
            issues.append("country_set: names no node")
        for node_id in country_set:
            if node_id not in known:
                issues.append(f"country_set: unknown node {node_id!r}")
    selected = set(country_set) if country_set is not None else known

    H = config.end_hour
    issues.extend(validate_series(data, selected, H))
    if features is not None:
        for module, node_id in features.active():
            issues.append(f"feature {module!r} active for node {node_id!r}: not supported")
    if issues:
        raise ValidationError(issues)

    nodes = [n for n in data.nodes if n.id in selected]
    lines = [
        l
        for l in data.lines
        if config.network_transfer and l.from_node in selected and l.to_node in selected
    ]
    build = _Build(
        data=data,
        config=config,
        nodes=nodes,
        techs=list(data.technologies),
        lines=lines,
        hours=[hour_label(h) for h in range(1, H + 1)],
        lp=LinearProgram(),
    )
    build.demand = build.series_matrix([n.demand for n in nodes])

    _declare_variables(build)
    emit_energy_balance(build)
    emit_capacity_limits(build)
    emit_storage_dynamics(build)
    if build.lines:
        _emit_flow_limits(build)
    emit_policy_constraints(build)
    _finalize(build)
    assemble_objective(build.lp, data, config)

    lp = build.lp
    lp.sets = {
        "n": tuple(n.id for n in nodes),
        "tech": tuple(t.id for t in build.techs),
        "disp": tuple(t.id for t in build.disp),
        "res": tuple(t.id for t in build.res),
        "sto": tuple(s.id for s in build.storages),
        "l": tuple(l.id for l in lines),
        "h": tuple(build.hours),
    }
    lp.validate()
    return lp


def _declare_variables(b: _Build) -> None:
    node_ids = [n.id for n in b.nodes]
    tech_ids = [t.id for t in b.techs]
    res_ids = [t.id for t in b.res]
    sto_ids = [s.id for s in b.storages]
    line_ids = [l.id for l in b.lines]

    b.add_vars("G", ("tech", "n", "h"), (tech_ids, node_ids, b.hours))
    b.add_vars("CU", ("res", "n", "h"), (res_ids, node_ids, b.hours))
    b.add_vars(
        "N",
        ("tech", "n"),
        (tech_ids, node_ids),
        lo=np.array([[t.cap_min] * len(node_ids) for t in b.techs]),
        hi=np.array([[t.cap_max] * len(node_ids) for t in b.techs]),
    )
    b.add_vars("STO_IN", ("sto", "n", "h"), (sto_ids, node_ids, b.hours))
    b.add_vars("STO_OUT", ("sto", "n", "h"), (sto_ids, node_ids, b.hours))
    b.add_vars("STO_L", ("sto", "n", "h"), (sto_ids, node_ids, b.hours))
    b.add_vars(
        "N_STO_E",
        ("sto", "n"),
        (sto_ids, node_ids),
        lo=np.array([[s.e_min] * len(node_ids) for s in b.storages]),
        hi=np.array([[s.e_max] * len(node_ids) for s in b.storages]),
    )
    b.add_vars(
        "N_STO_P",
        ("sto", "n"),
        (sto_ids, node_ids),
        lo=np.array([[s.p_min] * len(node_ids) for s in b.storages]),
        hi=np.array([[s.p_max] * len(node_ids) for s in b.storages]),
    )
    if b.lines:
        b.add_vars("F", ("l", "h"), (line_ids, b.hours), lo=-math.inf, hi=math.inf)
        b.add_vars(
            "NTC",
            ("l",),
            (line_ids,),
            lo=np.array([l.ntc_existing for l in b.lines]),
            hi=np.array([l.ntc_max for l in b.lines]),
        )
    if b.config.infeasibility:
        b.add_vars("SLACK", ("n", "h"), (node_ids, b.hours))


def emit_energy_balance(b: _Build) -> None:
    """BAL(n,h): generation + storage out - storage in + net imports + slack = demand."""
    bal = b.add_rows("BAL", ("n", "h"), ([n.id for n in b.nodes], b.hours), SENSE_EQ, rhs=b.demand)
    lp = b.lp
    g = lp.var_families["G"].grid()
    for t_i in range(len(b.techs)):
        b.add_entries(bal.grid(), g[t_i], 1.0)
    if b.storages:
        sto_in = lp.var_families["STO_IN"].grid()
        sto_out = lp.var_families["STO_OUT"].grid()
        for s_i in range(len(b.storages)):
            b.add_entries(bal.grid(), sto_out[s_i], 1.0)
            b.add_entries(bal.grid(), sto_in[s_i], -1.0)
    if b.lines:
        flow = lp.var_families["F"].grid()
        node_pos = {n.id: i for i, n in enumerate(b.nodes)}
        for l_i, line in enumerate(b.lines):
            # Exports leave at full value; imports arrive net of losses.
            b.add_entries(bal.grid()[node_pos[line.from_node]], flow[l_i], -1.0)
            b.add_entries(bal.grid()[node_pos[line.to_node]], flow[l_i], 1.0 - line.loss_factor)
    if b.config.infeasibility:
        slack = lp.var_families["SLACK"].grid()
        b.add_entries(bal.grid(), slack, 1.0)


def emit_capacity_limits(b: _Build) -> None:
    """Hourly output limits: G <= N for dispatchables, G + CU = phi*N for renewables."""
    lp = b.lp
    node_ids = [n.id for n in b.nodes]
    g = lp.var_families["G"].grid()
    n_grid = lp.var_families["N"].grid()
    tech_pos = {t.id: i for i, t in enumerate(b.techs)}

    disp_ids = [t.id for t in b.disp]
    cap_disp = b.add_rows("CAP_DISP", ("tech", "n", "h"), (disp_ids, node_ids, b.hours), SENSE_LE)
    if cap_disp is not None:
        for d_i, tech in enumerate(b.disp):
            t_i = tech_pos[tech.id]
            rows = cap_disp.grid()[d_i]
            b.add_entries(rows, g[t_i], 1.0)
            b.add_entries(rows, np.broadcast_to(n_grid[t_i][:, None], rows.shape), -1.0)

    res_ids = [t.id for t in b.res]
    cap_res = b.add_rows("CAP_RES", ("res", "n", "h"), (res_ids, node_ids, b.hours), SENSE_EQ)
    if cap_res is not None:
        cu = lp.var_families["CU"].grid()
        for r_i, tech in enumerate(b.res):
            phi = b.series_matrix([tech.availability[n] for n in node_ids])
            t_i = tech_pos[tech.id]
            rows = cap_res.grid()[r_i]
            b.add_entries(rows, g[t_i], 1.0)
            b.add_entries(rows, cu[r_i], 1.0)
            b.add_entries(rows, np.broadcast_to(n_grid[t_i][:, None], rows.shape), -phi)


def emit_storage_dynamics(b: _Build) -> None:
    """Level recursion with charge/discharge losses, sizing caps, cyclic closure.

    The first hour links back to the last so that no free energy enters or
    leaves over the horizon: L(h1) = L(hH) + eta_in*IN(h1) - OUT(h1)/eta_out.
    """
    if not b.storages:
        return
    lp = b.lp
    node_ids = [n.id for n in b.nodes]
    sto_ids = [s.id for s in b.storages]
    sto_in = lp.var_families["STO_IN"].grid()
    sto_out = lp.var_families["STO_OUT"].grid()
    sto_l = lp.var_families["STO_L"].grid()
    e_cap = lp.var_families["N_STO_E"].grid()
    p_cap = lp.var_families["N_STO_P"].grid()

    if b.H > 1:
        bal = b.add_rows("STO_BAL", ("sto", "n", "h"), (sto_ids, node_ids, b.hours[1:]), SENSE_EQ)
    else:
        bal = None
    cyc = b.add_rows("STO_CYCLE", ("sto", "n"), (sto_ids, node_ids), SENSE_EQ)
    for s_i, sto in enumerate(b.storages):
        if bal is not None:
            rows = bal.grid()[s_i]
            b.add_entries(rows, sto_l[s_i][:, 1:], 1.0)
            b.add_entries(rows, sto_l[s_i][:, :-1], -1.0)
            b.add_entries(rows, sto_in[s_i][:, 1:], -sto.eta_in)
            b.add_entries(rows, sto_out[s_i][:, 1:], 1.0 / sto.eta_out)
        # A 1-hour horizon collapses the cycle row to charge == discharge:
        # the two level terms cancel, leaving only the flow terms.
        rows = cyc.grid()[s_i]
        if b.H > 1:
            b.add_entries(rows, sto_l[s_i][:, 0], 1.0)
            b.add_entries(rows, sto_l[s_i][:, -1], -1.0)
        b.add_entries(rows, sto_in[s_i][:, 0], -sto.eta_in)
        b.add_entries(rows, sto_out[s_i][:, 0], 1.0 / sto.eta_out)

    e_rows = b.add_rows("STO_E_CAP", ("sto", "n", "h"), (sto_ids, node_ids, b.hours), SENSE_LE)
    in_rows = b.add_rows("STO_P_IN_CAP", ("sto", "n", "h"), (sto_ids, node_ids, b.hours), SENSE_LE)
    out_rows = b.add_rows("STO_P_OUT_CAP", ("sto", "n", "h"), (sto_ids, node_ids, b.hours), SENSE_LE)
    H = b.H
    for s_i in range(len(b.storages)):
        b.add_entries(e_rows.grid()[s_i], sto_l[s_i], 1.0)
        b.add_entries(e_rows.grid()[s_i], np.broadcast_to(e_cap[s_i][:, None], (len(node_ids), H)), -1.0)
        b.add_entries(in_rows.grid()[s_i], sto_in[s_i], 1.0)
        b.add_entries(in_rows.grid()[s_i], np.broadcast_to(p_cap[s_i][:, None], (len(node_ids), H)), -1.0)
        b.add_entries(out_rows.grid()[s_i], sto_out[s_i], 1.0)
        b.add_entries(out_rows.grid()[s_i], np.broadcast_to(p_cap[s_i][:, None], (len(node_ids), H)), -1.0)


def _emit_flow_limits(b: _Build) -> None:
    lp = b.lp
    flow = lp.var_families["F"].grid()
    ntc = lp.var_families["NTC"].grid()
    line_ids = [l.id for l in b.lines]
    up = b.add_rows("FLOW_UP", ("l", "h"), (line_ids, b.hours), SENSE_LE)
    lo = b.add_rows("FLOW_LO", ("l", "h"), (line_ids, b.hours), SENSE_LE)
    for l_i in range(len(b.lines)):
        b.add_entries(up.grid()[l_i], flow[l_i], 1.0)
        b.add_entries(up.grid()[l_i], np.broadcast_to(ntc[l_i], (b.H,)), -1.0)
        b.add_entries(lo.grid()[l_i], flow[l_i], -1.0)
        b.add_entries(lo.grid()[l_i], np.broadcast_to(ntc[l_i], (b.H,)), -1.0)


def share_rhs(share: float, demand) -> float:
    """A ``RES_SHARE`` row's rhs: ``share`` times the node's demand series
    summed by numpy, so a build and an override of either agree bitwise."""
    return share * float(np.sum(demand, dtype=float))


def emit_policy_constraints(b: _Build) -> None:
    """Per-node renewable share floors and emission caps.

    The share row counts gross renewable generation (after curtailment)
    against gross demand; nodes with a zero share get no row at all. A
    system without renewables still gets its share rows, with no entries,
    so a positive share makes the run infeasible rather than vanish.
    """
    lp = b.lp
    g = lp.var_families["G"].grid()
    tech_pos = {t.id: i for i, t in enumerate(b.techs)}
    node_pos = {n.id: i for i, n in enumerate(b.nodes)}

    share_nodes = [n for n in b.nodes if n.min_renewable_share > 0.0]
    if share_nodes:
        rhs = np.array([share_rhs(n.min_renewable_share, b.demand[node_pos[n.id]]) for n in share_nodes])
        fam = b.add_rows("RES_SHARE", ("n",), ([n.id for n in share_nodes],), SENSE_GE, rhs=rhs)
        for i, node in enumerate(share_nodes):
            row = fam.start + i
            for tech in b.res:
                cols = g[tech_pos[tech.id], node_pos[node.id]]
                b.add_entries(np.full(cols.shape, row), cols, 1.0)

    cap_nodes = [n for n in b.nodes if n.co2_cap is not None]
    if cap_nodes:
        fam = b.add_rows(
            "CO2_CAP",
            ("n",),
            ([n.id for n in cap_nodes],),
            SENSE_LE,
            rhs=np.array([n.co2_cap for n in cap_nodes]),
        )
        for i, node in enumerate(cap_nodes):
            row = fam.start + i
            for tech in b.techs:
                if tech.co2_intensity == 0.0:
                    continue
                cols = g[tech_pos[tech.id], node_pos[node.id]]
                b.add_entries(np.full(cols.shape, row), cols, tech.co2_intensity)


def _finalize(b: _Build) -> None:
    lp = b.lp
    lp.lo = np.concatenate(b.col_lo) if b.col_lo else np.zeros(0)
    lp.hi = np.concatenate(b.col_hi) if b.col_hi else np.zeros(0)
    lp.rhs = np.concatenate(b.row_rhs) if b.row_rhs else np.zeros(0)
    lp.sense = np.concatenate(b.row_sense) if b.row_sense else np.zeros(0, dtype="<U1")
    # Row and column indices are int32, as HiGHS's are; cell ids made from
    # them (row * n_cols + col) are computed in int64 where they are used.
    lp.a_rows = np.concatenate(b.tri_rows) if b.tri_rows else np.zeros(0, dtype=np.int32)
    lp.a_cols = np.concatenate(b.tri_cols) if b.tri_cols else np.zeros(0, dtype=np.int32)
    lp.a_vals = np.concatenate(b.tri_vals) if b.tri_vals else np.zeros(0)
    lp._col_starts.sort()
    lp._row_starts.sort()
    lp.obj = np.zeros(lp.n_cols)


def assemble_objective(lp: LinearProgram, data: SystemData, config: ModelConfig) -> np.ndarray:
    """Fill the cost vector from :data:`COST_TERMS`; slack is priced by the config.

    Variable costs apply per hour as-is; investment and fixed costs are
    multiplied by end_hour/8760 so that partial horizons still trade off
    building against dispatching consistently.
    """
    obj = np.zeros(lp.n_cols)
    for family in COST_TERMS:
        fam = lp.var_families.get(family)
        if fam is None:
            continue
        grid = fam.grid()
        for i, element in enumerate(fam.elements[0]):
            obj[grid[i]] = cost_coefficient(data, config, family, element)
    fam = lp.var_families.get("SLACK")
    if fam is not None:
        obj[fam.start : fam.start + fam.size] = config.slack_penalty

    lp.obj = obj
    return obj


def apply_dispatch_only(
    lp: LinearProgram, fixed_capacities: Mapping[tuple[str, tuple[str, ...]], float]
) -> LinearProgram:
    """Fix every capacity column to the given MW value (by bounds).

    Objective coefficients stay in place so the reported total cost still
    includes the fixed-cost block. Raises :class:`ValidationError` when any
    capacity column has no value in ``fixed_capacities``.
    """
    fixed = lp.replace(lo=lp.lo.copy(), hi=lp.hi.copy())
    missing: list[str] = []
    for fam_name in CAPACITY_FAMILIES:
        fam = lp.var_families.get(fam_name)
        if fam is None:
            continue
        for key in fam.keys():
            value = fixed_capacities.get((fam_name, key))
            if value is None:
                missing.append(f"{fam_name}({','.join(key)})")
                continue
            j = fam.index(key)
            fixed.lo[j] = value
            fixed.hi[j] = value
    if missing:
        raise ValidationError([f"dispatch_only: no fixed capacity for {m}" for m in missing])
    fixed.validate()
    return fixed


def count_columns(
    n_nodes: int,
    n_tech: int,
    n_res: int,
    n_sto: int,
    n_lines: int,
    H: int,
    infeasibility: bool = False,
) -> int:
    """Closed-form column count of :func:`build_model` (see README)."""
    cols = H * n_nodes * (n_tech + n_res + 3 * n_sto) + n_nodes * (n_tech + 2 * n_sto)
    cols += n_lines * (H + 1)
    if infeasibility:
        cols += n_nodes * H
    return cols


def count_rows(
    n_nodes: int,
    n_disp: int,
    n_res: int,
    n_sto: int,
    n_lines: int,
    H: int,
    n_share_nodes: int,
    n_co2_nodes: int,
) -> int:
    """Closed-form row count of :func:`build_model` (see README)."""
    rows = H * n_nodes * (1 + n_disp + n_res + 4 * n_sto)
    rows += 2 * n_lines * H
    rows += n_share_nodes + n_co2_nodes
    return rows
