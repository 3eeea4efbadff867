"""Dimension-labeled result arrays and arithmetic between them.

A :class:`Symbol` is a named sparse array over labeled dimensions (for
example ``G`` over ``(tech, n, h, run)``). It is held as columns: a
:class:`Layout` (one sorted label table per dimension and an integer code
array of shape (records, dims)) and a ``float64`` value array, in record
order. ``Symbol.records`` is a read-only dict view of the same data, built
on first access; extraction, the store writers and readers,
:meth:`SymbolsHandler.lookup`, :func:`aggregate` and the report's hourly
grouping work on the columns and never build it.

Binary operations broadcast the operand with fewer dimensions over the
richer one and take care of key alignment:

* ``+`` and ``-`` keep keys present in only one operand (union semantics,
  signed for ``-``), so totals are preserved;
* ``*`` and ``/`` keep only keys present in both operands (intersection),
  so no values are invented; division by zero drops the key and counts a
  warning instead of propagating infinities.
"""

from __future__ import annotations

import logging
import math
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

log = logging.getLogger(__name__)

T = TypeVar("T")

LEVEL = "level"
MARGINAL = "marginal"
PARAMETER = "parameter"

_OPS: dict[str, Callable[[float, float], float]] = {
    "+": lambda x, y: x + y,
    "-": lambda x, y: x - y,
    "*": lambda x, y: x * y,
    "/": lambda x, y: x / y,
}


class DimensionMismatch(ValueError):
    pass


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class Layout:
    """The keys of a symbol's records as label tables and integer codes.

    ``labels[d]`` holds the distinct labels used along dimension ``d``, in
    sorted order; ``codes[i, d]`` is the position of record ``i``'s label in
    it. The sorted-key order and the derived views the store writers ask
    for (:meth:`view`) are computed on first use and kept, so every symbol
    sharing a layout (each run's copy of one model family) shares that work.
    Treated as immutable.
    """

    __slots__ = ("labels", "codes", "_order", "_views")

    def __init__(self, labels: Sequence[np.ndarray], codes: np.ndarray):
        self.labels = tuple(map(_frozen, labels))
        self.codes = _frozen(codes)
        self._order: np.ndarray | None = None
        self._views: dict = {}

    def __reduce__(self):
        # The order and the views are caches, rebuilt on first use.
        return Layout, (self.labels, self.codes)

    @classmethod
    def encode(cls, columns: Sequence[Sequence[str]], size: int) -> "Layout":
        """The layout of ``size`` records whose labels along each dimension
        are given as one column per dimension."""
        labels, codes = [], np.empty((size, len(columns)), dtype=np.int64)
        for d, column in enumerate(columns):
            table = sorted(set(column))
            position = {label: i for i, label in enumerate(table)}
            codes[:, d] = np.fromiter(map(position.__getitem__, column), np.int64, count=size)
            labels.append(_frozen(np.array(table, dtype=str)))
        return cls(labels, codes)

    def first_duplicate(self) -> int | None:
        """The record index of a repeated key, None if all keys differ."""
        order = self.order
        if len(order) < 2:
            return None
        ordered = self.codes[order]
        same = (ordered[1:] == ordered[:-1]).all(axis=1)
        return int(order[1:][same][0]) if same.any() else None

    @property
    def order(self) -> np.ndarray:
        """Record indices in sorted-key order."""
        if self._order is None:
            codes = self.codes
            if codes.shape[1] == 0:
                order = np.arange(len(codes))
            else:
                order = np.lexsort(codes.T[::-1])
            self._order = _frozen(order)
        return self._order

    def group_by(self, dims: Sequence[int], rows: np.ndarray | None = None) -> tuple["Layout", np.ndarray]:
        """Group the records (those ``rows`` selects, if given) by their
        labels along ``dims``: the layout of the distinct label combinations
        in order of first appearance, and the group of every record. The
        label tables are this layout's, whole, even where ``rows`` leaves
        some labels unused."""
        codes = self.codes[:, list(dims)] if rows is None else self.codes[rows][:, list(dims)]
        labels = [self.labels[d] for d in dims]
        if not len(codes):
            return Layout(labels, codes), np.zeros(0, dtype=np.intp)
        if math.prod(map(len, labels)) < 2**63:
            # One integer per combination, ordered as the combinations are.
            key = np.zeros(len(codes), dtype=np.int64)
            for d, table in enumerate(labels):
                key = key * len(table) + codes[:, d]
            _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        else:
            _, first, inverse = np.unique(codes, axis=0, return_index=True, return_inverse=True)
        rank = np.argsort(first)
        group = np.empty_like(rank)
        group[rank] = np.arange(len(rank))
        return Layout(labels, codes[first[rank]]), group[inverse.reshape(-1)]

    def columns(self, rows: np.ndarray | None = None) -> list[list[str]]:
        """The label of every record (of ``rows``, if given) along each
        dimension, as one list per dimension."""
        codes = self.codes if rows is None else self.codes[rows]
        return [
            list(map(table.tolist().__getitem__, codes[:, d].tolist()))
            for d, table in enumerate(self.labels)
        ]

    def view(self, build: Callable[["Layout"], T]) -> T:
        """``build(self)``, computed on first use and kept with the layout."""
        if build not in self._views:
            self._views[build] = build(self)
        return self._views[build]


class Symbol:
    """A named, dimension-labeled map of records. Immutable.

    ``Symbol(name, kind, dims, records)`` builds the columns from a dict of
    ``{key tuple: value}``; :meth:`from_columns` takes a layout and values
    directly. Either way, key arity and value finiteness are checked once,
    at construction.
    """

    __slots__ = ("name", "value_kind", "dims", "unit", "warning_count", "layout", "values", "_records")

    def __init__(
        self,
        name: str,
        value_kind: str,
        dims: Iterable[str],
        records: Mapping[tuple[str, ...], float],
        unit: str = "",
        warning_count: int = 0,
    ):
        dims = tuple(dims)
        keys = list(records)
        arities = set(map(len, keys))
        if arities - {len(dims)}:
            key = next(k for k in keys if len(k) != len(dims))
            raise ValueError(f"symbol {name}: key {key} has arity {len(key)}, dims are {dims}")
        columns = list(zip(*keys)) if dims and keys else [()] * len(dims)
        layout = Layout.encode(columns, len(keys))
        values = np.fromiter(records.values(), float, count=len(keys))
        self._init(name, value_kind, dims, layout, values, unit, warning_count)
        self._check()

    @classmethod
    def from_columns(
        cls,
        name: str,
        value_kind: str,
        dims: Iterable[str],
        layout: Layout,
        values: np.ndarray,
        unit: str = "",
        warning_count: int = 0,
    ) -> "Symbol":
        """A symbol over ``layout``'s keys; ``values`` is taken, not copied."""
        sym = cls._make(name, value_kind, tuple(dims), layout, values, unit, warning_count)
        sym._check()
        return sym

    @classmethod
    def _make(cls, name, value_kind, dims, layout, values, unit="", warning_count=0) -> "Symbol":
        sym = object.__new__(cls)
        sym._init(name, value_kind, dims, layout, values, unit, warning_count)
        return sym

    def _init(self, name, value_kind, dims, layout, values, unit, warning_count) -> None:
        for attr, value in (
            ("name", name),
            ("value_kind", value_kind),
            ("dims", dims),
            ("unit", unit),
            ("warning_count", warning_count),
            ("layout", layout),
            ("values", _frozen(np.asarray(values, dtype=float))),
            ("_records", None),
        ):
            object.__setattr__(self, attr, value)

    def _check(self) -> None:
        codes, values = self.layout.codes, self.values
        if codes.shape != (len(values), len(self.dims)):
            raise ValueError(
                f"symbol {self.name}: keys of arity {codes.shape[1]} for {len(values)} values, "
                f"dims are {self.dims}"
            )
        finite = np.isfinite(values)
        if not finite.all():
            bad = int(np.flatnonzero(~finite)[0])
            key = tuple(column[0] for column in self.layout.columns(np.array([bad])))
            raise ValueError(f"symbol {self.name}: non-finite value at {key}")

    def __setattr__(self, name, value):
        raise AttributeError(f"symbol {self.name} is immutable")

    def __reduce__(self):
        return Symbol._make, (
            self.name, self.value_kind, self.dims, self.layout, self.values, self.unit, self.warning_count
        )

    @property
    def records(self) -> Mapping[tuple[str, ...], float]:
        """Read-only ``{key: value}`` view in record order, built once."""
        if self._records is None:
            keys = zip(*self.layout.columns()) if self.dims else [()] * len(self.values)
            object.__setattr__(self, "_records", MappingProxyType(dict(zip(keys, self.values.tolist()))))
        return self._records

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Symbol):
            return NotImplemented
        return (self.name, self.value_kind, self.dims, self.unit, self.warning_count) == (
            other.name,
            other.value_kind,
            other.dims,
            other.unit,
            other.warning_count,
        ) and self.records == other.records

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"Symbol(name={self.name!r}, value_kind={self.value_kind!r}, dims={self.dims!r}, "
            f"records={len(self)}, unit={self.unit!r})"
        )

    def value(self, *key: str) -> float:
        return self.records[tuple(key)]

    def elements(self, dim: str) -> list[str]:
        """Sorted distinct labels appearing along one dimension."""
        return self.layout.labels[self.dims.index(dim)].tolist()

    def rename(self, name: str) -> "Symbol":
        return Symbol._make(
            name, self.value_kind, self.dims, self.layout, self.values, self.unit, self.warning_count
        )

    # Arithmetic sugar; scalars are wrapped as dimensionless symbols.
    def __add__(self, other):
        return binop(self, other, "+")

    def __radd__(self, other):
        return binop(_wrap(other), self, "+")

    def __sub__(self, other):
        return binop(self, other, "-")

    def __rsub__(self, other):
        return binop(_wrap(other), self, "-")

    def __mul__(self, other):
        return binop(self, other, "*")

    def __rmul__(self, other):
        return binop(_wrap(other), self, "*")

    def __truediv__(self, other):
        return binop(self, other, "/")

    def __rtruediv__(self, other):
        return binop(_wrap(other), self, "/")


def _wrap(value) -> Symbol:
    if isinstance(value, Symbol):
        return value
    return Symbol("scalar", PARAMETER, (), {(): float(value)})


def binop(a, b, op: str) -> Symbol:
    """Combine two symbols; the smaller-dimensioned operand broadcasts.

    One operand's dimensions must be a subset of the other's; anything else
    is a :class:`DimensionMismatch`. See the module docstring for the key
    alignment rules.
    """
    if op not in _OPS:
        raise ValueError(f"unknown operator {op!r}")
    a = _wrap(a)
    b = _wrap(b)
    set_a, set_b = set(a.dims), set(b.dims)
    if set_a <= set_b:
        large, small, small_is_a = b, a, True
    elif set_b <= set_a:
        large, small, small_is_a = a, b, False
    else:
        raise DimensionMismatch(
            f"dimensions {a.dims} and {b.dims} are neither subset nor superset"
        )
    if set_a == set_b:
        large, small, small_is_a = a, b, False  # left operand fixes the order

    positions = [large.dims.index(d) for d in small.dims]

    def project(key: tuple[str, ...]) -> tuple[str, ...]:
        return tuple(key[p] for p in positions)

    fn = _OPS[op]
    records: dict[tuple[str, ...], float] = {}
    warnings = 0

    if op in ("+", "-"):
        for key, lv in large.records.items():
            sv = small.records.get(project(key))
            if sv is None:
                records[key] = fn(0.0, lv) if small_is_a else fn(lv, 0.0)
            else:
                records[key] = fn(sv, lv) if small_is_a else fn(lv, sv)
        if set_a == set_b:
            # True union: keys only the smaller operand has survive too.
            seen = {project(k) for k in large.records}
            for key, sv in small.records.items():
                if key not in seen:
                    lifted = _lift(key, positions, len(large.dims))
                    records[lifted] = fn(sv, 0.0) if small_is_a else fn(0.0, sv)
    else:
        for key, lv in large.records.items():
            sv = small.records.get(project(key))
            if sv is None:
                continue
            x, y = (sv, lv) if small_is_a else (lv, sv)
            if op == "/" and y == 0.0:
                warnings += 1
                continue
            records[key] = fn(x, y)
        if warnings:
            log.warning("%s/%s: dropped %d records with zero divisor", a.name, b.name, warnings)

    return Symbol(
        name=f"({a.name}{op}{b.name})",
        value_kind=a.value_kind if a.value_kind == b.value_kind else PARAMETER,
        dims=large.dims,
        records=records,
        unit=a.unit if a.unit == b.unit else "",
        warning_count=warnings,
    )


def _lift(key: tuple[str, ...], positions: list[int], arity: int) -> tuple[str, ...]:
    out = [""] * arity
    for p, value in zip(positions, key):
        out[p] = value
    return tuple(out)


def aggregate(symbol: Symbol, over: str, how: str = "sum") -> Symbol:
    """Fold one dimension away with sum, mean or max.

    Groups come in order of their first record; sums are exact
    (``math.fsum``) and ``max`` returns the group's first maximal value.
    """
    if over not in symbol.dims:
        raise KeyError(f"symbol {symbol.name} has no dimension {over!r} (dims: {symbol.dims})")
    if how not in ("sum", "mean", "max"):
        raise ValueError(f"unknown aggregation {how!r}")
    pos = symbol.dims.index(over)
    keep = [d for d in range(len(symbol.dims)) if d != pos]
    groups, group = symbol.layout.group_by(keep)
    members = np.argsort(group, kind="stable")  # each group's records in record order
    ends = np.cumsum(np.bincount(group, minlength=len(groups.codes))).tolist()
    values = symbol.values[members].tolist()
    spans = [values[a:b] for a, b in zip([0, *ends], ends)]
    if how == "sum":
        folded = list(map(math.fsum, spans))
    elif how == "mean":
        folded = [math.fsum(v) / len(v) for v in spans]
    else:
        folded = list(map(max, spans))
    return Symbol._make(
        f"{how}({symbol.name},{over})",
        symbol.value_kind,
        symbol.dims[:pos] + symbol.dims[pos + 1 :],
        groups,
        np.array(folded, dtype=float),
        symbol.unit,
    )


class SymbolsHandler:
    """Look up one named symbol across all scenario runs at once.

    Accepts any iterable of stores (objects with ``run_id``, ``symbols`` and
    ``meta``). A looked-up symbol gains a leading ``run`` dimension; runs
    that lack the symbol simply contribute no keys.
    """

    def __init__(self, stores: Iterable):
        self.stores = {store.run_id: store for store in stores}

    def runs(self) -> list[str]:
        return list(self.stores)

    def symbol_names(self) -> list[str]:
        names: set[str] = set()
        for store in self.stores.values():
            names.update(store.symbols)
        return sorted(names)

    def meta(self, run_id: str) -> Mapping:
        return self.stores[run_id].meta

    def lookup(self, name: str) -> Symbol:
        """The symbol across all runs, with a leading ``run`` dimension.

        Records come run by run in handler order, each run's in its own
        record order. A run that stores the symbol empty and dimensionless
        (listed for extraction but not in that run's model) contributes no
        keys; if every run does, the result is empty with dims ``("run",)``.
        """
        first, parts = join_runs(name, (
            (run_id, sym.dims, len(sym), sym)
            for run_id, store in self.stores.items()
            if (sym := store.symbols.get(name)) is not None
        ))
        if first is None:
            raise KeyError(f"symbol {name!r} not present in any store")
        *_, sym = first
        return Symbol._make(name, sym.value_kind, ("run", *sym.dims), *_stack(parts, len(sym.dims)), sym.unit)


def join_runs(name: str, entries: Iterable[tuple]) -> tuple[tuple | None, list[tuple]]:
    """Join symbol ``name`` across runs, from one ``(run_id, dims, size,
    item)`` entry per run that holds it, in run order: the first entry that
    is not the "not in the model" marker (else the first marker, or None),
    and the entries with records. Raises :class:`DimensionMismatch` for
    dims that differ from the first entry's; a marker joins anything."""
    first, parts = None, []
    for entry in entries:
        run_id, dims, size, _ = entry
        if first is not None and _absent(dims, size):
            continue
        if first is None or _absent(*first[1:3]):
            first = entry
        elif dims != first[1]:
            raise DimensionMismatch(f"symbol {name!r} has dims {dims} in run {run_id}, expected {first[1]}")
        if size:
            parts.append(entry)
    return first, parts


def _stack(parts: list[tuple], arity: int) -> tuple[Layout, np.ndarray]:
    """The layout and values of the records of the runs' symbols (``parts``
    as :func:`join_runs` gives them) one after another, keyed by run first."""
    runs = {run_id: i for i, run_id in enumerate(sorted(part[0] for part in parts))}
    labels = [np.array(list(runs), dtype=str)]
    codes = np.empty((sum(part[2] for part in parts), arity + 1), dtype=np.int64)
    tables = [
        np.array(sorted(set().union(*(part[3].layout.labels[d].tolist() for part in parts))), dtype=str)
        for d in range(arity)
    ]
    labels.extend(tables)
    at = 0
    for run_id, _, size, sym in parts:
        rows = slice(at, at + size)
        codes[rows, 0] = runs[run_id]
        for d, table in enumerate(tables):
            codes[rows, d + 1] = np.searchsorted(table, sym.layout.labels[d])[sym.layout.codes[:, d]]
        at += size
    values = np.concatenate([part[3].values for part in parts]) if parts else np.zeros(0)
    return Layout(labels, codes), values


def _absent(dims: tuple[str, ...], size: int) -> bool:
    """Whether a symbol of ``dims`` and ``size`` records is the empty,
    dimensionless "not in the model" marker."""
    return not dims and not size
