"""Dimension-labeled result arrays and arithmetic between them.

A :class:`Symbol` is a named sparse array over labeled dimensions (for
example ``G`` over ``(tech, n, h, run)``). Binary operations broadcast the
operand with fewer dimensions over the richer one and take care of key
alignment:

* ``+`` and ``-`` keep keys present in only one operand (union semantics,
  signed for ``-``), so totals are preserved;
* ``*`` and ``/`` keep only keys present in both operands (intersection),
  so no values are invented; division by zero drops the key and counts a
  warning instead of propagating infinities.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping

log = logging.getLogger(__name__)

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


@dataclass(frozen=True)
class Symbol:
    """A named, dimension-labeled map of records. Treated as immutable."""

    name: str
    value_kind: str
    dims: tuple[str, ...]
    records: dict[tuple[str, ...], float]
    unit: str = ""
    warning_count: int = 0

    def __post_init__(self):
        for key, value in self.records.items():
            if len(key) != len(self.dims):
                raise ValueError(
                    f"symbol {self.name}: key {key} has arity {len(key)}, dims are {self.dims}"
                )
            if not math.isfinite(value):
                raise ValueError(f"symbol {self.name}: non-finite value at {key}")

    def __len__(self) -> int:
        return len(self.records)

    def value(self, *key: str) -> float:
        return self.records[tuple(key)]

    def elements(self, dim: str) -> list[str]:
        """Sorted distinct labels appearing along one dimension."""
        pos = self.dims.index(dim)
        return sorted({key[pos] for key in self.records})

    def rename(self, name: str) -> "Symbol":
        return replace(self, name=name)

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
    """Fold one dimension away with sum, mean or max."""
    if over not in symbol.dims:
        raise KeyError(f"symbol {symbol.name} has no dimension {over!r} (dims: {symbol.dims})")
    if how not in ("sum", "mean", "max"):
        raise ValueError(f"unknown aggregation {how!r}")
    pos = symbol.dims.index(over)
    groups: dict[tuple[str, ...], list[float]] = {}
    for key, value in symbol.records.items():
        slim = key[:pos] + key[pos + 1 :]
        groups.setdefault(slim, []).append(value)
    if how == "sum":
        records = {k: math.fsum(v) for k, v in groups.items()}
    elif how == "mean":
        records = {k: math.fsum(v) / len(v) for k, v in groups.items()}
    else:
        records = {k: max(v) for k, v in groups.items()}
    return Symbol(
        name=f"{how}({symbol.name},{over})",
        value_kind=symbol.value_kind,
        dims=symbol.dims[:pos] + symbol.dims[pos + 1 :],
        records=records,
        unit=symbol.unit,
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

        A run that stores the symbol empty and dimensionless (listed for
        extraction but not in that run's model) contributes no keys; if
        every run does, the result is empty with dims ``("run",)``.
        """
        first: Symbol | None = None
        records: dict[tuple[str, ...], float] = {}
        for run_id, store in self.stores.items():
            sym = store.symbols.get(name)
            if sym is None or (first is not None and _absent(sym)):
                continue
            if first is None or _absent(first):
                first = sym
            elif sym.dims != first.dims:
                raise DimensionMismatch(
                    f"symbol {name!r} has dims {sym.dims} in run {run_id}, expected {first.dims}"
                )
            for key, value in sym.records.items():
                records[(run_id, *key)] = value
        if first is None:
            raise KeyError(f"symbol {name!r} not present in any store")
        return Symbol(name, first.value_kind, ("run", *first.dims), records, first.unit)


def _absent(sym: Symbol) -> bool:
    """Whether ``sym`` is the empty, dimensionless "not in the model" marker."""
    return not sym.dims and not sym.records
