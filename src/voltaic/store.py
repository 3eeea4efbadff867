"""Per-run result stores: symbol extraction, serialization, round-trips.

Each scenario run gets one store directory ``<run_id>/`` holding one sorted
CSV per extracted symbol plus ``run.meta`` (scalar metadata as JSON), and
optionally a single self-describing binary file ``store.npz`` with the same
content. Both formats round-trip losslessly and are byte-identical across
repeated runs and extraction thread counts; nothing time- or host-dependent
is ever written.

``store.npz`` holds each symbol's :class:`~voltaic.symbols.Layout` as it
is: a zip of ``store.json`` (the ``run.meta`` content, each symbol's dims
and the label tables it uses, each distinct table once) and, per symbol,
``<name>/codes.npy`` (its codes in sorted-key order, in the smallest
unsigned dtype that indexes its tables) and ``<name>/values.npy``. A
``store.npz`` of the earlier layout (one label row per record) is not read;
the CSVs beside it hold the same store.

Every step works on a symbol's columns (:class:`~voltaic.symbols.Layout`
plus values): extraction takes a family's label layout, built once per
family and shared by every run, and copies one slice of the solution; the
writers emit the layout's sorted views with the values in that order; the
readers fill the columns directly.
"""

from __future__ import annotations

import io
import json
import logging
import operator
import zipfile
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np

from .model import CAPACITY_FAMILIES
from .symbols import LEVEL, MARGINAL, PARAMETER, Layout, Symbol

log = logging.getLogger(__name__)

CSV_FORMAT = "csv"
NPZ_FORMAT = "npz"
_NPZ_NAME = "store.npz"
_NPZ_HEADER = "store.json"
_META_NAME = "run.meta"


@dataclass
class SymbolStore:
    """All extracted symbols of one run plus scalar metadata."""

    run_id: str
    symbols: dict[str, Symbol] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def extract_symbols(
    results,
    reporting: list[tuple[str, str]],
    threads: int = 1,
    config_echo: dict | None = None,
) -> list[SymbolStore]:
    """Pull the configured symbols out of each run's solution.

    ``reporting`` holds (symbol, kind) pairs with kind ``level`` or
    ``marginal``. Symbols named in the list but absent from a solution are
    stored empty with a warning, never an error. Each symbol is its family's
    label layout plus one slice copy of the solution, made in the caller's
    thread; the copy stores negative zeros as zero, so no store reads
    ``-0.0``. ``threads`` is accepted for compatibility with the
    ``gdx_convert_parallel_threads`` setting and does not change the work or
    its output.
    """
    return [_extract_one(result, reporting, config_echo) for result in results]


def _extract_one(result, reporting, config_echo) -> SymbolStore:
    store = SymbolStore(result.run_id)
    store.meta = {
        "run_id": result.run_id,
        "status": result.status,
        "objective": result.objective,
        "overrides": [list(pair) for pair in result.overrides],
    }
    if result.error is not None:
        store.meta["error"] = result.error
    if config_echo:
        store.meta["config"] = dict(sorted(config_echo.items()))

    solution = result.solution
    lp = result.lp
    if solution is None or not solution.is_optimal or lp is None:
        return store

    store.meta["sets"] = {k: list(v) for k, v in sorted(lp.sets.items())}
    invest, variable = _objective_split(lp, solution)
    store.meta["objective_investment"] = invest
    store.meta["objective_variable"] = variable

    for name, kind in reporting:
        if name == "d":
            store.symbols["d"] = _demand_symbol(lp)
            continue
        if kind == MARGINAL:
            fam = lp.row_families.get(name)
            source = solution.dual
        else:
            fam = lp.var_families.get(name)
            source = solution.primal
        if fam is None:
            log.warning("run %s: symbol %r (%s) not in the model; stored empty", result.run_id, name, kind)
            store.symbols[name] = Symbol(name, kind, (), {})
            continue
        values = source[fam.start : fam.start + fam.size] + 0.0
        store.symbols[name] = Symbol.from_columns(name, kind, fam.dims, fam.layout(), values)
    return store


def _demand_symbol(lp) -> Symbol:
    """Demand as seen by the model: the balance rows' right-hand sides."""
    fam = lp.row_families["BAL"]
    values = lp.rhs[fam.start : fam.start + fam.size] + 0.0
    return Symbol.from_columns("d", PARAMETER, fam.dims, fam.layout(), values)


def _objective_split(lp, solution) -> tuple[float, float]:
    contribution = lp.obj * solution.primal
    invest = 0.0
    for fam_name in CAPACITY_FAMILIES:
        fam = lp.var_families.get(fam_name)
        if fam is not None:
            invest += float(contribution[fam.start : fam.start + fam.size].sum())
    return invest, float(contribution.sum()) - invest


# -- serialization ---------------------------------------------------------


def _meta_text(meta: dict) -> str:
    return json.dumps(meta, sort_keys=True, indent=2) + "\n"


def _csv_prefixes(layout: Layout) -> list[str]:
    """For each record in sorted-key order, a line break and its labels,
    each followed by a comma: the CSV line up to its value."""
    ordered = layout.codes[layout.order]
    prefixes = ["\n"] * len(ordered)
    for d, table in enumerate(layout.labels):
        cells = [label + "," for label in table.tolist()]
        prefixes = list(map(operator.add, prefixes, map(cells.__getitem__, ordered[:, d].tolist())))
    return prefixes


def _symbol_csv(symbol: Symbol) -> str:
    """Header, then one ``labels,value`` line per record in sorted-key order."""
    layout = symbol.layout
    lines = map(operator.add, layout.view(_csv_prefixes), map(repr, symbol.values[layout.order].tolist()))
    return ",".join([*symbol.dims, "value"]) + "".join(lines) + "\n"


def write_store(store: SymbolStore, root: Path | str, formats=(CSV_FORMAT,)) -> Path:
    """Write one run's store under ``root/<run_id>/``; returns the directory.

    The CSV format is always produced; add ``"npz"`` to also pack the whole
    run into one binary columnar file. Store files this call does not write
    (a symbol's CSV, or ``store.npz``, left by an earlier run) are removed,
    so the directory reads back as exactly this store; other files stay.
    """
    target = Path(root) / store.run_id
    target.mkdir(parents=True, exist_ok=True)
    for path in target.iterdir():
        if path.suffix == ".csv" and path.stem not in store.symbols or (
            path.name == _NPZ_NAME and NPZ_FORMAT not in formats
        ):
            path.unlink()
    meta = dict(store.meta)
    meta["symbol_kinds"] = {n: s.value_kind for n, s in sorted(store.symbols.items())}
    meta["symbol_units"] = {n: s.unit for n, s in sorted(store.symbols.items())}
    (target / _META_NAME).write_text(_meta_text(meta))
    for name in sorted(store.symbols):
        (target / f"{name}.csv").write_text(_symbol_csv(store.symbols[name]))
    if NPZ_FORMAT in formats:
        _write_npz(store, meta, target / _NPZ_NAME)
    return target


def _npz_codes(layout: Layout) -> tuple[list[np.ndarray], np.ndarray]:
    """The label tables cut to the labels some record uses, and the codes
    into them in sorted-key order, in the smallest unsigned dtype that
    indexes every table."""
    ordered = layout.codes[layout.order]
    tables = []
    for d, table in enumerate(layout.labels):
        used = np.zeros(len(table), dtype=bool)
        used[ordered[:, d]] = True
        ordered[:, d] = (np.cumsum(used) - 1)[ordered[:, d]]
        tables.append(table[used])
    return tables, ordered.astype(np.min_scalar_type(max([0, *(len(t) - 1 for t in tables)])))


def _write_npz(store: SymbolStore, meta: dict, path: Path) -> None:
    header, tables = {"meta": meta, "dims": {}, "labels": {}}, {}
    # Fixed zip timestamps keep repeated runs byte-identical.
    member = partial(zipfile.ZipInfo, date_time=(1980, 1, 1, 0, 0, 0))
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name in sorted(store.symbols):
            sym = store.symbols[name]
            used, codes = _npz_codes(sym.layout)
            header["dims"][name] = sym.dims
            header["labels"][name] = [tables.setdefault(tuple(t.tolist()), len(tables)) for t in used]
            for part, array in (("codes", codes), ("values", sym.values[sym.layout.order])):
                with zf.open(member(f"{name}/{part}.npy"), "w") as out:
                    np.lib.format.write_array(out, array, allow_pickle=False)
        header["tables"] = list(tables)
        zf.writestr(member(_NPZ_HEADER), json.dumps(header, sort_keys=True, separators=(",", ":"), ensure_ascii=False))


def read_store(run_dir: Path | str, fmt: str = CSV_FORMAT) -> SymbolStore:
    """Load one run directory back; inverse of :func:`write_store`.

    A ``store.npz`` of the earlier layout raises ``ValueError``; the CSVs
    beside it hold the same store."""
    run_dir = Path(run_dir)
    if fmt == NPZ_FORMAT:
        return _read_npz(run_dir / _NPZ_NAME, run_dir.name)
    if fmt != CSV_FORMAT:
        raise ValueError(f"unknown store format {fmt!r}")
    meta = json.loads((run_dir / _META_NAME).read_text())
    kinds = meta.pop("symbol_kinds", {})
    units = meta.pop("symbol_units", {})
    store = SymbolStore(meta.get("run_id", run_dir.name), meta=meta)
    for csv_path in sorted(run_dir.glob("*.csv")):
        name = csv_path.stem
        header, *lines = csv_path.read_text().splitlines()
        dims = tuple(header.split(",")[:-1])
        if set(map(str.count, lines, repeat(","))) - {len(dims)}:
            raise ValueError(f"{csv_path}: a line does not have {len(dims) + 1} fields")
        fields = ",".join(lines).split(",") if lines else []
        step = len(dims) + 1
        layout = Layout.encode([fields[d::step] for d in range(len(dims))], len(lines))
        values = np.fromiter(map(float, fields[len(dims) :: step]), float, count=len(lines))
        kind = kinds.get(name, PARAMETER if name == "d" else LEVEL)
        store.symbols[name] = _read_symbol(name, kind, dims, layout, values, units.get(name, ""))
    return store


class _EarlierNpz(ValueError):
    """A ``store.npz`` of the layout with one label row per record."""


def _read_npz(path: Path, fallback_run_id: str) -> SymbolStore:
    with zipfile.ZipFile(path) as zf:
        if _NPZ_HEADER not in zf.namelist():
            raise _EarlierNpz(f"{path}: a store.npz of an earlier layout, which this version does not "
                              "read; the CSVs beside it hold the same store")
        header = json.loads(zf.read(_NPZ_HEADER))
        meta, tables = header["meta"], [np.array(labels, dtype=str) for labels in header["tables"]]
        if any(table.ndim != 1 or (table[1:] <= table[:-1]).any() for table in tables):
            raise ValueError(f"{path}: a label table is not sorted and unique")
        kinds, units = meta.pop("symbol_kinds"), meta.pop("symbol_units")
        store = SymbolStore(meta.get("run_id", fallback_run_id), meta=meta)
        for name, dims in sorted(header["dims"].items()):
            codes, values = (np.lib.format.read_array(zf.open(f"{name}/{part}.npy")) for part in ("codes", "values"))
            labels = [tables[t] for t in header["labels"][name]]
            if codes.dtype.kind not in "iu" or codes.ndim != 2 or codes.shape[1] != len(labels) or len(codes) and (
                (codes.min(axis=0) < 0) | (codes.max(axis=0) >= list(map(len, labels)))
            ).any():
                raise ValueError(f"{path}: symbol {name}: codes {codes.dtype}{codes.shape} do not index its tables")
            layout = Layout(labels, codes.astype(np.int64))
            store.symbols[name] = _read_symbol(name, kinds[name], tuple(dims), layout, values, units[name])
    return store


def _read_symbol(name, kind, dims, layout, values, unit) -> Symbol:
    repeated = layout.first_duplicate()
    if repeated is not None:
        key = tuple(column[0] for column in layout.columns(np.array([repeated])))
        raise ValueError(f"symbol {name}: key {key} stored twice")
    return Symbol.from_columns(name, kind, dims, layout, values, unit)


def read_run(run_dir: Path | str) -> SymbolStore:
    """One run's store as the report reads it: its ``store.npz`` if it has
    one of this layout, else its CSVs."""
    try:
        return read_store(run_dir, NPZ_FORMAT if (Path(run_dir) / _NPZ_NAME).is_file() else CSV_FORMAT)
    except _EarlierNpz as exc:
        log.warning("%s: reading them", exc)
        return read_store(run_dir, CSV_FORMAT)


def read_all_stores(results_dir: Path | str, fmt: str = CSV_FORMAT) -> list[SymbolStore]:
    """Load every run directory under ``results_dir``, sorted by run id."""
    results_dir = Path(results_dir)
    stores = []
    for run_dir in sorted(p for p in results_dir.iterdir() if p.is_dir()):
        stores.append(read_store(run_dir, fmt))
    return stores
