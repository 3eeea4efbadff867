"""Plot-ready report tables derived from result stores.

``standard_report`` emits one CSV per figure-style view (installed capacity,
annual generation with curtailment, storage sizing and throughput, residual
load duration curves) plus a ``manifest.json`` describing every produced
table. Numbers are kept at full precision throughout the pipeline and only
rounded to six significant digits here, at emission.

The report is made in two steps. :func:`partial_report` turns one run's
store into that run's formatted rows, so it can run beside the run's solve
and the store can be dropped right after; :func:`merge_report` sorts the
rows of all runs into the tables and writes them with the manifest.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .symbols import DimensionMismatch, Symbol, SymbolsHandler, _absent, aggregate, join_runs
from .system import hour_index

log = logging.getLogger(__name__)

_TABLES = ("capacity.csv", "generation.csv", "storage.csv", "rldc.csv", "summary.csv")
_MANIFEST = "manifest.json"
# The symbols the report reads with the dims it reads them by, the RLDC's
# key cells and its storage flow columns.
_SYMBOLS = {
    "N": ("tech", "n"), "G": ("tech", "n", "h"), "CU": ("res", "n", "h"), "N_STO_E": ("sto", "n"),
    "N_STO_P": ("sto", "n"), "STO_IN": ("sto", "n", "h"), "STO_OUT": ("sto", "n", "h"), "d": ("n", "h"),
    "SLACK": ("n", "h"),
}
_KEYS = ("n", "run", "rank", "h", "residual")
_FLOWS = (("sto_in", "STO_IN"), ("sto_out", "STO_OUT"))


def _hourly(symbol: Symbol, hours: np.ndarray, by=("run", "n"), where=None) -> dict[tuple, tuple]:
    """Sum a symbol in one pass per group along ``by`` and hour, on the hour
    axis ``hours`` (sorted hour labels): ``{group key: (sums, present)}``,
    the group's sum at every hour of the axis, 0.0 where it has no record,
    and whether it has one.

    Dimensions outside ``by`` and ``h`` are summed out in sorted-key order,
    starting from 0.0, so each sum equals a filtered scan of the records as
    a store lists them on disk, whatever order they are held in. ``where``
    is a boolean mask over the records; records it is False for are
    dropped, and so are records at hours off the axis. A dimension in
    ``by`` that the symbol lacks reads as None in the group key. Groups
    come in order of their first record in sorted-key order.
    """
    dims, layout = symbol.dims, symbol.layout
    h_pos = dims.index("h")
    positions = [dims.index(d) if d in dims else None for d in by]
    rows = layout.order if where is None else layout.order[where[layout.order]]
    groups, group = layout.group_by([p for p in positions if p is not None], rows)
    labels = layout.labels[h_pos]
    at = np.searchsorted(hours, labels)  # each hour label's place on the axis
    on_axis = at < len(hours)
    on_axis[on_axis] = hours[at[on_axis]] == labels[on_axis]
    hour = layout.codes[rows, h_pos]
    keep = on_axis[hour]
    cells = (group[keep], at[hour[keep]])
    n_groups = len(groups.codes)
    table = np.zeros((n_groups, len(hours)))
    # add.at adds each cell's records in record order, starting from 0.0.
    np.add.at(table, cells, symbol.values[rows][keep])
    present = np.zeros(table.shape, dtype=bool)
    present[cells] = True
    columns = iter(groups.columns())
    keys = zip(*(next(columns) if p is not None else [None] * n_groups for p in positions))
    return dict(zip(keys, zip(table, present)))


def _axis(demand: Symbol) -> tuple[np.ndarray, np.ndarray]:
    """The hour axis of residual load curves: demand's hour labels, and
    their hour numbers."""
    hours = demand.layout.labels[demand.dims.index("h")]
    return hours, np.array([hour_index(h) for h in hours.tolist()], dtype=np.int64)


def _curve(node, run, axis, demand, vre, columns):
    """One residual load duration curve: the hours ``demand`` (``(sums,
    present)`` on ``axis``) has a record for, ranked by descending residual
    load, demand minus ``vre``, ties by ascending hour. ``vre`` None reads
    as no renewable generation; otherwise it must cover those hours.
    ``columns`` are further hourly arrays on the axis, re-ordered alike.
    Returns the rows as tuples ``(node, run, rank, hour, residual,
    *columns)``."""
    hours, numbers = axis
    d, present = demand
    at = np.flatnonzero(present)
    if vre is None:
        v = np.zeros(len(at))
    else:
        lacking = at[~vre[1][at]]
        if len(lacking):
            missing = sorted(hours[lacking].tolist(), key=hour_index)
            raise KeyError(f"renewable generation misses hours {missing[:3]} for {node}/{run}")
        v = vre[0][at]
    residual = d[at] - v
    rank = np.lexsort((numbers[at], -residual))
    ranked = at[rank]
    return zip(
        repeat(node), repeat(run), range(1, len(at) + 1), hours[ranked].tolist(), residual[rank].tolist(),
        *(column[ranked].tolist() for column in columns),
    )


def rldc(
    demand: Symbol,
    vre_gen: Symbol,
    node: str,
    run: str,
    companions: dict[str, Symbol] | None = None,
) -> tuple[list[str], list[list]]:
    """Residual load duration curve for one node and run.

    Residual load is demand minus renewable generation net of curtailment,
    before storage and trade; those enter as companion columns re-ordered by
    the same descending-residual sort. Ties are broken by ascending hour. A
    symbol without an ``n`` or ``run`` dimension matches any node or run.
    """
    axis = _axis(demand)
    blank = (np.zeros(len(axis[0])), np.zeros(len(axis[0]), dtype=bool))

    def series(symbol: Symbol) -> tuple[np.ndarray, np.ndarray]:
        key = (run if "run" in symbol.dims else None, node if "n" in symbol.dims else None)
        return _hourly(symbol, axis[0]).get(key, blank)

    companions = companions or {}
    columns = [series(sym)[0] for sym in companions.values()]
    rows = _curve(node, run, axis, series(demand), series(vre_gen), columns)
    return [*_KEYS, *companions], list(map(list, rows))


def _format(rows) -> Iterator[str]:
    """One CSV line per row: floats to six significant digits (``%.6g``
    reads as ``format(value, ".6g")``), anything else as ``str``. Each row
    is formatted by one template, made once per pattern of cell types."""
    templates: dict[tuple[type, ...], str] = {}
    for row in map(tuple, rows):
        kinds = tuple(map(type, row))
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = ",".join("%.6g" if issubclass(k, float) else "%s" for k in kinds)
        yield template % row


def _write_lines(path: Path, headers: list[str], lines: Iterable[str]) -> None:
    path.write_text("\n".join([",".join(headers), *lines]) + "\n")


def _write_table(path: Path, headers: list[str], rows) -> None:
    _write_lines(path, headers, _format(rows))


@dataclass
class PartialReport:
    """One run's share of the standard report, made from its store alone.

    Rows are kept as formatted CSV lines. The capacity, generation and
    storage rows carry the two labels they are sorted by across runs; the
    RLDC rows of all the run's nodes are kept as newline-joined cells, the
    key cells in ``rldc`` and every other column (``gen_<tech>``, each
    storage flow the run holds, ``net_import``) by name in ``columns``,
    which a run with nodes always has. ``symbols`` maps each report symbol
    the store holds to its dims and record count, which is all
    :func:`merge_report` needs to tell which tables and columns the runs
    make together.
    """

    run_id: str
    symbols: dict[str, tuple[tuple[str, ...], int]]
    summary: str
    capacity: list[tuple[str, str, str]] = field(default_factory=list)
    generation: list[tuple[str, str, str]] = field(default_factory=list)
    storage: list[tuple[str, str, str]] = field(default_factory=list)
    rldc: str = ""
    columns: dict[str, str] = field(default_factory=dict)
    rldc_error: str | None = None  # raised by the merge if it writes the RLDC


def partial_report(store) -> PartialReport:
    """The report's rows of one run, from its store (any object with
    ``run_id``, ``symbols`` and ``meta``).

    Every number is the same bits as in a report made from the symbols
    joined across runs (:meth:`SymbolsHandler.lookup`): ``aggregate`` is
    exact, and each hourly sum adds the run's records in sorted-key order,
    which is also their order within the joined symbol. A symbol of other
    dims than the report reads it by gives no rows: the merge raises
    :class:`DimensionMismatch` for it.
    """
    run, meta = store.run_id, store.meta

    def grab(name: str) -> Symbol | None:
        symbol = store.symbols.get(name)
        return None if symbol is None or symbol.dims != _SYMBOLS[name] else symbol

    def annual(name: str) -> Mapping:
        symbol = grab(name)
        return aggregate(symbol, "h", "sum").records if symbol is not None else {}

    def keyed(rows: list[list]) -> list[tuple[str, str, str]]:
        return [(row[0], row[1], line) for row, line in zip(rows, _format(rows))]

    summary = [
        run, meta.get("status", ""), float(meta.get("objective") or 0.0),
        float(meta.get("objective_investment") or 0.0), float(meta.get("objective_variable") or 0.0),
    ]
    part = PartialReport(
        run,
        {name: (sym.dims, len(sym)) for name in _SYMBOLS if (sym := store.symbols.get(name)) is not None},
        next(_format([summary])),
    )
    capacity = grab("N")
    if capacity is not None:
        part.capacity = keyed([[key[0], key[1], run, value] for key, value in capacity.records.items()])
    if grab("G") is not None:
        curtailed = annual("CU")
        part.generation = keyed(
            [[key[0], key[1], run, value, curtailed.get(key, 0.0)] for key, value in annual("G").items()]
        )
    energy = grab("N_STO_E")
    if energy is not None:
        power = grab("N_STO_P")
        power = power.records if power is not None else {}
        charge, discharge = annual("STO_IN"), annual("STO_OUT")
        part.storage = keyed([
            [key[0], key[1], run, value, power.get(key, 0.0), charge.get(key, 0.0), discharge.get(key, 0.0)]
            for key, value in energy.records.items()
        ])
    _partial_rldc(part, meta.get("sets", {}), grab)
    return part


def _partial_rldc(part: PartialReport, sets: dict, grab) -> None:
    """Fill in the run's RLDC rows: one curve per node of the run, in the
    run's node order, over the hours its demand has records at."""
    nodes = sets.get("n", [])
    if not nodes:
        return
    res = set(sets.get("res", []))
    dispatch = [t for t in sets.get("tech", []) if t not in res]
    names = [f"gen_{t}" for t in dispatch]
    part.columns = dict.fromkeys([*names, "net_import"], "")  # a run without demand rows still names them
    demand = grab("d")
    if demand is None:
        return
    axis = _axis(demand)
    blank = (np.zeros(len(axis[0])), np.zeros(len(axis[0]), dtype=bool))
    d = _hourly(demand, axis[0], ("n",))
    generation = grab("G")
    if generation is not None:
        tech = generation.dims.index("tech")
        renewable = np.array([t in res for t in generation.layout.labels[tech].tolist()], dtype=bool)
        g = _hourly(generation, axis[0], ("n",))
        g_tech = _hourly(generation, axis[0], ("n", "tech"))
        vre = _hourly(generation, axis[0], ("n",), where=renewable[generation.layout.codes[:, tech]])
    else:
        g = g_tech = vre = {}
    storage = {
        column: _hourly(symbol, axis[0], ("n",))
        for column, name in _FLOWS
        if (symbol := grab(name)) is not None
    }
    slack = grab("SLACK")
    sl = _hourly(slack, axis[0], ("n",)) if slack is not None else {}

    rows = []
    for node in nodes:
        key = (node,)
        d_n = d.get(key, blank)
        flows = {column: groups.get(key, blank)[0] for column, groups in storage.items()}
        columns = [g_tech.get((node, tech), blank)[0] for tech in dispatch]
        columns.extend(flows.values())
        # Net imports from the balance identity: d - sum G - out + in - slack.
        columns.append(
            d_n[0] - g.get(key, blank)[0] - flows.get("sto_out", blank[0]) + flows.get("sto_in", blank[0])
            - sl.get(key, blank)[0]
        )
        try:
            # A run without renewables has zero renewable generation.
            rows.extend(_curve(node, part.run_id, axis, d_n, vre.get(key, blank) if res else None, columns))
        except KeyError as exc:
            part.rldc_error = exc.args[0]
            return
    keys = len(_KEYS)
    part.rldc = "\n".join(_format(row[:keys] for row in rows))
    part.columns = {
        name: "\n".join(["%.6g" % row[keys + i] for row in rows])
        for i, name in enumerate([*names, *storage, "net_import"])
    }


def merge_report(parts: Iterable[PartialReport], out_dir: Path | str) -> dict:
    """Write the standard tables of the runs ``parts`` come from, in that
    order; returns the manifest.

    Capacity, generation and storage rows are sorted by their labels and
    run; the summary and the RLDC list the runs in the order given. The
    RLDC joins the runs' columns by name: its header has every run's
    dispatch columns, first seen first, then the storage flows and net
    imports, and a run reads 0 in a column it does not have. A symbol is
    joined across the runs by :func:`join_runs`, as
    :meth:`SymbolsHandler.lookup` joins it: missing from every store, in the
    model of none of them (noted in the manifest), or joined from those
    that hold it. Sections whose input
    symbols are missing are skipped with a notice in the manifest rather
    than failing the report, and a table of a skipped section left in
    ``out_dir`` by an earlier report is removed.
    """
    parts = list(parts)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"tables": [], "notices": []}

    def notice(msg: str) -> None:
        log.warning("%s", msg)
        manifest["notices"].append(msg)

    @cache  # notices come once per name, in the order the sections ask
    def grab(name: str) -> int | None:
        """The runs' records of ``name`` together, None if it is missing or
        in no run's model."""
        first, joined = join_runs(name, (
            (part.run_id, *entry, None) for part in parts if (entry := part.symbols.get(name)) is not None
        ))
        if first is None:
            return None
        if _absent(*first[1:3]):
            notice(f"symbol {name} not extracted: not in the model")
            return None
        if first[1] != _SYMBOLS[name]:
            raise DimensionMismatch(f"symbol {name!r} has dims {first[1]} in run {first[0]}, expected {_SYMBOLS[name]}")
        return sum(size for _, _, size, _ in joined)

    def table(name: str, headers: list[str], lines: Iterable[str], dims: list[str], unit: str) -> None:
        _write_lines(out_dir / name, headers, lines)
        manifest["tables"].append({"name": name, "dims": dims, "unit": unit})

    def by_labels(rows: str) -> list[str]:
        keyed = sorted((a, b, part.run_id, line) for part in parts for a, b, line in getattr(part, rows))
        return [line for *_, line in keyed]

    if grab("N") is not None:
        table("capacity.csv", ["tech", "n", "run", "value"], by_labels("capacity"), ["tech", "n", "run"], "MW")
    else:
        notice("capacity.csv skipped: symbol N not extracted")

    if grab("G") is not None:
        # CU here, the flows in the storage table and SLACK only enter values,
        # which each share has: they are grabbed for their notices, in the
        # order a report from joined symbols asks for them.
        grab("CU")
        table("generation.csv", ["tech", "n", "run", "generation", "curtailment"], by_labels("generation"),
              ["tech", "n", "run"], "MWh")
    else:
        notice("generation.csv skipped: symbol G not extracted")

    energy, power = grab("N_STO_E"), grab("N_STO_P")
    if energy is not None and power is not None and energy:
        grab("STO_IN"), grab("STO_OUT")
        table("storage.csv", ["sto", "n", "run", "energy_cap", "power_cap", "charge", "discharge"],
              by_labels("storage"), ["sto", "n", "run"], "MWh/MW")
    elif energy is None or power is None:
        notice("storage.csv skipped: storage symbols not extracted")

    demand, generation = grab("d"), grab("G")
    if demand is None or generation is None:
        notice("rldc.csv skipped: needs symbols d and G")
    else:
        flows = [column for column, name in _FLOWS if grab(name) is not None]
        grab("SLACK")
        for part in parts:
            if part.rldc_error is not None:
                raise KeyError(part.rldc_error)
        if any(part.columns for part in parts):
            dispatch = dict.fromkeys(name for part in parts for name in part.columns if name.startswith("gen_"))
            names = [*dispatch, *flows, "net_import"]
            lines = chain.from_iterable(_rldc_lines(part, names) for part in parts if part.rldc)
            table("rldc.csv", [*_KEYS, *names], lines, ["n", "run", "rank"], "MWh/h")

    table("summary.csv", ["run", "status", "objective", "investment_cost", "variable_cost"],
          [part.summary for part in parts], ["run"], "EUR")

    written = {t["name"] for t in manifest["tables"]}
    for name in _TABLES:
        if name not in written:  # left by an earlier report, it would read as this one's
            (out_dir / name).unlink(missing_ok=True)
    (out_dir / _MANIFEST).write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest


def _rldc_lines(part: PartialReport, names: list[str]) -> Iterator[str]:
    """The run's RLDC lines with the columns ``names`` after the key cells;
    a column the run does not have reads 0, as a zero series formats."""
    columns = [part.columns[name].split("\n") if name in part.columns else repeat("0") for name in names]
    return map(",".join, zip(part.rldc.split("\n"), *columns))


def clear_report(out_dir: Path | str) -> None:
    """Remove the tables and manifest an earlier report left in ``out_dir``."""
    for name in (*_TABLES, _MANIFEST):
        (Path(out_dir) / name).unlink(missing_ok=True)


def standard_report(handler: SymbolsHandler, out_dir: Path | str) -> dict:
    """Write the standard result tables of the handler's runs, in handler
    order; returns the manifest. The same as :func:`merge_report` over each
    store's :func:`partial_report`, which is how it is made: no symbol is
    looked up across runs."""
    return merge_report([partial_report(store) for store in handler.stores.values()], out_dir)
