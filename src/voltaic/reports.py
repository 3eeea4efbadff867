"""Plot-ready report tables derived from result stores.

``standard_report`` emits one CSV per figure-style view (installed capacity,
annual generation with curtailment, storage sizing and throughput, residual
load duration curves) plus a ``manifest.json`` describing every produced
table. Numbers are kept at full precision throughout the pipeline and only
rounded to six significant digits here, at emission.
"""

from __future__ import annotations

import json
import logging
from functools import cache
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .symbols import Symbol, SymbolsHandler, aggregate
from .system import hour_index

log = logging.getLogger(__name__)

_TABLES = ("capacity.csv", "generation.csv", "storage.csv", "rldc.csv", "summary.csv")


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
    return ["n", "run", "rank", "h", "residual", *companions], list(map(list, rows))


def _write_table(path: Path, headers: list[str], rows) -> None:
    """One CSV line per row: floats to six significant digits (``%.6g``
    reads as ``format(value, ".6g")``), anything else as ``str``. Each row
    is formatted by one template, made once per pattern of cell types."""
    templates: dict[tuple[type, ...], str] = {}
    lines = [",".join(headers)]
    for row in map(tuple, rows):
        kinds = tuple(map(type, row))
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = ",".join("%.6g" if issubclass(k, float) else "%s" for k in kinds)
        lines.append(template % row)
    path.write_text("\n".join(lines) + "\n")


def standard_report(handler: SymbolsHandler, out_dir: Path | str) -> dict:
    """Write the standard result tables; returns the manifest.

    Sections whose input symbols are missing are skipped with a notice in
    the manifest rather than failing the report, and a table of a skipped
    section left in ``out_dir`` by an earlier report is removed.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"tables": [], "notices": []}

    def notice(msg: str) -> None:
        log.warning("%s", msg)
        manifest["notices"].append(msg)

    @cache  # one lookup per name: each lookup copies the symbol out of every run
    def grab(name: str) -> Symbol | None:
        try:
            symbol = handler.lookup(name)
        except KeyError:
            return None
        if symbol.dims == ("run",) and not len(symbol):
            # Listed for extraction but absent from every run's model.
            notice(f"symbol {name} not extracted: not in the model")
            return None
        return symbol

    capacity = grab("N")
    if capacity is not None:
        rows = [
            [key[1], key[2], key[0], value]
            for key, value in sorted(capacity.records.items(), key=lambda kv: (kv[0][1], kv[0][2], kv[0][0]))
        ]
        _write_table(out_dir / "capacity.csv", ["tech", "n", "run", "value"], rows)
        manifest["tables"].append(
            {"name": "capacity.csv", "dims": ["tech", "n", "run"], "unit": "MW"}
        )
    else:
        notice("capacity.csv skipped: symbol N not extracted")

    generation = grab("G")
    if generation is not None:
        annual = aggregate(generation, "h", "sum")
        curtail = grab("CU")
        curtailed = aggregate(curtail, "h", "sum") if curtail is not None else None
        rows = []
        for key in sorted(annual.records, key=lambda k: (k[1], k[2], k[0])):
            run, tech, node = key
            cu = curtailed.records.get(key, 0.0) if curtailed is not None else 0.0
            rows.append([tech, node, run, annual.records[key], cu])
        _write_table(
            out_dir / "generation.csv",
            ["tech", "n", "run", "generation", "curtailment"],
            rows,
        )
        manifest["tables"].append(
            {"name": "generation.csv", "dims": ["tech", "n", "run"], "unit": "MWh"}
        )
    else:
        notice("generation.csv skipped: symbol G not extracted")

    sto_e = grab("N_STO_E")
    sto_p = grab("N_STO_P")
    if sto_e is not None and sto_p is not None and len(sto_e):
        charge = grab("STO_IN")
        discharge = grab("STO_OUT")
        charge_total = aggregate(charge, "h", "sum") if charge is not None else None
        discharge_total = aggregate(discharge, "h", "sum") if discharge is not None else None
        rows = []
        for key in sorted(sto_e.records, key=lambda k: (k[1], k[2], k[0])):
            run, sto, node = key
            rows.append(
                [
                    sto,
                    node,
                    run,
                    sto_e.records[key],
                    sto_p.records.get(key, 0.0),
                    charge_total.records.get(key, 0.0) if charge_total else 0.0,
                    discharge_total.records.get(key, 0.0) if discharge_total else 0.0,
                ]
            )
        _write_table(
            out_dir / "storage.csv",
            ["sto", "n", "run", "energy_cap", "power_cap", "charge", "discharge"],
            rows,
        )
        manifest["tables"].append(
            {"name": "storage.csv", "dims": ["sto", "n", "run"], "unit": "MWh/MW"}
        )
    elif sto_e is None or sto_p is None:
        notice("storage.csv skipped: storage symbols not extracted")

    _emit_rldc(handler, out_dir, manifest, notice, grab)

    rows = []
    for run_id in handler.runs():
        meta = handler.meta(run_id)
        rows.append(
            [
                run_id,
                meta.get("status", ""),
                float(meta.get("objective") or 0.0),
                float(meta.get("objective_investment") or 0.0),
                float(meta.get("objective_variable") or 0.0),
            ]
        )
    _write_table(
        out_dir / "summary.csv",
        ["run", "status", "objective", "investment_cost", "variable_cost"],
        rows,
    )
    manifest["tables"].append({"name": "summary.csv", "dims": ["run"], "unit": "EUR"})

    written = {table["name"] for table in manifest["tables"]}
    for name in _TABLES:
        if name not in written:  # left by an earlier report, it would read as this one's
            (out_dir / name).unlink(missing_ok=True)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest


def _emit_rldc(handler, out_dir, manifest, notice, grab) -> None:
    demand = grab("d")
    generation = grab("G")
    if demand is None or generation is None:
        notice("rldc.csv skipped: needs symbols d and G")
        return

    sets = {run_id: handler.meta(run_id).get("sets", {}) for run_id in handler.runs()}
    res = {run_id: set(s.get("res", [])) for run_id, s in sets.items()}
    run_pos, tech_pos = generation.dims.index("run"), generation.dims.index("tech")
    # Whether each (run, tech) label pair of G is renewable in that run.
    runs, techs = (generation.layout.labels[p].tolist() for p in (run_pos, tech_pos))
    renewable = np.array([[tech in res[run] for tech in techs] for run in runs], dtype=bool)
    renewable = renewable.reshape(len(runs), len(techs))
    codes = generation.layout.codes
    axis = _axis(demand)
    blank = (np.zeros(len(axis[0])), np.zeros(len(axis[0]), dtype=bool))
    d = _hourly(demand, axis[0])
    g = _hourly(generation, axis[0])
    g_tech = _hourly(generation, axis[0], ("run", "n", "tech"))
    vre = _hourly(generation, axis[0], where=renewable[codes[:, run_pos], codes[:, tech_pos]])
    storage = {
        column: _hourly(sym, axis[0])
        for column, sym in (("sto_in", grab("STO_IN")), ("sto_out", grab("STO_OUT")))
        if sym is not None
    }
    slack = grab("SLACK")
    sl = _hourly(slack, axis[0]) if slack is not None else {}

    headers: list[str] | None = None
    curves = []
    for run_id, run_sets in sets.items():
        disp = [t for t in run_sets.get("tech", []) if t not in res[run_id]]
        for node in run_sets.get("n", []):
            key = (run_id, node)
            d_n = d.get(key, blank)
            flows = {column: groups.get(key, blank)[0] for column, groups in storage.items()}
            columns = [g_tech.get((*key, tech), blank)[0] for tech in disp]
            columns.extend(flows.values())
            # Net imports from the balance identity: d - sum G - out + in - slack.
            columns.append(
                d_n[0] - g.get(key, blank)[0] - flows.get("sto_out", blank[0]) + flows.get("sto_in", blank[0])
                - sl.get(key, blank)[0]
            )
            # A run without renewables has zero renewable generation.
            curves.append(_curve(node, run_id, axis, d_n, vre.get(key, blank) if res[run_id] else None, columns))
            if headers is None:
                headers = ["n", "run", "rank", "h", "residual", *(f"gen_{t}" for t in disp), *storage, "net_import"]
    if headers is not None:
        _write_table(out_dir / "rldc.csv", headers, chain.from_iterable(curves))
        manifest["tables"].append(
            {"name": "rldc.csv", "dims": ["n", "run", "rank"], "unit": "MWh/h"}
        )
