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
from pathlib import Path

import numpy as np

from .symbols import Symbol, SymbolsHandler, aggregate
from .system import hour_index

log = logging.getLogger(__name__)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _hour_groups(symbol: Symbol, by=("run", "n"), where=None) -> dict[tuple, dict[str, float]]:
    """Collapse a symbol in one pass to ``{labels along by: {hour: value}}``.

    Dimensions outside ``by`` and ``h`` are summed out in sorted-key order,
    starting from 0.0, so each series equals a filtered scan of the records
    as a store lists them on disk, whatever order they are held in.
    ``where`` is a boolean mask over the records; records it is False for
    are dropped. A dimension in ``by`` that the symbol lacks reads as None
    in the group key. Groups come in order of their first record in
    sorted-key order, hours in label order.
    """
    dims, layout = symbol.dims, symbol.layout
    h_pos = dims.index("h")
    positions = [dims.index(d) if d in dims else None for d in by]
    rows = layout.order if where is None else layout.order[where[layout.order]]
    groups, group = layout.group_by([p for p in positions if p is not None], rows)
    codes, values = layout.codes[rows], symbol.values[rows]
    n_hours = len(layout.labels[h_pos])
    cells, cell = np.unique(group * n_hours + codes[:, h_pos], return_inverse=True)
    # bincount adds each cell's records in record order, starting from 0.0.
    sums = np.bincount(cell.reshape(-1), weights=values, minlength=len(cells)).tolist()
    hour_names = layout.labels[h_pos].tolist()
    hours = list(map(hour_names.__getitem__, (cells % n_hours).tolist()))
    n_groups = len(groups.codes)
    ends = np.searchsorted(cells // n_hours, np.arange(1, n_groups + 1)).tolist()
    columns = iter(groups.columns())
    keys = zip(*(next(columns) if p is not None else [None] * n_groups for p in positions))
    return {
        key: dict(zip(hours[a:b], sums[a:b])) for key, a, b in zip(keys, [0, *ends], ends)
    }


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

    def series(symbol: Symbol) -> dict[str, float]:
        key = (run if "run" in symbol.dims else None, node if "n" in symbol.dims else None)
        return _hour_groups(symbol).get(key, {})

    companion_series = {name: series(sym) for name, sym in (companions or {}).items()}
    return _rldc_rows(series(demand), series(vre_gen), companion_series, node, run)


def _rldc_rows(d, v, companion_series, node, run) -> tuple[list[str], list[list]]:
    missing = sorted(set(d) - set(v), key=hour_index)
    if missing:
        raise KeyError(f"renewable generation misses hours {missing[:3]} for {node}/{run}")
    residual = {h: d[h] - v[h] for h in d}
    order = sorted(residual, key=lambda h: (-residual[h], hour_index(h)))
    headers = ["n", "run", "rank", "h", "residual", *companion_series.keys()]
    rows: list[list] = []
    for rank, hour in enumerate(order, start=1):
        row = [node, run, rank, hour, residual[hour]]
        row.extend(series.get(hour, 0.0) for series in companion_series.values())
        rows.append(row)
    return headers, rows


def _write_table(path: Path, headers: list[str], rows: list[list]) -> None:
    lines = [",".join(headers)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def standard_report(handler: SymbolsHandler, out_dir: Path | str) -> dict:
    """Write the standard result tables; returns the manifest.

    Sections whose input symbols are missing are skipped with a notice in
    the manifest rather than failing the report.
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
    d = _hour_groups(demand)
    g = _hour_groups(generation)
    g_tech = _hour_groups(generation, ("run", "n", "tech"))
    vre = _hour_groups(generation, where=renewable[codes[:, run_pos], codes[:, tech_pos]])
    storage = {
        column: _hour_groups(sym)
        for column, sym in (("sto_in", grab("STO_IN")), ("sto_out", grab("STO_OUT")))
        if sym is not None
    }
    slack = grab("SLACK")
    sl = _hour_groups(slack) if slack is not None else {}

    headers: list[str] | None = None
    all_rows: list[list] = []
    for run_id, run_sets in sets.items():
        disp = [t for t in run_sets.get("tech", []) if t not in res[run_id]]
        for node in run_sets.get("n", []):
            key = (run_id, node)
            d_n, g_n, sl_n = d.get(key, {}), g.get(key, {}), sl.get(key, {})
            # A run without renewables has zero renewable generation.
            vre_n = vre.get(key, {}) if res[run_id] else dict.fromkeys(d_n, 0.0)
            companions = {f"gen_{tech}": g_tech.get((*key, tech), {}) for tech in disp}
            companions.update((column, groups.get(key, {})) for column, groups in storage.items())
            sto_in, sto_out = companions.get("sto_in", {}), companions.get("sto_out", {})
            file_headers, rows = _rldc_rows(d_n, vre_n, companions, node, run_id)
            for row in rows:
                # Net imports from the balance identity: d - sum G - out + in - slack.
                h = row[3]
                row.append(
                    d_n[h] - g_n.get(h, 0.0) - sto_out.get(h, 0.0) + sto_in.get(h, 0.0) - sl_n.get(h, 0.0)
                )
            if headers is None:
                headers = file_headers + ["net_import"]
            all_rows.extend(rows)
    if headers is not None:
        _write_table(out_dir / "rldc.csv", headers, all_rows)
        manifest["tables"].append(
            {"name": "rldc.csv", "dims": ["n", "run", "rank"], "unit": "MWh/h"}
        )

