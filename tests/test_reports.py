import json
import math
import re
from collections import Counter
from dataclasses import replace
from functools import cache
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from conftest import two_node_sweep_system
from voltaic.reports import _axis, _curve, _format, _hourly, _write_lines, rldc, standard_report
from voltaic.scenarios import RunResult, ScenarioSpec, parse_iteration_table, run_scenarios
from voltaic.store import SymbolStore, extract_symbols, read_all_stores, read_store, write_store
from voltaic.symbols import DimensionMismatch, Symbol, SymbolsHandler, aggregate
from voltaic.system import hour_index

FULL_REPORTING = [
    ("N", "level"),
    ("G", "level"),
    ("CU", "level"),
    ("N_STO_E", "level"),
    ("N_STO_P", "level"),
    ("STO_IN", "level"),
    ("STO_OUT", "level"),
    ("d", "level"),
]


def series_symbol(name, values, node="N1", run="S0"):
    records = {(run, node, f"h{i + 1}"): float(v) for i, v in enumerate(values)}
    return Symbol(name, "level", ("run", "n", "h"), records)


class TestRldc:
    def test_descending_sort(self):
        demand = series_symbol("d", [3, 1, 2])
        vre = series_symbol("G", [1, 1, 1])
        headers, rows = rldc(demand, vre, "N1", "S0")
        assert headers[:5] == ["n", "run", "rank", "h", "residual"]
        assert [r[4] for r in rows] == [2.0, 1.0, 0.0]
        assert [r[3] for r in rows] == ["h1", "h3", "h2"]

    def test_identical_series_all_zero(self):
        demand = series_symbol("d", [5, 7, 6])
        _, rows = rldc(demand, demand, "N1", "S0")
        assert [r[4] for r in rows] == [0.0, 0.0, 0.0]
        # ties broken by ascending hour
        assert [r[3] for r in rows] == ["h1", "h2", "h3"]

    def test_sum_conservation(self):
        values_d = [math.sin(i / 3.0) * 10 + 20 for i in range(50)]
        values_v = [math.cos(i / 5.0) * 8 + 9 for i in range(50)]
        demand = series_symbol("d", values_d)
        vre = series_symbol("G", values_v)
        _, rows = rldc(demand, vre, "N1", "S0")
        assert sum(r[4] for r in rows) == pytest.approx(
            sum(values_d) - sum(values_v), abs=1e-9
        )

    def test_missing_hours_rejected(self):
        demand = series_symbol("d", [1, 2, 3])
        vre = series_symbol("G", [1, 2])
        with pytest.raises(KeyError, match="h3"):
            rldc(demand, vre, "N1", "S0")

    def test_companions_reordered_with_sort(self):
        demand = series_symbol("d", [3, 1, 2])
        vre = series_symbol("G", [0, 0, 0])
        gas = series_symbol("gas", [30, 10, 20])
        headers, rows = rldc(demand, vre, "N1", "S0", companions={"gen_gas": gas})
        assert headers[-1] == "gen_gas"
        assert [r[5] for r in rows] == [30.0, 20.0, 10.0]


class TestStandardReport:
    @pytest.fixture
    def handler(self, sweep_toy):
        data, config = sweep_toy
        specs = parse_iteration_table(
            "run,\"c_i_sto_e(n,'Li-ion')\",\"c_i_sto_p(n,'Li-ion')\"\n"
            "S0,20029,15021\nS2,5007,3755\n"
        )
        results = run_scenarios(data, config, None, specs, mode="single_instance")
        return SymbolsHandler(extract_symbols(results, FULL_REPORTING)), data, config

    def test_report_files_and_manifest(self, handler, tmp_path):
        handler, data, config = handler
        manifest = standard_report(handler, tmp_path)
        names = {t["name"] for t in manifest["tables"]}
        assert {"capacity.csv", "generation.csv", "storage.csv", "rldc.csv", "summary.csv"} <= names
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk == manifest

    def test_capacity_row_count(self, handler, tmp_path):
        handler, data, config = handler
        standard_report(handler, tmp_path)
        lines = (tmp_path / "capacity.csv").read_text().splitlines()
        assert len(lines) - 1 == len(data.technologies) * len(data.nodes) * 2  # 2 runs

    def test_rldc_row_count_equals_horizon(self, handler, tmp_path):
        handler, data, config = handler
        standard_report(handler, tmp_path)
        lines = (tmp_path / "rldc.csv").read_text().splitlines()
        assert len(lines) - 1 == config.end_hour * len(data.nodes) * 2

    def test_charging_concentrates_in_surplus_hours(self, handler, tmp_path):
        # With cheap storage, charging happens mostly at the surplus end of
        # the duration curve (negative residual load).
        handler, data, config = handler
        standard_report(handler, tmp_path)
        lines = (tmp_path / "rldc.csv").read_text().splitlines()
        headers = lines[0].split(",")
        i_run, i_res = headers.index("run"), headers.index("residual")
        i_in = headers.index("sto_in")
        surplus = deficit = 0.0
        for line in lines[1:]:
            parts = line.split(",")
            if parts[i_run] != "S2":
                continue
            if float(parts[i_res]) < 0:
                surplus += float(parts[i_in])
            else:
                deficit += float(parts[i_in])
        assert surplus >= deficit

    def test_missing_symbols_noted_not_fatal(self, tmp_path):
        stores = [SymbolStore("S0", {}, {"objective": 5.0, "status": "optimal"})]
        manifest = standard_report(SymbolsHandler(stores), tmp_path)
        assert manifest["notices"]
        assert (tmp_path / "summary.csv").exists()

    def test_summary_contains_cost_split(self, handler, tmp_path):
        handler, data, config = handler
        standard_report(handler, tmp_path)
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert lines[0] == "run,status,objective,investment_cost,variable_cost"
        row = lines[1].split(",")
        assert float(row[3]) + float(row[4]) == pytest.approx(float(row[2]), rel=1e-4)

    def test_generation_table_matches_hour_aggregation(self, handler, tmp_path):
        # The emitted annual-generation cell is exactly the h-sum of G,
        # rounded only at emission.
        from voltaic.symbols import aggregate

        handler, data, config = handler
        standard_report(handler, tmp_path)
        annual = aggregate(handler.lookup("G"), "h", "sum")
        lines = (tmp_path / "generation.csv").read_text().splitlines()
        idx = {name: i for i, name in enumerate(lines[0].split(","))}
        for line in lines[1:]:
            parts = line.split(",")
            key = (parts[idx["run"]], parts[idx["tech"]], parts[idx["n"]])
            assert parts[idx["generation"]] == f"{annual.records[key]:.6g}"


# -- reference: the per-(run, node) scan the grouped report replaced ---------
# Copied verbatim from the earlier reports module (apart from names), so the
# grouped report can be held to its exact bytes.


def oracle_hour_series(symbol, node, run, selector=None):
    out = {}
    dims = symbol.dims
    h_pos = dims.index("h")
    n_pos = dims.index("n") if "n" in dims else None
    r_pos = dims.index("run") if "run" in dims else None
    selector = selector or {}
    sel_pos = {dims.index(d): set(v) for d, v in selector.items() if d in dims}
    for key, value in symbol.records.items():
        if n_pos is not None and key[n_pos] != node:
            continue
        if r_pos is not None and key[r_pos] != run:
            continue
        if any(key[p] not in allowed for p, allowed in sel_pos.items()):
            continue
        hour = key[h_pos]
        out[hour] = out.get(hour, 0.0) + value
    return out


def oracle_rldc(demand, vre_gen, node, run, companions=None):
    d = oracle_hour_series(demand, node, run)
    v = oracle_hour_series(vre_gen, node, run)
    missing = sorted(set(d) - set(v), key=hour_index)
    if missing:
        raise KeyError(f"renewable generation misses hours {missing[:3]} for {node}/{run}")
    residual = {h: d[h] - v[h] for h in d}
    order = sorted(residual, key=lambda h: (-residual[h], hour_index(h)))

    companion_series = {
        name: oracle_hour_series(sym, node, run) for name, sym in (companions or {}).items()
    }
    headers = ["n", "run", "rank", "h", "residual", *companion_series.keys()]
    rows = []
    for rank, hour in enumerate(order, start=1):
        row = [node, run, rank, hour, residual[hour]]
        row.extend(series.get(hour, 0.0) for series in companion_series.values())
        rows.append(row)
    return headers, rows


def oracle_select(symbol, techs):
    pos = symbol.dims.index("tech")
    records = {k: v for k, v in symbol.records.items() if k[pos] in techs}
    return Symbol(symbol.name, symbol.value_kind, symbol.dims, records, symbol.unit)


def oracle_net_import_rows(demand, generation, charge, discharge, slack, node, run):
    d = oracle_hour_series(demand, node, run)
    g = oracle_hour_series(generation, node, run)
    sto_in = oracle_hour_series(charge, node, run) if charge is not None else {}
    sto_out = oracle_hour_series(discharge, node, run) if discharge is not None else {}
    sl = oracle_hour_series(slack, node, run) if slack is not None else {}
    return {
        h: d.get(h, 0.0)
        - g.get(h, 0.0)
        - sto_out.get(h, 0.0)
        + sto_in.get(h, 0.0)
        - sl.get(h, 0.0)
        for h in d
    }


def oracle_rldc_csv(handler):
    def grab(name):
        try:
            return handler.lookup(name)
        except KeyError:
            return None

    demand = grab("d")
    generation = grab("G")
    gen, tail = [], []  # the dispatch columns of every run, first seen first; flows and net imports
    all_rows = []  # each row as a dict from its header to its value
    for run_id in handler.runs():
        meta = handler.meta(run_id)
        sets = meta.get("sets", {})
        res = set(sets.get("res", []))
        disp = [t for t in sets.get("tech", []) if t not in res]
        nodes = sets.get("n", [])
        vre = oracle_select(generation, res)
        companions = {}
        for tech in disp:
            companions[f"gen_{tech}"] = oracle_select(generation, {tech})
        charge = grab("STO_IN")
        discharge = grab("STO_OUT")
        if charge is not None:
            companions["sto_in"] = charge
        if discharge is not None:
            companions["sto_out"] = discharge
        for node in nodes:
            file_headers, rows = oracle_rldc(demand, vre, node, run_id, companions)
            net_import = oracle_net_import_rows(demand, generation, charge, discharge, grab("SLACK"), node, run_id)
            file_headers = file_headers + ["net_import"]
            for row in rows:
                row.append(net_import.get(row[3], 0.0))
            gen.extend(h for h in file_headers if h.startswith("gen_") and h not in gen)
            tail = [h for h in file_headers[5:] if not h.startswith("gen_")]
            all_rows.extend(dict(zip(file_headers, row)) for row in rows)
    # Runs join by column name; a run without a column reads 0 there.
    headers = ["n", "run", "rank", "h", "residual", *gen, *tail]
    lines = [",".join(headers)]
    for row in all_rows:
        cells = [row.get(h, 0.0) for h in headers]
        lines.append(",".join(f"{v:.6g}" if isinstance(v, float) else str(v) for v in cells))
    return "\n".join(lines) + "\n"


class CountingHandler(SymbolsHandler):
    def __init__(self, stores):
        super().__init__(stores)
        self.calls = Counter()

    def lookup(self, name):
        self.calls[name] += 1
        return super().lookup(name)


@pytest.fixture
def mixed_stores(sweep_toy):
    """Seven runs from two systems with different ``res`` sets, plus a failed run.

    The one-node system has renewables {solar}, the two-node one {solar,
    wind}; both run with slack, priced below gas in R01 and R03 so that
    every net-import term is non-zero somewhere. The
    runs interleave, and the systems dispatch different technologies (ccgt
    and ocgt, gas), so the RLDC joins the runs' columns by name.
    """
    one_data, one_config = sweep_toy
    two_data, two_config = two_node_sweep_system(hours=48)
    reporting = FULL_REPORTING + [("SLACK", "level")]
    one = run_scenarios(
        one_data,
        replace(one_config, infeasibility=True),
        None,
        parse_iteration_table(
            "run,\"c_i_sto_e(n,'Li-ion')\",\"c_i_sto_p(n,'Li-ion')\"\n"
            "S0,20029,15021\nS1,10014,7510\nS2,5007,3755\n"
        ),
        mode="single_instance",
    )
    two = run_scenarios(
        two_data,
        replace(two_config, infeasibility=True, slack_penalty=60.0),
        None,
        parse_iteration_table(
            "run,\"c_var(n,'gas')\"\nR00,50\nR01,80\nR02,35\nR03,65\n"
        ),
        mode="single_instance",
    )
    failed = RunResult("F0", None, (), error="worker crashed")
    results = [one[0], two[0], failed, one[1], two[1], two[2], one[2], two[3]]
    assert all(r.status == "optimal" for r in results if r is not failed)
    return extract_symbols(results, reporting)


class TestGroupedReport:
    @pytest.mark.parametrize("source", ["memory", "disk"])
    def test_rldc_matches_per_pair_scan(self, mixed_stores, source, tmp_path):
        stores = mixed_stores
        if source == "disk":
            for store in stores:
                write_store(store, tmp_path / "results")
            stores = read_all_stores(tmp_path / "results")
        handler = SymbolsHandler(stores)
        assert "sets" not in handler.meta("F0")
        assert len({tuple(handler.meta(r)["sets"]["res"]) for r in handler.runs() if r != "F0"}) == 2
        standard_report(handler, tmp_path / "report")
        assert (tmp_path / "report" / "rldc.csv").read_text() == oracle_rldc_csv(handler)

    def test_lookups_do_not_grow_with_runs(self, mixed_stores, tmp_path):
        # Each run is reported from its own store: no symbol is joined
        # across runs, however many there are.
        base = [s for s in mixed_stores if s.run_id in ("S0", "R00")]
        for copies in (1, 4):  # 2 and 8 stores
            stores = [
                SymbolStore(f"{store.run_id}_{i}", store.symbols, store.meta)
                for i in range(copies)
                for store in base
            ]
            handler = CountingHandler(stores)
            standard_report(handler, tmp_path / f"report{len(stores)}")
            assert not handler.calls, handler.calls
            summary = (tmp_path / f"report{len(stores)}" / "summary.csv").read_text().splitlines()
            assert [line.split(",")[0] for line in summary[1:]] == [store.run_id for store in stores]


def oracle_hour_groups(symbol, by=("run", "n"), where=None):
    """The record loop the columnar grouping replaced, over the records in
    sorted-key order (as a store lists them on disk); ``where`` takes a key."""
    dims = symbol.dims
    h_pos = dims.index("h")
    positions = [dims.index(d) if d in dims else None for d in by]
    groups = {}
    for key, value in sorted(symbol.records.items()):
        if where is not None and not where(key):
            continue
        series = groups.setdefault(tuple(None if p is None else key[p] for p in positions), {})
        hour = key[h_pos]
        series[hour] = series.get(hour, 0.0) + value
    return groups


def _hour_groups(symbol, by=("run", "n"), where=None):
    """``_hourly`` on the symbol's own hours, as ``{group: {hour: sum}}``
    over the hours each group has records at."""
    hours = symbol.layout.labels[symbol.dims.index("h")]
    return {
        key: {h: v for h, v, p in zip(hours.tolist(), sums.tolist(), present.tolist()) if p}
        for key, (sums, present) in _hourly(symbol, hours, by, where).items()
    }


class TestHourGroups:
    @pytest.mark.parametrize("by", [("run", "n"), ("run", "n", "tech"), ("run", "sto"), ("n",)])
    def test_matches_record_loop_bitwise(self, mixed_stores, by):
        handler = SymbolsHandler(mixed_stores)
        for name in ("G", "d", "STO_IN", "SLACK"):
            symbol = handler.lookup(name)
            new, old = _hour_groups(symbol, by), oracle_hour_groups(symbol, by)
            assert list(new) == list(old)  # groups in order of first record, sorted-key order
            for key in old:
                assert {h: v.hex() for h, v in new[key].items()} == {h: v.hex() for h, v in old[key].items()}

    def test_sums_in_sorted_key_order_whatever_the_record_order(self, tmp_path):
        # Summed as a, b, c the 1.0 is lost; summed as c, b, a it is kept.
        records = {("c", "N1", "h1"): -1e16, ("b", "N1", "h1"): 1e16, ("a", "N1", "h1"): 1.0}
        memory = SymbolStore("S0", {"G": Symbol("G", "level", ("tech", "n", "h"), records)})
        disk = read_store(write_store(memory, tmp_path))
        sums = [_hour_groups(SymbolsHandler([s]).lookup("G")) for s in (memory, disk)]
        assert sums[0] == sums[1] == {("S0", "N1"): {"h1": 0.0}}

    def test_mask_matches_key_filter(self, mixed_stores):
        generation = SymbolsHandler(mixed_stores).lookup("G")
        keep = {("S0", "solar"), ("R01", "wind"), ("R02", "gas")}
        mask = np.array([(key[0], key[1]) in keep for key in generation.records])
        new = _hour_groups(generation, where=mask)
        old = oracle_hour_groups(generation, where=lambda key: (key[0], key[1]) in keep)
        assert new.keys() == old.keys() and all(new[k] == old[k] for k in old)
        assert _hour_groups(generation, where=np.zeros(len(generation), dtype=bool)) == {}


class TestHourly:
    @pytest.mark.parametrize("by", [("run", "n"), ("run", "n", "tech"), ("run", "sto"), ("n",)])
    def test_matches_record_loop_bitwise_on_the_axis(self, mixed_stores, by):
        handler = SymbolsHandler(mixed_stores)
        # An axis that misses some of the symbols' hours and has one they lack.
        axis = np.array(sorted([f"h{i}" for i in range(3, 40)] + ["h99"]))
        for name in ("G", "d", "STO_IN", "SLACK"):
            symbol = handler.lookup(name)
            new, old = _hourly(symbol, axis, by), oracle_hour_groups(symbol, by)
            assert list(new) == list(old)
            for key, series in old.items():
                sums, present = new[key]
                assert present.tolist() == [h in series for h in axis.tolist()]
                assert [v.hex() for v in sums.tolist()] == [series.get(h, 0.0).hex() for h in axis.tolist()]


def oracle_write_table(path, headers, rows):
    """The report's writer before it formatted by row templates."""
    lines = [",".join(headers)]
    for row in rows:
        lines.append(",".join(f"{v:.6g}" if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def test_write_table_equals_per_cell_formatting(tmp_path):
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e-320, 123456.5, 1234567.0, -2.5e-7, 1 / 3]
    rows = [
        ["N1", "S0", 1, "h1", *specials[:3]],
        ("N1", "S0", 2, "h2", *specials[3:6]),
        ["N1", "S0", 3, "h3", *specials[6:9]],
        [np.float64(-0.0), np.float64(2.25), np.int64(7), True, None, "a%sb", specials[9]],
        [],
        ["x", 5, 1.5],
    ]
    headers = ["n", "run", "rank", "h", "a", "b", "c"]
    _write_lines(tmp_path / "new.csv", headers, _format(rows))
    oracle_write_table(tmp_path / "old.csv", headers, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestNoRenewables:
    @pytest.fixture
    def stores(self, merit_toy):
        data, config = merit_toy
        results = run_scenarios(
            data, config, None, parse_iteration_table("run,\"c_var(n,'peak')\"\nS0,50\n"),
            mode="single_instance",
        )
        return extract_symbols(results, FULL_REPORTING)

    def test_empty_symbol_noted_and_rldc_uses_zero_renewables(self, stores, tmp_path):
        assert stores[0].symbols["CU"].dims == ()
        manifest = standard_report(SymbolsHandler(stores), tmp_path)
        assert any("CU" in notice for notice in manifest["notices"])
        assert {"capacity.csv", "generation.csv", "rldc.csv"} <= {t["name"] for t in manifest["tables"]}
        lines = (tmp_path / "rldc.csv").read_text().splitlines()
        residual = [float(line.split(",")[4]) for line in lines[1:]]
        assert residual == [30.0, 20.0, 10.0]  # demand, sorted descending


class TestMixedStores:
    """One run's model lacks renewables and storage, the other's has both."""

    @pytest.fixture
    def stores(self, sweep_toy, merit_toy):
        stores = []
        for run_id, (data, config) in (("A", sweep_toy), ("B", merit_toy)):
            results = run_scenarios(data, config, None, [ScenarioSpec(run_id)], mode="single_instance")
            stores.extend(extract_symbols(results, FULL_REPORTING))
        return stores

    @pytest.mark.parametrize("step", [1, -1], ids=["marker_last", "marker_first"])
    def test_absent_symbol_contributes_no_keys(self, stores, step):
        cu = SymbolsHandler(stores[::step]).lookup("CU")
        assert stores[1].symbols["CU"].dims == ()
        assert cu.dims == ("run", "res", "n", "h")
        assert {key[0] for key in cu.records} == {"A"}
        assert len(cu) == len(stores[0].symbols["CU"])

    def test_report_covers_both_runs(self, stores, tmp_path):
        manifest = standard_report(SymbolsHandler(stores), tmp_path)
        tables = {t["name"] for t in manifest["tables"]}
        assert {"capacity.csv", "generation.csv", "rldc.csv", "storage.csv"} <= tables
        assert not any("not extracted" in notice for notice in manifest["notices"])
        rows = [line.split(",") for line in (tmp_path / "rldc.csv").read_text().splitlines()[1:]]
        assert {row[1] for row in rows} == {"A", "B"}
        residual_b = [float(row[4]) for row in rows if row[1] == "B"]
        assert residual_b == [30.0, 20.0, 10.0]  # no renewables: demand, sorted descending


def test_run_report_from_memory_equals_report_from_disk(tmp_path, monkeypatch):
    """``run_project`` reports from the stores it holds, without reading them
    back, and writes what ``report_project`` writes from the stores on disk,
    also when the model lists technologies, and the table its runs, out of
    label order."""
    from voltaic import pipeline, store
    from voltaic.templates import create_project

    root = create_project("demo", "example2", tmp_path)
    for path in (root / "data_input" / "static_input" / "technologies.csv",
                 root / "iterationfiles" / "iteration_table.csv"):
        header, *rows = path.read_text().splitlines()
        assert rows[::-1] != sorted(rows)
        path.write_text("\n".join([header, *rows[::-1]]) + "\n")

    def no_read(*args, **kwargs):
        raise AssertionError("run_project read a store back")

    with monkeypatch.context() as patched:
        patched.setattr(store, "read_store", no_read)
        patched.setattr(pipeline, "read_run", no_read)
        assert pipeline.run_project(root).all_optimal
    from_memory = {p.name: p.read_bytes() for p in sorted((root / "report").iterdir())}
    pipeline.report_project(root)
    from_disk = {p.name: p.read_bytes() for p in sorted((root / "report").iterdir())}
    assert len(from_memory) == 6
    assert from_memory == from_disk


def _rldc_table(path):
    """``rldc.csv``'s header and its rows, each as a dict from header to cell."""
    header, *lines = path.read_text().splitlines()
    header = header.split(",")
    rows = [line.split(",") for line in lines]
    assert {len(row) for row in rows} == {len(header)}, "rows of another width than the header"
    return header, [dict(zip(header, row)) for row in rows]


class TestJoiningRuns:
    """The report joins symbols across runs by the rule lookups use, and
    the RLDC's columns by name: the header lists every run's dispatch
    columns, and a run reads 0 in a column it does not have."""

    def test_report_over_a_run_with_another_dispatchable(self, tmp_path):
        from voltaic.cli import main
        from voltaic.templates import create_project

        root = create_project("demo", "minimal", tmp_path)
        assert main(["run", str(root)]) == 0
        with open(root / "data_input" / "static_input" / "technologies.csv", "a") as f:
            f.write("oil,dispatchable,0.0,0.0,60.0,0.3,0.0,10.0\n")
        settings = root / "settings" / "project_variables.csv"
        settings.write_text(settings.read_text().replace("scenarios_iteration,no", "scenarios_iteration,yes"))
        (root / "iterationfiles" / "iteration_table.csv").write_text("run\nwith_oil\n")
        assert main(["run", str(root)]) == 0
        assert main(["report", str(root)]) == 0
        header, rows = _rldc_table(root / "report" / "rldc.csv")
        assert header == ["n", "run", "rank", "h", "residual", "gen_gas", "gen_oil", "sto_in", "sto_out", "net_import"]
        assert {row["run"] for row in rows} == {"base", "with_oil"}
        assert {row["gen_oil"] for row in rows if row["run"] == "base"} == {"0"}
        assert "10" in {row["gen_oil"] for row in rows if row["run"] == "with_oil"}

    @pytest.mark.parametrize("name", ["N_STO_P", "N", "N_STO_E", "G"])
    @pytest.mark.parametrize("step", [1, -1], ids=["full_first", "folded_first"])
    def test_dims_mismatch_raises_as_lookup_does(self, sweep_toy, step, name, tmp_path):
        """A symbol folded over ``n`` in one run: the report raises what a
        lookup raises, in either run order; folded in every run, it raises
        for the dims it reads the symbol by."""
        data, config = sweep_toy
        specs = [ScenarioSpec("S0"), ScenarioSpec("S1")]
        stores = extract_symbols(run_scenarios(data, config, None, specs, mode="single_instance"), FULL_REPORTING)
        full = stores[0].symbols[name].dims
        folded = tuple(d for d in full if d != "n")
        stores[1].symbols[name] = aggregate(stores[1].symbols[name], "n").rename(name)
        stores = stores[::step]
        with pytest.raises(DimensionMismatch) as lookup:
            SymbolsHandler(stores).lookup(name)
        with pytest.raises(DimensionMismatch) as report:
            standard_report(SymbolsHandler(stores), tmp_path)
        assert str(report.value) == str(lookup.value)
        expected, other = (full, folded)[::step]
        assert str(lookup.value) == f"symbol {name!r} has dims {other} in run {stores[1].run_id}, expected {expected}"
        full_store = next(store for store in stores if store.symbols[name].dims == full)
        full_store.symbols[name] = aggregate(full_store.symbols[name], "n").rename(name)
        with pytest.raises(DimensionMismatch, match=re.escape(
            f"symbol {name!r} has dims {folded} in run {stores[0].run_id}, expected {full}"
        )):
            standard_report(SymbolsHandler(stores), tmp_path)


# -- reference: the report made from symbols joined across runs --------------
# ``standard_report`` as it was before the report was split into per-run
# partials and a merge (apart from names, logging and the RLDC, whose columns
# now join by name), so the merged report can be held to its exact bytes.

_STACKED_TABLES = ("capacity.csv", "generation.csv", "storage.csv", "rldc.csv", "summary.csv")


def stacked_report(handler, out_dir):
    """``standard_report`` as it was made from symbols joined across runs."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"tables": [], "notices": []}

    def notice(msg: str) -> None:
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
        _write_lines(out_dir / "capacity.csv", ["tech", "n", "run", "value"], _format(rows))
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
        _write_lines(
            out_dir / "generation.csv",
            ["tech", "n", "run", "generation", "curtailment"],
            _format(rows),
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
        _write_lines(
            out_dir / "storage.csv",
            ["sto", "n", "run", "energy_cap", "power_cap", "charge", "discharge"],
            _format(rows),
        )
        manifest["tables"].append(
            {"name": "storage.csv", "dims": ["sto", "n", "run"], "unit": "MWh/MW"}
        )
    elif sto_e is None or sto_p is None:
        notice("storage.csv skipped: storage symbols not extracted")

    _stacked_rldc(handler, out_dir, manifest, notice, grab)

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
    _write_lines(
        out_dir / "summary.csv",
        ["run", "status", "objective", "investment_cost", "variable_cost"],
        _format(rows),
    )
    manifest["tables"].append({"name": "summary.csv", "dims": ["run"], "unit": "EUR"})

    written = {table["name"] for table in manifest["tables"]}
    for name in _STACKED_TABLES:
        if name not in written:  # left by an earlier report, it would read as this one's
            (out_dir / name).unlink(missing_ok=True)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest


def _stacked_rldc(handler, out_dir, manifest, notice, grab):
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

    gen: list[str] = []  # the dispatch columns of every run with nodes, first seen first
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
            names = [*(f"gen_{t}" for t in disp), *storage, "net_import"]
            curves.append((names, _curve(node, run_id, axis, d_n, vre.get(key, blank) if res[run_id] else None, columns)))
            gen.extend(name for name in names if name.startswith("gen_") and name not in gen)
    if curves:
        # Runs join by column name; a run without a column reads 0 there.
        headers = ["n", "run", "rank", "h", "residual", *gen, *storage, "net_import"]

        def joined(names, curve):
            for row in curve:
                cells = dict(zip(names, row[5:]))
                yield [*row[:5], *(cells.get(h, 0.0) for h in headers[5:])]

        _write_lines(out_dir / "rldc.csv", headers, _format(chain.from_iterable(joined(*curve) for curve in curves)))
        manifest["tables"].append(
            {"name": "rldc.csv", "dims": ["n", "run", "rank"], "unit": "MWh/h"}
        )


def _tree_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _assert_stacked(stores, report_dir, tmp_path):
    """``report_dir`` holds, byte for byte, what the joined report makes of ``stores``."""
    expected = tmp_path / "stacked"
    stacked_report(SymbolsHandler(stores), expected)
    assert _tree_bytes(report_dir) == _tree_bytes(expected)


class TestMergedEqualsStacked:
    """The report merged from per-run partials is the report made from the
    symbols joined across runs, table for table and byte for byte."""

    @pytest.mark.parametrize("template", ["example1", "example2"])
    def test_project_sweeps(self, template, tmp_path):
        from voltaic.pipeline import report_project, run_project
        from voltaic.templates import create_project

        root = create_project("demo", template, tmp_path)
        assert run_project(root, mode="parallel", threads=2).all_optimal
        stores = read_all_stores(root / "results")
        _assert_stacked(stores, root / "report", tmp_path)
        report_project(root)
        _assert_stacked(stores, root / "report", tmp_path)

    @pytest.mark.parametrize("source", ["memory", "disk"])
    def test_slack_different_renewables_and_a_failed_run(self, mixed_stores, source, tmp_path):
        stores = mixed_stores
        if source == "disk":
            for store in stores:
                write_store(store, tmp_path / "results")
            stores = read_all_stores(tmp_path / "results")
        assert any(len(store.symbols.get("SLACK", ())) for store in stores)
        standard_report(SymbolsHandler(stores), tmp_path / "report")
        _assert_stacked(stores, tmp_path / "report", tmp_path)

    def test_no_renewables(self, merit_toy, tmp_path):
        data, config = merit_toy
        results = run_scenarios(data, config, None, [ScenarioSpec("S0"), ScenarioSpec("S1")], mode="rebuild")
        stores = extract_symbols(results, FULL_REPORTING)
        assert stores[0].symbols["CU"].dims == ()
        standard_report(SymbolsHandler(stores), tmp_path / "report")
        _assert_stacked(stores, tmp_path / "report", tmp_path)

    @pytest.mark.parametrize("step", [1, -1], ids=["flows_first", "flows_last"])
    def test_runs_with_and_without_renewables_and_storage(self, sweep_toy, merit_toy, step, tmp_path):
        stores = []
        for run_id, (data, config) in (("A", sweep_toy), ("B", merit_toy)):
            results = run_scenarios(data, config, None, [ScenarioSpec(run_id)], mode="single_instance")
            stores.extend(extract_symbols(results, FULL_REPORTING + [("SLACK", "level")]))
        stores = stores[::step]
        standard_report(SymbolsHandler(stores), tmp_path / "report")
        _assert_stacked(stores, tmp_path / "report", tmp_path)
        # The runs dispatch different technologies (ccgt and ocgt, base and
        # peak): each run reads as in a report of its own, and 0 in the
        # columns only the other run has.
        header, rows = _rldc_table(tmp_path / "report" / "rldc.csv")
        dispatch = [["gen_ccgt", "gen_ocgt"], ["gen_base", "gen_peak"]][::step]
        assert header == ["n", "run", "rank", "h", "residual", *dispatch[0], *dispatch[1], "sto_in", "sto_out",
                          "net_import"]
        for store in stores:
            standard_report(SymbolsHandler([store]), tmp_path / store.run_id)
            _, alone = _rldc_table(tmp_path / store.run_id / "rldc.csv")
            assert [{h: row.get(h, "0") for h in header} for row in alone] == [r for r in rows if r["run"] == store.run_id]
        b = [row for row in rows if row["run"] == "B"]
        assert {(row["gen_ccgt"], row["gen_ocgt"]) for row in b} == {("0", "0")}
        # Demand 10, 20, 30 met by base (15 MW) first, then peak.
        assert [(row["gen_base"], row["gen_peak"]) for row in b] == [("15", "15"), ("15", "5"), ("10", "0")]

    def test_rows_with_different_country_sets(self, tmp_path):
        from voltaic.pipeline import run_project
        from voltaic.templates import create_project

        root = create_project("demo", "example2", tmp_path)
        (root / "iterationfiles" / "iteration_table.csv").write_text(
            "run,country_set,min_renewable_share('DE')\nboth,\"DE,FR\",0.5\nde,DE,0.6\nfr,FR,\nde2,DE,0.7\n"
        )
        assert run_project(root, mode="single_instance").all_optimal
        stores = read_all_stores(root / "results")
        assert len({tuple(store.meta["sets"]["n"]) for store in stores}) == 3
        _assert_stacked(stores, root / "report", tmp_path)

    def test_report_over_a_stale_store_of_another_horizon(self, tmp_path):
        from voltaic.pipeline import report_project, run_project
        from voltaic.project import load_project
        from voltaic.templates import create_project

        root = create_project("demo", "example2", tmp_path)
        assert run_project(root).all_optimal
        project = load_project(root)
        short = replace(project.config, end_hour=24)
        results = run_scenarios(project.data, short, project.features, [ScenarioSpec("old")], mode="rebuild")
        for store in extract_symbols(results, project.reporting):
            write_store(store, root / "results")  # CSVs only, beside stores with store.npz
        stores = read_all_stores(root / "results")
        assert {len(store.symbols["d"]) for store in stores} == {2 * 24, 2 * 168}
        report_project(root)
        _assert_stacked(stores, root / "report", tmp_path)
