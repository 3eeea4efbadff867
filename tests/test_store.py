import json

import pytest

from voltaic.scenarios import parse_iteration_table, run_scenarios
from voltaic.store import (
    SymbolStore,
    extract_symbols,
    read_store,
    write_store,
)
from voltaic.symbols import Symbol

REPORTING = [("N", "level"), ("G", "level"), ("BAL", "marginal"), ("d", "level")]


@pytest.fixture
def merit_results(merit_toy):
    data, config = merit_toy
    specs = parse_iteration_table("run,\"c_var(n,'peak')\"\nS0,50\nS1,45\n")
    return data, config, run_scenarios(data, config, None, specs, mode="single_instance")


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestExtraction:
    def test_contains_exactly_requested_symbols(self, merit_results):
        _, _, results = merit_results
        stores = extract_symbols(results, [("N", "level"), ("G", "level")])
        assert sorted(stores[0].symbols) == ["G", "N"]
        assert stores[0].meta["status"] == "optimal"
        assert stores[0].meta["objective"] == pytest.approx(results[0].objective)

    def test_levels_and_marginals(self, merit_results):
        _, _, results = merit_results
        store = extract_symbols(results, REPORTING)[0]
        assert store.symbols["N"].records[("base", "N1")] == pytest.approx(15.0)
        assert store.symbols["G"].dims == ("tech", "n", "h")
        # balance marginal = price = marginal cost of the marginal unit
        assert store.symbols["BAL"].value_kind == "marginal"
        assert store.symbols["BAL"].records[("N1", "h1")] == pytest.approx(10.0)
        assert store.symbols["d"].records[("N1", "h3")] == pytest.approx(30.0)

    def test_unknown_symbol_stored_empty_with_warning(self, merit_results, caplog):
        _, _, results = merit_results
        with caplog.at_level("WARNING"):
            stores = extract_symbols(results, [("Z", "level")])
        assert stores[0].symbols["Z"].records == {}
        assert any("Z" in message for message in caplog.messages)

    def test_thread_count_does_not_change_output(self, merit_results, tmp_path):
        _, _, results = merit_results
        seq = extract_symbols(results, REPORTING, threads=1)
        par = extract_symbols(results, REPORTING, threads=4)
        for a, b in zip(seq, par):
            write_store(a, tmp_path / "seq", formats=("csv", "npz"))
            write_store(b, tmp_path / "par", formats=("csv", "npz"))
        assert tree_bytes(tmp_path / "seq") == tree_bytes(tmp_path / "par")

    def test_failed_run_keeps_meta(self, merit_toy):
        data, config = merit_toy
        specs = parse_iteration_table("run,mystery(n)\nbad,1\n")
        results = run_scenarios(data, config, None, specs, mode="rebuild")
        store = extract_symbols(results, REPORTING)[0]
        assert store.symbols == {}
        assert store.meta["status"] == "error"
        assert "mystery" in store.meta["error"]

    def test_objective_split_present(self, merit_results):
        _, _, results = merit_results
        store = extract_symbols(results, REPORTING)[0]
        total = store.meta["objective_investment"] + store.meta["objective_variable"]
        assert total == pytest.approx(store.meta["objective"], rel=1e-9)


class TestSerialization:
    def test_symbol_csv_layout(self, tmp_path):
        sym = Symbol(
            "N",
            "level",
            ("tech", "n"),
            {("b", "N1"): 1.5, ("a", "N1"): 2.0, ("a", "N2"): 0.25, ("b", "N2"): 4.0},
        )
        store = SymbolStore("S0", {"N": sym}, {"objective": 1.0})
        target = write_store(store, tmp_path)
        text = (target / "N.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "tech,n,value"
        assert len(lines) == 5
        assert lines[1] == "a,N1,2.0"  # lexicographic order

    @pytest.mark.parametrize("fmt", ["csv", "npz"])
    def test_round_trip_identity(self, merit_results, tmp_path, fmt):
        _, _, results = merit_results
        for store in extract_symbols(results, REPORTING):
            target = write_store(store, tmp_path, formats=("csv", "npz"))
            back = read_store(target, fmt)
            assert back.run_id == store.run_id
            assert sorted(back.symbols) == sorted(store.symbols)
            for name, sym in store.symbols.items():
                assert back.symbols[name].dims == sym.dims
                assert back.symbols[name].records == sym.records
                assert back.symbols[name].value_kind == sym.value_kind
            assert back.meta["objective"] == store.meta["objective"]

    @pytest.mark.parametrize("fmt", ["csv", "npz"])
    def test_long_labels_round_trip(self, tmp_path, fmt):
        node = "N" * 70
        dim = "region_" + "x" * 40
        sym = Symbol("N", "level", ("tech", dim), {("gas", node): 1.5, ("solar", node): 2.0})
        store = SymbolStore("S" * 70, {"N": sym}, {"objective": 1.0})
        back = read_store(write_store(store, tmp_path, formats=("csv", "npz")), fmt)
        assert back.symbols["N"].dims == ("tech", dim)
        assert back.symbols["N"].records == sym.records

    def test_npz_labels_take_their_natural_width(self, merit_results, tmp_path):
        import numpy as np

        _, _, results = merit_results
        target = write_store(extract_symbols(results, REPORTING)[0], tmp_path, formats=("csv", "npz"))
        with np.load(target / "store.npz") as data:
            assert data["G/keys"].dtype == np.dtype("<U4")  # longest label: "peak"
            assert data["G/dims"].dtype == np.dtype("<U4")

    def test_writes_are_byte_identical(self, merit_results, tmp_path):
        _, _, results = merit_results
        stores = extract_symbols(results, REPORTING)
        for store in stores:
            write_store(store, tmp_path / "one", formats=("csv", "npz"))
            write_store(store, tmp_path / "two", formats=("csv", "npz"))
        assert tree_bytes(tmp_path / "one") == tree_bytes(tmp_path / "two")

    def test_meta_is_sorted_json(self, merit_results, tmp_path):
        _, _, results = merit_results
        store = extract_symbols(results, REPORTING, config_echo={"end_hour": "h3"})[0]
        target = write_store(store, tmp_path)
        meta = json.loads((target / "run.meta").read_text())
        assert meta["config"] == {"end_hour": "h3"}
        assert meta["run_id"] == "S0"
