import io
import json
import zipfile
from pathlib import Path

import numpy as np
import pytest

from voltaic.scenarios import ScenarioSpec, parse_iteration_table, run_scenarios
from voltaic.store import (
    SymbolStore,
    _meta_text,
    _write_npz,
    extract_symbols,
    read_store,
    write_store,
)
from voltaic.symbols import LEVEL, PARAMETER, Symbol

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

    def test_rewrite_removes_store_files_it_does_not_write(self, tmp_path):
        n = Symbol("N", "level", ("tech",), {("a",): 1.0})
        g = Symbol("G", "level", ("tech",), {("a",): 2.0})
        target = write_store(SymbolStore("S0", {"N": n, "G": g}), tmp_path, ("csv", "npz"))
        (target / "notes.txt").write_text("kept")
        write_store(SymbolStore("S0", {"N": n}), tmp_path)
        assert sorted(p.name for p in target.iterdir()) == ["N.csv", "notes.txt", "run.meta"]
        assert sorted(read_store(target).symbols) == ["N"]

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


# -- oracles: the record-dict implementations the columnar code replaced ----

CSV_FORMAT = "csv"
NPZ_FORMAT = "npz"
_NPZ_NAME = "store.npz"
_META_NAME = "run.meta"


def oracle_symbol_csv(symbol: Symbol) -> str:
    out = io.StringIO()
    out.write(",".join([*symbol.dims, "value"]) + "\n")
    for key in sorted(symbol.records):
        out.write(",".join([*key, repr(symbol.records[key])]) + "\n")
    return out.getvalue()


def oracle_write_npz(store: SymbolStore, path: Path) -> None:
    # Label arrays take the width of their longest label: never truncated,
    # and no wider than the labels need.
    arrays: dict[str, np.ndarray] = {
        "__meta__": np.array(_meta_text(store.meta)),
        "__symbols__": np.array(sorted(store.symbols), dtype=str),
    }
    for name in sorted(store.symbols):
        sym = store.symbols[name]
        keys = sorted(sym.records)
        arrays[f"{name}/dims"] = np.array(sym.dims, dtype=str)
        arrays[f"{name}/kind"] = np.array(sym.value_kind)
        arrays[f"{name}/unit"] = np.array(sym.unit)
        if keys:
            arrays[f"{name}/keys"] = np.array(keys, dtype=str)
        else:
            arrays[f"{name}/keys"] = np.zeros((0, len(sym.dims)), dtype="<U1")
        arrays[f"{name}/values"] = np.array([sym.records[k] for k in keys], dtype=float)
    # Fixed zip timestamps keep repeated runs byte-identical.
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for key in sorted(arrays):
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.asanyarray(arrays[key]), allow_pickle=False)
            info = zipfile.ZipInfo(key + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, buf.getvalue())


def oracle_read_store(run_dir: Path | str, fmt: str = CSV_FORMAT) -> SymbolStore:
    """Load one run directory back; inverse of :func:`write_store`."""
    run_dir = Path(run_dir)
    if fmt == NPZ_FORMAT:
        return oracle_read_npz(run_dir / _NPZ_NAME, run_dir.name)
    if fmt != CSV_FORMAT:
        raise ValueError(f"unknown store format {fmt!r}")
    meta = json.loads((run_dir / _META_NAME).read_text())
    kinds = meta.pop("symbol_kinds", {})
    units = meta.pop("symbol_units", {})
    store = SymbolStore(meta.get("run_id", run_dir.name), meta=meta)
    for csv_path in sorted(run_dir.glob("*.csv")):
        name = csv_path.stem
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        dims = tuple(header[:-1])
        records: dict[tuple[str, ...], float] = {}
        for line in lines[1:]:
            parts = line.split(",")
            records[tuple(parts[:-1])] = float(parts[-1])
        kind = kinds.get(name, PARAMETER if name == "d" else LEVEL)
        store.symbols[name] = Symbol(name, kind, dims, records, unit=units.get(name, ""))
    return store


def oracle_read_npz(path: Path, fallback_run_id: str) -> SymbolStore:
    with np.load(path) as data:
        meta = json.loads(str(data["__meta__"]))
        store = SymbolStore(meta.get("run_id", fallback_run_id), meta=meta)
        for name in data["__symbols__"].tolist():
            dims = tuple(data[f"{name}/dims"].tolist())
            keys = data[f"{name}/keys"]
            values = data[f"{name}/values"]
            records = {
                tuple(str(k) for k in key): float(v) for key, v in zip(keys, values)
            }
            store.symbols[name] = Symbol(
                name, str(data[f"{name}/kind"]), dims, records, unit=str(data[f"{name}/unit"])
            )
    return store


FULL_REPORTING = REPORTING + [
    ("CU", "level"),
    ("N_STO_E", "level"),
    ("N_STO_P", "level"),
    ("STO_IN", "level"),
    ("STO_OUT", "level"),
    ("SLACK", "level"),
]


def hand_built_stores() -> list[SymbolStore]:
    long_node = "N" * 70
    sparse = Symbol(
        "G",
        "level",
        ("tech", "n", "h"),
        {("wind", "N2", "h10"): 2.5, ("gas", "N1", "h2"): -0.0, ("wind", "N1", "h9"): 1e-300,
         ("gas", "N2", "h10"): 0.1 + 0.2, ("coal", "N2", "h1"): -7.25e18},
    )
    return [
        SymbolStore("sparse", {"G": sparse, "N": Symbol("N", "level", ("tech", "n"), {})}, {"objective": 1.0}),
        SymbolStore(
            "scalar",
            {"obj": Symbol("obj", PARAMETER, (), {(): 3.5}, unit="EUR"),
             "CU": Symbol("CU", "level", (), {})},
            {"objective": 2.0},
        ),
        SymbolStore(
            "L" * 70,
            {"N": Symbol("N", "level", ("tech", "n"), {("gas", long_node): 1.5, ("solar", long_node): 2.0,
                                                      ("solar", "N1"): 0.5})},
            {"objective": None},
        ),
    ]


@pytest.fixture
def oracle_stores(merit_toy, storage_toy, sweep_toy):
    """Toy stores, the dimensionless marker beside real stores, and hand-built cases."""
    stores = []
    for run_id, (data, config) in (("merit", merit_toy), ("storage", storage_toy), ("sweep", sweep_toy)):
        results = run_scenarios(data, config, None, [ScenarioSpec(run_id)], mode="single_instance")
        stores.extend(extract_symbols(results, FULL_REPORTING, config_echo={"end_hour": "h2"}))
    assert stores[0].symbols["CU"].dims == () and not len(stores[0].symbols["CU"])
    return stores + hand_built_stores()


def same_columns(a: Symbol, b: Symbol) -> bool:
    return (a.name, a.value_kind, a.dims, a.unit) == (b.name, b.value_kind, b.dims, b.unit) and list(
        a.records.items()
    ) == list(b.records.items())


class TestAgainstRecordOracles:
    def test_csv_bytes(self, oracle_stores, tmp_path):
        for store in oracle_stores:
            target = write_store(store, tmp_path)
            for name, sym in store.symbols.items():
                assert (target / f"{name}.csv").read_bytes() == oracle_symbol_csv(sym).encode(), name

    def test_npz_bytes(self, oracle_stores, tmp_path):
        for store in oracle_stores:
            _write_npz(store, tmp_path / "new.npz")
            oracle_write_npz(store, tmp_path / "old.npz")
            assert (tmp_path / "new.npz").read_bytes() == (tmp_path / "old.npz").read_bytes(), store.run_id

    @pytest.mark.parametrize("fmt", ["csv", "npz"])
    def test_read_back(self, oracle_stores, tmp_path, fmt):
        for store in oracle_stores:
            target = write_store(store, tmp_path, formats=("csv", "npz"))
            new, old = read_store(target, fmt), oracle_read_store(target, fmt)
            assert (new.run_id, new.meta) == (old.run_id, old.meta)
            assert sorted(new.symbols) == sorted(old.symbols) == sorted(store.symbols)
            for name, sym in new.symbols.items():
                assert same_columns(sym, old.symbols[name]), name
                assert sym.records == store.symbols[name].records
                for d, dim in enumerate(sym.dims):
                    assert sym.layout.labels[d].tolist() == sym.elements(dim)

    def test_read_back_rewrites_the_same_bytes(self, oracle_stores, tmp_path):
        for store in oracle_stores:
            first = write_store(store, tmp_path / "one", formats=("csv", "npz"))
            write_store(read_store(first), tmp_path / "two", formats=("csv", "npz"))
        assert tree_bytes(tmp_path / "one") == tree_bytes(tmp_path / "two")


class TestMalformedStores:
    def write(self, tmp_path, text):
        target = write_store(SymbolStore("S0", {}, {"run_id": "S0"}), tmp_path)
        (target / "N.csv").write_text(text)
        return target

    def test_repeated_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="stored twice"):
            read_store(self.write(tmp_path, "tech,n,value\na,N1,1.0\na,N1,2.0\n"))

    def test_ragged_line_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fields"):
            read_store(self.write(tmp_path, "tech,n,value\na,N1,1.0\nb,2.0\n"))

    def test_non_finite_value_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="non-finite"):
            read_store(self.write(tmp_path, "tech,n,value\na,N1,inf\n"))
