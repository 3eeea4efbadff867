import io
import json
import re
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voltaic.pipeline import report_project
from voltaic.scenarios import ScenarioSpec, parse_iteration_table, run_scenarios
from voltaic.store import (
    SymbolStore,
    _meta_text,
    extract_symbols,
    read_store,
    write_store,
)
from voltaic.symbols import LEVEL, MARGINAL, PARAMETER, Layout, Symbol

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

    def test_npz_codes_take_the_smallest_unsigned_dtype(self, merit_results, tmp_path):
        _, _, results = merit_results
        store = extract_symbols(results, REPORTING)[0]
        store.symbols["wide"] = Symbol("wide", "level", ("h",), {(f"h{i}",): 1.0 for i in range(256)})
        store.symbols["wider"] = Symbol("wider", "level", ("h",), {(f"h{i}",): 1.0 for i in range(257)})
        target = write_store(store, tmp_path, formats=("csv", "npz"))
        with zipfile.ZipFile(target / "store.npz") as zf:
            codes = {
                name[: -len("/codes.npy")]: np.lib.format.read_array(zf.open(name))
                for name in zf.namelist() if name.endswith("/codes.npy")
            }
            assert len(zf.namelist()) == 1 + 2 * len(store.symbols)  # store.json, codes and values
        assert {name: array.dtype for name, array in codes.items()} == {
            "BAL": np.uint8, "G": np.uint8, "N": np.uint8, "d": np.uint8, "wide": np.uint8, "wider": np.uint16
        }
        assert codes["G"].shape == (len(store.symbols["G"]), 3)

    def test_npz_tables_hold_only_the_labels_records_use(self, tmp_path):
        """A layout may list labels no record uses (a family with an empty
        dimension, a grouped layout): the npz writes the tables its CSVs
        read back as."""
        tables = [np.array(["a", "b", "c"]), np.array(["h1", "h2"])]
        partial = Layout(tables, np.array([[2, 0], [0, 1], [2, 1]]))
        empty = Layout(tables, np.zeros((0, 2), dtype=np.int64))
        store = SymbolStore("S0", {
            "G": Symbol.from_columns("G", "level", ("tech", "h"), partial, np.array([1.0, 2.0, 3.0])),
            "N": Symbol.from_columns("N", "level", ("tech", "h"), empty, np.zeros(0)),
        }, {"run_id": "S0"})
        target = write_store(store, tmp_path, formats=("csv", "npz"))
        back = read_store(target, "npz")
        assert_same_store(back, read_store(target, "csv"))
        assert [t.tolist() for t in back.symbols["G"].layout.labels] == [["a", "c"], ["h1", "h2"]]
        assert [t.tolist() for t in back.symbols["N"].layout.labels] == [[], []]
        oracle_write_npz_tables(store, tmp_path / "oracle.npz")
        assert (target / "store.npz").read_bytes() == (tmp_path / "oracle.npz").read_bytes()

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
    """The earlier ``store.npz`` layout: one label row per record, as wide
    as the longest label, and one zip member per field."""
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
    """The records of a label-table ``store.npz``, label by label."""
    with zipfile.ZipFile(path) as zf:
        header = json.loads(zf.read("store.json").decode())
        meta = header["meta"]
        kinds, units = meta.pop("symbol_kinds"), meta.pop("symbol_units")
        store = SymbolStore(meta.get("run_id", fallback_run_id), meta=meta)
        for name in sorted(header["dims"]):
            codes = np.lib.format.read_array(zf.open(f"{name}/codes.npy"))
            values = np.lib.format.read_array(zf.open(f"{name}/values.npy"))
            tables = [header["tables"][t] for t in header["labels"][name]]
            records = {
                tuple(table[int(c)] for table, c in zip(tables, row)): float(v) for row, v in zip(codes, values)
            }
            store.symbols[name] = Symbol(name, kinds[name], header["dims"][name], records, unit=units[name])
    return store


def oracle_write_npz_tables(store: SymbolStore, path: Path) -> None:
    """The label-table layout, made from the records: each symbol's keys
    sorted; along each dimension the sorted distinct labels as its table,
    each distinct table once in ``store.json``, in order of first use; the
    codes as positions in those tables, in the first of uint8, uint16,
    uint32 and uint64 that holds the largest table's last position."""
    tables: list[list[str]] = []
    dims, labels, members = {}, {}, {}
    for name in sorted(store.symbols):
        sym = store.symbols[name]
        keys = sorted(sym.records)
        columns = [sorted({key[d] for key in keys}) for d in range(len(sym.dims))]
        for column in columns:
            if column not in tables:
                tables.append(column)
        dims[name] = list(sym.dims)
        labels[name] = [tables.index(column) for column in columns]
        last = max((len(column) - 1 for column in columns), default=0)
        dtype = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64) if last <= np.iinfo(t).max)
        position = [{label: i for i, label in enumerate(column)} for column in columns]
        codes = [[position[d][label] for d, label in enumerate(key)] for key in keys]
        members[f"{name}/codes.npy"] = np.array(codes, dtype=dtype).reshape(len(keys), len(columns))
        members[f"{name}/values.npy"] = np.array([sym.records[key] for key in keys], dtype=float)
    meta = dict(store.meta)
    meta["symbol_kinds"] = {name: sym.value_kind for name, sym in store.symbols.items()}
    meta["symbol_units"] = {name: sym.unit for name, sym in store.symbols.items()}
    header = {"dims": dims, "labels": labels, "meta": meta, "tables": tables}
    members["store.json"] = json.dumps(header, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for key in sorted(members):
            data = members[key]
            if not isinstance(data, str):
                buf = io.BytesIO()
                np.lib.format.write_array(buf, data, allow_pickle=False)
                data = buf.getvalue()
            zf.writestr(zipfile.ZipInfo(key, date_time=(1980, 1, 1, 0, 0, 0)), data)


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


def assert_same_store(a: SymbolStore, b: SymbolStore) -> None:
    """Equal run ids, metadata, symbol order, dims, kinds, units, label
    tables, codes, and values bit for bit."""
    assert (a.run_id, a.meta) == (b.run_id, b.meta)
    assert list(a.symbols) == list(b.symbols)
    for name, x in a.symbols.items():
        y = b.symbols[name]
        assert (x.dims, x.value_kind, x.unit) == (y.dims, y.value_kind, y.unit), name
        assert [(t.dtype, t.tolist()) for t in x.layout.labels] == [(t.dtype, t.tolist()) for t in y.layout.labels]
        assert x.layout.codes.dtype == y.layout.codes.dtype and np.array_equal(x.layout.codes, y.layout.codes)
        assert x.values.tobytes() == y.values.tobytes(), name


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
            target = write_store(store, tmp_path, formats=("csv", "npz"))
            oracle_write_npz_tables(store, tmp_path / "oracle.npz")
            assert (target / "store.npz").read_bytes() == (tmp_path / "oracle.npz").read_bytes(), store.run_id

    def test_npz_reads_back_as_its_csvs(self, oracle_stores, tmp_path):
        for store in oracle_stores:
            target = write_store(store, tmp_path, formats=("csv", "npz"))
            assert_same_store(read_store(target, "npz"), read_store(target, "csv"))

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


class TestEarlierNpzLayout:
    """A ``store.npz`` with one label row per record, as written before the
    label-table layout (``oracle_write_npz``), is not read; its run's CSVs
    hold the same store."""

    def test_read_store_names_the_file(self, oracle_stores, tmp_path):
        target = write_store(oracle_stores[0], tmp_path, formats=("csv",))
        oracle_write_npz(oracle_stores[0], target / "store.npz")
        with pytest.raises(ValueError, match=re.escape(str(target / "store.npz")) + ".*CSVs beside it"):
            read_store(target, "npz")

    def test_report_reads_such_a_run_from_its_csvs(self, merit_results, tmp_path, caplog):
        _, _, results = merit_results
        for store in extract_symbols(results, REPORTING):
            write_store(store, tmp_path / "results", formats=("csv", "npz"))
        report_project(tmp_path)
        from_npz = tree_bytes(tmp_path / "report")
        earlier = tmp_path / "results" / "S0" / "store.npz"
        oracle_write_npz(read_store(earlier.parent), earlier)
        with caplog.at_level("WARNING"):
            report_project(tmp_path)
        assert tree_bytes(tmp_path / "report") == from_npz
        assert any(str(earlier) in message for message in caplog.messages)
        for path in (tmp_path / "results").rglob("store.npz"):
            path.unlink()
        report_project(tmp_path)
        assert tree_bytes(tmp_path / "report") == from_npz


# Characters a label or dimension name cannot hold in a CSV store: the field
# separator, what ``str.splitlines`` breaks lines at, and NUL (numpy's str
# arrays drop trailing NULs).
_NOT_IN_CSV = ",\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\x00"
LABELS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=_NOT_IN_CSV), max_size=90)
# Table sizes at the code dtypes' edges (uint8 holds codes up to 255).
EDGES = [127, 128, 255, 256, 257, 32767, 32768]


@st.composite
def symbols(draw, name):
    arity = draw(st.integers(0, 3))
    dims = tuple(draw(st.lists(LABELS, min_size=arity, max_size=arity)))
    kind, unit = draw(st.sampled_from([LEVEL, MARGINAL, PARAMETER])), draw(LABELS)
    if arity and draw(st.booleans()):  # one dimension with a table at a dtype edge
        d, size, other = draw(st.integers(0, arity - 1)), draw(st.sampled_from(EDGES)), draw(LABELS)
        keys = [tuple(f"{other}{i:05d}" if e == d else other for e in range(arity)) for i in range(size)]
        values = np.random.default_rng(size).standard_normal(size) * 1e3
        return Symbol(name, kind, dims, dict(zip(keys, values.tolist())), unit=unit)
    pools = [draw(st.lists(LABELS, min_size=1, max_size=5, unique=True)) for _ in range(arity)]
    keys = draw(st.lists(st.tuples(*map(st.sampled_from, pools)), unique=True, max_size=12 if arity else 1))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=len(keys), max_size=len(keys)))
    return Symbol(name, kind, dims, dict(zip(keys, values)), unit=unit)


@st.composite
def stores(draw):
    names = draw(st.lists(st.sampled_from(["G", "N", "BAL", "d", "Zü", "x_λ"]), max_size=4, unique=True))
    meta = {"run_id": "S0", "objective": draw(st.none() | st.floats(allow_nan=False, allow_infinity=False))}
    return SymbolStore("S0", {name: draw(symbols(name)) for name in names}, meta)


@settings(max_examples=60, deadline=None)
@given(store=stores())
def test_npz_round_trip_equals_the_csv_read(store, tmp_path_factory):
    target = write_store(store, tmp_path_factory.mktemp("store"), formats=("csv", "npz"))
    back = read_store(target, "npz")
    assert_same_store(back, read_store(target, "csv"))
    for name, sym in store.symbols.items():
        assert list(back.symbols[name].records.items()) == sorted(sym.records.items())


@pytest.mark.parametrize("size", [*EDGES, 65536, 65537])
def test_tables_at_dtype_edges_round_trip(size, tmp_path):
    keys = [(f"h{i:05d}", "DE") for i in range(size)]
    sym = Symbol("G", "level", ("h", "n"), dict(zip(keys, np.linspace(-1.0, 1.0, size).tolist())))
    target = write_store(SymbolStore("S0", {"G": sym}, {"run_id": "S0"}), tmp_path, formats=("csv", "npz"))
    with zipfile.ZipFile(target / "store.npz") as zf:
        codes = np.lib.format.read_array(zf.open("G/codes.npy"))
    assert codes.dtype == (np.uint8 if size <= 256 else np.uint16 if size <= 65536 else np.uint32)
    assert_same_store(read_store(target, "npz"), read_store(target, "csv"))


class TestMalformedNpz:
    """The reader checks a ``store.npz`` as outside input."""

    @pytest.fixture
    def target(self, tmp_path):
        sym = Symbol("G", "level", ("tech", "h"), {("gas", "h1"): 1.0, ("gas", "h2"): 2.0, ("wind", "h1"): 3.0})
        return write_store(SymbolStore("S0", {"G": sym}, {"run_id": "S0"}), tmp_path, ("csv", "npz"))

    def tamper(self, target, edit=lambda header: None, **arrays):
        """Rewrite the store's ``store.npz`` with its header edited in place
        by ``edit`` and the given members (``G_codes`` for ``G/codes.npy``)
        replaced."""
        path = target / "store.npz"
        with zipfile.ZipFile(path) as zf:
            members = {name: zf.read(name) for name in zf.namelist()}
        header = json.loads(members["store.json"])
        edit(header)
        members["store.json"] = json.dumps(header).encode()
        for key, array in arrays.items():
            buf = io.BytesIO()
            np.lib.format.write_array(buf, array)
            members[key.replace("_", "/") + ".npy"] = buf.getvalue()
        with zipfile.ZipFile(path, "w") as zf:
            for name, data in members.items():
                zf.writestr(name, data)

    def test_the_fixture_reads(self, target):
        self.tamper(target)
        assert_same_store(read_store(target, "npz"), read_store(target, "csv"))

    def test_unsorted_table_rejected(self, target):
        self.tamper(target, lambda header: header["tables"][0].reverse())
        with pytest.raises(ValueError, match="not sorted and unique"):
            read_store(target, "npz")

    def test_repeated_table_label_rejected(self, target):
        self.tamper(target, lambda header: header["tables"][0].append(header["tables"][0][-1]))
        with pytest.raises(ValueError, match="not sorted and unique"):
            read_store(target, "npz")

    @pytest.mark.parametrize(
        "codes",
        [np.array([[0, 0], [0, 1], [2, 0]], np.uint8), np.array([[0, 0], [0, -1], [1, 0]], np.int8),
         np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]), np.array([0, 1, 2], np.uint8)],
        ids=["past the table", "negative", "float", "one column"],
    )
    def test_codes_that_do_not_index_the_tables_rejected(self, target, codes):
        self.tamper(target, G_codes=codes)
        with pytest.raises(ValueError, match="do not index its tables"):
            read_store(target, "npz")

    def test_repeated_key_rejected(self, target):
        self.tamper(target, G_codes=np.array([[0, 0], [0, 1], [0, 1]], np.uint8))
        with pytest.raises(ValueError, match="stored twice"):
            read_store(target, "npz")

    def test_values_of_another_length_rejected(self, target):
        self.tamper(target, G_values=np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="keys of arity"):
            read_store(target, "npz")
