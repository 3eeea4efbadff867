import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_binop
from voltaic.scenarios import ScenarioSpec, run_scenarios
from voltaic.store import SymbolStore, extract_symbols
from voltaic.symbols import DimensionMismatch, Symbol, SymbolsHandler, _absent, aggregate, binop

DIM_POOL = ("i", "j", "k")
LABELS = {"i": ("a", "b"), "j": ("x", "y", "z"), "k": ("p", "q")}


def sym(name, dims, records, kind="level"):
    return Symbol(name, kind, tuple(dims), dict(records))


def symbols_strategy():
    @st.composite
    def _symbols(draw):
        n_large = draw(st.integers(1, 3))
        large_dims = DIM_POOL[:n_large]
        small_dims = tuple(d for d in large_dims if draw(st.booleans()))
        values = st.integers(-4, 4).map(float)

        def records_for(dims):
            keys = list(product(*(LABELS[d] for d in dims))) or [()]
            chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys)))
            return {k: draw(values) for k in chosen}

        a = sym("a", large_dims, records_for(large_dims))
        b = sym("b", small_dims, records_for(small_dims))
        if draw(st.booleans()):
            a, b = b, a
        return a, b

    return _symbols()


@settings(max_examples=300, deadline=None)
@given(symbols_strategy(), st.sampled_from("+-*/"))
def test_binop_matches_bruteforce_oracle(pair, op):
    a, b = pair
    result = binop(a, b, op)
    assert result.records == oracle_binop(a, b, op)


def test_self_sum_doubles():
    g = sym("G", ("i", "j"), {("a", "x"): 2.0, ("b", "y"): -1.5})
    doubled = g + g
    assert doubled.dims == g.dims
    assert doubled.records == {("a", "x"): 4.0, ("b", "y"): -3.0}


def test_self_difference_is_zero():
    g = sym("G", ("i", "j"), {("a", "x"): 2.0, ("b", "y"): -1.5})
    zero = g - g
    assert set(zero.records) == set(g.records)
    assert all(v == 0.0 for v in zero.records.values())


def test_scalar_multiplication():
    n = sym("N", ("i",), {("a",): 10.0, ("b",): 4.0})
    half = 0.5 * n
    assert half.records == {("a",): 5.0, ("b",): 2.0}
    assert (1 * n).records == n.records


def test_capacity_factor_broadcast():
    g = sym("G", ("i", "j"), {("a", "x"): 5.0, ("a", "y"): 2.0, ("b", "x"): 3.0})
    n = sym("N", ("i",), {("a",): 10.0, ("b",): 6.0})
    cf = g / n
    assert cf.dims == ("i", "j")
    assert cf.records[("a", "x")] == pytest.approx(0.5)
    assert cf.records[("a", "y")] == pytest.approx(0.2)
    assert cf.records[("b", "x")] == pytest.approx(0.5)


def test_division_by_zero_drops_key_and_counts():
    a = sym("a", ("i",), {("a",): 1.0, ("b",): 2.0})
    b = sym("b", ("i",), {("a",): 0.0, ("b",): 4.0})
    out = a / b
    assert out.records == {("b",): 0.5}
    assert out.warning_count == 1


def test_union_semantics_for_addition():
    a = sym("a", ("i",), {("a",): 1.0})
    b = sym("b", ("i",), {("b",): 3.0})
    assert (a + b).records == {("a",): 1.0, ("b",): 3.0}
    assert (a - b).records == {("a",): 1.0, ("b",): -3.0}


def test_intersection_semantics_for_multiplication():
    a = sym("a", ("i",), {("a",): 1.0, ("b",): 2.0})
    b = sym("b", ("i",), {("b",): 3.0})
    assert (a * b).records == {("b",): 6.0}


def test_dimension_mismatch_names_both():
    a = sym("a", ("i",), {("a",): 1.0})
    b = sym("b", ("j",), {("x",): 1.0})
    with pytest.raises(DimensionMismatch, match=r"\('i',\).*\('j',\)"):
        binop(a, b, "+")


def test_mismatched_key_arity_rejected():
    with pytest.raises(ValueError, match="arity"):
        sym("bad", ("i", "j"), {("a",): 1.0})


def test_non_finite_values_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        sym("bad", ("i",), {("a",): float("inf")})


class TestAggregate:
    G = sym(
        "G",
        ("i", "j"),
        {("a", "x"): 1.0, ("a", "y"): 2.0, ("b", "x"): 5.0},
    )

    def test_sum(self):
        total = aggregate(self.G, "j", "sum")
        assert total.dims == ("i",)
        assert total.records == {("a",): 3.0, ("b",): 5.0}

    def test_mean_and_max(self):
        assert aggregate(self.G, "j", "mean").records == {("a",): 1.5, ("b",): 5.0}
        assert aggregate(self.G, "j", "max").records == {("a",): 2.0, ("b",): 5.0}

    def test_single_element_dim(self):
        g = sym("g", ("i",), {("a",): 7.0})
        out = aggregate(g, "i", "sum")
        assert out.dims == ()
        assert out.records == {(): 7.0}

    def test_unknown_dim(self):
        with pytest.raises(KeyError):
            aggregate(self.G, "h", "sum")


class TestHandler:
    def make_stores(self):
        s0 = SymbolStore("S0", {"N": sym("N", ("i",), {("a",): 1.0})}, {"objective": 10.0})
        s1 = SymbolStore("S1", {"N": sym("N", ("i",), {("a",): 2.0, ("b",): 4.0})}, {"objective": 8.0})
        s2 = SymbolStore("S2", {}, {"objective": None})
        return [s0, s1, s2]

    def test_lookup_adds_run_dim(self):
        handler = SymbolsHandler(self.make_stores())
        n = handler.lookup("N")
        assert n.dims == ("run", "i")
        assert n.records == {("S0", "a"): 1.0, ("S1", "a"): 2.0, ("S1", "b"): 4.0}

    def test_missing_combinations_are_absent_not_zero(self):
        handler = SymbolsHandler(self.make_stores())
        n = handler.lookup("N")
        assert ("S0", "b") not in n.records
        assert ("S2", "a") not in n.records

    def test_unknown_symbol(self):
        handler = SymbolsHandler(self.make_stores())
        with pytest.raises(KeyError):
            handler.lookup("Z")


# -- oracles: the record-dict implementations the columnar code replaced ----


def oracle_aggregate(symbol: Symbol, over: str, how: str = "sum") -> Symbol:
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


class OracleHandler(SymbolsHandler):
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
            if sym is None or (first is not None and _absent(sym.dims, len(sym))):
                continue
            if first is None or _absent(first.dims, len(first)):
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


REPORTED = [
    ("N", "level"), ("G", "level"), ("CU", "level"), ("STO_IN", "level"), ("BAL", "marginal"),
    ("d", "level"), ("SLACK", "level"),
]


@pytest.fixture
def toy_stores(merit_toy, storage_toy, sweep_toy):
    stores = []
    for run_id, (data, config) in (("B", merit_toy), ("A", storage_toy), ("C", sweep_toy)):
        results = run_scenarios(data, config, None, [ScenarioSpec(run_id)], mode="single_instance")
        stores.extend(extract_symbols(results, REPORTED))
    long_label = "x" * 70
    stores += [
        SymbolStore("S" * 70, {
            "G": sym("G", ("tech", "n", "h"), {("wind", long_label, "h2"): 2.5, ("gas", "N1", "h1"): -0.0,
                                               ("gas", long_label, "h1"): 0.1 + 0.2, ("gas", "N1", "h2"): 1e-300}),
            "N": sym("N", ("tech", "n"), {}),
        }, {}),
        SymbolStore("D", {"scalar": sym("scalar", (), {(): 3.5}), "CU": sym("CU", (), {})}, {}),
        SymbolStore("E", {"scalar": sym("scalar", (), {(): -1.25})}, {}),
    ]
    return stores


def same_records(a: Symbol, b: Symbol) -> bool:
    """Equal metadata and the same records in the same order, bit for bit."""
    return (a.name, a.value_kind, a.dims, a.unit) == (b.name, b.value_kind, b.dims, b.unit) and [
        (k, math.copysign(1.0, v), v) for k, v in a.records.items()
    ] == [(k, math.copysign(1.0, v), v) for k, v in b.records.items()]


class TestAgainstRecordOracles:
    NAMES = ["N", "G", "CU", "STO_IN", "BAL", "d", "SLACK", "scalar"]

    @pytest.mark.parametrize("order", [1, -1], ids=["forward", "reverse"])
    def test_lookup(self, toy_stores, order):
        stores = toy_stores[::order]
        new, old = SymbolsHandler(stores), OracleHandler(stores)
        assert not len(new.lookup("SLACK")) and new.lookup("SLACK").dims == ("run",)
        for name in self.NAMES:
            assert same_records(new.lookup(name), old.lookup(name)), name
        for handler in (new, old):
            with pytest.raises(KeyError):
                handler.lookup("Z")

    @pytest.mark.parametrize("how", ["sum", "mean", "max"])
    def test_aggregate(self, toy_stores, how):
        handler = SymbolsHandler(toy_stores)
        checked = 0
        for name in self.NAMES:
            looked_up = handler.lookup(name)
            symbols = [looked_up] + [s.symbols[name] for s in toy_stores if name in s.symbols]
            for symbol in symbols:
                for dim in symbol.dims:
                    assert same_records(aggregate(symbol, dim, how), oracle_aggregate(symbol, dim, how))
                    checked += 1
        assert checked > 50
        with pytest.raises(KeyError):
            aggregate(handler.lookup("N"), "h", how)

    def test_aggregate_signed_zero_and_ties(self):
        g = sym("G", ("i", "j"), {("a", "x"): 0.0, ("a", "y"): -0.0, ("b", "x"): -0.0, ("b", "y"): 0.0})
        for how in ("sum", "mean", "max"):
            assert same_records(aggregate(g, "j", how), oracle_aggregate(g, "j", how))


class TestColumns:
    def test_records_is_a_read_only_cached_view(self):
        g = sym("G", ("i", "j"), {("b", "x"): 1.0, ("a", "y"): 2.0})
        assert g.records is g.records
        assert list(g.records) == [("b", "x"), ("a", "y")]  # record order kept
        with pytest.raises(TypeError):
            g.records[("c", "z")] = 3.0
        with pytest.raises(AttributeError):
            g.name = "H"
        with pytest.raises(ValueError):
            g.values[0] = 5.0

    def test_layout_columns(self):
        g = sym("G", ("i", "j"), {("b", "x"): 1.0, ("a", "y"): 2.0, ("b", "y"): 3.0})
        assert [t.tolist() for t in g.layout.labels] == [["a", "b"], ["x", "y"]]
        assert g.layout.codes.tolist() == [[1, 0], [0, 1], [1, 1]]
        assert g.values.tolist() == [1.0, 2.0, 3.0]
        assert g.layout.order.tolist() == [1, 0, 2]
        assert g.elements("j") == ["x", "y"]
        assert g == sym("G", ("i", "j"), {("a", "y"): 2.0, ("b", "y"): 3.0, ("b", "x"): 1.0})
        assert g != g.rename("H")

    def test_from_columns_checks_arity_and_finiteness(self):
        layout = sym("G", ("i",), {("a",): 1.0}).layout
        with pytest.raises(ValueError, match="arity"):
            Symbol.from_columns("bad", "level", ("i", "j"), layout, np.array([1.0]))
        with pytest.raises(ValueError, match=r"non-finite value at \('a',\)"):
            Symbol.from_columns("bad", "level", ("i",), layout, np.array([np.nan]))

    @pytest.mark.parametrize("copy_of", ["pickle", "deepcopy"])
    def test_round_trip_keeps_columns_and_drops_caches(self, copy_of):
        import copy
        import pickle

        from voltaic.store import _csv_prefixes

        g = Symbol("G", "level", ("tech", "n"), {("gas", "DE"): 1.0, ("coal", "FR"): -0.1, ("coal", "DE"): 3e-17},
                   unit="MWh")
        g.layout.order, g.records, g.layout.view(_csv_prefixes)  # fill every cache
        back = pickle.loads(pickle.dumps(g)) if copy_of == "pickle" else copy.deepcopy(g)
        assert (back.name, back.value_kind, back.dims, back.unit) == ("G", "level", ("tech", "n"), "MWh")
        assert back.layout.codes.tolist() == g.layout.codes.tolist()
        assert [t.tolist() for t in back.layout.labels] == [t.tolist() for t in g.layout.labels]
        assert back.values.tobytes() == g.values.tobytes()
        assert back.layout._order is None and back.layout._views == {} and back._records is None
        assert not back.values.flags.writeable and not back.layout.codes.flags.writeable
        assert not any(t.flags.writeable for t in back.layout.labels)
        assert back == g

    def test_symbols_sharing_a_layout_pickle_it_once(self):
        import pickle

        g = sym("G", ("i", "j"), {("a", "x"): 1.0, ("b", "y"): 2.0})
        h = Symbol.from_columns("H", "level", g.dims, g.layout, np.array([3.0, 4.0]))
        g2, h2 = pickle.loads(pickle.dumps([g, h]))
        assert g2.layout is h2.layout
