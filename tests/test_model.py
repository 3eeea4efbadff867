from dataclasses import replace

import pytest

from voltaic.model import (
    apply_dispatch_only,
    build_model,
    count_columns,
    count_rows,
)
from voltaic.solver import matrix, solve
from voltaic.system import (
    FeatureMatrix,
    Line,
    ModelConfig,
    Node,
    StorageTech,
    SystemData,
    Technology,
    TimeSeries,
    ValidationError,
)


def test_minimal_build_counts(merit_toy):
    data, config = merit_toy
    lp = build_model(data, config)
    # 2 techs x 3 hours G + 2 N columns; 3 balance + 6 capacity rows.
    assert lp.var_families["G"].size == 6
    assert lp.var_families["N"].size == 2
    assert lp.n_cols == 8
    assert lp.row_families["BAL"].size == 3
    assert lp.row_families["CAP_DISP"].size == 6
    assert lp.n_rows == 9


def test_single_tech_counting_example():
    data = SystemData(
        nodes=(Node("N1", "load"),),
        technologies=(Technology("gen", "dispatchable", c_inv_power=1.0, c_var=5.0, cap_max=50.0),),
        series={"load": TimeSeries("load", (1.0, 2.0, 3.0))},
    )
    config = ModelConfig(end_hour=3, network_transfer=False)
    lp = build_model(data, config)
    assert lp.var_families["G"].size == 3
    assert lp.var_families["N"].size == 1
    assert lp.row_families["BAL"].size == 3
    assert lp.row_families["CAP_DISP"].size == 3


def test_balance_row_contents(merit_toy):
    data, config = merit_toy
    lp = build_model(data, config)
    a = matrix(lp).toarray()
    row = lp.row_index("BAL", ("N1", "h1"))
    cols = [lp.col_index("G", ("base", "N1", "h1")), lp.col_index("G", ("peak", "N1", "h1"))]
    assert lp.rhs[row] == 10.0
    for col in cols:
        assert a[row, col] == 1.0
    assert a[row].sum() == 2.0  # nothing else enters the balance


def test_network_flag_controls_flow_columns(two_node_toy):
    data, config = two_node_toy
    lp = build_model(data, config)
    assert "F" in lp.var_families
    assert "NTC" in lp.var_families
    assert lp.var_families["F"].size == 2

    off = build_model(data, ModelConfig(end_hour=2, network_transfer=False))
    assert "F" not in off.var_families
    assert "NTC" not in off.var_families


def test_flow_sign_convention(two_node_toy):
    data, config = two_node_toy
    lp = build_model(data, config)
    a = matrix(lp).toarray()
    f = lp.col_index("F", ("DE-FR", "h1"))
    assert a[lp.row_index("BAL", ("DE", "h1")), f] == -1.0
    assert a[lp.row_index("BAL", ("FR", "h1")), f] == 1.0


def test_loss_factor_scales_import_coefficient():
    # Wind is only available in DE, so FR must import over the lossy line.
    data = SystemData(
        nodes=(Node("DE", "load_de"), Node("FR", "load_fr")),
        technologies=(
            Technology("gas", "dispatchable", c_inv_power=0.0, c_var=100.0, cap_max=100.0),
            Technology(
                "wind",
                "variable_renewable",
                c_inv_power=0.0,
                c_var=0.0,
                cap_max=100.0,
                availability={"DE": "cf_de", "FR": "cf_fr"},
            ),
        ),
        lines=(Line("DE", "FR", ntc_existing=10.0, ntc_max=10.0, loss_factor=0.1),),
        series={
            "load_de": TimeSeries("load_de", (0.0,)),
            "load_fr": TimeSeries("load_fr", (9.0,)),
            "cf_de": TimeSeries("cf_de", (1.0,)),
            "cf_fr": TimeSeries("cf_fr", (0.0,)),
        },
    )
    config = ModelConfig(end_hour=1)
    lp = build_model(data, config)
    a = matrix(lp).toarray()
    f = lp.col_index("F", ("DE-FR", "h1"))
    assert a[lp.row_index("BAL", ("FR", "h1")), f] == pytest.approx(0.9)
    # Sending 10 across the lossy line delivers exactly 9 to FR.
    sol = solve(lp)
    assert sol.is_optimal
    assert sol.level(lp, "F", ("DE-FR", "h1")) == pytest.approx(10.0)
    assert sol.level(lp, "G", ("wind", "DE", "h1")) == pytest.approx(10.0)


def test_infeasibility_flag_controls_slack(merit_toy):
    data, config = merit_toy
    lp = build_model(data, config)
    assert "SLACK" not in lp.var_families
    with_slack = build_model(
        data, ModelConfig(end_hour=3, network_transfer=False, infeasibility=True)
    )
    assert with_slack.var_families["SLACK"].size == 3


def test_objective_scale_full_year_identity():
    data = SystemData(
        nodes=(Node("N1", "load"),),
        technologies=(
            Technology("gen", "dispatchable", c_inv_power=120.0, c_fix=30.0, c_var=5.0, cap_max=10.0),
        ),
        series={"load": TimeSeries("load", tuple([1.0] * 8760))},
    )
    lp = build_model(data, ModelConfig(end_hour=8760, network_transfer=False))
    assert lp.obj[lp.col_index("N", ("gen", "N1"))] == pytest.approx(150.0)


def test_objective_scale_prorates_partial_horizon():
    data = SystemData(
        nodes=(Node("N1", "load"),),
        technologies=(
            Technology("gen", "dispatchable", c_inv_power=8760.0, c_fix=0.0, c_var=5.0, cap_max=10.0),
        ),
        series={"load": TimeSeries("load", (1.0, 1.0))},
    )
    lp = build_model(data, ModelConfig(end_hour=2, network_transfer=False))
    assert lp.obj[lp.col_index("N", ("gen", "N1"))] == pytest.approx(2.0)


def test_storage_coefficients(storage_toy):
    data, config = storage_toy
    lp = build_model(data, config)
    a = matrix(lp).toarray()
    cyc = lp.row_index("STO_CYCLE", ("store", "N1"))
    assert a[cyc, lp.col_index("STO_L", ("store", "N1", "h1"))] == 1.0
    assert a[cyc, lp.col_index("STO_L", ("store", "N1", "h2"))] == -1.0
    assert a[cyc, lp.col_index("STO_IN", ("store", "N1", "h1"))] == -1.0
    assert a[cyc, lp.col_index("STO_OUT", ("store", "N1", "h1"))] == 1.0
    bal = lp.row_index("STO_BAL", ("store", "N1", "h2"))
    assert a[bal, lp.col_index("STO_L", ("store", "N1", "h2"))] == 1.0
    assert a[bal, lp.col_index("STO_L", ("store", "N1", "h1"))] == -1.0


def test_policy_rows_emitted_only_when_active():
    def make(share, cap):
        return SystemData(
            nodes=(Node("N1", "load", min_renewable_share=share, co2_cap=cap),),
            technologies=(
                Technology("gas", "dispatchable", c_inv_power=0.0, c_var=30.0, co2_intensity=0.4, cap_max=50.0),
                Technology(
                    "wind",
                    "variable_renewable",
                    c_inv_power=0.0,
                    c_var=0.0,
                    cap_max=50.0,
                    availability={"N1": "cf"},
                ),
            ),
            series={"load": TimeSeries("load", (10.0, 10.0)), "cf": TimeSeries("cf", (0.5, 0.5))},
        )

    config = ModelConfig(end_hour=2, network_transfer=False)
    bare = build_model(make(0.0, None), config)
    assert "RES_SHARE" not in bare.row_families
    assert "CO2_CAP" not in bare.row_families

    lp = build_model(make(0.5, 100.0), config)
    assert lp.rhs[lp.row_index("RES_SHARE", ("N1",))] == pytest.approx(10.0)
    assert lp.rhs[lp.row_index("CO2_CAP", ("N1",))] == pytest.approx(100.0)


def test_unknown_country_rejected(merit_toy):
    data, config = merit_toy
    with pytest.raises(ValidationError, match="XX"):
        build_model(data, config, country_set=["N1", "XX"])


def test_empty_country_set_rejected(merit_toy):
    data, config = merit_toy
    with pytest.raises(ValidationError, match="country_set: names no node"):
        build_model(data, config, country_set=[])


def test_active_feature_rejected(merit_toy):
    data, config = merit_toy
    features = FeatureMatrix({("dsm", "N1"): 1})
    with pytest.raises(ValidationError, match="dsm"):
        build_model(data, config, features)


def test_short_series_rejected(merit_toy):
    data, config = merit_toy
    with pytest.raises(ValidationError, match="load"):
        build_model(data, ModelConfig(end_hour=5, network_transfer=False))


def test_series_of_left_out_nodes_are_not_checked(two_node_toy):
    data, config = two_node_toy
    data = data.with_series(TimeSeries("load_fr", (20.0,)))
    lp = build_model(data, config, country_set=["DE"])
    assert lp.sets["n"] == ("DE",)
    with pytest.raises(ValidationError) as exc:
        build_model(data, config)
    assert exc.value.issues == ["node FR: demand series 'load_fr' has 1 hours, end_hour needs 2"]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: replace(d, nodes=(d.nodes[0], replace(d.nodes[1], demand="nope"))),
         "node FR: demand references unknown series 'nope'"),
        (lambda d: replace(d, technologies=(*d.technologies, Technology(
            "wind", "variable_renewable", c_inv_power=1.0, availability={"DE": "cf", "FR": "hot"}))),
         "technology wind: availability series 'hot' has values outside [0, 1]"),
        (lambda d: replace(d, technologies=(*d.technologies, Technology(
            "wind", "variable_renewable", c_inv_power=1.0, availability={"DE": "cf"}))),
         "technology wind: availability missing for node FR"),
    ],
    ids=["missing_demand", "availability_range", "availability_missing"],
)
def test_selected_node_series_rules(two_node_toy, edit, message):
    """build_model applies validate_system's series rules to the nodes it
    builds, and only to them."""
    data, config = two_node_toy
    data = edit(replace(data, series={
        **data.series, "cf": TimeSeries("cf", (0.5, 0.5)), "hot": TimeSeries("hot", (0.5, 1.5)),
    }))
    with pytest.raises(ValidationError) as exc:
        build_model(data, config, country_set=["FR"])
    assert exc.value.issues == [message]
    assert build_model(data, config, country_set=["DE"]).sets["n"] == ("DE",)


def test_country_subset_drops_lines(two_node_toy):
    data, config = two_node_toy
    lp = build_model(data, config, country_set=["DE"])
    assert "F" not in lp.var_families
    assert lp.row_families["BAL"].size == 2


def test_dispatch_only_fixes_bounds(merit_toy):
    data, config = merit_toy
    lp = build_model(data, config)
    fixed = apply_dispatch_only(lp, {("N", ("base", "N1")): 12.0, ("N", ("peak", "N1")): 18.0})
    j = fixed.col_index("N", ("base", "N1"))
    assert fixed.lo[j] == fixed.hi[j] == 12.0
    # Objective coefficients are retained on the fixed columns.
    assert fixed.obj[j] == lp.obj[j]


def test_dispatch_only_missing_value(merit_toy):
    data, config = merit_toy
    lp = build_model(data, config)
    with pytest.raises(ValidationError, match=r"N\(peak,N1\)"):
        apply_dispatch_only(lp, {("N", ("base", "N1")): 12.0})


@pytest.mark.parametrize("H", [1, 7, 24])
def test_dimension_formula_small(H):
    nodes = tuple(Node(f"N{i}", f"load{i}", min_renewable_share=0.3) for i in range(3))
    series = {f"load{i}": TimeSeries(f"load{i}", tuple([5.0] * H)) for i in range(3)}
    series["cf"] = TimeSeries("cf", tuple([0.5] * H))
    data = SystemData(
        nodes=nodes,
        technologies=(
            Technology("gas", "dispatchable", c_inv_power=1.0, c_var=30.0, cap_max=100.0),
            Technology(
                "wind",
                "variable_renewable",
                c_inv_power=1.0,
                c_var=0.0,
                cap_max=100.0,
                availability={n.id: "cf" for n in nodes},
            ),
        ),
        storages=(StorageTech("sto", c_i_sto_e=1.0, c_i_sto_p=1.0),),
        lines=(Line("N0", "N1", 0.0, 10.0), Line("N1", "N2", 0.0, 10.0)),
        series=series,
    )
    lp = build_model(data, ModelConfig(end_hour=H))
    assert lp.n_cols == count_columns(3, 2, 1, 1, 2, H)
    assert lp.n_rows == count_rows(3, 1, 1, 1, 2, H, n_share_nodes=3, n_co2_nodes=0)
    lp.validate()


class TestFamilyKeys:
    @pytest.fixture(scope="class")
    def example1_lp(self):
        from voltaic.templates import example1

        return build_model(example1().data, ModelConfig(end_hour=24))

    def test_keys_follow_index_order(self, example1_lp):
        families = [*example1_lp.var_families.values(), *example1_lp.row_families.values()]
        assert {"G", "N", "BAL", "STO_CYCLE"} <= {fam.name for fam in families}
        for fam in families:
            assert list(fam.keys()) == [fam.key_of(i) for i in range(fam.start, fam.start + fam.size)]

    def test_layout_codes_match_keys(self, example1_lp):
        for fam in [*example1_lp.var_families.values(), *example1_lp.row_families.values()]:
            layout = fam.layout()
            assert [
                tuple(table[c] for table, c in zip(layout.labels, row)) for row in layout.codes.tolist()
            ] == list(fam.keys())
            assert fam.layout() is layout  # built once, then shared

    def test_dimensionless_family(self):
        from voltaic.model import _make_family

        fam = _make_family("OBJ", (), (), 7)
        assert (fam.shape, fam.size) == ((), 1)
        assert list(fam.keys()) == [()] == [fam.key_of(7)]
        assert fam.layout().codes.shape == (1, 0)
