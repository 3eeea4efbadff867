"""Solved-model behavior: policy rows, slack, storage arithmetic, decoupling."""

import pytest

from conftest import merit_order_oracle
from voltaic.model import apply_dispatch_only, build_model, count_columns, count_rows
from voltaic.solver import solve
from voltaic.system import (
    Line,
    ModelConfig,
    Node,
    StorageTech,
    SystemData,
    Technology,
    TimeSeries,
)


def test_zero_cost_storage_shifts_free_energy(storage_toy):
    data, config = storage_toy
    lp = build_model(data, config)
    sol = solve(lp)
    assert sol.is_optimal
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    assert sol.level(lp, "STO_IN", ("store", "N1", "h1")) == pytest.approx(10.0)
    assert sol.level(lp, "STO_OUT", ("store", "N1", "h2")) == pytest.approx(10.0)
    assert sol.level(lp, "G", ("gas", "N1", "h2")) == pytest.approx(0.0)


def test_zero_availability_forces_zero_output(storage_toy):
    data, config = storage_toy
    lp = build_model(data, config)
    sol = solve(lp)
    # cf is 0.0 in hour 2, so solar output and curtailment are both zero.
    assert sol.level(lp, "G", ("solar", "N1", "h2")) == pytest.approx(0.0, abs=1e-9)
    assert sol.level(lp, "CU", ("solar", "N1", "h2")) == pytest.approx(0.0, abs=1e-9)


def efficiency_toy(demand_h2):
    data = SystemData(
        nodes=(Node("N1", "load"),),
        technologies=(
            Technology(
                "free",
                "variable_renewable",
                c_inv_power=0.0,
                c_var=0.0,
                cap_min=10.0,
                cap_max=10.0,
                availability={"N1": "cf"},
            ),
            Technology("gas", "dispatchable", c_inv_power=0.0, c_var=1000.0, cap_max=100.0),
        ),
        storages=(StorageTech("store", c_i_sto_e=0.0, c_i_sto_p=0.0, eta_in=0.9, eta_out=0.9),),
        series={
            "load": TimeSeries("load", (0.0, demand_h2)),
            "cf": TimeSeries("cf", (1.0, 0.0)),
        },
    )
    return data, ModelConfig(end_hour=2, network_transfer=False)


def test_charge_discharge_efficiencies_compound():
    # Charging 10 MWh at eta_in = 0.9 stores 9; discharging through
    # eta_out = 0.9 recovers at most 8.1.
    data, config = efficiency_toy(demand_h2=8.1)
    lp = build_model(data, config)
    sol = solve(lp)
    assert sol.level(lp, "STO_L", ("store", "N1", "h1")) == pytest.approx(9.0, abs=1e-7)
    assert sol.level(lp, "G", ("gas", "N1", "h2")) == pytest.approx(0.0, abs=1e-7)

    # One more unit of demand cannot come from storage anymore.
    data, config = efficiency_toy(demand_h2=9.1)
    lp = build_model(data, config)
    sol = solve(lp)
    assert sol.level(lp, "G", ("gas", "N1", "h2")) == pytest.approx(1.0, abs=1e-6)


def test_slack_serves_unmet_demand_in_dispatch_only():
    data = SystemData(
        nodes=(Node("N1", "load"),),
        technologies=(Technology("only", "dispatchable", c_inv_power=0.0, c_var=10.0, cap_max=100.0),),
        series={"load": TimeSeries("load", (30.0,))},
    )
    config = ModelConfig(end_hour=1, network_transfer=False, infeasibility=True, slack_penalty=5000.0)
    lp = build_model(data, config)
    fixed = apply_dispatch_only(lp, {("N", ("only", "N1")): 15.0})
    sol = solve(fixed)
    assert sol.is_optimal
    assert sol.level(fixed, "SLACK", ("N1", "h1")) == pytest.approx(15.0)
    assert sol.level(fixed, "G", ("only", "N1", "h1")) == pytest.approx(15.0)


def test_all_capacity_zero_puts_demand_on_slack(merit_toy):
    data, _ = merit_toy
    config = ModelConfig(end_hour=3, network_transfer=False, infeasibility=True)
    lp = build_model(data, config)
    fixed = apply_dispatch_only(lp, {("N", ("base", "N1")): 0.0, ("N", ("peak", "N1")): 0.0})
    sol = solve(fixed)
    assert sol.is_optimal
    slack = [sol.level(fixed, "SLACK", ("N1", h)) for h in ("h1", "h2", "h3")]
    assert slack == pytest.approx([10.0, 20.0, 30.0])


def test_unreachable_share_infeasible_without_slack():
    data = SystemData(
        nodes=(Node("N1", "load", min_renewable_share=1.0),),
        technologies=(
            Technology("gas", "dispatchable", c_inv_power=0.0, c_var=10.0, cap_max=100.0),
            Technology(
                "wind",
                "variable_renewable",
                c_inv_power=0.0,
                c_var=0.0,
                cap_max=0.0,
                availability={"N1": "cf"},
            ),
        ),
        series={"load": TimeSeries("load", (10.0,)), "cf": TimeSeries("cf", (0.4,))},
    )
    lp = build_model(data, ModelConfig(end_hour=1, network_transfer=False))
    assert solve(lp).status == "infeasible"


class TestShareWithoutRenewables:
    """A positive share on a gas-only node is kept, not silently dropped."""

    @pytest.fixture
    def gas_only(self):
        data = SystemData(
            nodes=(Node("N1", "load", min_renewable_share=0.3),),
            technologies=(
                Technology("gas", "dispatchable", c_inv_power=0.0, c_var=10.0, cap_max=100.0),
            ),
            series={"load": TimeSeries("load", (10.0, 20.0))},
        )
        return data, ModelConfig(end_hour=2, network_transfer=False)

    def test_row_emitted_and_counted(self, gas_only):
        data, config = gas_only
        lp = build_model(data, config)
        assert lp.rhs[lp.row_index("RES_SHARE", ("N1",))] == pytest.approx(9.0)
        assert lp.n_rows == count_rows(1, 1, 0, 0, 0, 2, n_share_nodes=1, n_co2_nodes=0)

    @pytest.mark.parametrize("backend", ["highs", "dense"])
    @pytest.mark.parametrize("infeasibility", [False, True])
    def test_reported_infeasible(self, gas_only, backend, infeasibility):
        data, _ = gas_only
        config = ModelConfig(end_hour=2, network_transfer=False, infeasibility=infeasibility)
        assert solve(build_model(data, config), backend).status == "infeasible"

    def test_relaxed_by_choice_or_override(self, gas_only):
        from voltaic.scenarios import parse_iteration_table, run_scenarios

        data, config = gas_only
        specs = parse_iteration_table(
            "run,renewable_share,min_renewable_share('N1')\n"
            "base,,\noff,off,\nzero,,0\nkept,,0.3\n"
        )
        results = run_scenarios(data, config, None, specs, mode="single_instance")
        assert [r.status for r in results] == ["infeasible", "optimal", "optimal", "infeasible"]
        assert results[1].objective == pytest.approx(300.0)
        assert results[2].objective == pytest.approx(300.0)


def test_binding_share_picks_exact_renewable_volume():
    # Cheap gas, dearer wind, 50 % share on 100 MWh total demand:
    # exactly 50 MWh of wind in the optimum.
    data = SystemData(
        nodes=(Node("N1", "load", min_renewable_share=0.5),),
        technologies=(
            Technology("gas", "dispatchable", c_inv_power=0.0, c_var=10.0, cap_max=1000.0),
            Technology(
                "wind",
                "variable_renewable",
                c_inv_power=0.0,
                c_var=20.0,
                cap_max=1000.0,
                availability={"N1": "cf"},
            ),
        ),
        series={"load": TimeSeries("load", (50.0, 50.0)), "cf": TimeSeries("cf", (1.0, 1.0))},
    )
    lp = build_model(data, ModelConfig(end_hour=2, network_transfer=False))
    sol = solve(lp)
    wind = sum(sol.level(lp, "G", ("wind", "N1", h)) for h in ("h1", "h2"))
    assert wind == pytest.approx(50.0, abs=1e-6)
    assert sol.objective == pytest.approx(50 * 10 + 50 * 20, abs=1e-6)


def co2_toy(cap):
    data = SystemData(
        nodes=(Node("N1", "load", co2_cap=cap),),
        technologies=(
            Technology("gas", "dispatchable", c_inv_power=0.0, c_var=10.0, co2_intensity=0.5, cap_max=1000.0),
            Technology(
                "wind",
                "variable_renewable",
                c_inv_power=0.0,
                c_var=30.0,
                cap_max=1000.0,
                availability={"N1": "cf"},
            ),
        ),
        series={"load": TimeSeries("load", (40.0, 60.0)), "cf": TimeSeries("cf", (1.0, 1.0))},
    )
    return data, ModelConfig(end_hour=2, network_transfer=False)


def test_co2_cap_binds_and_prices_carbon():
    # Unconstrained: all 100 MWh from gas, 50 t emitted. A 20 t cap admits
    # only 40 MWh of gas; wind covers the remaining 60.
    data, config = co2_toy(cap=20.0)
    lp = build_model(data, config)
    sol = solve(lp)
    gas = sum(sol.level(lp, "G", ("gas", "N1", h)) for h in ("h1", "h2"))
    wind = sum(sol.level(lp, "G", ("wind", "N1", h)) for h in ("h1", "h2"))
    assert gas == pytest.approx(40.0, abs=1e-6)
    assert wind == pytest.approx(60.0, abs=1e-6)
    # Relaxing the cap by one tonne swaps 2 MWh of wind for gas: -40 EUR/t.
    assert sol.marginal(lp, "CO2_CAP", ("N1",)) == pytest.approx(-40.0, abs=1e-6)


def test_co2_cap_override_and_choice():
    from voltaic.scenarios import parse_iteration_table, run_scenarios

    data, config = co2_toy(cap=20.0)
    table = "run,co2_cap('N1'),co2_cap\nloose,50,\nswitched_off,,off\n"
    results = run_scenarios(data, config, None, parse_iteration_table(table), mode="single_instance")
    assert all(r.status == "optimal" for r in results)
    # cap 50 t admits the all-gas solution; switching the block off likewise
    assert results[0].objective == pytest.approx(1000.0, abs=1e-6)
    assert results[1].objective == pytest.approx(1000.0, abs=1e-6)


def test_storage_power_override_keeps_fixed_cost_component():
    from voltaic.scenarios import expand_overrides, parse_iteration_table

    data = SystemData(
        nodes=(Node("N1", "load"),),
        technologies=(Technology("gas", "dispatchable", c_inv_power=0.0, c_var=10.0, cap_max=100.0),),
        storages=(StorageTech("Li-ion", c_i_sto_e=1000.0, c_i_sto_p=2000.0, c_fix=100.0),),
        series={"load": TimeSeries("load", (10.0,))},
    )
    config = ModelConfig(end_hour=1, network_transfer=False)
    lp = build_model(data, config)
    spec = parse_iteration_table("run,\"c_i_sto_p(n,'Li-ion')\"\nS0,500\n")[0]
    (delta,) = expand_overrides(spec, lp, data, config)
    scale = config.horizon_share()
    assert delta.col == lp.col_index("N_STO_P", ("Li-ion", "N1"))
    assert delta.value == pytest.approx(scale * (500.0 + 100.0))


def test_dispatch_only_at_investment_optimum_reproduces_objective(sweep_toy):
    data, config = sweep_toy
    lp = build_model(data, config)
    invest = solve(lp)
    fixed_values = {}
    for fam_name in ("N", "N_STO_E", "N_STO_P"):
        fam = lp.var_families[fam_name]
        for key in fam.keys():
            fixed_values[(fam_name, key)] = invest.primal[fam.index(key)]
    redispatch = solve(apply_dispatch_only(lp, fixed_values))
    assert redispatch.is_optimal
    assert redispatch.objective == pytest.approx(invest.objective, rel=1e-6)


def test_zero_ntc_decouples_into_standalone_solves(two_node_toy):
    data, config = two_node_toy
    lp = build_model(data, config)
    fixed = {("NTC", ("DE-FR",)): 0.0}
    for fam_name in ("N",):
        fam = lp.var_families[fam_name]
        coupled = solve(apply_dispatch_only(lp, {**fixed, **{
            (fam_name, key): 100.0 for key in fam.keys()
        }}))
    solo_objectives = []
    for node in ("DE", "FR"):
        solo_lp = build_model(data, config, country_set=[node])
        fam = solo_lp.var_families["N"]
        solo = solve(apply_dispatch_only(solo_lp, {("N", key): 100.0 for key in fam.keys()}))
        solo_objectives.append(solo.objective)
    assert coupled.objective == pytest.approx(sum(solo_objectives), rel=1e-9)


def test_no_loss_energy_conservation(two_node_toy):
    # All loss factors zero and unit efficiencies: total generation equals
    # total demand exactly (no storage in this system).
    data, config = two_node_toy
    lp = build_model(data, config)
    sol = solve(lp)
    fam = lp.var_families["G"]
    produced = float(sol.primal[fam.start : fam.start + fam.size].sum())
    demanded = sum(sum(data.demand_values(n, config.end_hour)) for n in ("DE", "FR"))
    assert produced == pytest.approx(demanded, abs=1e-7)


@pytest.mark.parametrize("n_techs,hours", [(3, 4), (2, 3)])
def test_merit_order_bruteforce(n_techs, hours):
    caps = [12.0, 9.0, 30.0][:n_techs]
    costs = [5.0, 17.0, 40.0][:n_techs]
    demand = [8.0, 15.0, 21.0, 45.0][:hours]
    data = SystemData(
        nodes=(Node("N1", "load"),),
        technologies=tuple(
            Technology(f"t{i}", "dispatchable", c_inv_power=0.0, c_var=costs[i],
                       cap_min=caps[i], cap_max=caps[i])
            for i in range(n_techs)
        ),
        series={"load": TimeSeries("load", tuple(demand))},
    )
    lp = build_model(data, ModelConfig(end_hour=hours, network_transfer=False))
    sol = solve(lp)
    expected_obj, expected_dispatch = merit_order_oracle(demand, caps, costs)
    assert sol.objective == pytest.approx(expected_obj, abs=1e-6)
    for i in range(n_techs):
        for h in range(hours):
            assert sol.level(lp, "G", (f"t{i}", "N1", f"h{h + 1}")) == pytest.approx(
                expected_dispatch[i][h], abs=1e-6
            )


def test_full_year_twelve_node_dimension_formula():
    # The closed-form size formula holds at full scale too: the 12-node
    # skeleton over all 8760 hours.
    from voltaic.templates import TWELVE_NODES

    hours = 8760
    flat = tuple([0.5] * hours)
    series = {"cf": TimeSeries("cf", flat)}
    nodes = []
    for node_id in TWELVE_NODES:
        series[f"load_{node_id}"] = TimeSeries(f"load_{node_id}", tuple([30.0] * hours))
        nodes.append(Node(node_id, f"load_{node_id}", min_renewable_share=0.4))
    data = SystemData(
        nodes=tuple(nodes),
        technologies=(
            Technology("ccgt", "dispatchable", c_inv_power=40_000.0, c_var=40.0, cap_max=5000.0),
            Technology("ocgt", "dispatchable", c_inv_power=25_000.0, c_var=60.0, cap_max=5000.0),
            Technology("solar", "variable_renewable", c_inv_power=40_000.0, c_var=0.0,
                       cap_max=10_000.0, availability={n: "cf" for n in TWELVE_NODES}),
            Technology("wind", "variable_renewable", c_inv_power=90_000.0, c_var=0.0,
                       cap_max=10_000.0, availability={n: "cf" for n in TWELVE_NODES}),
        ),
        storages=(
            StorageTech("Li-ion", c_i_sto_e=20_029.0, c_i_sto_p=15_021.0),
            StorageTech("PHS", c_i_sto_e=8_000.0, c_i_sto_p=12_000.0),
            StorageTech("P2G2P", c_i_sto_e=120.0, c_i_sto_p=35_000.0),
        ),
        lines=tuple(
            Line(TWELVE_NODES[i], TWELVE_NODES[(i + 1) % 12], 0.0, 2000.0) for i in range(12)
        ),
        series=series,
    )
    lp = build_model(data, ModelConfig(end_hour=hours))
    assert lp.n_cols == count_columns(
        n_nodes=12, n_tech=4, n_res=2, n_sto=3, n_lines=12, H=hours
    )
    assert lp.n_rows == count_rows(
        n_nodes=12, n_disp=2, n_res=2, n_sto=3, n_lines=12, H=hours,
        n_share_nodes=12, n_co2_nodes=0,
    )
    lp.validate()
