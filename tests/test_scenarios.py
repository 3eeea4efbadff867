import math
import re
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from voltaic import sweep
from voltaic.model import build_model
from voltaic.scenarios import (
    PARAMETER_DOMAINS,
    ScenarioSpec,
    expand_overrides,
    parse_iteration_table,
    parse_symbol_ref,
    run_scenarios,
)
from voltaic.solver import compile as compile_instance, solve
from voltaic.system import (
    ModelConfig,
    Node,
    StorageTech,
    SystemData,
    Technology,
    TimeSeries,
    ValidationError,
)
from voltaic.templates import example1

TABLE3 = """\
run,"c_i_sto_e(n,'Li-ion')","c_i_sto_p(n,'Li-ion')"
S0,20029,15021
S1,10014,7511
S2,5007,3755
"""


@pytest.fixture
def battery_system():
    data = SystemData(
        nodes=(Node("DE", "load_DE", min_renewable_share=0.2), Node("FR", "load_FR")),
        technologies=(
            Technology("gas", "dispatchable", c_inv_power=10_000.0, c_var=50.0, cap_max=500.0),
            Technology(
                "solar",
                "variable_renewable",
                c_inv_power=30_000.0,
                c_var=0.0,
                cap_max=5_000.0,
                availability={"DE": "cf", "FR": "cf"},
            ),
        ),
        storages=(StorageTech("Li-ion", c_i_sto_e=20_029.0, c_i_sto_p=15_021.0, eta_in=0.9, eta_out=0.9),),
        series={
            "load_DE": TimeSeries("load_DE", (30.0, 40.0, 30.0, 20.0)),
            "load_FR": TimeSeries("load_FR", (25.0, 30.0, 25.0, 20.0)),
            "load_DE_alt": TimeSeries("load_DE_alt", (60.0, 80.0, 60.0, 40.0)),
            "cf": TimeSeries("cf", (0.0, 1.0, 0.5, 0.0)),
        },
    )
    return data, ModelConfig(end_hour=4, network_transfer=False)


class TestParsing:
    def test_table3_text(self):
        specs = parse_iteration_table(TABLE3)
        assert [s.run_id for s in specs] == ["S0", "S1", "S2"]
        ref, value = specs[2].overrides[0]
        assert ref.name == "c_i_sto_e"
        assert ref.domain == (("set", "n"), ("lit", "Li-ion"))
        assert value == 5007.0
        assert specs[2].overrides[1][1] == 3755.0

    def test_run_id_only_table(self):
        specs = parse_iteration_table("run\nA\nB\n")
        assert [s.run_id for s in specs] == ["A", "B"]
        assert all(not s.overrides for s in specs)

    def test_duplicate_run_id(self):
        with pytest.raises(ValidationError, match="duplicate run id"):
            parse_iteration_table("run,co2_cap('DE')\nS0,1\nS0,2\n")

    @pytest.mark.parametrize(
        "header", ["c_i_sto_e(n,'Li-ion'", "c_i_sto_e(n,Li-ion')", "N.fx((n)", "x y(n)"]
    )
    def test_malformed_header(self, header):
        with pytest.raises(ValidationError):
            parse_iteration_table(f'run,"{header}"\nS0,1\n')

    def test_non_numeric_parameter_cell(self):
        [spec] = parse_iteration_table("run,co2_cap('DE')\nS0,often\n")
        assert spec == ScenarioSpec("S0", issue="column \"co2_cap('DE')\": non-numeric value 'often'")

    _NON_FINITE = [
        ("c_i_sto_e(n,'Li-ion')", "nan", "c_i_sto_e must be finite and >= 0, got nan"),
        ("c_i_sto_e(n,'Li-ion')", "inf", "c_i_sto_e must be finite and >= 0, got inf"),
        ("c_var('DE','gas')", "-inf", "c_var must be finite and >= 0, got -inf"),
        ("min_renewable_share('DE')", "inf", "min_renewable_share must be in [0, 1], got inf"),
        ("co2_cap('DE')", "nan", "co2_cap must be >= 0, got nan"),
        ("co2_cap('DE')", "-inf", "co2_cap must be >= 0, got -inf"),
        ("N.up('gas','DE')", "NaN", "bound must be finite or inf, got nan"),
        ("N.lo('gas','DE')", "inf", "bound must be finite, got inf"),
        ("N.fx('gas','DE')", "inf", "bound must be finite, got inf"),
    ]

    @pytest.mark.parametrize("header, cell, rule", _NON_FINITE, ids=[f"{h}-{c}" for h, c, _ in _NON_FINITE])
    def test_non_finite_cell_rejected(self, header, cell, rule):
        [spec] = parse_iteration_table(f'run,"{header}"\nS0,{cell}\n')
        assert spec == ScenarioSpec("S0", issue=f'column "{header}": {rule}')

    # One value out of its static field's domain per field owner, worded as
    # ``validate_system`` words it, after the run and the column.
    @pytest.mark.parametrize(
        "header, cell, rule",
        [
            ("c_var(n,'gas')", "-40", "c_var must be finite and >= 0, got -40.0"),
            ("c_fix_sto(n,'Li-ion')", "-1", "c_fix_sto must be finite and >= 0, got -1.0"),
            ("c_i_sto_e(n,'Li-ion')", "-100", "c_i_sto_e must be finite and >= 0, got -100.0"),
            ("c_inv_ntc('DE-FR')", "-5", "c_inv_ntc must be finite and >= 0, got -5.0"),
            ("min_renewable_share('DE')", "1.5", "min_renewable_share must be in [0, 1], got 1.5"),
            ("min_renewable_share(n)", "-0.1", "min_renewable_share must be in [0, 1], got -0.1"),
            ("co2_cap('DE')", "-5", "co2_cap must be >= 0, got -5.0"),
        ],
        ids=["tech", "sto_summed", "sto", "line", "share_above", "share_below", "co2_cap"],
    )
    def test_value_outside_its_field_domain_rejected(self, header, cell, rule):
        specs = parse_iteration_table(f'run,"{header}"\nS0,1\nS7,{cell}\n')
        assert [spec.issue for spec in specs] == [None, f'column "{header}": {rule}']

    @pytest.mark.parametrize("header", [*(f"{name}(n)" for name in PARAMETER_DOMAINS),
                                        *(f"N.{bound}('gas','DE')" for bound in ("fx", "lo", "up"))])
    def test_nan_rejected_in_every_column(self, header):
        [spec] = parse_iteration_table(f'run,"{header}"\nS0,nan\n')
        assert re.fullmatch(rf'column "{re.escape(header)}": .* got nan', spec.issue)

    def test_rows_that_do_not_read_are_kept_with_their_issue(self):
        specs = parse_iteration_table("run,\"c_var(n,'gas')\"\nS0,-1\nS1,2\nS2,x\n")
        assert [spec.run_id for spec in specs] == ["S0", "S1", "S2"]
        assert [spec.issue for spec in specs] == [
            "column \"c_var(n,'gas')\": c_var must be finite and >= 0, got -1.0",
            None,
            "column \"c_var(n,'gas')\": non-numeric value 'x'",
        ]

    @pytest.mark.parametrize("header", ["N.up('gas','DE')", "co2_cap('DE')"])
    def test_infinite_upper_bound_and_co2_cap_accepted(self, header):
        (spec,) = parse_iteration_table(f'run,"{header}"\nS0,inf\n')
        assert spec.overrides[0][1] == float("inf")

    def test_cell_beyond_header_rejected(self):
        [spec] = parse_iteration_table("run,\"c_var(n,'gas')\"\nr1,10,99\n")
        assert spec == ScenarioSpec("r1", issue="value '99' in column 3, beyond the 2 columns of the header")

    def test_empty_cells_beyond_header_accepted(self):
        (spec,) = parse_iteration_table("run,\"c_var(n,'gas')\"\nr1,10,, \n")
        assert [value for _, value in spec.overrides] == [10.0]

    @pytest.mark.parametrize(
        "first, second",
        [("c_var(n,'gas')", "c_var(n,'gas')"), ("c_var(n,'gas')", "c_var( n , 'gas' )"),
         ("country_set", "country_set"), ("co2_cap", "co2_cap")],
    )
    def test_repeated_column_heading_rejected(self, first, second):
        with pytest.raises(ValidationError, match=re.escape(f"column {parse_symbol_ref(first).render()!r} appears more")):
            parse_iteration_table(f'run,"{first}","{second}"\nr1,10,20\n')

    def test_country_set_cell(self):
        specs = parse_iteration_table('run,country_set\nS0,"DE,FR"\nS1,\n')
        assert specs[0].country_set == ("DE", "FR")
        assert specs[1].country_set is None

    @pytest.mark.parametrize("cell", [";", '","', '" , ;"'])
    def test_country_set_cell_naming_no_node_rejected(self, battery_system, cell):
        """The cell reads as no node, which the row's build rejects."""
        specs = parse_iteration_table(f'run,country_set\nS0,DE\nS1,{cell}\n')
        assert [spec.country_set for spec in specs] == [("DE",), ()]
        assert sweep._plan(specs, *battery_system).deltas[1] == "country_set: names no node"

    def test_constraint_choice_cell(self):
        specs = parse_iteration_table("run,renewable_share\nS0,off\n")
        assert specs[0].constraint_choices == {"renewable_share": "off"}

    @pytest.mark.parametrize(
        "table, issue",
        [
            ("run,c_var()\nS0,1\n", "iteration_table: empty domain in 'c_var()'"),
            ("run,\"c_var(n,)\"\nS0,1\n", "iteration_table: empty domain entry in 'c_var(n,)'"),
            ("run,\"c_var(n'x',tech)\"\nS0,1\n", "iteration_table: stray quote in domain entry \"n'x'\""),
            ("run,\"c_var(n(x),tech)\"\nS0,1\n",
             "iteration_table: parenthesis outside quotes in the domain of 'c_var(n(x),tech)'"),
            ("run,\"c_var(''x(')')\"\nS0,1\n",
             "iteration_table: parenthesis outside quotes in the domain of \"c_var(''x(')')\""),
            ("run,c_var(n)\n,1\n", "iteration_table: empty run id"),
        ],
        ids=["empty_domain", "empty_entry", "stray_quote", "set_parenthesis", "quoted_parenthesis", "empty_run_id"],
    )
    def test_heading_and_run_id_errors(self, table, issue):
        with pytest.raises(ValidationError) as exc:
            parse_iteration_table(table)
        assert exc.value.issues == [issue]

    def test_empty_table_has_no_rows(self):
        assert parse_iteration_table(" \n,\n") == []

    @pytest.mark.parametrize(
        "text, domain",
        [("c_var('a,b', 'c')", (("lit", "a,b"), ("lit", "c"))), ("N.fx( n ,'x' )", (("set", "n"), ("lit", "x")))],
    )
    def test_domain_splits_on_commas_outside_quotes(self, text, domain):
        assert parse_symbol_ref(text).domain == domain

    @pytest.mark.parametrize(
        "text",
        [
            "c_i_sto_e(n,'Li-ion')",
            "N.fx('DE','gas')",
            "d('DE')",
            "phi(res,n)",
            "country_set",
            "renewable_share",
            "NTC.up('DE-FR')",
        ],
    )
    def test_render_round_trip(self, text):
        assert parse_symbol_ref(text).render() == text


class TestExpansion:
    def test_fan_out_over_nodes(self, battery_system):
        data, config = battery_system
        lp = build_model(data, config)
        specs = parse_iteration_table(TABLE3)
        deltas = expand_overrides(specs[1], lp, data, config)
        # one energy and one power coefficient per node
        assert len(deltas) == 4
        scale = config.horizon_share()
        col = lp.col_index("N_STO_E", ("Li-ion", "DE"))
        (d,) = [d for d in deltas if d.col == col]
        assert d.value == pytest.approx(scale * 10_014.0)

    @pytest.mark.parametrize("hours", [24, 168])
    def test_restated_shares_and_demand_keep_the_build_rhs_bitwise(self, tmp_path, hours):
        """A row that restates every node's base share and base demand series
        gives every share and balance row the build's rhs, bit for bit (the
        ``invest_week`` seed 1 profiles, made by ``perfbench/gen.py``)."""
        import importlib.util

        from voltaic.project import load_project
        from voltaic.templates import write_project

        spec = importlib.util.spec_from_file_location("_gen", Path(__file__).parents[1] / "perfbench" / "gen.py")
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        project = load_project(write_project(gen.build("invest_week", 1, hours), tmp_path / "project"))
        data, config = project.data, project.config
        lp = build_model(data, config)
        nodes = [n for n in data.nodes if n.min_renewable_share > 0.0]
        header = ",".join(["run", *(f"min_renewable_share('{n.id}'),d('{n.id}')" for n in nodes)])
        row = ",".join(["S0", *(f"{n.min_renewable_share!r},{n.demand}" for n in nodes)])
        deltas = expand_overrides(parse_iteration_table(f"{header}\n{row}\n")[0], lp, data, config)
        share = lp.row_families["RES_SHARE"]
        assert sum(share.start <= d.row < share.start + share.size for d in deltas) == len(nodes) == 12
        assert len(deltas) == len(nodes) * (hours + 1)
        for d in deltas:
            assert d.kind == "rhs" and np.float64(d.value).tobytes() == lp.rhs[d.row].tobytes(), lp.row_label(d.row)

    def test_literal_restricts_to_one_node(self, battery_system):
        data, config = battery_system
        lp = build_model(data, config)
        specs = parse_iteration_table("run,\"c_i_sto_e('DE','Li-ion')\"\nS0,10\n")
        deltas = expand_overrides(specs[0], lp, data, config)
        assert len(deltas) == 1
        assert deltas[0].col == lp.col_index("N_STO_E", ("Li-ion", "DE"))
        # FR coefficient untouched when applied
        inst = compile_instance(lp)
        inst.apply(deltas)
        fr = lp.col_index("N_STO_E", ("Li-ion", "FR"))
        assert inst.lp.obj[fr] == lp.obj[fr]

    def test_fan_out_cardinality_product(self, battery_system):
        data, config = battery_system
        lp = build_model(data, config)
        spec = parse_iteration_table("run,\"c_i_sto_e(n,sto)\"\nS0,10\n")[0]
        deltas = expand_overrides(spec, lp, data, config)
        assert len(deltas) == len(lp.sets["n"]) * len(lp.sets["sto"])

    def test_variable_fix_gives_bound_pair(self, battery_system):
        data, config = battery_system
        lp = build_model(data, config)
        spec = parse_iteration_table("run,\"N.fx('DE','gas')\"\nS0,0\n")[0]
        deltas = expand_overrides(spec, lp, data, config)
        assert {d.kind for d in deltas} == {"lo", "up"}
        assert all(d.col == lp.col_index("N", ("gas", "DE")) for d in deltas)
        assert all(d.value == 0.0 for d in deltas)

    def test_demand_series_override_rewrites_rhs(self, battery_system):
        data, config = battery_system
        lp = build_model(data, config)
        spec = parse_iteration_table("run,d('DE')\nS0,load_DE_alt\n")[0]
        deltas = expand_overrides(spec, lp, data, config)
        rhs_deltas = {d.row: d.value for d in deltas if d.kind == "rhs"}
        alt = data.series["load_DE_alt"].values
        for i, h in enumerate(lp.sets["h"]):
            assert rhs_deltas[lp.row_index("BAL", ("DE", h))] == alt[i]
        # renewable-share rhs follows the new demand total
        share_row = lp.row_index("RES_SHARE", ("DE",))
        assert rhs_deltas[share_row] == pytest.approx(0.2 * sum(alt))

    def test_availability_series_override_changes_coefficients(self, battery_system):
        data, config = battery_system
        data = data.with_series(TimeSeries("cf_alt", (0.1, 0.2, 0.3, 0.4)))
        lp = build_model(data, config)
        spec = parse_iteration_table("run,\"phi('solar','DE')\"\nS0,cf_alt\n")[0]
        deltas = expand_overrides(spec, lp, data, config)
        assert all(d.kind == "coef" for d in deltas)
        assert len(deltas) == 4
        inst = compile_instance(lp)
        sol = inst.update_and_resolve(deltas)
        from voltaic.solver import matrix

        a = matrix(inst.lp).toarray()
        row = inst.lp.row_index("CAP_RES", ("solar", "DE", "h4"))
        col = inst.lp.col_index("N", ("solar", "DE"))
        assert a[row, col] == pytest.approx(-0.4)

    def test_unknown_parameter_reported(self, battery_system):
        data, config = battery_system
        lp = build_model(data, config)
        spec = parse_iteration_table("run,mystery(n)\nS0,1\n")[0]
        with pytest.raises(ValidationError) as exc:
            expand_overrides(spec, lp, data, config)
        assert exc.value.issues == ["column \"mystery(n)\": unknown parameter 'mystery'"]

    def test_non_finite_value_rejected(self, battery_system):
        data, config = battery_system
        lp = build_model(data, config)
        spec = ScenarioSpec("S9", ((parse_symbol_ref("c_i_sto_e(n,'Li-ion')"), float("nan")),))
        with pytest.raises(ValidationError) as exc:
            expand_overrides(spec, lp, data, config)
        assert exc.value.issues == ["column \"c_i_sto_e(n,'Li-ion')\": c_i_sto_e must be finite and >= 0, got nan"]

    @pytest.mark.parametrize(
        "header, value, rule",
        [
            ("c_var(n,'gas')", -40, "c_var must be finite and >= 0, got -40.0"),
            ("min_renewable_share('DE')", 1.5, "min_renewable_share must be in [0, 1], got 1.5"),
            ("N.lo('gas','DE')", float("-inf"), "bound must be finite, got -inf"),
        ],
        ids=["cost", "share", "bound"],
    )
    def test_value_rejected_at_expansion(self, battery_system, header, value, rule):
        """A spec made without the parser meets the same rules when expanded."""
        data, config = battery_system
        lp = build_model(data, config)
        spec = ScenarioSpec("S9", ((parse_symbol_ref(header), value),))
        with pytest.raises(ValidationError) as exc:
            expand_overrides(spec, lp, data, config)
        assert exc.value.issues == [f"column {header!r}: {rule}"]

    def test_infinite_co2_cap_and_upper_bound_expand(self, battery_system):
        data, config = battery_system
        data = replace(data, nodes=tuple(replace(n, co2_cap=100.0) for n in data.nodes))
        lp = build_model(data, config)
        [spec] = parse_iteration_table("run,co2_cap('DE'),\"N.up('gas','DE')\"\nS0,inf,inf\n")
        deltas = expand_overrides(spec, lp, data, config)
        assert [(d.kind, d.value) for d in deltas] == [("rhs", math.inf), ("up", math.inf)]

    def test_unknown_series_reported(self, battery_system):
        data, config = battery_system
        lp = build_model(data, config)
        spec = parse_iteration_table("run,d('DE')\nS0,nope\n")[0]
        with pytest.raises(ValidationError, match="nope"):
            expand_overrides(spec, lp, data, config)

    def test_literal_not_in_set_reported(self, battery_system):
        data, config = battery_system
        lp = build_model(data, config)
        spec = parse_iteration_table("run,\"c_i_sto_e('XX','Li-ion')\"\nS0,1\n")[0]
        with pytest.raises(ValidationError) as exc:
            expand_overrides(spec, lp, data, config)
        assert exc.value.issues == ["column \"c_i_sto_e('XX','Li-ion')\": domain (XX, Li-ion) does not resolve "
                                    "against dimensions ('n', 'sto')"]

    @pytest.mark.parametrize("capped", [(), ("DE",)], ids=["no_caps", "other_node_capped"])
    def test_co2_cap_override_without_base_cap_reported(self, battery_system, capped):
        data, config = battery_system
        nodes = tuple(replace(n, co2_cap=100.0) if n.id in capped else n for n in data.nodes)
        data = replace(data, nodes=nodes)
        lp = build_model(data, config)
        spec = parse_iteration_table("run,co2_cap('FR')\nS0,10\n")[0]
        with pytest.raises(ValidationError) as exc:
            expand_overrides(spec, lp, data, config)
        assert exc.value.issues == ["column \"co2_cap('FR')\": the base model has no emission cap row for node 'FR' "
                                    "(base cap is unset)"]

    def test_demand_swap_at_a_node_without_share_row(self, battery_system):
        """Only the balance rows of a node with no share row move; the share
        row rule is kept for an explicit share override."""
        data, config = battery_system
        lp = build_model(data, config)
        assert "FR" not in lp.row_families["RES_SHARE"].elements[0]
        [spec] = parse_iteration_table("run,d('FR')\nS0,load_DE_alt\n")
        deltas = expand_overrides(spec, lp, data, config)
        assert [(d.kind, d.row, d.value) for d in deltas] == [
            ("rhs", lp.row_index("BAL", ("FR", h)), v) for h, v in zip(lp.sets["h"], data.series["load_DE_alt"].values)
        ]

    def test_constraint_choice_off_relaxes_share(self, battery_system):
        data, config = battery_system
        lp = build_model(data, config)
        spec = ScenarioSpec("S0", constraint_choices={"renewable_share": "off"})
        deltas = expand_overrides(spec, lp, data, config)
        assert len(deltas) == 1
        assert deltas[0].kind == "rhs" and deltas[0].value == 0.0

    @pytest.mark.parametrize(
        "table, issue",
        [
            ("run,d('DE')\nS0,short\n", "column \"d('DE')\": demand series 'short' has 3 hours, end_hour needs 4"),
            ("run,\"phi('solar','DE')\"\nS0,hot\n",
             "column \"phi('solar','DE')\": availability series 'hot' has values outside [0, 1]"),
            ("run,\"Q.fx('gas','DE')\"\nS0,1\n", "column \"Q.fx('gas','DE')\": unknown variable 'Q'"),
            ("run,quantum\nS0,off\n", "column \"quantum\": no constraint block of this name is registered"),
            ("run,c_var(n)\nS0,1\n", "column \"c_var(n)\": domain arity 1 does not match dimensions ('n', 'tech')"),
            ("run,min_renewable_share('FR')\nS0,0.5\n", "column \"min_renewable_share('FR')\": the base model "
             "has no share row for node 'FR' (base share is zero)"),
            ("run,min_renewable_share(n)\nS0,0.5\n", "column \"min_renewable_share(n)\": the base model "
             "has no share row for node 'FR' (base share is zero)"),
        ],
        ids=["short_series", "phi_range", "unknown_variable", "unregistered_block", "arity", "no_share_row",
             "no_share_row_fanned_out"],
    )
    def test_override_error_names_the_override(self, battery_system, table, issue):
        data, config = battery_system
        extra = {"short": TimeSeries("short", (1.0, 2.0, 3.0)), "hot": TimeSeries("hot", (0.5, 1.5, 0.2, 0.1))}
        data = replace(data, series={**data.series, **extra})
        lp = build_model(data, config)
        [spec] = parse_iteration_table(table)
        with pytest.raises(ValidationError) as exc:
            expand_overrides(spec, lp, data, config)
        assert exc.value.issues == [issue]

    def test_a_row_with_an_issue_does_not_expand(self, battery_system):
        data, config = battery_system
        [spec] = parse_iteration_table("run,\"c_var(n,'gas')\",d('DE')\nS0,x,load_DE_alt\n")
        with pytest.raises(ValidationError) as exc:
            expand_overrides(spec, build_model(data, config), data, config)
        assert exc.value.issues == ["column \"c_var(n,'gas')\": non-numeric value 'x'"]

    # ``on`` keeps the base rows; ``co2_cap`` ``off`` has no row to relax
    # when no node has a base cap.
    @pytest.mark.parametrize("block, choice", [("renewable_share", "on"), ("co2_cap", "on"), ("co2_cap", "off")])
    def test_choices_that_change_no_row_give_no_deltas(self, battery_system, block, choice):
        data, config = battery_system
        lp = build_model(data, config)
        assert expand_overrides(ScenarioSpec("S0", constraint_choices={block: choice}), lp, data, config) == []

    def test_constraint_choice_unknown_rejected(self, battery_system):
        data, config = battery_system
        lp = build_model(data, config)
        spec = ScenarioSpec("S0", constraint_choices={"renewable_share": "sometimes"})
        with pytest.raises(ValidationError) as exc:
            expand_overrides(spec, lp, data, config)
        assert exc.value.issues == [
            "column \"renewable_share\": unknown choice 'sometimes' (allowed: ('on', 'off'))"
        ]


class TestRunModes:
    def specs(self):
        return parse_iteration_table(TABLE3)

    def test_all_modes_agree(self, battery_system):
        data, config = battery_system
        specs = self.specs()
        by_mode = {}
        for mode in ("rebuild", "single_instance", "parallel"):
            results = run_scenarios(data, config, None, specs, mode=mode, threads=2)
            assert [r.run_id for r in results] == ["S0", "S1", "S2"]
            assert all(r.status == "optimal" for r in results)
            by_mode[mode] = [r.objective for r in results]
        for mode in ("single_instance", "parallel"):
            for a, b in zip(by_mode["rebuild"], by_mode[mode]):
                assert a == pytest.approx(b, rel=1e-6)

    def test_objectives_non_increasing_with_cheaper_storage(self, battery_system):
        data, config = battery_system
        results = run_scenarios(data, config, None, self.specs(), mode="single_instance")
        objs = [r.objective for r in results]
        assert objs[0] >= objs[1] - 1e-9 >= objs[2] - 1e-9

    def test_order_preserved_with_delays(self, battery_system, monkeypatch):
        data, config = battery_system
        specs = self.specs()
        delays = dict(zip((s.run_id for s in specs), [0.6, 0.2, 0.0]))
        run = sweep._run_on_instance

        def delayed(inst, spec, *args, **kwargs):
            time.sleep(delays[spec.run_id])  # in the forked worker that runs the row
            return run(inst, spec, *args, **kwargs)

        monkeypatch.setattr(sweep, "_run_on_instance", delayed)
        results = run_scenarios(data, config, None, specs, mode="parallel", threads=3)
        assert [r.run_id for r in results] == [s.run_id for s in specs]
        assert all(r.status == "optimal" for r in results)

    def test_single_spec_parallel_equals_rebuild(self, battery_system):
        data, config = battery_system
        spec = self.specs()[:1]
        a = run_scenarios(data, config, None, spec, mode="parallel", threads=4)
        b = run_scenarios(data, config, None, spec, mode="rebuild")
        assert a[0].objective == pytest.approx(b[0].objective, rel=1e-9)

    def test_overrides_do_not_leak_between_rows(self, battery_system):
        # The sentinel row makes gas almost free; the following empty row
        # must see the untouched base model again.
        data, config = battery_system
        table = (
            'run,"c_var(n,\'gas\')"\n'
            "cheap_gas,0.01\n"
            "plain,\n"
        )
        specs = parse_iteration_table(table)
        results = run_scenarios(data, config, None, specs, mode="single_instance")
        base = run_scenarios(data, config, None, [ScenarioSpec("base")], mode="rebuild")
        assert results[1].objective == pytest.approx(base[0].objective, rel=1e-9)
        assert results[0].objective < results[1].objective

    def test_failed_run_recorded_others_proceed(self, battery_system):
        data, config = battery_system
        table = "run,mystery(n)\nbad,1\ngood,\n"
        specs = parse_iteration_table(table)
        results = run_scenarios(data, config, None, specs, mode="single_instance")
        assert results[0].status == "error"
        assert "mystery" in results[0].error
        assert results[1].status == "optimal"

    def test_country_set_changes_model_size(self, battery_system):
        data, config = battery_system
        table = 'run,country_set\nboth,"DE,FR"\nsolo,DE\n'
        specs = parse_iteration_table(table)
        results = run_scenarios(data, config, None, specs, mode="single_instance")
        assert all(r.status == "optimal" for r in results)
        assert results[0].lp.row_families["BAL"].size == 8
        assert results[1].lp.row_families["BAL"].size == 4

    @pytest.mark.parametrize("mode", ["rebuild", "single_instance", "parallel"])
    def test_empty_country_set_is_an_error_run(self, battery_system, mode):
        data, config = battery_system
        specs = [ScenarioSpec("none", country_set=()), ScenarioSpec("all")]
        results = run_scenarios(data, config, None, specs, mode=mode, threads=2)
        assert [r.status for r in results] == ["error", "optimal"]
        assert "country_set: names no node" in results[0].error

    @pytest.mark.parametrize("mode", ["rebuild", "single_instance"])
    def test_uncertified_cold_solution_is_numerical(self, battery_system, monkeypatch, mode):
        """A cold solve that claims optimality with a wrong primal is not
        reported as optimal."""
        from voltaic import sweep

        def corrupted(lp):
            sol = solve(lp)
            sol.primal = sol.primal + 1.0
            return sol

        monkeypatch.setattr(sweep, "solve", corrupted)
        data, config = battery_system
        results = run_scenarios(data, config, None, self.specs(), mode=mode)
        assert [r.status for r in results] == ["numerical"] * 3
        assert all(r.objective is None for r in results)

    def test_bad_mode_rejected(self, battery_system):
        data, config = battery_system
        with pytest.raises(ValidationError, match="unknown mode"):
            run_scenarios(data, config, None, self.specs(), mode="warp")


_LINE = "DE-FR"

# parameter, element, SystemData field holding the record, record attribute
_COST_OVERRIDES = [
    ("c_i_sto_e", "P2G2P", "storages", "c_i_sto_e"),
    ("c_i_sto_p", "P2G2P", "storages", "c_i_sto_p"),
    ("c_fix_sto", "P2G2P", "storages", "c_fix"),
    ("c_var_sto", "P2G2P", "storages", "c_var_sto"),
    ("c_inv_power", "ccgt", "technologies", "c_inv_power"),
    ("c_fix", "ccgt", "technologies", "c_fix"),
    ("c_var", "ccgt", "technologies", "c_var"),
    ("c_inv_ntc", _LINE, "lines", "c_inv_ntc"),
]


def _with_attributes(data, field, element, **attrs):
    records = tuple(replace(r, **attrs) if r.id == element else r for r in getattr(data, field))
    return replace(data, **{field: records})


class TestOverrideEqualsRebuild:
    """A cost override must give the cost vector of a model built with that cost."""

    @pytest.fixture(scope="class")
    def system(self):
        # P2G2P gets a fixed cost so that both storage power terms are non-zero.
        data = _with_attributes(example1().data, "storages", "P2G2P", c_fix=1_500.0)
        return data, ModelConfig(end_hour=24)

    def overridden_obj(self, data, config, table):
        lp = build_model(data, config)
        inst = compile_instance(lp)
        inst.apply(expand_overrides(parse_iteration_table(table)[0], lp, data, config))
        return inst.lp.obj

    @pytest.mark.parametrize("param,element,field,attr", _COST_OVERRIDES, ids=[c[0] for c in _COST_OVERRIDES])
    def test_single_parameter(self, system, param, element, field, attr):
        data, config = system
        domain = f"'{element}'" if field == "lines" else f"n,'{element}'"
        value = 12_345.678
        assert getattr(next(r for r in getattr(data, field) if r.id == element), attr) != value
        obj = self.overridden_obj(data, config, f'run,"{param}({domain})"\nS0,{value}\n')
        rebuilt = build_model(_with_attributes(data, field, element, **{attr: value}), config)
        assert np.array_equal(obj, rebuilt.obj)

    def test_both_halves_of_a_pair(self, system):
        data, config = system
        table = "run,\"c_inv_power(n,'ocgt')\",\"c_fix(n,'ocgt')\"\nS0,30000.5,7000.25\n"
        lp = build_model(data, config)
        deltas = expand_overrides(parse_iteration_table(table)[0], lp, data, config)
        assert len(deltas) == len(lp.sets["n"])  # one delta per touched column
        obj = self.overridden_obj(data, config, table)
        edited = _with_attributes(data, "technologies", "ocgt", c_inv_power=30000.5, c_fix=7000.25)
        assert np.array_equal(obj, build_model(edited, config).obj)


def test_readme_lists_every_overridable_parameter():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    match = re.search(r"Overridable parameters.*?\n\n", readme, re.S)
    assert match, "README has no 'Overridable parameters' paragraph"
    listed = set(re.findall(r"`([^`]+)`", match.group(0)))
    assert set(PARAMETER_DOMAINS) <= listed, sorted(set(PARAMETER_DOMAINS) - listed)
