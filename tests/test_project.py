import csv
import math
import re
from dataclasses import replace
from pathlib import Path

import pytest

from voltaic.model import build_model
from voltaic.project import PROJECT_SETTINGS, STATIC_TABLES, load_project, parse_project_variables
from voltaic.system import (
    FEATURE_MODULES,
    Line,
    ModelConfig,
    Node,
    StorageTech,
    SystemData,
    Technology,
    TimeSeries,
    ValidationError,
    validate_system,
)
from voltaic.templates import (
    TEMPLATES,
    TWELVE_NODES,
    build_template,
    create_project,
    demand_profile,
    solar_profile,
    write_project,
)


@pytest.fixture
def example1_root(tmp_path):
    return create_project("proj", "example1", tmp_path)


def rewrite_cell(path: Path, match: str, replacement: str):
    text = path.read_text()
    assert match in text, f"{match!r} not found in {path}"
    path.write_text(text.replace(match, replacement))


class TestProjectVariables:
    def test_paper_style_values(self):
        issues = []
        config, raw = parse_project_variables(
            "Variable,Value\nbase_year,2030\nend_hour,h8760\ndispatch_only,no\n"
            "network_transfer,yes\ninfeasibility,no\nGUSS,yes\nGUSS_parallel,yes\n"
            "GUSS_parallel_threads,0\n",
            issues,
        )
        assert not issues
        assert config.base_year == 2030
        assert config.end_hour == 8760
        assert config.network_transfer is True
        assert config.dispatch_only is False
        assert config.guss_parallel_threads == 0

    @pytest.mark.parametrize("key", ["GUSS_parallel_threads", "gdx_convert_parallel_threads"])
    def test_negative_thread_count_is_an_issue(self, key):
        issues = []
        config, _ = parse_project_variables(
            "Variable,Value\nbase_year,2030\nend_hour,h24\ndispatch_only,no\n"
            f"network_transfer,yes\ninfeasibility,no\n{key},-1\n",
            issues,
        )
        assert issues == [f"project_variables:{key}: expected an integer >= 0 (0 = all cores), got '-1'"]
        assert config.guss_parallel_threads == config.gdx_convert_parallel_threads == 0

    def test_negative_thread_count_fails_the_load(self, example1_root):
        rewrite_cell(example1_root / "settings" / "project_variables.csv",
                     "GUSS_parallel_threads,0", "GUSS_parallel_threads,-1")
        with pytest.raises(ValidationError, match="GUSS_parallel_threads: expected an integer >= 0 .* got '-1'"):
            load_project(example1_root)

    def test_missing_required_key(self):
        issues = []
        parse_project_variables("Variable,Value\nbase_year,2030\n", issues)
        assert any("end_hour" in i for i in issues)

    def test_booleans_case_insensitive(self):
        issues = []
        config, _ = parse_project_variables(
            "Variable,Value\nbase_year,2030\nend_hour,h24\ndispatch_only,NO\n"
            "network_transfer,Yes\ninfeasibility,no\n",
            issues,
        )
        assert not issues
        assert config.network_transfer is True

    def test_unknown_key_is_warning_not_error(self, caplog):
        issues = []
        with caplog.at_level("WARNING"):
            parse_project_variables(
                "Variable,Value\nbase_year,2030\nend_hour,h24\ndispatch_only,no\n"
                "network_transfer,yes\ninfeasibility,no\nfrobnicate,yes\n",
                issues,
            )
        assert not issues
        assert any("frobnicate" in m for m in caplog.messages)

    def test_legacy_convert_keys_map_to_npz(self):
        issues = []
        config, _ = parse_project_variables(
            "Variable,Value\nbase_year,2030\nend_hour,h24\ndispatch_only,no\n"
            "network_transfer,yes\ninfeasibility,no\ngdx_convert_to_pickle,no\n"
            "gdx_convert_to_vaex,yes\n",
            issues,
        )
        assert config.write_npz is True

    def test_non_numeric_slack_penalty_is_an_issue(self):
        issues = []
        config, _ = parse_project_variables(
            "Variable,Value\nbase_year,2030\nend_hour,h24\ndispatch_only,no\n"
            "network_transfer,yes\ninfeasibility,no\nslack_penalty,abc\n",
            issues,
        )
        assert issues == ["project_variables:slack_penalty: expected a number, got 'abc'"]
        assert config.slack_penalty == 10_000.0


    def test_new_project_writes_each_default(self, tmp_path):
        """A new project writes every key but ``slack_penalty``, in the
        table's order, as its default's text where the template keeps it."""
        text = (create_project("proj", "minimal", tmp_path) / "settings" / "project_variables.csv").read_text()
        assert text == (
            "Variable,Value\nscenarios_iteration,no\nskip_input,no\nskip_iteration_data_file,no\nbase_year,2030\n"
            "end_hour,h24\ndispatch_only,no\nnetwork_transfer,no\nno_crossover,yes\ninfeasibility,no\nGUSS,yes\n"
            "GUSS_parallel,no\nGUSS_parallel_threads,0\ndata_input_file,static_input\n"
            "time_series_file,timeseries_input\niteration_data_file,iteration_data\ngdx_convert_parallel_threads,0\n"
            "gdx_convert_to_csv,yes\ngdx_convert_to_pickle,yes\ngdx_convert_to_vaex,no\nreport_data,yes\n"
        )
        issues = []
        config, _ = parse_project_variables(text, issues)
        assert not issues
        assert config == replace(ModelConfig(), scenarios_iteration=False, end_hour=24, network_transfer=False)


class TestLoadProject:
    def test_example1_is_twelve_node_skeleton(self, example1_root):
        project = load_project(example1_root)
        assert tuple(project.data.node_ids()) == TWELVE_NODES
        assert set(project.features.entries) == {
            (m, n) for m in FEATURE_MODULES for n in TWELVE_NODES
        }
        assert all(flag == 0 for flag in project.features.entries.values())
        assert [s.run_id for s in project.specs] == ["S0", "S1", "S2"]
        values = {s.run_id: [v for _, v in s.overrides] for s in project.specs}
        assert values["S0"] == [20029.0, 15021.0]
        assert values["S1"] == [10014.0, 7511.0]
        assert values["S2"] == [5007.0, 3755.0]

    def test_minimal_single_base_run(self, tmp_path):
        root = create_project("mini", "minimal", tmp_path)
        project = load_project(root)
        assert [s.run_id for s in project.specs] == ["base"]
        assert project.config.scenarios_iteration is False

    def test_unknown_template_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown template"):
            create_project("nope", "example99", tmp_path)

    def test_existing_directory_rejected(self, tmp_path, example1_root):
        with pytest.raises(FileExistsError):
            create_project("proj", "example1", tmp_path)

    def test_short_series_is_fatal_and_named(self, example1_root):
        series = example1_root / "data_input" / "timeseries_input" / "series.csv"
        lines = series.read_text().splitlines()
        series.write_text("\n".join(lines[:-1]) + "\n")  # drop the last hour
        with pytest.raises(ValidationError, match="47 hours"):
            load_project(example1_root)

    def test_iteration_data_series_available_for_overrides(self, example1_root):
        project = load_project(example1_root)
        assert "load_DE_high" in project.data.series

    def test_dispatch_only_requires_fixed_capacities(self, example1_root):
        rewrite_cell(
            example1_root / "settings" / "project_variables.csv", "dispatch_only,no", "dispatch_only,yes"
        )
        with pytest.raises(ValidationError, match="fixed_capacities"):
            load_project(example1_root)

    def test_fixed_capacities_are_keyed_as_their_columns(self, example1_root):
        path = example1_root / "data_input" / "static_input" / "fixed_capacities.csv"
        path.write_text("variable,element,node,value\nN,ccgt,DE,10\nN_STO_P,Li-ion,FR,2.5\nNTC,DE-FR,,500\n")
        project = load_project(example1_root)
        assert project.fixed_capacities == {
            ("N", ("ccgt", "DE")): 10.0, ("N_STO_P", ("Li-ion", "FR")): 2.5, ("NTC", ("DE-FR",)): 500.0,
        }
        lp = build_model(project.data, project.config, project.features)
        for family, key in project.fixed_capacities:
            lp.col_index(family, key)

    def test_unknown_fixed_capacity_variable_rejected(self, example1_root):
        path = example1_root / "data_input" / "static_input" / "fixed_capacities.csv"
        path.write_text("variable,element,node,value\nN,ccgt,DE,10\nG,ccgt,DE,1\n")
        with pytest.raises(ValidationError, match=r"fixed_capacities.csv:3: unknown capacity variable 'G'"):
            load_project(example1_root)

    def test_skip_input_still_reads_edited_inputs(self, example1_root):
        first = load_project(example1_root)
        assert first.data.technology("ccgt").c_var == 38.0
        rewrite_cell(
            example1_root / "data_input" / "static_input" / "technologies.csv", "38.0", "999.0"
        )
        rewrite_cell(
            example1_root / "settings" / "project_variables.csv", "skip_input,no", "skip_input,yes"
        )
        second = load_project(example1_root)
        assert second.data.technology("ccgt").c_var == 999.0

    def test_unknown_feature_node_rejected(self, example1_root):
        rewrite_cell(example1_root / "settings" / "features_node_selection.csv", "Module,DE", "Module,XX")
        with pytest.raises(ValidationError, match="XX"):
            load_project(example1_root)

    def test_unknown_constraint_block_rejected(self, example1_root):
        path = example1_root / "settings" / "constraints_list.csv"
        path.write_text(path.read_text() + "quantum_tunneling,on\n")
        with pytest.raises(ValidationError, match="quantum_tunneling"):
            load_project(example1_root)


# Every one of these edits violates exactly one declared field invariant and
# must fail the load with a message naming the field.
CORRUPTIONS = [
    ("data_input/static_input/nodes.csv", "0.3", "1.3", "min_renewable_share"),
    ("data_input/static_input/storage.csv", "0.95", "1.95", "eta_in"),
    ("data_input/static_input/technologies.csv", "38.0", "-38.0", "c_var"),
    ("data_input/static_input/lines.csv", "0.0,2000.0", "9000.0,2000.0", "ntc"),
    ("data_input/static_input/technologies.csv", "dispatchable", "magical", "kind"),
]


@pytest.mark.parametrize("rel_path,old,new,field_name", CORRUPTIONS)
def test_validation_names_offending_field(example1_root, rel_path, old, new, field_name):
    path = example1_root / rel_path
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    with pytest.raises(ValidationError, match=field_name):
        load_project(example1_root)


def test_active_feature_flag_loads_but_binary_enforced(example1_root):
    features = example1_root / "settings" / "features_node_selection.csv"
    rows = features.read_text().splitlines()
    rows[1] = rows[1].replace("dsm,0", "dsm,1", 1)
    features.write_text("\n".join(rows) + "\n")
    project = load_project(example1_root)  # flags parse; solving rejects them
    assert project.features.active() == [("dsm", "DE")]

    rows[1] = rows[1].replace("dsm,1", "dsm,2", 1)
    features.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValidationError, match="0/1"):
        load_project(example1_root)


def test_availability_outside_unit_interval(example1_root):
    series = example1_root / "data_input" / "timeseries_input" / "series.csv"
    rows = list(csv.reader(series.read_text().splitlines()))
    col = rows[0].index("cf_solar_DE")
    rows[12][col] = "1.7"
    series.write_text("\n".join(",".join(r) for r in rows) + "\n")
    with pytest.raises(ValidationError, match=r"outside \[0, 1\]"):
        load_project(example1_root)


class TestNumericFieldChecks:
    """Every numeric field check rejects nan, and costs are finite and
    non-negative; each message names the object and the field."""

    @staticmethod
    def issues(family, field, value):
        records = {
            "nodes": (Node("N1", "load"), Node("N2", "load")),
            "technologies": (Technology("gas", "dispatchable", c_inv_power=1.0),),
            "storages": (StorageTech("Li-ion", c_i_sto_e=1.0, c_i_sto_p=1.0),),
            "lines": (Line("N1", "N2", ntc_max=10.0),),
        }
        if family is not None:
            records[family] = (replace(records[family][0], **{field: value}), *records[family][1:])
        data = SystemData(**records, series={"load": TimeSeries("load", (1.0, 2.0))})
        return validate_system(data, ModelConfig(end_hour=2))

    def test_clean_system(self):
        assert self.issues(None, None, None) == []

    @pytest.mark.parametrize("field", ["min_renewable_share", "co2_cap"])
    def test_node_fields(self, field):
        assert any(i.startswith("node N1:") and field in i for i in self.issues("nodes", field, math.nan))
        if field == "co2_cap":
            assert self.issues("nodes", field, -1.0)

    @pytest.mark.parametrize("field", ["c_inv_power", "c_fix", "c_var", "co2_intensity", "cap_min", "cap_max"])
    def test_technology_fields(self, field):
        assert any(i.startswith("technology gas:") and field in i for i in self.issues("technologies", field, math.nan))
        if not field.startswith("cap_"):
            for bad in (-1.0, math.inf):
                assert self.issues("technologies", field, bad) == [
                    f"technology gas: {field} must be finite and >= 0, got {bad}"
                ]

    @pytest.mark.parametrize(
        "field",
        ["c_i_sto_e", "c_i_sto_p", "c_fix", "c_var_sto", "eta_in", "eta_out", "e_min", "e_max", "p_min", "p_max"],
    )
    def test_storage_fields(self, field):
        assert any(i.startswith("storage Li-ion:") and field in i for i in self.issues("storages", field, math.nan))
        if field.startswith("c_"):
            assert self.issues("storages", field, -1.0) == [f"storage Li-ion: {field} must be finite and >= 0, got -1.0"]

    @pytest.mark.parametrize("kind", ["e", "p"])
    def test_storage_minimums_are_non_negative(self, kind):
        need = f"storage Li-ion: need 0 <= {kind}_min <= {kind}_max"
        assert self.issues("storages", f"{kind}_min", -5.0) == [f"{need}, got [-5.0, inf]"]
        assert self.issues("storages", f"{kind}_min", math.nan) == [f"{need}, got [nan, inf]"]
        assert self.issues("storages", f"{kind}_max", -1.0) == [f"{need}, got [0.0, -1.0]"]
        assert self.issues("storages", f"{kind}_min", 0.0) == []

    @pytest.mark.parametrize("field", ["ntc_existing", "ntc_max", "c_inv_ntc", "loss_factor"])
    def test_line_fields(self, field):
        assert any(i.startswith("line N1-N2:") and field in i for i in self.issues("lines", field, math.nan))


def _checked_system() -> SystemData:
    """A system that passes every check of ``validate_system`` at 2 hours;
    the series ``short`` and ``hot`` are there for the cases to name."""
    return SystemData(
        nodes=(Node("N1", "load"), Node("N2", "load")),
        technologies=(
            Technology("gas", "dispatchable", c_inv_power=1.0, c_var=5.0),
            Technology("wind", "variable_renewable", c_inv_power=1.0, availability={"N1": "cf", "N2": "cf"}),
        ),
        storages=(StorageTech("Li-ion", c_i_sto_e=1.0, c_i_sto_p=1.0),),
        lines=(Line("N1", "N2", ntc_max=10.0),),
        series={
            name: TimeSeries(name, values)
            for name, values in (("load", (1.0, 2.0)), ("cf", (0.5, 0.25)), ("short", (1.0,)), ("hot", (0.5, 1.5)))
        },
    )


def _edit(attr, i=0, **changes):
    def edit(data):
        records = list(getattr(data, attr))
        records[i] = replace(records[i], **changes)
        return replace(data, **{attr: tuple(records)})
    return edit


def _add(attr, record):
    return lambda data: replace(data, **{attr: (*getattr(data, attr), record)})


def _add_series(name, ts):
    return lambda data: replace(data, series={**data.series, name: ts})


_WIND = 1  # the renewable's place in the technologies of _checked_system

#: One invalid input per check of ``validate_system``: an edit of the valid
#: system, the config's changed fields, and the one message expected.
INVALID_INPUTS = [
    ("end_hour", None, {"end_hour": 0}, "config: end_hour must be in [1, 8760], got 0"),
    ("slack_penalty", None, {"infeasibility": True, "slack_penalty": 5.0},
     "config: slack_penalty (5.0) must exceed every c_var (max 5.0) when infeasibility is on"),
    ("node_id", _add("nodes", Node("N1", "load")), {}, "node N1: id duplicated"),
    ("min_renewable_share", _edit("nodes", min_renewable_share=1.5), {},
     "node N1: min_renewable_share must be in [0, 1], got 1.5"),
    ("co2_cap", _edit("nodes", co2_cap=-1.0), {}, "node N1: co2_cap must be >= 0, got -1.0"),
    ("demand_unknown", _edit("nodes", demand="nope"), {}, "node N1: demand references unknown series 'nope'"),
    ("demand_short", _edit("nodes", demand="short"), {},
     "node N1: demand series 'short' has 1 hours, end_hour needs 2"),
    ("technology_id", _add("technologies", Technology("gas", "dispatchable", c_inv_power=1.0)), {},
     "technology gas: id duplicated"),
    ("kind", _edit("technologies", kind="coal"), {},
     "technology gas: kind must be one of ('dispatchable', 'variable_renewable'), got 'coal'"),
    *(
        (field, _edit("technologies", **{field: -1.0}), {}, f"technology gas: {field} must be finite and >= 0, got -1.0")
        for field in ("c_inv_power", "c_fix", "c_var", "co2_intensity")
    ),
    ("cap_range", _edit("technologies", cap_min=5.0, cap_max=1.0), {},
     "technology gas: need 0 <= cap_min <= cap_max, got [5.0, 1.0]"),
    ("availability_on_dispatchable", _edit("technologies", availability={"N1": "cf"}), {},
     "technology gas: availability only allowed for variable_renewable"),
    ("availability_required", _edit("technologies", _WIND, availability=None), {},
     "technology wind: availability required for variable_renewable"),
    ("availability_missing", _edit("technologies", _WIND, availability={"N1": "cf"}), {},
     "technology wind: availability missing for node N2"),
    ("availability_unknown", _edit("technologies", _WIND, availability={"N1": "cf", "N2": "nope"}), {},
     "technology wind: availability references unknown series 'nope' for node N2"),
    ("availability_unknown_node", _edit("technologies", _WIND, availability={"N1": "cf", "N2": "cf", "ZZ": "nope"}),
     {}, "technology wind: availability references unknown series 'nope' for node ZZ"),
    ("availability_short", _edit("technologies", _WIND, availability={"N1": "cf", "N2": "short"}), {},
     "technology wind: availability series 'short' has 1 hours, end_hour needs 2"),
    ("availability_range", _edit("technologies", _WIND, availability={"N1": "hot", "N2": "cf"}), {},
     "technology wind: availability series 'hot' has values outside [0, 1]"),
    ("storage_id", _add("storages", StorageTech("Li-ion", c_i_sto_e=1.0, c_i_sto_p=1.0)), {},
     "storage Li-ion: id duplicated"),
    ("eta_in", _edit("storages", eta_in=0.0), {}, "storage Li-ion: eta_in must be in (0, 1], got 0.0"),
    ("eta_out", _edit("storages", eta_out=1.5), {}, "storage Li-ion: eta_out must be in (0, 1], got 1.5"),
    *(
        (field, _edit("storages", **{field: -1.0}), {}, f"storage Li-ion: {field} must be finite and >= 0, got -1.0")
        for field in ("c_i_sto_e", "c_i_sto_p", "c_fix", "c_var_sto")
    ),
    ("e_range", _edit("storages", e_min=2.0, e_max=1.0), {},
     "storage Li-ion: need 0 <= e_min <= e_max, got [2.0, 1.0]"),
    ("p_range", _edit("storages", p_min=-1.0), {}, "storage Li-ion: need 0 <= p_min <= p_max, got [-1.0, inf]"),
    ("line_ends", _edit("lines", to_node="N1"), {}, "line N1-N1: from_node and to_node must differ"),
    ("line_pair", _add("lines", Line("N2", "N1")), {}, "line N2-N1: duplicate line for node pair"),
    ("line_node", _edit("lines", to_node="ZZ"), {}, "line N1-ZZ: references unknown node 'ZZ'"),
    ("ntc_range", _edit("lines", ntc_existing=20.0), {},
     "line N1-N2: need 0 <= ntc_existing <= ntc_max, got [20.0, 10.0]"),
    ("loss_factor", _edit("lines", loss_factor=1.0), {}, "line N1-N2: loss_factor must be in [0, 1), got 1.0"),
    ("c_inv_ntc", _edit("lines", c_inv_ntc=-1.0), {}, "line N1-N2: c_inv_ntc must be finite and >= 0, got -1.0"),
    ("series_name", _add_series("alias", TimeSeries("load", (1.0, 2.0))), {},
     "series alias: registered under mismatching name 'load'"),
    ("series_finite", _add_series("gap", TimeSeries("gap", (1.0, math.nan))), {}, "series gap: values must be finite"),
]


class TestValidationMessages:
    """Each check of ``validate_system`` names its object and field in one
    exact message."""

    def test_checked_system_is_clean(self):
        assert validate_system(_checked_system(), ModelConfig(end_hour=2)) == []

    @pytest.mark.parametrize("edit, config, message", [case[1:] for case in INVALID_INPUTS],
                             ids=[case[0] for case in INVALID_INPUTS])
    def test_message(self, edit, config, message):
        data = _checked_system()
        if edit is not None:
            data = edit(data)
        assert validate_system(data, ModelConfig(**{"end_hour": 2, **config})) == [message]


def _round_trip(template, root):
    project = load_project(write_project(template, root))
    data = template.data
    assert project.data.nodes == data.nodes
    assert project.data.technologies == data.technologies
    assert project.data.storages == data.storages
    assert project.data.lines == data.lines
    assert project.data.series == {**data.series, **template.iteration_data_series}
    return project


class TestStaticTables:
    @pytest.mark.parametrize("name", sorted(TEMPLATES))
    def test_template_round_trips(self, tmp_path, name):
        _round_trip(build_template(name), tmp_path / name)

    def test_defaults_and_unbounded_values_round_trip(self, tmp_path):
        hours = 24
        series = {
            s.name: s
            for s in (
                demand_profile("load_DE", hours, 50.0, 12.0),
                demand_profile("load_FR", hours, 40.0, 9.0),
                solar_profile("cf_solar_DE", hours),
                solar_profile("cf_solar_FR", hours, peak=0.7),
            )
        }
        data = SystemData(
            nodes=(Node("DE", "load_DE", min_renewable_share=0.2, co2_cap=900.0), Node("FR", "load_FR")),
            technologies=(
                Technology("gas", "dispatchable", c_inv_power=42_000.0, c_var=70.0, co2_intensity=0.35),
                Technology("solar", "variable_renewable", c_inv_power=37_000.0, cap_min=1.5,
                           cap_max=2_000.0, availability={"DE": "cf_solar_DE", "FR": "cf_solar_FR"}),
            ),
            storages=(StorageTech("Li-ion", c_i_sto_e=20_029.0, c_i_sto_p=15_021.0, eta_in=0.9),),
            lines=(Line("DE", "FR", ntc_existing=100.0, ntc_max=math.inf, c_inv_ntc=2_500.0,
                        loss_factor=0.02),),
            series=series,
        )
        assert data.nodes[1].co2_cap is None
        assert math.isinf(data.technologies[0].cap_max)
        assert math.isinf(data.storages[0].e_max) and math.isinf(data.storages[0].p_max)
        root = tmp_path / "schema"
        _round_trip(replace(build_template("minimal"), data=data), root)

        static = root / "data_input" / "static_input"
        assert (static / "nodes.csv").read_text().splitlines()[2] == "FR,load_FR,0.0,"
        assert (static / "lines.csv").read_text().splitlines()[1] == "DE,FR,100.0,inf,2500.0,0.02"

    def test_empty_cells_read_as_field_defaults(self, tmp_path):
        root = create_project("mini", "minimal", tmp_path)
        storage = root / "data_input" / "static_input" / "storage.csv"
        header = storage.read_text().splitlines()[0]
        storage.write_text(header + "\nLi-ion," + "," * (header.count(",") - 1) + "\n")
        sto = load_project(root).data.storages[0]
        assert sto == StorageTech("Li-ion", c_i_sto_e=0.0, c_i_sto_p=0.0)

    def test_columns_are_record_fields(self):
        headers = {t.file: [c.name for c in t.columns] for t in STATIC_TABLES}
        assert headers == {
            "nodes.csv": ["id", "demand_series", "min_renewable_share", "co2_cap"],
            "technologies.csv": ["id", "kind", "c_inv_power", "c_fix", "c_var", "co2_intensity",
                                 "cap_min", "cap_max"],
            "storage.csv": ["id", "c_i_sto_e", "c_i_sto_p", "c_fix", "eta_in", "eta_out", "e_min",
                            "e_max", "p_min", "p_max", "c_var_sto"],
            "lines.csv": ["from_node", "to_node", "ntc_existing", "ntc_max", "c_inv_ntc", "loss_factor"],
        }

    def test_readme_lists_every_static_column(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        match = re.search(r"Static input tables.*?\n\n", readme, re.S)
        assert match, "README has no 'Static input tables' paragraph"
        listed = set(re.findall(r"`([^`]+)`", match.group(0)))
        named = {"availability.csv", "tech", "node", "series"}
        for table in STATIC_TABLES:
            named |= {table.file, *(c.name for c in table.columns)}
        assert named <= listed, sorted(named - listed)


def _edit(rel_path, old, new):
    """Replaces the first ``old`` in a project file with ``new``."""
    def edit(root):
        path = root / rel_path
        assert old in path.read_text(), f"{old!r} not in {rel_path}"
        path.write_text(path.read_text().replace(old, new, 1))
    return edit


def _write(rel_path, text):
    return lambda root: (root / rel_path).write_text(text)


def _delete(rel_path):
    return lambda root: (root / rel_path).unlink()


def _set(key, value):
    """Sets ``key`` of project_variables.csv to ``value`` in a last row,
    in place of any row the key had."""
    def edit(root):
        path = root / _VARIABLES
        rows = [line for line in path.read_text().splitlines() if line.split(",")[0] != key]
        path.write_text("".join(f"{line}\n" for line in [*rows, f"{key},{value}"]))
    return edit


_VARIABLES = "settings/project_variables.csv"
_FEATURES = "settings/features_node_selection.csv"

# One value per key of project_variables.csv that its reader rejects, in the
# table's order, and the end of the message naming it.
BAD_SETTINGS = [
    ("scenarios_iteration", "maybe", "expected yes/no, got 'maybe'"),
    ("skip_input", "y", "expected yes/no, got 'y'"),
    ("skip_iteration_data_file", "2", "expected yes/no, got '2'"),
    ("base_year", "soon", "expected integer, got 'soon'"),
    ("end_hour", "hx", "expected h<hours>, got 'hx'"),
    ("dispatch_only", "on", "expected yes/no, got 'on'"),
    ("network_transfer", "", "expected yes/no, got ''"),
    ("no_crossover", "off", "expected yes/no, got 'off'"),
    ("infeasibility", "maybe", "expected yes/no, got 'maybe'"),
    ("GUSS", "maybe", "expected yes/no, got 'maybe'"),
    ("GUSS_parallel", "nope", "expected yes/no, got 'nope'"),
    ("GUSS_parallel_threads", "many", "expected an integer >= 0 (0 = all cores), got 'many'"),
    ("data_input_file", "", "expected a file name, got ''"),
    ("time_series_file", "../timeseries_input", "expected a file name, got '../timeseries_input'"),
    ("iteration_data_file", "..", "expected a file name, got '..'"),
    ("gdx_convert_parallel_threads", "-1", "expected an integer >= 0 (0 = all cores), got '-1'"),
    ("gdx_convert_to_csv", "maybe", "expected yes/no, got 'maybe'"),
    ("gdx_convert_to_pickle", "maybe", "expected yes/no, got 'maybe'"),
    ("gdx_convert_to_vaex", "maybe", "expected yes/no, got 'maybe'"),
    ("report_data", "maybe", "expected yes/no, got 'maybe'"),
    ("slack_penalty", "abc", "expected a number, got 'abc'"),
]


def test_every_setting_has_a_bad_value_case():
    assert [key for key, _, _ in BAD_SETTINGS] == [s.key for s in PROJECT_SETTINGS]


# One edit of the minimal template per input error, and the issue it must
# raise ({root} is the project root).
INPUT_ERRORS = [
    *(pytest.param([_set(key, value)], f"project_variables:{key}: {message}", id=key)
      for key, value, message in BAD_SETTINGS),
    pytest.param([_edit("data_input/static_input/technologies.csv", ",70.0,", ",cheap,")],
                 "technologies.csv:2: column 'c_var': not a number: 'cheap'", id="number"),
    pytest.param([_edit("data_input/static_input/availability.csv", "solar,DE,cf_solar_DE", "solar,DE,")],
                 "availability.csv:2: needs tech, node and series", id="availability_row"),
    pytest.param([_delete("data_input/static_input/nodes.csv")],
                 "{root}/data_input/static_input/nodes.csv: missing file", id="nodes_file"),
    pytest.param([_edit("data_input/timeseries_input/series.csv", "\nh2,", "\nh9,")],
                 "series.csv:3: hour column must be sequential, expected h2", id="hour_column"),
    pytest.param([_edit("data_input/timeseries_input/series.csv", "\nh1,0.0,", "\nh1,x,")],
                 "series.csv:2: bad value 'x'", id="series_value"),
    pytest.param([_write("data_input/timeseries_input/extra.csv", "hour,load_DE\nh1,1.0\n")],
                 "series.csv: series 'load_DE' defined twice", id="series_twice"),
    pytest.param([_delete(_FEATURES)], "{root}/settings/features_node_selection.csv: missing file",
                 id="features_file"),
    pytest.param([_edit(_FEATURES, "heat,0", "heat,0\nteleport,0")],
                 "features_node_selection.csv:8: unknown module 'teleport'", id="features_module"),
    pytest.param([_edit(_FEATURES, "dsm,0", "dsm,x")],
                 "features_node_selection.csv:2: entry for DE must be 0/1, got 'x'", id="features_entry"),
    pytest.param([_delete("settings/reporting_symbols.csv")],
                 "{root}/settings/reporting_symbols.csv: missing file", id="reporting_file"),
    pytest.param([_edit("settings/reporting_symbols.csv", "N,level", "N,mean")],
                 "reporting_symbols.csv:2: kind must be level or marginal, got 'mean'", id="reporting_kind"),
    pytest.param([_delete("settings/constraints_list.csv")],
                 "{root}/settings/constraints_list.csv: missing file", id="constraints_file"),
    pytest.param([_edit("settings/constraints_list.csv", "renewable_share,on,off", "renewable_share,on,maybe")],
                 "constraints_list.csv:2: unsupported choices ['maybe'] for 'renewable_share'",
                 id="constraints_choice"),
    pytest.param([_write("iterationfiles/iteration_data/alt.csv", "hour,load_DE\nh1,1.0\n")],
                 "iteration_data: series 'load_DE' already defined in base data", id="iteration_data_shadow"),
    pytest.param([_edit(_VARIABLES, "scenarios_iteration,no", "scenarios_iteration,yes"),
                  _delete("iterationfiles/iteration_table.csv")],
                 "{root}/iterationfiles/iteration_table.csv: missing file", id="iteration_table_file"),
]


@pytest.mark.parametrize("edits, issue", INPUT_ERRORS)
def test_input_error_is_reported(tmp_path, edits, issue):
    root = create_project("proj", "minimal", tmp_path)
    load_project(root)  # the template loads
    for edit in edits:
        edit(root)
    with pytest.raises(ValidationError) as exc:
        load_project(root)
    assert issue.format(root=root) in exc.value.issues
