"""Built-in project templates.

``minimal``  - one node, one day, no scenario iteration; the smallest
               runnable project.
``example1`` - the twelve-country skeleton with a three-run battery cost
               sweep (S0 baseline, S1 half, S2 quarter cost).
``example2`` - a two-country week with a renewable-share sweep (DE
               50-60-70-80 %, FR 40-50-60-70 %).

All profiles are deterministic closed-form shapes so projects materialize
byte-identically on every machine. :func:`write_project` writes the static
record tables through the loader's schema, :data:`voltaic.project.STATIC_TABLES`
(text as is, numbers as ``repr``, an empty cell for an unset value or for
the infinite value an empty cell reads as), and ``constraints_list.csv``
from :data:`voltaic.scenarios.CONSTRAINT_BLOCKS`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

from .project import PROJECT_SETTINGS, STATIC_TABLES, ProjectLayout
from .scenarios import CONSTRAINT_BLOCKS
from .system import (
    FEATURE_MODULES,
    Line,
    Node,
    StorageTech,
    SystemData,
    Technology,
    TimeSeries,
    ValidationError,
    hour_label,
)

TWELVE_NODES = ("DE", "FR", "DK", "BE", "NL", "PL", "CZ", "AT", "CH", "ES", "IT", "PT")

DEFAULT_REPORTING = [
    ("N", "level"),
    ("G", "level"),
    ("CU", "level"),
    ("N_STO_E", "level"),
    ("N_STO_P", "level"),
    ("STO_IN", "level"),
    ("STO_OUT", "level"),
    ("STO_L", "level"),
    ("F", "level"),
    ("NTC", "level"),
    ("d", "level"),
    ("BAL", "marginal"),
]


@dataclass
class Template:
    name: str
    data: SystemData
    config_rows: list[tuple[str, str]]
    iteration_header: list[str]
    iteration_rows: list[list[str]]
    reporting: list[tuple[str, str]] = field(default_factory=lambda: list(DEFAULT_REPORTING))
    iteration_data_series: dict[str, TimeSeries] = field(default_factory=dict)


def demand_profile(name: str, hours: int, base: float, amplitude: float, phase: float = 9.0):
    values = tuple(
        base + amplitude * math.sin(2.0 * math.pi * ((h % 24) - phase) / 24.0)
        for h in range(hours)
    )
    return TimeSeries(name, values)


def solar_profile(name: str, hours: int, peak: float = 0.85):
    values = tuple(
        peak * math.sin(math.pi * ((h % 24) - 6) / 12.0) if 6 <= (h % 24) <= 18 else 0.0
        for h in range(hours)
    )
    return TimeSeries(name, values)


def wind_profile(name: str, hours: int, mean: float = 0.4, swing: float = 0.3, shift: float = 0.0):
    values = tuple(
        min(1.0, max(0.0, mean + swing * math.sin(2.0 * math.pi * (h + shift) / 37.0)))
        for h in range(hours)
    )
    return TimeSeries(name, values)


def _config_rows(**overrides: str) -> list[tuple[str, str]]:
    """A new project's settings: each written key of :data:`PROJECT_SETTINGS` with
    the text of its default, or of its entry in ``overrides``."""
    return [
        (s.key, overrides[s.key] if s.key in overrides else s.reader.write(s.default))
        for s in PROJECT_SETTINGS if s.written
    ]


def minimal() -> Template:
    hours = 24
    data = SystemData(
        nodes=(Node("DE", "load_DE"),),
        technologies=(
            Technology("gas", "dispatchable", c_inv_power=42_000.0, c_fix=12_000.0, c_var=70.0,
                       co2_intensity=0.35, cap_max=500.0),
            Technology("solar", "variable_renewable", c_inv_power=37_000.0, c_fix=8_000.0,
                       c_var=0.0, cap_max=2_000.0, availability={"DE": "cf_solar_DE"}),
        ),
        storages=(StorageTech("Li-ion", c_i_sto_e=20_029.0, c_i_sto_p=15_021.0,
                              eta_in=0.92, eta_out=0.92),),
        series={
            "load_DE": demand_profile("load_DE", hours, 50.0, 12.0),
            "cf_solar_DE": solar_profile("cf_solar_DE", hours),
        },
    )
    return Template(
        name="minimal",
        data=data,
        config_rows=_config_rows(
            scenarios_iteration="no", end_hour=f"h{hours}", network_transfer="no"
        ),
        iteration_header=["run"],
        iteration_rows=[["base"]],
        reporting=[r for r in DEFAULT_REPORTING if r[0] not in ("F", "NTC")],
    )


def example1() -> Template:
    """Twelve-node skeleton with the three-run Li-ion cost sweep."""
    hours = 48
    series: dict[str, TimeSeries] = {}
    nodes = []
    for i, node_id in enumerate(TWELVE_NODES):
        load = demand_profile(f"load_{node_id}", hours, 30.0 + 4.0 * i, 8.0 + 0.5 * i)
        solar = solar_profile(f"cf_solar_{node_id}", hours, peak=0.7 + 0.02 * i)
        wind = wind_profile(f"cf_wind_{node_id}", hours, shift=3.1 * i)
        series[load.name] = load
        series[solar.name] = solar
        series[wind.name] = wind
        nodes.append(Node(node_id, load.name, min_renewable_share=0.3))

    technologies = (
        Technology("ccgt", "dispatchable", c_inv_power=42_000.0, c_fix=8_000.0, c_var=38.0,
                   co2_intensity=0.35, cap_max=5_000.0),
        Technology("ocgt", "dispatchable", c_inv_power=25_000.0, c_fix=5_000.0, c_var=60.0,
                   co2_intensity=0.50, cap_max=5_000.0),
        Technology("solar", "variable_renewable", c_inv_power=40_000.0, c_fix=5_000.0, c_var=0.0,
                   cap_max=20_000.0,
                   availability={n: f"cf_solar_{n}" for n in TWELVE_NODES}),
        Technology("wind", "variable_renewable", c_inv_power=135_000.0, c_fix=25_000.0, c_var=0.0,
                   cap_max=20_000.0,
                   availability={n: f"cf_wind_{n}" for n in TWELVE_NODES}),
    )
    storages = (
        StorageTech("Li-ion", c_i_sto_e=20_029.0, c_i_sto_p=15_021.0, eta_in=0.95, eta_out=0.95),
        StorageTech("PHS", c_i_sto_e=8_000.0, c_i_sto_p=12_000.0, eta_in=0.88, eta_out=0.88,
                    e_min=200.0, e_max=200.0, p_min=40.0, p_max=40.0),
        StorageTech("P2G2P", c_i_sto_e=120.0, c_i_sto_p=35_000.0, eta_in=0.65, eta_out=0.60,
                    c_var_sto=1.0),
    )
    lines = tuple(
        Line(TWELVE_NODES[i], TWELVE_NODES[(i + 1) % len(TWELVE_NODES)],
             ntc_existing=0.0, ntc_max=2_000.0, c_inv_ntc=3_000.0)
        for i in range(len(TWELVE_NODES))
    )
    data = SystemData(tuple(nodes), technologies, storages, lines, series)

    alt = demand_profile("load_DE_high", hours, 36.0, 9.6)
    return Template(
        name="example1",
        data=data,
        config_rows=_config_rows(end_hour=f"h{hours}", GUSS_parallel="yes"),
        iteration_header=["run", "c_i_sto_e(n,'Li-ion')", "c_i_sto_p(n,'Li-ion')"],
        iteration_rows=[
            ["S0", "20029", "15021"],
            ["S1", "10014", "7511"],
            ["S2", "5007", "3755"],
        ],
        iteration_data_series={alt.name: alt},
    )


def example2() -> Template:
    """Two-country renewable-share sweep over one week."""
    hours = 168
    series = {
        "load_DE": demand_profile("load_DE", hours, 55.0, 12.0),
        "load_FR": demand_profile("load_FR", hours, 45.0, 10.0, phase=8.0),
        "cf_solar_DE": solar_profile("cf_solar_DE", hours, peak=0.8),
        "cf_solar_FR": solar_profile("cf_solar_FR", hours, peak=0.88),
        "cf_wind_DE": wind_profile("cf_wind_DE", hours, shift=0.0),
        "cf_wind_FR": wind_profile("cf_wind_FR", hours, shift=11.0),
    }
    data = SystemData(
        nodes=(
            Node("DE", "load_DE", min_renewable_share=0.5),
            Node("FR", "load_FR", min_renewable_share=0.4),
        ),
        technologies=(
            Technology("gas", "dispatchable", c_inv_power=42_000.0, c_fix=8_000.0, c_var=42.0,
                       co2_intensity=0.35, cap_max=5_000.0),
            Technology("solar", "variable_renewable", c_inv_power=40_000.0, c_fix=5_000.0,
                       c_var=0.0, cap_max=20_000.0,
                       availability={"DE": "cf_solar_DE", "FR": "cf_solar_FR"}),
            Technology("wind", "variable_renewable", c_inv_power=135_000.0, c_fix=25_000.0,
                       c_var=0.0, cap_max=20_000.0,
                       availability={"DE": "cf_wind_DE", "FR": "cf_wind_FR"}),
        ),
        storages=(StorageTech("Li-ion", c_i_sto_e=20_029.0, c_i_sto_p=15_021.0,
                              eta_in=0.95, eta_out=0.95),),
        lines=(Line("DE", "FR", ntc_existing=500.0, ntc_max=3_000.0, c_inv_ntc=2_500.0),),
        series=series,
    )
    return Template(
        name="example2",
        data=data,
        config_rows=_config_rows(end_hour=f"h{hours}", GUSS_parallel="yes"),
        iteration_header=["run", "min_renewable_share('DE')", "min_renewable_share('FR')"],
        iteration_rows=[
            ["share50", "0.50", "0.40"],
            ["share60", "0.60", "0.50"],
            ["share70", "0.70", "0.60"],
            ["share80", "0.80", "0.70"],
        ],
    )


TEMPLATES = {"minimal": minimal, "example1": example1, "example2": example2}


def build_template(name: str) -> Template:
    try:
        return TEMPLATES[name]()
    except KeyError:
        raise ValidationError(
            f"unknown template {name!r} (available: {', '.join(sorted(TEMPLATES))})"
        ) from None


def _write_csv(path: Path, rows: list[list[str]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _series_table(series: dict[str, TimeSeries]) -> list[list[str]]:
    names = sorted(series)
    length = max((len(series[n]) for n in names), default=0)
    rows = [["hour", *names]]
    for h in range(length):
        rows.append([hour_label(h + 1), *[repr(series[n].values[h]) for n in names]])
    return rows


_FORMULATION = """\
# Model formulation

Cost minimization over all consecutive hours of the horizon. Decision
variables: hourly generation G(tech,n,h), renewable curtailment CU(res,n,h),
installed capacity N(tech,n), storage charge/discharge/level STO_IN, STO_OUT,
STO_L with energy and power sizing N_STO_E, N_STO_P, signed line flows F(l,h)
bounded by expandable transfer capacity NTC(l), and optional slack generation
SLACK(n,h) with a penalty cost.

Constraints: hourly nodal balance (BAL), capacity limits for dispatchable
(CAP_DISP) and availability equations for renewable technologies (CAP_RES,
with explicit curtailment), storage level recursion with charge and
discharge efficiencies plus cyclic closure between the last and first hour
(STO_BAL, STO_CYCLE), storage sizing caps, flow bounds in both directions,
per-node minimum renewable shares (RES_SHARE) and optional CO2 caps
(CO2_CAP). Annualized investment and fixed costs are scaled by
end_hour/8760.
"""


def write_project(template: Template, root: Path) -> Path:
    """Materialize a template as a project directory tree."""
    root = Path(root)
    layout = ProjectLayout(root)
    settings, static = layout.settings, layout.static_input

    _write_csv(settings / "project_variables.csv", [["Variable", "Value"], *map(list, template.config_rows)])
    node_ids = [n.id for n in template.data.nodes]
    _write_csv(
        settings / "features_node_selection.csv",
        [["Module", *node_ids], *[[module, *(["0"] * len(node_ids))] for module in FEATURE_MODULES]],
    )
    _write_csv(settings / "reporting_symbols.csv", [["symbol", "kind"], *map(list, template.reporting)])
    _write_csv(
        settings / "constraints_list.csv",
        [["constraint", "choices"], *[[name, *choices] for name, choices in CONSTRAINT_BLOCKS.items()]],
    )

    for table in STATIC_TABLES:
        _write_csv(
            static / table.file,
            [
                [col.name for col in table.columns],
                *[table.format_row(record) for record in getattr(template.data, table.attr)],
            ],
        )
    availability_rows = [["tech", "node", "series"]]
    for t in template.data.technologies:
        for node_id, series_name in sorted((t.availability or {}).items()):
            availability_rows.append([t.id, node_id, series_name])
    _write_csv(static / "availability.csv", availability_rows)

    _write_csv(layout.timeseries_input / "series.csv", _series_table(template.data.series))
    _write_csv(layout.iteration_table, [template.iteration_header, *template.iteration_rows])
    layout.iteration_data.mkdir(parents=True, exist_ok=True)
    if template.iteration_data_series:
        _write_csv(layout.iteration_data / "alternatives.csv", _series_table(template.iteration_data_series))

    model_dir = root / "model"
    model_dir.mkdir(parents=True, exist_ok=True)
    (model_dir / "formulation.md").write_text(_FORMULATION)
    return root


def create_project(name: str, template: str = "minimal", parent: Path | str = ".") -> Path:
    """Scaffold a new project directory; refuses to overwrite anything."""
    root = Path(parent) / name
    if root.exists():
        raise FileExistsError(f"target directory {root} already exists")
    return write_project(build_template(template), root)
