"""Project directory layout, input parsing and validation.

A project is a plain directory tree::

    <root>/
      data_input/
        static_input/        nodes.csv technologies.csv availability.csv
                             storage.csv lines.csv [fixed_capacities.csv]
        timeseries_input/    *.csv   (hour column + one column per series)
      iterationfiles/
        iteration_table.csv
        iteration_data/      *.csv   (alternative series for overrides)
      model/
      settings/
        project_variables.csv features_node_selection.csv
        reporting_symbols.csv constraints_list.csv

The four record tables of ``static_input`` share one schema,
:data:`STATIC_TABLES`: a file's columns are the fields of its record
dataclass in :mod:`voltaic.system`, in field order (``demand`` is headed
``demand_series``; technology availability has its own file), and an empty
cell reads as the field's default, or 0.0 where the field has none. The
loader reads and :func:`voltaic.templates.write_project` writes through it.

The settings, ``project_variables.csv``, are one table,
:data:`PROJECT_SETTINGS`: each key with the :class:`ModelConfig` field it
sets, its reader and whether a project must set it.

Every validation failure is reported with its file and location; loading
aggregates all of them into one :class:`ValidationError` instead of dying
on the first. An issue in the settings stops loading before any other file
is read, since each later path and check reads a setting.
"""

from __future__ import annotations

import csv
import logging
import math
import re
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

from .model import _OWNER_RECORDS, CAPACITY_FAMILIES, COST_TERMS
from .scenarios import CONSTRAINT_BLOCKS, ScenarioSpec, _row_issue, parse_iteration_table
from .symbols import LEVEL, MARGINAL
from .system import (
    FEATURE_MODULES,
    FeatureMatrix,
    Line,
    ModelConfig,
    Node,
    StorageTech,
    SystemData,
    Technology,
    TimeSeries,
    ValidationError,
    hour_label,
    validate_system,
)

log = logging.getLogger(__name__)

SETTINGS = "settings"
PROJECT_VARIABLES = "project_variables.csv"
FEATURES_FILE = "features_node_selection.csv"
REPORTING_FILE = "reporting_symbols.csv"
CONSTRAINTS_FILE = "constraints_list.csv"
ITERATION_TABLE = "iteration_table.csv"
FIXED_CAPACITIES = "fixed_capacities.csv"

@dataclass(frozen=True)
class ProjectLayout:
    """Resolved paths of one project directory, as ``config`` names them."""

    root: Path
    config: ModelConfig = ModelConfig()

    @property
    def settings(self) -> Path:
        return self.root / SETTINGS

    @property
    def data_input(self) -> Path:
        return self.root / "data_input"

    @property
    def static_input(self) -> Path:
        return self.data_input / self.config.data_input_file

    @property
    def timeseries_input(self) -> Path:
        return self.data_input / self.config.time_series_file

    @property
    def iterationfiles(self) -> Path:
        return self.root / "iterationfiles"

    @property
    def iteration_table(self) -> Path:
        return self.iterationfiles / ITERATION_TABLE

    @property
    def iteration_data(self) -> Path:
        return self.iterationfiles / self.config.iteration_data_file

    @property
    def results(self) -> Path:
        return self.root / "results"

    @property
    def report(self) -> Path:
        return self.root / "report"


@dataclass
class Project:
    """Everything a run needs, fully validated and in memory."""

    root: Path
    data: SystemData
    config: ModelConfig
    features: FeatureMatrix
    specs: list[ScenarioSpec]
    reporting: list[tuple[str, str]]
    constraint_blocks: dict[str, tuple[str, ...]]
    fixed_capacities: dict[tuple[str, tuple[str, ...]], float] = field(default_factory=dict)
    config_echo: dict[str, str] = field(default_factory=dict)
    layout: ProjectLayout | None = None


class Reader(NamedTuple):
    """How a setting's text reads, and how a value is written. ``read``
    returns the value or raises ValueError naming what it expected."""

    read: Callable[[str], object]
    write: Callable[[object], str] = str


def _reader(expected: str, parse: Callable[[str], object], holds=None, domain: str = "", write=str) -> Reader:
    """A reader of the values ``parse`` reads (it raises KeyError or
    ValueError on other text) and ``holds`` accepts. Text it cannot read is
    not ``expected``; a value ``holds`` rejects is not ``domain`` or, if
    that is empty, ``expected``."""

    def read(text: str):
        try:
            value = parse(text)
        except (KeyError, ValueError):
            raise ValueError(expected) from None
        if holds and not holds(value):
            raise ValueError(domain or expected)
        return value

    return Reader(read, write)


_YES_NO = {"yes": True, "true": True, "1": True, "no": False, "false": False, "0": False}

YES_NO = _reader("yes/no", lambda text: _YES_NO[text.lower()], write=lambda value: "yes" if value else "no")
COUNT = _reader("an integer >= 0 (0 = all cores)", int, lambda value: value >= 0)
HOURS = _reader("h<hours>", lambda text: int(text.removeprefix("h")), write=hour_label)
INTEGER = _reader("integer", int)
NUMBER = _reader("a number", float, math.isfinite, "a finite number")
# A directory under its parent, named as a file: an .xlsx or .csv ending is dropped.
FILE_NAME = _reader("a file name", lambda text: re.sub(r"\.(xlsx|csv)$", "", text),
                    lambda name: name not in ("", ".", "..") and Path(name).name == name)

_FIELD_DEFAULTS = {f.name: f.default for f in fields(ModelConfig)}


class Setting(NamedTuple):
    """One key of project_variables.csv."""

    key: str
    field: str | None  # the ModelConfig field it sets; None: it sets none of its own
    reader: Reader
    required: bool = False
    written: bool = True  # in a new project's settings
    unset: object = None  # the value where unset, for a key with no field

    @property
    def default(self):
        """The value where unset: the field's default, if it has a field."""
        return self.unset if self.field is None else _FIELD_DEFAULTS[self.field]


#: The keys of project_variables.csv, in the order a new project writes
#: them. ``gdx_convert_to_vaex`` is the one exception to "a key sets its
#: field": it asks for the npz store as ``gdx_convert_to_pickle`` does, so
#: ``write_npz`` is either key's yes (see :func:`parse_project_variables`).
PROJECT_SETTINGS = (
    Setting("scenarios_iteration", "scenarios_iteration", YES_NO),
    Setting("skip_input", "skip_input", YES_NO),
    Setting("skip_iteration_data_file", "skip_iteration_data_file", YES_NO),
    Setting("base_year", "base_year", INTEGER, required=True),
    Setting("end_hour", "end_hour", HOURS, required=True),
    Setting("dispatch_only", "dispatch_only", YES_NO, required=True),
    Setting("network_transfer", "network_transfer", YES_NO, required=True),
    Setting("no_crossover", "no_crossover", YES_NO),
    Setting("infeasibility", "infeasibility", YES_NO, required=True),
    Setting("GUSS", "guss", YES_NO),
    Setting("GUSS_parallel", "guss_parallel", YES_NO),
    Setting("GUSS_parallel_threads", "guss_parallel_threads", COUNT),
    Setting("data_input_file", "data_input_file", FILE_NAME),
    Setting("time_series_file", "time_series_file", FILE_NAME),
    Setting("iteration_data_file", "iteration_data_file", FILE_NAME),
    Setting("gdx_convert_parallel_threads", "gdx_convert_parallel_threads", COUNT),
    Setting("gdx_convert_to_csv", None, YES_NO, unset=True),  # CSV stores are always written
    Setting("gdx_convert_to_pickle", "write_npz", YES_NO),
    Setting("gdx_convert_to_vaex", None, YES_NO, unset=False),
    Setting("report_data", "report_data", YES_NO),
    Setting("slack_penalty", "slack_penalty", NUMBER, written=False),
)


def parse_project_variables(text: str, issues: list[str]) -> tuple[ModelConfig, dict[str, str]]:
    """Parse the settings table into a :class:`ModelConfig` plus raw echo.

    Reads every key of :data:`PROJECT_SETTINGS` in one pass and appends each key's
    issue to ``issues``: a value its reader rejects, a required key that is
    missing, or a key set more than once. An unknown key warns. A key with
    an issue, or unset, takes its default in the returned config.
    """
    raw: dict[str, str] = {}
    repeated: set[str] = set()
    known = {s.key for s in PROJECT_SETTINGS}
    for i, row in enumerate(csv.reader(text.splitlines())):
        if not row or not row[0].strip():
            continue
        key = row[0].strip()
        if i == 0 and key.lower() == "variable":
            continue
        if key not in known:
            log.warning("project_variables: unknown key %r ignored", key)
            continue
        if key in raw:
            repeated.add(key)
        raw[key] = row[1].strip() if len(row) > 1 else ""

    values = {}
    for setting in PROJECT_SETTINGS:
        key, value = setting.key, setting.default
        if key in repeated:
            issues.append(f"project_variables:{key}: set more than once")
        elif key not in raw:
            if setting.required:
                issues.append(f"project_variables: missing required key {key!r}")
        else:
            try:
                value = setting.reader.read(raw[key])
            except ValueError as exc:
                issues.append(f"project_variables:{key}: expected {exc}, got {raw[key]!r}")
        values[key] = value

    config = ModelConfig(**{s.field: values[s.key] for s in PROJECT_SETTINGS if s.field})
    return replace(config, write_npz=values["gdx_convert_to_pickle"] or values["gdx_convert_to_vaex"]), raw


def _read_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _num(row: dict, key: str, where: str, issues: list[str], default: float | None = 0.0):
    text = (row.get(key) or "").strip()
    if text == "":
        return default
    try:
        return float(text)
    except ValueError:
        issues.append(f"{where}: column {key!r}: not a number: {text!r}")
        return default


class Column(NamedTuple):
    """One column of a static table: a field of the table's record."""

    field: str
    name: str  # the CSV header
    text: bool  # read and written as is, stripped on reading
    empty: float | None  # what an empty numeric cell reads as

    def parse(self, row: dict, where: str, issues: list[str]):
        if self.text:
            return (row.get(self.name) or "").strip()
        return _num(row, self.name, where, issues, default=self.empty)

    def format(self, value) -> str:
        """The cell text. A value is left empty only where an empty cell
        reads it back: None, or an infinite default."""
        if self.text:
            return value
        if value is None or (value == self.empty and math.isinf(value)):
            return ""
        return repr(value)


#: Record fields whose column has another name, and fields kept in a file of
#: their own (technology availability lives in availability.csv).
_RENAMED = {"demand": "demand_series"}
_OWN_FILE = ("availability",)


class StaticTable(NamedTuple):
    """One static input file: a row per record, a column per record field."""

    file: str
    attr: str  # the SystemData attribute holding the records
    record: type
    required: bool
    columns: tuple[Column, ...]

    def parse_row(self, row: dict, where: str, issues: list[str]) -> dict:
        return {col.field: col.parse(row, where, issues) for col in self.columns}

    def format_row(self, record) -> list[str]:
        return [col.format(getattr(record, col.field)) for col in self.columns]


def _static_table(file: str, attr: str, record: type, required: bool = False) -> StaticTable:
    columns = tuple(
        Column(
            f.name,
            _RENAMED.get(f.name, f.name),
            f.type in (str, "str"),
            0.0 if f.default is MISSING else f.default,
        )
        for f in fields(record)
        if f.name not in _OWN_FILE
    )
    return StaticTable(file, attr, record, required, columns)


#: The static input tables. Their columns are the record's fields in order;
#: an empty cell reads as the field's default, or 0.0 where it has none.
STATIC_TABLES = (
    _static_table("nodes.csv", "nodes", Node, required=True),
    _static_table("technologies.csv", "technologies", Technology),
    _static_table("storage.csv", "storages", StorageTech),
    _static_table("lines.csv", "lines", Line),
)


def _load_static(layout: ProjectLayout, issues: list[str]) -> SystemData:
    static = layout.static_input

    availability: dict[str, dict[str, str]] = {}
    path = static / "availability.csv"
    if path.exists():
        for i, row in enumerate(_read_rows(path), start=2):
            tech = (row.get("tech") or "").strip()
            node = (row.get("node") or "").strip()
            series = (row.get("series") or "").strip()
            if not tech or not node or not series:
                issues.append(f"availability.csv:{i}: needs tech, node and series")
                continue
            availability.setdefault(tech, {})[node] = series

    tables: dict[str, tuple] = {}
    for table in STATIC_TABLES:
        path = static / table.file
        records = []
        if path.exists():
            for i, row in enumerate(_read_rows(path), start=2):
                values = table.parse_row(row, f"{table.file}:{i}", issues)
                if table.record is Technology:
                    values["availability"] = availability.get(values["id"])
                records.append(record := table.record(**values))
                if "," in record.id:  # the stores and the report write ids as CSV cells
                    issues.append(f"{table.file}:{i}: id {record.id!r} holds a comma")
        elif table.required:
            issues.append(f"{path}: missing file")
        tables[table.attr] = tuple(records)
    return SystemData(**tables, series={})


def _load_series_dir(directory: Path, issues: list[str]) -> dict[str, TimeSeries]:
    series: dict[str, TimeSeries] = {}
    if not directory.exists():
        return series
    for path in sorted(directory.glob("*.csv")):
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows:
            continue
        header = [h.strip() for h in rows[0]]
        start_col = 1 if header and header[0].lower() == "hour" else 0
        names = header[start_col:]
        columns: list[list[float]] = [[] for _ in names]
        for i, row in enumerate(rows[1:], start=2):
            if start_col and row and row[0].strip() != f"h{i - 1}":
                issues.append(f"{path.name}:{i}: hour column must be sequential, expected h{i - 1}")
            for k, cell in enumerate(row[start_col:]):
                try:
                    columns[k].append(float(cell))
                except (ValueError, IndexError):
                    issues.append(f"{path.name}:{i}: bad value {cell!r}")
        for name, values in zip(names, columns):
            if name in series:
                issues.append(f"{path.name}: series {name!r} defined twice")
                continue
            series[name] = TimeSeries(name, tuple(values))
    return series


def _load_features(path: Path, node_ids: list[str], issues: list[str]) -> FeatureMatrix:
    entries: dict[tuple[str, str], int] = {}
    if not path.exists():
        issues.append(f"{path}: missing file")
        return FeatureMatrix(entries)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return FeatureMatrix(entries)
    header = [h.strip() for h in rows[0]]
    file_nodes = header[1:]
    for node in file_nodes:
        if node not in node_ids:
            issues.append(f"{FEATURES_FILE}: unknown node column {node!r}")
    for i, row in enumerate(rows[1:], start=2):
        module = row[0].strip()
        if module not in FEATURE_MODULES:
            issues.append(f"{FEATURES_FILE}:{i}: unknown module {module!r}")
            continue
        for node, cell in zip(file_nodes, row[1:]):
            try:
                flag = int(cell)
            except ValueError:
                issues.append(f"{FEATURES_FILE}:{i}: entry for {node} must be 0/1, got {cell!r}")
                continue
            if flag not in (0, 1):
                issues.append(f"{FEATURES_FILE}:{i}: entry for {node} must be 0/1, got {flag}")
                continue
            entries[(module, node)] = flag
    return FeatureMatrix(entries)


def _load_reporting(path: Path, issues: list[str]) -> list[tuple[str, str]]:
    reporting: list[tuple[str, str]] = []
    if not path.exists():
        issues.append(f"{path}: missing file")
        return reporting
    for i, row in enumerate(csv.reader(path.read_text().splitlines()), start=1):
        if not row or not row[0].strip():
            continue
        name = row[0].strip()
        if i == 1 and name.lower() == "symbol":
            continue
        kind = row[1].strip().lower() if len(row) > 1 and row[1].strip() else LEVEL
        if kind not in (LEVEL, MARGINAL):
            issues.append(f"{REPORTING_FILE}:{i}: kind must be level or marginal, got {kind!r}")
            continue
        reporting.append((name, kind))
    return reporting


def _load_constraints(path: Path, issues: list[str]) -> dict[str, tuple[str, ...]]:
    blocks: dict[str, tuple[str, ...]] = {}
    if not path.exists():
        issues.append(f"{path}: missing file")
        return blocks
    for i, row in enumerate(csv.reader(path.read_text().splitlines()), start=1):
        if not row or not row[0].strip():
            continue
        name = row[0].strip()
        if i == 1 and name.lower() in ("constraint", "block"):
            continue
        choices = tuple(c.strip() for c in row[1:] if c.strip())
        known = CONSTRAINT_BLOCKS.get(name)
        if known is None:
            issues.append(f"{CONSTRAINTS_FILE}:{i}: unknown constraint block {name!r}")
            continue
        bad = [c for c in choices if c not in known]
        if bad:
            issues.append(f"{CONSTRAINTS_FILE}:{i}: unsupported choices {bad} for {name!r}")
            continue
        blocks[name] = choices or known
    return blocks


def _load_fixed_capacities(
    path: Path, data: SystemData, issues: list[str]
) -> dict[tuple[str, tuple[str, ...]], float]:
    """Each row's value, keyed as its capacity column. A row whose element
    is not a record of its variable's owner in ``data`` (technology,
    storage or line), or whose node is not a node, is an issue."""
    fixed: dict[tuple[str, tuple[str, ...]], float] = {}
    for i, row in enumerate(_read_rows(path) if path.exists() else [], start=2):
        variable, element, node = ((row.get(name) or "").strip() for name in ("variable", "element", "node"))
        where = f"{FIXED_CAPACITIES}:{i}"
        value = _num(row, "value", where, issues, default=None)
        if not (row.get("value") or "").strip():
            issues.append(f"{where}: column 'value': empty")
        elif value is not None and not 0.0 <= value < math.inf:
            issues.append(f"{where}: value must be finite and >= 0, got {value}")
        if variable not in CAPACITY_FAMILIES:
            issues.append(f"{where}: unknown capacity variable {variable!r}")
            continue
        owner = COST_TERMS[variable].owner
        try:
            _OWNER_RECORDS[owner](data, element)
            if owner != "l":
                data.node(node)
        except KeyError as exc:
            issues.append(f"{where}: {exc.args[0]}")
            continue
        # keyed as its columns: a line alone, else at a node
        fixed[(variable, (element,) if owner == "l" else (element, node))] = value
    return fixed


def load_project(root: Path | str) -> Project:
    """Load and validate a whole project directory.

    Raises :class:`ValidationError` carrying every settings issue before
    another file is read, if there is any; else every load issue, each
    prefixed with the offending file and row, and after them every
    scenario row's ``issue`` (see
    :func:`~voltaic.scenarios.parse_iteration_table`). A project that loads
    keeps its rows with an issue in ``specs``: they cannot run.
    """
    root = Path(root)
    issues: list[str] = []
    pv_path = ProjectLayout(root).settings / PROJECT_VARIABLES
    if not pv_path.exists():
        raise ValidationError([f"{pv_path}: missing file (is {root} a project?)"])
    config, raw = parse_project_variables(pv_path.read_text(), issues)
    if issues:  # every later file's path and check reads a setting
        raise ValidationError(issues)
    layout = ProjectLayout(root, config)

    data = _load_static(layout, issues)
    series = _load_series_dir(layout.timeseries_input, issues)
    if not config.skip_iteration_data_file:
        for name, ts in _load_series_dir(layout.iteration_data, issues).items():
            if name in series:
                issues.append(f"iteration_data: series {name!r} already defined in base data")
                continue
            series[name] = ts
    data = replace(data, series=series)
    features = _load_features(layout.settings / FEATURES_FILE, data.node_ids(), issues)

    reporting = _load_reporting(layout.settings / REPORTING_FILE, issues)
    blocks = _load_constraints(layout.settings / CONSTRAINTS_FILE, issues)
    fixed = _load_fixed_capacities(layout.static_input / FIXED_CAPACITIES, data, issues)

    specs: list[ScenarioSpec] = []
    if config.scenarios_iteration:
        if layout.iteration_table.exists():
            try:
                specs = parse_iteration_table(layout.iteration_table.read_text())
            except ValidationError as exc:
                issues.extend(exc.issues)
        else:
            issues.append(f"{layout.iteration_table}: missing file")
    if not specs:
        specs = [ScenarioSpec("base")]

    if config.dispatch_only and not fixed:
        issues.append(
            f"{FIXED_CAPACITIES}: required when dispatch_only is yes (one row per capacity column)"
        )
    issues.extend(validate_system(data, config))
    if issues:
        raise ValidationError(issues + [_row_issue(spec.run_id, spec.issue) for spec in specs if spec.issue])

    return Project(
        root=root,
        data=data,
        config=config,
        features=features,
        specs=specs,
        reporting=reporting,
        constraint_blocks=blocks,
        fixed_capacities=fixed,
        config_echo=raw,
        layout=layout,
    )
