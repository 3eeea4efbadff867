"""Seeded project generator for the benchmark workloads.

Every workload runs on the twelve-node ``example1`` shape (4 technologies,
3 storages, a 12-line ring) at a chosen horizon. The seed varies the
demand, solar and wind profiles node by node and draws the scenario table,
so the same seed always yields the same bytes on disk and the program
under test only ever sees the generated CSV files.

Usage: python3 perfbench/gen.py WORKLOAD SEED OUT_DIR
"""

from __future__ import annotations

import random
import sys
from dataclasses import replace
from pathlib import Path

from voltaic.templates import (
    Template,
    demand_profile,
    example1,
    solar_profile,
    wind_profile,
    write_project,
)

#: Horizon, scenario rows and project settings per workload.
WORKLOADS = {
    "invest_week": {"hours": 168, "rows": 1, "settings": {"GUSS_parallel": "no"}},
    "sweep_wide": {"hours": 24, "rows": 32, "settings": {"GUSS_parallel": "yes"}},
}

LI_ION_E = 20_029.0
LI_ION_P = 15_021.0
HEADER = ["run", "c_i_sto_e(n,'Li-ion')", "c_i_sto_p(n,'Li-ion')", "c_var(n,'ocgt')", "d('DE')"]


def _series(node_ids, hours: int, rng: random.Random) -> dict:
    """example1's profiles, each scaled and shifted by a few per cent.

    The variation is kept small so that the LP's difficulty, and with it the
    solver's iteration count, changes little from seed to seed.
    """

    def jitter() -> float:
        return rng.uniform(0.97, 1.03)

    series = {}
    for i, node in enumerate(node_ids):
        load = demand_profile(
            f"load_{node}",
            hours,
            (30.0 + 4.0 * i) * jitter(),
            (8.0 + 0.5 * i) * jitter(),
            phase=9.0 + rng.uniform(-0.5, 0.5),
        )
        solar = solar_profile(f"cf_solar_{node}", hours, peak=(0.7 + 0.02 * i) * jitter())
        wind = wind_profile(
            f"cf_wind_{node}", hours, mean=0.4 * jitter(), swing=0.3 * jitter(),
            shift=3.1 * i + rng.uniform(0.0, 1.0),
        )
        for ts in (load, solar, wind):
            series[ts.name] = ts
    return series


def _rows(count: int, rng: random.Random) -> list[list[str]]:
    """Li-ion cost rows; in a sweep a few also override ocgt's variable cost or DE demand.

    A single row stays within 10 % of the base costs; a sweep spans 20-120 %.
    """
    low, high = (0.9, 1.1) if count == 1 else (0.2, 1.2)
    width = len(str(count - 1))
    rows = []
    for r in range(count):
        energy = round(LI_ION_E * rng.uniform(low, high))
        power = round(LI_ION_P * rng.uniform(low, high))
        rows.append([f"r{r:0{width}d}", str(energy), str(power), "", ""])
    if count > 1:
        for r in rng.sample(range(count), max(1, count // 6)):
            rows[r][3] = f"{rng.uniform(50.0, 80.0):.1f}"
        for r in rng.sample(range(count), max(1, count // 8)):
            rows[r][4] = "load_DE_high"
    return rows


def build(workload: str, seed: int, hours: int | None = None) -> Template:
    """The workload's project as a template, fully determined by ``seed``.

    ``hours`` replaces the workload's horizon (the scaling ladder uses it).
    """
    spec = WORKLOADS[workload]
    hours = hours or spec["hours"]
    rng = random.Random(f"{workload}:{seed}")
    base = example1()
    series = _series([n.id for n in base.data.nodes], hours, rng)
    de = series["load_DE"].values
    high = replace(series["load_DE"], name="load_DE_high", values=tuple(1.2 * v for v in de))
    settings = {"end_hour": f"h{hours}", **spec["settings"]}
    return replace(
        base,
        data=replace(base.data, series=series),
        config_rows=[(key, settings.get(key, value)) for key, value in base.config_rows],
        iteration_header=HEADER,
        iteration_rows=_rows(spec["rows"], rng),
        iteration_data_series={high.name: high},
    )


def generate(workload: str, seed: int, root: Path) -> Path:
    """Write the workload's project under ``root``, which must not exist."""
    root = Path(root)
    if root.exists():
        raise FileExistsError(f"{root} already exists")
    return write_project(build(workload, seed), root)


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in WORKLOADS:
        sys.exit(f"usage: gen.py {{{','.join(WORKLOADS)}}} SEED OUT_DIR")
    print(generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])))
