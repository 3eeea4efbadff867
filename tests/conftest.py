import math
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import voltaic
from voltaic.symbols import DimensionMismatch
from voltaic.system import (
    Line,
    ModelConfig,
    Node,
    StorageTech,
    SystemData,
    Technology,
    TimeSeries,
)


def voltaic_env():
    """The environment of a fresh interpreter that imports this voltaic."""
    src = str(Path(voltaic.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this voltaic; its
    stdout split into words."""
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=voltaic_env(),
                          timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def series(name, values):
    return TimeSeries(name, tuple(float(v) for v in values))


def merit_order_oracle(demand, caps, costs):
    """Independent dispatch oracle: fill each hour in ascending cost order."""
    order = sorted(range(len(caps)), key=lambda i: costs[i])
    total = 0.0
    dispatch = [[0.0] * len(demand) for _ in caps]
    for h, d in enumerate(demand):
        remaining = d
        for i in order:
            take = min(caps[i], remaining)
            dispatch[i][h] = take
            total += take * costs[i]
            remaining -= take
        assert remaining <= 1e-12, "oracle given an infeasible instance"
    return total, dispatch


def oracle_binop(a, b, op):
    """Dense nested-loop evaluation of the symbol arithmetic key rules."""
    set_a, set_b = set(a.dims), set(b.dims)
    if set_a <= set_b:
        large, small, small_is_a = b, a, True
    elif set_b <= set_a:
        large, small, small_is_a = a, b, False
    else:
        raise DimensionMismatch("incompatible")
    if set_a == set_b:
        large, small, small_is_a = a, b, False
    positions = [large.dims.index(d) for d in small.dims]

    labels_per_dim = []
    for pos, dim in enumerate(large.dims):
        seen = {key[pos] for key in large.records}
        for s_pos, l_pos in enumerate(positions):
            if l_pos == pos:
                seen |= {key[s_pos] for key in small.records}
        labels_per_dim.append(sorted(seen))

    out = {}
    for key in product(*labels_per_dim):
        lv = large.records.get(key)
        sv = small.records.get(tuple(key[p] for p in positions))
        av, bv = (sv, lv) if small_is_a else (lv, sv)
        if op in "+-":
            if av is None and bv is None:
                continue
            if set_a != set_b and lv is None:
                continue  # broadcast cannot materialize smaller-only keys
            av = 0.0 if av is None else av
            bv = 0.0 if bv is None else bv
            out[key] = av + bv if op == "+" else av - bv
        else:
            if av is None or bv is None:
                continue
            if op == "/" and bv == 0.0:
                continue
            out[key] = av * bv if op == "*" else av / bv
    return out


def two_node_sweep_system(hours=48):
    """A 2-node synthetic system for randomized sweep testing."""
    cf_solar = tuple(
        max(0.0, math.sin(math.pi * ((h % 24) - 6) / 12)) if 6 <= (h % 24) <= 18 else 0.0
        for h in range(hours)
    )
    cf_wind = tuple(0.35 + 0.3 * math.sin(2 * math.pi * h / 37.0) for h in range(hours))
    data = SystemData(
        nodes=(
            Node("DE", "load_DE", min_renewable_share=0.3),
            Node("FR", "load_FR", min_renewable_share=0.2),
        ),
        technologies=(
            Technology("gas", "dispatchable", c_inv_power=40_000.0, c_var=50.0, cap_max=2_000.0),
            Technology(
                "solar",
                "variable_renewable",
                c_inv_power=45_000.0,
                c_var=0.0,
                cap_max=5_000.0,
                availability={"DE": "cf_solar", "FR": "cf_solar"},
            ),
            Technology(
                "wind",
                "variable_renewable",
                c_inv_power=110_000.0,
                c_var=0.0,
                cap_max=5_000.0,
                availability={"DE": "cf_wind", "FR": "cf_wind"},
            ),
        ),
        storages=(
            StorageTech("Li-ion", c_i_sto_e=20_029.0, c_i_sto_p=15_021.0, eta_in=0.93, eta_out=0.93),
        ),
        lines=(Line("DE", "FR", ntc_existing=200.0, ntc_max=1_500.0, c_inv_ntc=2_000.0),),
        series={
            "load_DE": series("load_DE", [45.0 + 12.0 * math.sin(math.pi * ((h % 24) - 8) / 12) for h in range(hours)]),
            "load_FR": series("load_FR", [38.0 + 9.0 * math.sin(math.pi * ((h % 24) - 7) / 12) for h in range(hours)]),
            "cf_solar": series("cf_solar", cf_solar),
            "cf_wind": series("cf_wind", cf_wind),
        },
    )
    return data, ModelConfig(end_hour=hours)


def random_sweep_table(n_runs, seed):
    """A reproducible iteration table of random cost and share overrides."""
    rng = random.Random(seed)
    lines = [
        'run,"c_i_sto_e(n,\'Li-ion\')","c_i_sto_p(n,\'Li-ion\')","c_var(n,\'gas\')",'
        "min_renewable_share('DE')"
    ]
    for i in range(n_runs):
        lines.append(
            f"R{i:02d},{rng.uniform(2_000, 25_000):.2f},{rng.uniform(1_500, 18_000):.2f},"
            f"{rng.uniform(35, 90):.2f},{rng.uniform(0.2, 0.6):.3f}"
        )
    return "\n".join(lines) + "\n"


@pytest.fixture
def merit_toy():
    """One node, three hours, two dispatchable plants with fixed capacity.

    Hand enumeration: base (15 MW @ 10 EUR/MWh) fills first, peak (20 MW @ 50)
    covers the rest of demand [10, 20, 30]; total cost 1400.
    """
    data = SystemData(
        nodes=(Node("N1", "load"),),
        technologies=(
            Technology("base", "dispatchable", c_inv_power=0.0, c_var=10.0, cap_min=15.0, cap_max=15.0),
            Technology("peak", "dispatchable", c_inv_power=0.0, c_var=50.0, cap_min=20.0, cap_max=20.0),
        ),
        series={"load": series("load", [10, 20, 30])},
    )
    config = ModelConfig(end_hour=3, network_transfer=False)
    return data, config


@pytest.fixture
def storage_toy():
    """Free renewable energy in hour 1 only, demand in hour 2 only.

    With lossless free storage the optimum charges in h1 and discharges in
    h2 at (almost) zero cost.
    """
    data = SystemData(
        nodes=(Node("N1", "load"),),
        technologies=(
            Technology(
                "solar",
                "variable_renewable",
                c_inv_power=0.0,
                c_var=0.0,
                cap_max=100.0,
                availability={"N1": "cf"},
            ),
            Technology("gas", "dispatchable", c_inv_power=0.0, c_var=100.0, cap_max=100.0),
        ),
        storages=(StorageTech("store", c_i_sto_e=0.0, c_i_sto_p=0.0),),
        series={
            "load": series("load", [0, 10]),
            "cf": series("cf", [1.0, 0.0]),
        },
    )
    config = ModelConfig(end_hour=2, network_transfer=False)
    return data, config


@pytest.fixture
def two_node_toy():
    """DE exports cheap power to FR over one lossless line, 2 hours."""
    data = SystemData(
        nodes=(Node("DE", "load_de"), Node("FR", "load_fr")),
        technologies=(
            Technology("cheap", "dispatchable", c_inv_power=0.0, c_var=10.0, cap_min=0, cap_max=100.0),
            Technology("dear", "dispatchable", c_inv_power=0.0, c_var=90.0, cap_min=0, cap_max=100.0),
        ),
        lines=(Line("DE", "FR", ntc_existing=0.0, ntc_max=50.0, c_inv_ntc=0.0),),
        series={
            "load_de": series("load_de", [10, 10]),
            "load_fr": series("load_fr", [20, 20]),
        },
    )
    config = ModelConfig(end_hour=2)
    return data, config


@pytest.fixture
def sweep_toy():
    """Solar + battery + gas on one node over two identical days (48 h).

    Calibrated so the battery displaces gas gradually as its cost falls:
    ocgt's night cost sits between the baseline and half-cost battery, ccgt's
    between half and quarter cost, so both capacity steps move solar and
    storage strictly upward.
    """
    hours = 48
    cf = tuple(max(0.0, math.sin(math.pi * ((h % 24) - 6) / 12)) if 6 <= (h % 24) <= 18 else 0.0 for h in range(hours))
    load = tuple(40.0 + 15.0 * math.sin(math.pi * ((h % 24) - 8) / 12) for h in range(hours))
    data = SystemData(
        nodes=(Node("DE", "load"),),
        technologies=(
            Technology("ccgt", "dispatchable", c_inv_power=42_000.0, c_var=38.0, cap_max=1000.0),
            Technology("ocgt", "dispatchable", c_inv_power=25_000.0, c_var=60.0, cap_max=1000.0),
            Technology(
                "solar",
                "variable_renewable",
                c_inv_power=45_000.0,
                c_fix=0.0,
                c_var=0.0,
                cap_max=10_000.0,
                availability={"DE": "cf_solar"},
            ),
        ),
        storages=(
            StorageTech(
                "Li-ion",
                c_i_sto_e=20_029.0,
                c_i_sto_p=15_021.0,
                c_fix=0.0,
                eta_in=0.95,
                eta_out=0.95,
            ),
        ),
        series={
            "load": TimeSeries("load", load),
            "cf_solar": TimeSeries("cf_solar", cf),
        },
    )
    config = ModelConfig(end_hour=hours, network_transfer=False)
    return data, config
