import io
import shutil
import subprocess

import numpy as np
import pytest

from voltaic.model import build_model
from voltaic.mps import read_mps, write_mps
from voltaic.solver import solve


def roundtrip(lp):
    buffer = io.StringIO()
    write_mps(lp, buffer)
    return read_mps(io.StringIO(buffer.getvalue()))


def test_fixed_field_layout(merit_toy):
    data, config = merit_toy
    lp = build_model(data, config)
    buffer = io.StringIO()
    write_mps(lp, buffer, name="TOY")
    lines = buffer.getvalue().splitlines()
    assert lines[0].startswith("NAME")
    assert lines[0][14:17] == "TOY"
    row_line = next(l for l in lines if l.startswith(" E"))
    # indicator in columns 2-3, name starting at column 5
    assert row_line[1:3].strip() == "E"
    assert row_line[4:12].strip().startswith("R")
    col_line = next(l for l in lines if l.lstrip().startswith("C0000001"))
    assert col_line[4:12].strip() == "C0000001"
    assert col_line[14:22].strip() != ""
    assert col_line[24:36].strip() != ""
    assert lines[-1] == "ENDATA"


def test_names_fit_fixed_format(merit_toy):
    data, config = merit_toy
    lp = build_model(data, config)
    mapping = write_mps(lp, io.StringIO())
    for bucket in mapping.values():
        for name in bucket.values():
            assert len(name) <= 8


def test_roundtrip_preserves_structure(merit_toy):
    data, config = merit_toy
    lp = build_model(data, config)
    back = roundtrip(lp)
    assert back.n_cols == lp.n_cols
    assert back.n_rows == lp.n_rows
    assert sorted(back.sense) == sorted(lp.sense)
    assert np.isclose(sorted(back.rhs), sorted(lp.rhs)).all()


@pytest.mark.parametrize("fixture", ["merit_toy", "storage_toy", "two_node_toy"])
@pytest.mark.parametrize("backend", ["highs", "dense"])
def test_exported_lp_solves_to_same_objective(request, fixture, backend):
    data, config = request.getfixturevalue(fixture)
    lp = build_model(data, config)
    direct = solve(lp)
    back = roundtrip(lp)
    again = solve(back, backend)
    assert again.status == direct.status == "optimal"
    assert again.objective == pytest.approx(direct.objective, rel=1e-6)


def test_bounds_roundtrip():
    class Raw:
        n_cols = 5
        n_rows = 1
        obj = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        lo = np.array([0.0, -np.inf, -np.inf, 2.5, 1.0])
        hi = np.array([np.inf, np.inf, 7.0, 2.5, 9.0])
        rhs = np.array([1.0])
        sense = np.array(["G"], dtype="<U1")
        a_rows = np.zeros(5, dtype=np.int64)
        a_cols = np.arange(5, dtype=np.int64)
        a_vals = np.ones(5)

    back = roundtrip(Raw())
    assert np.array_equal(back.lo, Raw.lo)
    assert np.array_equal(back.hi, Raw.hi)


def _raw(rows, cols, vals):
    class Raw:
        n_cols = 3
        n_rows = 3
        obj = np.array([1.0, 0.0, 2.0])
        lo = np.zeros(3)
        hi = np.full(3, np.inf)
        rhs = np.array([1.0, 2.0, 3.0])
        sense = np.array(["G", "L", "E"], dtype="<U1")
        a_rows = np.array(rows, dtype=np.int32)
        a_cols = np.array(cols, dtype=np.int32)
        a_vals = np.array(vals, dtype=float)

    return Raw()


def test_nonzero_entries_are_written_each_column_in_row_order():
    """Each column's nonzero entries are written in row order, not in the
    HiGHS model's class order; zero entries are left out."""
    written = io.StringIO()
    write_mps(_raw([2, 1, 0, 2, 1, 0], [0, 1, 2, 2, 2, 0], [-1.0, 0.0, 3.0, 0.5, 4.0, 1.0]), written)
    columns = written.getvalue().split("COLUMNS\n")[1].split("RHS\n")[0].splitlines()
    assert [line.split()[1:] for line in columns] == [
        ["COST", "1"], ["R0000001", "1"], ["R0000003", "-1"],
        ["COST", "0"],  # the column's one entry is zero
        ["COST", "2"], ["R0000001", "3"], ["R0000002", "4"], ["R0000003", "0.5"],
    ]


def test_a_cell_stored_twice_is_not_written():
    with pytest.raises(ValueError, match=r"matrix cell \(row 1, column 2\)"):
        write_mps(_raw([1, 0, 1], [2, 0, 2], [1.0, 2.0, -1.0]), io.StringIO())


def test_a_cell_given_twice_is_not_read():
    text = ("NAME\nROWS\n N  COST\n L  R1\n L  R2\nCOLUMNS\n    C1  R1  1.0  R2  2.0\n"
            "    C2  R1  1.0\n    C1  R2  3.0\nRHS\n    RHS  R1  1\nENDATA\n")
    with pytest.raises(ValueError, match="line 9: column 'C1' has a second entry in row 'R2'"):
        read_mps(io.StringIO(text))


def test_an_objective_entry_given_twice_is_not_read():
    text = ("NAME\nROWS\n N  COST\n L  R1\nCOLUMNS\n    C1  COST  1.0  R1  1.0\n"
            "    C1  COST  2.0\nRHS\n    RHS  R1  1\nENDATA\n")
    with pytest.raises(ValueError, match="line 7: column 'C1' has a second objective entry"):
        read_mps(io.StringIO(text))


def test_infinite_rhs_rejected():
    class Raw:
        n_cols = 1
        n_rows = 1
        obj = np.array([1.0])
        lo = np.array([0.0])
        hi = np.array([np.inf])
        rhs = np.array([np.inf])
        sense = np.array(["L"], dtype="<U1")
        a_rows = np.zeros(1, dtype=np.int64)
        a_cols = np.zeros(1, dtype=np.int64)
        a_vals = np.ones(1)

    with pytest.raises(ValueError, match="non-finite"):
        write_mps(Raw(), io.StringIO())


def test_ranges_section_rejected():
    text = "NAME\nROWS\n N  COST\n L  R1\nCOLUMNS\n    C1  R1  1.0\nRANGES\n    RNG  R1  5\nENDATA\n"
    with pytest.raises(ValueError, match="RANGES"):
        read_mps(io.StringIO(text))


EXTERNAL_SOLVERS = [s for s in ("glpsol", "highs", "cbc", "lp_solve") if shutil.which(s)]


@pytest.mark.skipif(not EXTERNAL_SOLVERS, reason="no external LP solver binary on PATH")
def test_external_solver_cross_check(merit_toy, tmp_path):
    data, config = merit_toy
    lp = build_model(data, config)
    path = tmp_path / "toy.mps"
    write_mps(lp, path)
    direct = solve(lp)
    solver = EXTERNAL_SOLVERS[0]
    if solver == "glpsol":
        out = subprocess.run(
            ["glpsol", "--freemps" if False else "--mps", str(path), "-o", str(tmp_path / "sol.txt")],
            capture_output=True,
            text=True,
            check=True,
        )
        text = (tmp_path / "sol.txt").read_text()
        objective = float(next(l for l in text.splitlines() if "Objective" in l).split("=")[1].split()[0])
    else:
        pytest.skip(f"no result parser for {solver}")
    assert objective == pytest.approx(direct.objective, rel=1e-6)
