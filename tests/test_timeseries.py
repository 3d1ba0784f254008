"""CSV/HDF5 series loading and schedule output."""

import json
import random

import numpy as np
import pytest

from besched.assembly import TimeGrid
from besched.errors import InputError, LengthMismatch, NotFound
from besched.schedule import Schedule
from besched.timeseries import _read_csv, load_timeseries, write_schedule
from besched.xmlio import SeriesRef


def _write_csv(tmp_path, name="data.csv", rows=4):
    lines = ["COP,Demand"]
    for i in range(rows):
        lines.append(f"{3.0 + i * 0.1},{100 * (i + 1)}")
    (tmp_path / name).write_text("\n".join(lines) + "\n")


def test_csv_column_loaded_by_dataset_path(tmp_path):
    _write_csv(tmp_path)
    ref = SeriesRef("data.csv", "/COP")
    assert load_timeseries(ref, 4, tmp_path) == pytest.approx([3.0, 3.1, 3.2, 3.3])


def test_unit_scale_applied_after_loading(tmp_path):
    _write_csv(tmp_path)
    ref = SeriesRef("data.csv", "/Demand", scale=1e-3)  # column stored in W
    assert load_timeseries(ref, 4, tmp_path) == pytest.approx([0.1, 0.2, 0.3, 0.4])


def test_length_mismatch_reports_found_and_expected(tmp_path):
    _write_csv(tmp_path, rows=3)
    with pytest.raises(LengthMismatch) as err:
        load_timeseries(SeriesRef("data.csv", "/COP"), 4, tmp_path)
    assert "3" in str(err.value) and "4" in str(err.value)


def test_missing_container_and_missing_column(tmp_path):
    with pytest.raises(NotFound):
        load_timeseries(SeriesRef("nope.csv", "/COP"), 4, tmp_path)
    _write_csv(tmp_path)
    with pytest.raises(NotFound, match="Price"):
        load_timeseries(SeriesRef("data.csv", "/Price"), 4, tmp_path)


def test_hdf5_reference_falls_back_to_csv_sibling(tmp_path):
    # a scenario shipped as CSV satisfies references written for HDF5
    _write_csv(tmp_path, name="scenario.csv")
    ref = SeriesRef("scenario.h5", "/COP")
    assert load_timeseries(ref, 4, tmp_path)[0] == pytest.approx(3.0)


def test_bad_cell_reported_with_line_number(tmp_path):
    (tmp_path / "data.csv").write_text("COP\n3.0\noops\n")
    with pytest.raises(InputError, match="line 3"):
        load_timeseries(SeriesRef("data.csv", "/COP"), 2, tmp_path)


def _float_bits(cell: str) -> bytes:
    return np.array([float(cell)]).tobytes()


def _assert_matrix_is_float_per_cell(table):
    assert table.matrix.shape == (len(table.rows), len(table.rows[0]) if table.rows else
                                  len(table.header))
    for row, got in zip(table.rows, table.matrix):
        assert got.tobytes() == b"".join(map(_float_bits, row))


def test_the_matrix_is_float_of_every_cell_on_the_scenario_csvs(tmp_path):
    from helpers import write_daily_scenario, write_week_scenario
    from test_pipeline import write_every_element_series

    write_daily_scenario(tmp_path / "day")
    write_week_scenario(tmp_path / "week", seed=5)
    write_every_element_series(tmp_path)
    _write_csv(tmp_path)
    for path in (tmp_path / "day" / "scenario.csv", tmp_path / "week" / "week.csv",
                 tmp_path / "all.csv", tmp_path / "data.csv"):
        table = _read_csv(path)
        assert table.matrix is not None and len(table.rows) > 0
        _assert_matrix_is_float_per_cell(table)


CELLS = [" 1 ", "1_0", ".5", "+1.", "-2.5e-3", "1E5", "inf", "-Infinity", "nan", "-nan", "NaN",
         "", "1,5", "0x10", "1d3", " ", "abc", "1e", "1__0", "\u0661", "7"]


def test_the_matrix_matches_float_on_fuzzed_cells(tmp_path):
    rng = random.Random(15)
    path = tmp_path / "fuzz.csv"
    for trial in range(300):
        width = rng.randint(1, 4)
        rows = [[rng.choice(CELLS) for _ in range(width)] for _ in range(rng.randint(0, 5))]
        lines = [",".join(f"c{j}" for j in range(width))]
        # a cell holding a comma is quoted, so it stays one cell
        lines += [",".join(f'"{c}"' if "," in c else c for c in row) for row in rows]
        path.write_text("\n".join(lines) + "\n")
        table = _read_csv(path)
        kept = [row for row in rows if any(c.strip() for c in row)]
        assert table.rows == kept
        convertible = not any(_is_bad(cell) for row in kept for cell in row)
        assert (table.matrix is not None) == convertible, rows
        if convertible:
            _assert_matrix_is_float_per_cell(table)
        for j in range(width):
            ref = SeriesRef("fuzz.csv", f"/c{j}")
            bad = [line for line, row in enumerate(rows, start=2)
                   if row in kept and _is_bad(row[j])]
            if bad:
                with pytest.raises(InputError, match=f"bad value in column 'c{j}' at line "
                                                     f"{bad[0]}$"):
                    load_timeseries(ref, len(kept), tmp_path)
            else:
                got = load_timeseries(ref, len(kept), tmp_path)
                want = b"".join(_float_bits(row[j]) for row in kept)
                assert np.array(got, dtype=float).tobytes() == want


def _is_bad(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return True
    return False


def test_a_bad_cell_fails_only_its_own_column_and_names_its_line(tmp_path):
    (tmp_path / "data.csv").write_text("A,B\n1.0,2.0\n\n3.0,oops\n , \n5.0,6.0\n")
    table = _read_csv(tmp_path / "data.csv")
    assert table.matrix is None and table.lines == [2, 4, 6]
    assert load_timeseries(SeriesRef("data.csv", "/A", scale=0.5), 3, tmp_path) == [0.5, 1.5, 2.5]
    with pytest.raises(InputError, match=r"bad value in column 'B' at line 4"):
        load_timeseries(SeriesRef("data.csv", "/B"), 3, tmp_path)


def test_ragged_rows_fall_back_to_the_cells_of_the_column(tmp_path):
    (tmp_path / "data.csv").write_text("A,B\n1.0,2.0\n3.0\n5.0,6.0,7.0\n")
    assert _read_csv(tmp_path / "data.csv").matrix is None
    assert load_timeseries(SeriesRef("data.csv", "/A"), 3, tmp_path) == [1.0, 3.0, 5.0]
    with pytest.raises(InputError, match=r"bad value in column 'B' at line 3"):
        load_timeseries(SeriesRef("data.csv", "/B"), 3, tmp_path)
    # rows all shorter than the header
    (tmp_path / "short.csv").write_text("A,B\n1.0\n2.0\n")
    assert _read_csv(tmp_path / "short.csv").matrix.shape == (2, 1)
    assert load_timeseries(SeriesRef("short.csv", "/A"), 2, tmp_path) == [1.0, 2.0]
    with pytest.raises(InputError, match=r"bad value in column 'B' at line 2"):
        load_timeseries(SeriesRef("short.csv", "/B"), 2, tmp_path)


def _schedule(status="optimal", series=None):
    grid = TimeGrid(3, 0.5, start="2016-08-17T00:00:00")
    return Schedule(grid=grid, status=status, objective=12.5,
                    series=series if series is not None else
                    {"on_HeatPump": [1.0, 0.0, 1.0],
                     "thermalEnergyLevel_Buffer": [2.0, 1.5, 2.25]},
                    stats={"nodes": 7})


def test_write_schedule_emits_csv_and_metadata(tmp_path):
    written = write_schedule(_schedule(), tmp_path / "out")
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    assert meta["status"] == "optimal"
    assert meta["objective"] == 12.5
    assert meta["nbsOfTimeUnits"] == 3
    text = (tmp_path / "out" / "schedule.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "timestamp,on_HeatPump,thermalEnergyLevel_Buffer"
    assert lines[1] == "2016-08-17T00:00:00,1,2"
    assert lines[2] == "2016-08-17T00:30:00,0,1.5"
    assert len(lines) == 4
    assert set(written) == {"metadata", "schedule"}


def test_infeasible_schedule_writes_metadata_only(tmp_path):
    written = write_schedule(_schedule(status="infeasible", series={}), tmp_path / "out")
    assert "schedule" not in written
    assert (tmp_path / "out" / "metadata.json").exists()
    assert not (tmp_path / "out" / "schedule.csv").exists()


def test_write_schedule_is_deterministic(tmp_path):
    write_schedule(_schedule(), tmp_path / "a")
    write_schedule(_schedule(), tmp_path / "b")
    assert (tmp_path / "a" / "schedule.csv").read_bytes() == \
        (tmp_path / "b" / "schedule.csv").read_bytes()
    assert (tmp_path / "a" / "metadata.json").read_bytes() == \
        (tmp_path / "b" / "metadata.json").read_bytes()
