"""Loading referenced time series and writing schedules.

The portable container format is CSV: a header row naming one column per
dataset path (without the leading slash) and exactly N data rows.  HDF5
containers are supported through the same reference interface when h5py is
installed.  A reference naming a container in the one format that is given
in the other (e.g. a ``.h5`` reference next to a ``.csv`` file with the same
stem) resolves to the existing file, so scenarios can ship either way.

A CSV container is read and converted once per build: its data rows become
one float matrix in one ``np.array`` call, which converts each cell as
``float()`` does, and every referenced column is sliced from it.  When a
cell is not a number or the rows differ in length, only the cells of each
referenced column are converted, so a bad cell in a column nobody
references does no harm.
"""

from __future__ import annotations

import csv
import json
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import InputError, LengthMismatch, NotFound
from .milp import _num_texts
from .schedule import Schedule
from .xmlio import SeriesRef

_ALT_SUFFIX = {".h5": ".csv", ".hdf5": ".csv", ".csv": ".h5"}


def _resolve(path: Path) -> Path:
    if path.exists():
        return path
    alt_suffix = _ALT_SUFFIX.get(path.suffix.lower())
    if alt_suffix:
        alt = path.with_suffix(alt_suffix)
        if alt.exists():
            return alt
    raise NotFound(f"time-series container not found: {path}", str(path))


class _CsvTable(NamedTuple):
    """A CSV container as read: the header, the data rows that are not blank
    with their line numbers, and those rows as one float matrix, or None when
    a cell is not a number or the rows differ in length."""

    header: list
    rows: list
    lines: list
    matrix: np.ndarray | None


def _read_csv(path: Path) -> _CsvTable:
    """The container's rows, converted to floats in one pass where they can
    be; the header must be there."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise InputError("empty CSV container", str(path))
    header = [h.strip() for h in rows[0]]
    kept = [(line, row) for line, row in enumerate(rows[1:], start=2)
            if row and not all(not cell.strip() for cell in row)]
    lines = [line for line, _ in kept]
    data = [row for _, row in kept]
    try:
        matrix = np.array(data, dtype=float) if data else np.empty((0, len(header)))
    except ValueError:  # a cell that is not a number, or ragged rows
        matrix = None
    return _CsvTable(header, data, lines, matrix)


def _csv_column(path: Path, table: _CsvTable, column: str) -> np.ndarray:
    """One column as floats, sliced from the matrix.  Without one, only the
    column's own cells are converted and checked, so a bad cell elsewhere
    does no harm."""
    header = table.header
    if column not in header:
        raise NotFound(f"no column {column!r} in {path.name} "
                       f"(available: {', '.join(header)})", str(path))
    idx = header.index(column)
    if table.matrix is not None and idx < table.matrix.shape[1]:
        return table.matrix[:, idx]
    values = []
    for line, row in zip(table.lines, table.rows):
        try:
            values.append(float(row[idx]))
        except (IndexError, ValueError) as exc:
            raise InputError(f"bad value in column {column!r} at line {line}",
                             str(path)) from exc
    return np.array(values, dtype=float)


def _load_hdf5_dataset(path: Path, dataset: str):
    try:
        import h5py
    except ImportError as exc:
        raise InputError(
            f"{path.name} is an HDF5 container but h5py is not installed", str(path)
        ) from exc
    with h5py.File(path, "r") as fh:
        if dataset not in fh:
            raise NotFound(f"no dataset {dataset!r} in {path.name}", str(path))
        data = fh[dataset][()]
    return [float(v) for v in list(data.reshape(-1))]


def load_timeseries(ref: SeriesRef, n_units: int, base_dir=".", csv_tables=None) -> list:
    """Resolve a series reference to exactly n_units floats in target units.

    csv_tables maps a CSV container's path to its table as read.  Callers
    that resolve many references pass one dict for all of them, so each
    container is read and converted once; without it the container is read
    for this reference alone.
    """
    path = _resolve(Path(base_dir) / ref.file_name)
    if path.suffix.lower() == ".csv":
        if csv_tables is None:
            csv_tables = {}
        if path not in csv_tables:
            csv_tables[path] = _read_csv(path)
        values = _csv_column(path, csv_tables[path], ref.data_set_path.lstrip("/"))
    else:
        values = _load_hdf5_dataset(path, ref.data_set_path)
    if len(values) != n_units:
        raise LengthMismatch(len(values), n_units, f"{path}:{ref.data_set_path}")
    return (np.asarray(values, dtype=float) * ref.scale).tolist()


# ---------------------------------------------------------------------------
# schedule output


def _timestamps(schedule: Schedule):
    grid = schedule.grid
    if grid.start:
        import datetime as dt

        t0 = dt.datetime.fromisoformat(grid.start)
        step = dt.timedelta(hours=grid.hours_per_unit)
        return [(t0 + i * step).isoformat() for i in range(grid.n_units)]
    return [str(i + 1) for i in range(grid.n_units)]


def write_schedule(schedule: Schedule, out_dir) -> dict:
    """Write schedule.csv plus a metadata.json sidecar; returns written paths.

    Every value of schedule.csv is written by ``milp._num_texts`` with ``%r``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = {
        "status": schedule.status,
        "objective": schedule.objective,
        "nbsOfTimeUnits": schedule.grid.n_units,
        "hoursPerTimeUnit": schedule.grid.hours_per_unit,
        "start": schedule.grid.start,
        "stats": schedule.stats,
    }
    meta_path = out / "metadata.json"
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True, allow_nan=False) + "\n")
    written = {"metadata": str(meta_path)}
    if not schedule.series:
        return written

    csv_path = out / "schedule.csv"
    names = list(schedule.series)
    stamps = _timestamps(schedule)
    columns = [schedule.series[name] for name in names]
    text = _num_texts(np.fromiter(chain.from_iterable(columns), dtype=float), "%r")
    lines = [",".join(["timestamp"] + names)]
    for stamp, *row in zip(stamps, *columns, strict=True):
        lines.append(",".join([stamp, *map(text.__getitem__, row)]))
    csv_path.write_text("\n".join(lines) + "\n")
    written["schedule"] = str(csv_path)
    return written
