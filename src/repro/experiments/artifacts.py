"""Sweep artifacts: the per-cell JSONL, the JSON payload and the CSV.

The JSONL holds one cell result per line, in completion order, tagged
with its world-cache outcome and its grid's :func:`grid_tag`; a resume
reads it back (:func:`read_resumed`).  The JSON payload is written whole
or not at all, and the CSV is one flat row per cell.  Nothing
scheduling-dependent is in the JSON or CSV: the world-cache outcome
lives only in the JSONL (see "Sweep artifacts" in ``docs/contracts.md``).
"""

import csv
import json
import os

from repro.experiments.grid import AXES
from repro.experiments.measure import METRICS


def grid_tag(grid):
    """Short digest of ``grid.describe()``: every JSONL line carries it, so
    a resume can tell the grid that wrote a line."""
    import hashlib  # loaded already (repro.sim.rng): no import at startup
    described = json.dumps(grid.describe(), sort_keys=True)
    return hashlib.sha256(described.encode()).hexdigest()[:16]


def iter_jsonl(path):
    """Yield ``(grid tag, result)`` per line of a per-cell JSONL artifact.

    The result is stripped of the line's tags, so it is exactly what the
    deterministic payload carries: its ``grid`` tag (None if it has none)
    is yielded beside it, its ``world`` tag (scheduling-dependent) dropped.

    A final line without its newline is what a killed run leaves behind
    (each result is written, terminated and flushed as one step): it is
    skipped.  A terminated line that does not parse still raises.
    """
    with open(path) as handle:
        for line in handle:
            if not line.endswith("\n"):
                break
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            entry.pop("world", None)
            yield entry.pop("grid", None), entry


def check_outputs(artifact_paths):
    """Reject unwritable outputs before any world is built.

    Raises ``ValueError`` for an artifact path that is a directory or
    whose directory does not exist — failures that would otherwise
    surface as an ``OSError`` only after the whole sweep has run.
    """
    for label, path in artifact_paths.items():
        if path is None:
            continue
        if os.path.isdir(path):
            raise ValueError(f"cannot write {label} artifact {path!r}: "
                             f"it is a directory")
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise ValueError(f"cannot write {label} artifact {path!r}: "
                             f"no such directory {directory!r}")


def read_resumed(cells, tag, path):
    """``{index: result}`` of the cells an earlier run of *cells*' grid,
    tagged *tag*, wrote to the JSONL at *path* (a cut-off last line skipped).

    Raises ``ValueError``, naming the index, for a line that is not the
    grid's cell at its index or lacks the grid's tag: the JSONL of another
    grid (whose cell ids match when only ``num_flows`` or overrides differ).
    """
    if not os.path.isfile(path):
        raise ValueError(f"cannot resume from {path!r}: no such file")
    done = {}
    for line_tag, result in iter_jsonl(path):
        index = result.get("index")
        expected = (cells[index].cell_id if type(index) is int
                    and 0 <= index < len(cells) else None)
        if expected is None or result.get("cell_id") != expected:
            raise ValueError(
                f"cannot resume from {path!r}: its line for index {index} is "
                f"cell {result.get('cell_id')!r}, the grid's is {expected!r}")
        if line_tag != tag:
            raise ValueError(
                f"cannot resume from {path!r}: its line for index {index} is "
                f"from grid {line_tag!r}, this grid is {tag!r}")
        done[index] = result
    return done


def write_line(handle, result, world, tag):
    """Append *result* to a JSONL *handle*, tagged with its *world*-cache
    outcome and its grid's *tag*, as one terminated, flushed line."""
    handle.write(json.dumps({**result, "world": world, "grid": tag},
                            sort_keys=True) + "\n")
    handle.flush()


def write_json(payload, path):
    """Write *payload* to *path* through a temp file beside it.

    ``os.replace`` is atomic, so a killed run leaves the previous artifact
    or none — never half of one.  The temp file is opened like the
    artifact would be, so the artifact keeps the mode the umask gives it.
    """
    temp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(temp, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(temp, path)
    except BaseException:
        if os.path.exists(temp):
            os.unlink(temp)
        raise


#: Result keys written ahead of the metrics, one CSV column each.
_CELL_COLUMNS = ("index", "cell_id", *(axis.key for axis in AXES), "mode")

#: Flat per-cell CSV columns (scalars only; latency summaries get p50/p95).
CSV_COLUMNS = (*_CELL_COLUMNS, *(column for metric in METRICS
                                 for column in metric.columns))


def _csv_row(cell):
    """One cell result flattened to a CSV row (CSV_COLUMNS order)."""
    metrics = cell["metrics"]
    row = [cell[key] for key in _CELL_COLUMNS]
    for metric in METRICS:
        row += metric.parts(metrics[metric.key])[:len(metric.columns)]
    return row


def write_csv(results, path):
    """Write cell *results* to *path*, a header and then one row each."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(map(_csv_row, results))
