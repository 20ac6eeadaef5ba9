"""Structured experiment output: rows plus metadata, emitted as CSV or JSON."""

import csv
import io
import json
from dataclasses import dataclass

from ._version import __version__


@dataclass(frozen=True)
class ReportRow:
    experiment: str
    quantity: str
    params: str
    value: float
    tolerance: float
    status: str  # pass | fail | info | error
    runtime_ms: float = 0.0


@dataclass(frozen=True)
class Report:
    rows: tuple
    version: str = __version__
    config_hash: str = ""
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))

    def has_failures(self):
        return any(r.status == "fail" for r in self.rows)


def params_string(**kwargs):
    """Canonical 'k=v;k=v' encoding with sorted keys."""
    return ";".join(f"{k}={kwargs[k]!r}" for k in sorted(kwargs))


CSV_COLUMNS = ["experiment", "quantity", "params", "value", "tolerance", "status", "runtime_ms"]


def _row_fields(row):
    """The row's fields by name, read directly (``asdict`` deep-copies each one)."""
    return {name: getattr(row, name) for name in CSV_COLUMNS}


def report_to_csv(report):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in report.rows:
        writer.writerow(dict(_row_fields(row), value=repr(float(row.value)),
                             tolerance=repr(float(row.tolerance))))
    return buf.getvalue()


def report_to_json(report):
    payload = {
        "metadata": {
            "version": report.version,
            "config_hash": report.config_hash,
            "seed": report.seed,
        },
        "rows": [_row_fields(r) for r in report.rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def report_from_json(text):
    payload = json.loads(text)
    meta = payload["metadata"]
    rows = tuple(ReportRow(**r) for r in payload["rows"])
    return Report(
        rows=rows,
        version=meta["version"],
        config_hash=meta["config_hash"],
        seed=meta["seed"],
    )


def emit_report(report, path, fmt="csv"):
    """Write the report; deterministic bytes for a given report object."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    text = report_to_csv(report) if fmt == "csv" else report_to_json(report)
    with open(path, "w") as fh:
        fh.write(text)
    return path
