"""Independent reference renderers for the CLI output tests.

These are the per-row forms the library's columnar renderers replaced: one dict
per row, a `format()` call per float cell and one `csv.writer.writerow` per row
for CSV, and `json.dumps(rows, indent=2)` for JSON. Tests compare the library
against them byte for byte.
"""

from __future__ import annotations

import csv
import io
import json


def fmt(value: float) -> str:
    return format(float(value), ".12g")


def render_csv(columns: list[str], records: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(columns)
    for record in records:
        row = []
        for name in columns:
            value = record[name]
            if isinstance(value, bool):
                row.append("true" if value else "false")
            elif isinstance(value, str):
                row.append(value)
            else:
                row.append(fmt(value))
        writer.writerow(row)
    return buf.getvalue()


def render_json(records: list[dict] | list[str]) -> str:
    """JSON text whose float cells carry the same 12 significant digits as the CSV."""
    rows = [
        record if isinstance(record, str)
        else {name: float(fmt(v)) if isinstance(v, float) else v for name, v in record.items()}
        for record in records
    ]
    return json.dumps(rows, indent=2) + "\n"
