"""Upward rounding of reported bounds and the CLI's text, CSV and JSON renderers.

Reported bounds are rounded upward (ceiling at the requested decimal place):
a rounded-up upper bound is still an upper bound.  Internal comparisons always
use unrounded values.
"""

from __future__ import annotations

import csv
import io
import json
from decimal import ROUND_CEILING, Decimal


def round_up(x: float, places: int = 5) -> float:
    """Ceiling of x at the given decimal place (exact via Decimal)."""
    q = Decimal(1).scaleb(-places)
    return float(Decimal(x).quantize(q, rounding=ROUND_CEILING))


def round_up_str(x: float, places: int = 5) -> str:
    q = Decimal(1).scaleb(-places)
    return str(Decimal(x).quantize(q, rounding=ROUND_CEILING))


def render_text_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines) + "\n"


def render_csv(headers: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue()


def render_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
