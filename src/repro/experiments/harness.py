"""Plain-text rendering helpers for experiment results.

The benchmark harness prints each figure's data as a fixed-width table so
the series the paper plots can be read (and diffed) directly from test
output.  :func:`render_metrics_table` does the same for an observability
registry: one row per instrumented operator with tuple counts,
selectivity, timings, and interval-width telemetry.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.obs.instrument import operator_rows
from repro.obs.metrics import MetricsRegistry

__all__ = ["render_table", "format_number", "render_metrics_table"]


def format_number(value: object, digits: int = 4) -> str:
    """Compact numeric formatting; non-numbers pass through as str."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 10000 or magnitude < 0.001:
        return f"{value:.{digits}g}"
    return f"{value:.{digits}g}"


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
    align: Sequence[str] | None = None,
) -> str:
    """A fixed-width text table with one header row.

    ``align`` gives one ``"l"``/``"r"`` per column (default all left);
    right alignment applies to both the header and every cell, keeping
    numeric columns visually comparable.
    """
    str_rows = [[format_number(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    if align is None:
        align = ["l"] * len(headers)

    def _pad(cell: str, width: int, mode: str) -> str:
        return cell.rjust(width) if mode == "r" else cell.ljust(width)

    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(
        _pad(h, w, a) for h, w, a in zip(headers, widths, align)
    )
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in str_rows:
        lines.append(
            "  ".join(
                _pad(cell, w, a)
                for cell, w, a in zip(row, widths, align)
            )
        )
    return "\n".join(lines)


def render_metrics_table(
    registry: "MetricsRegistry | dict",
    title: str | None = "Per-stage breakdown",
) -> str:
    """One row per instrumented operator from a metrics registry.

    Columns: operator id, tuples in/out, selectivity (out/in), number of
    ``receive_many`` calls, self wall-time (inclusive time
    minus the next stage's — exact for a linear push pipeline), the
    mean emitted confidence-interval width where recorded, and the
    retained state bytes sampled at flush (``memory_metrics``
    operators).
    """
    rows = []
    for row in operator_rows(registry):
        state = row.get("state_bytes")
        rows.append(
            [
                row["operator"],
                row["tuples_in"],
                row["tuples_out"],
                row["selectivity"],
                row["calls"],
                row.get("self_seconds", row["inclusive_seconds"]),
                row.get("interval_width_mean", "-"),
                row.get("sample_size_min", "-"),
                # Only operators that actually reported have the key;
                # never-reporting operators render '-', not 0.
                int(state) if state is not None else "-",
            ]
        )
    return render_table(
        [
            "operator",
            "in",
            "out",
            "sel",
            "calls",
            "self_s",
            "ci_width",
            "min_n",
            "state_B",
        ],
        rows,
        title=title,
        align=["l", "l", "l", "l", "l", "l", "l", "l", "r"],
    )
