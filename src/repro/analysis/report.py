"""Plain-text reporting: tables, paper-vs-measured comparisons, and ASCII
line charts for the figure benches.

The benchmark harness prints everything through these helpers so each
bench's output looks like the table or figure it reproduces.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

__all__ = ["ascii_table", "comparison_table", "ascii_chart", "format_si",
           "outcome_table", "metrics_table"]

Cell = Union[str, int, float, None]


def _fmt(value: Cell) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


def ascii_table(headers: Sequence[str], rows: Sequence[Sequence[Cell]],
                title: Optional[str] = None) -> str:
    """Fixed-width table with a header rule."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}")
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def comparison_table(metric_rows: Sequence[Tuple[str, float, float]],
                     title: Optional[str] = None,
                     paper_label: str = "paper",
                     measured_label: str = "measured") -> str:
    """Paper-vs-measured with a ratio column.

    ``metric_rows`` is (name, paper_value, measured_value); the ratio is
    measured/paper, the number EXPERIMENTS.md tracks per experiment.
    """
    rows: List[List[Cell]] = []
    for name, paper, measured in metric_rows:
        ratio = measured / paper if paper else float("nan")
        rows.append([name, paper, measured, ratio])
    return ascii_table(
        ["metric", paper_label, measured_label, "ratio"], rows, title)


def ascii_chart(series: Sequence[Tuple[str, Sequence[float],
                                       Sequence[float]]],
                width: int = 64, height: int = 16,
                title: Optional[str] = None,
                x_label: str = "", y_label: str = "") -> str:
    """Multi-series scatter/line chart in ASCII (one marker per series).

    Good enough to eyeball the *shape* of a reproduced figure — decay
    curves, saturation plateaus, crossovers.
    """
    markers = "ox+*#@%&"
    pts = []
    for si, (_, xs, ys) in enumerate(series):
        if len(xs) != len(ys):
            raise ValueError("series x/y length mismatch")
        for x, y in zip(xs, ys):
            pts.append((x, y, markers[si % len(markers)]))
    if not pts:
        return "(empty chart)"
    xmin = min(p[0] for p in pts)
    xmax = max(p[0] for p in pts)
    ymin = min(p[1] for p in pts)
    ymax = max(p[1] for p in pts)
    ymin = min(ymin, 0.0)
    xspan = (xmax - xmin) or 1.0
    yspan = (ymax - ymin) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y, m in pts:
        col = int((x - xmin) / xspan * (width - 1))
        row = height - 1 - int((y - ymin) / yspan * (height - 1))
        grid[row][col] = m
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{ymax:10.2f} +" + "-" * width + "+")
    for r, row in enumerate(grid):
        prefix = " " * 10 + " |"
        lines.append(prefix + "".join(row) + "|")
    lines.append(f"{ymin:10.2f} +" + "-" * width + "+")
    lines.append(" " * 12 + f"{xmin:<12.4g}{x_label:^{max(0, width - 24)}}"
                 f"{xmax:>12.4g}")
    legend = "   ".join(f"{markers[i % len(markers)]} {name}"
                        for i, (name, _, _) in enumerate(series))
    lines.append(" " * 12 + legend)
    if y_label:
        lines.append(" " * 12 + f"y: {y_label}")
    return "\n".join(lines)


def outcome_table(outcomes: Sequence[object],
                  title: Optional[str] = None) -> str:
    """One row per :class:`~repro.core.backends.ScanOutcome` — the
    unified way benches and the CLI print cross-backend sweeps.

    Duck-typed (any object with ``backend``/``workers``/
    ``total_matches``/``bytes_scanned``/``seconds``/``gbps`` works) so
    this layer never imports the core package.
    """
    rows: List[List[Cell]] = []
    for o in outcomes:
        rows.append([
            getattr(o, "backend", "?"),
            getattr(o, "workers", 1),
            getattr(o, "total_matches", None),
            getattr(o, "bytes_scanned", None),
            getattr(o, "seconds", 0.0),
            getattr(o, "gbps", 0.0),
        ])
    return ascii_table(
        ["backend", "workers", "matches", "bytes", "seconds", "Gbps"],
        rows, title)


def metrics_table(snapshot, title: Optional[str] = None) -> str:
    """Render a :meth:`~repro.service.metrics.ServiceMetrics.snapshot`
    (or the ``metrics`` field of a STATS response) as tables.

    Duck-typed on the snapshot dict so this layer never imports the
    service package: a per-backend latency table plus a counter summary
    covering requests, admission control and reloads.
    """
    lines = []
    backends = snapshot.get("backends", {})
    rows: List[List[Cell]] = [
        [name, h.get("count"), h.get("p50_ms"), h.get("p95_ms"),
         h.get("p99_ms"), h.get("mean_ms"), h.get("max_ms")]
        for name, h in sorted(backends.items())]
    lines.append(ascii_table(
        ["backend", "count", "p50 ms", "p95 ms", "p99 ms", "mean ms",
         "max ms"],
        rows, title=title or "service latency by backend"))
    requests = snapshot.get("requests", {})
    admission = snapshot.get("admission", {})
    reloads = snapshot.get("reloads", {})
    swap = reloads.get("swap_latency", {})
    summary: List[Sequence[Cell]] = [
        ["requests", requests.get("total", 0)],
        ["bytes scanned", snapshot.get("bytes_scanned", 0)],
        ["matches", snapshot.get("matches", 0)],
        ["errors", snapshot.get("errors", 0)],
        ["rejected", admission.get("rejected", 0)],
        ["timeouts", admission.get("timeouts", 0)],
        ["queue high-water", admission.get("queue_high_water", 0)],
        ["reloads (warm)", f"{reloads.get('count', 0)} "
                           f"({reloads.get('warm', 0)})"],
        ["swap p95 ms", swap.get("p95_ms", 0.0)],
        ["flow evictions", snapshot.get("flow_evictions", 0)],
    ]
    lines.append("")
    lines.append(ascii_table(["counter", "value"], summary))
    return "\n".join(lines)


def format_si(value: float, unit: str = "") -> str:
    """Human-readable SI formatting (1.5e9 -> '1.50 G')."""
    for factor, prefix in ((1e12, "T"), (1e9, "G"), (1e6, "M"),
                           (1e3, "k")):
        if abs(value) >= factor:
            return f"{value / factor:.2f} {prefix}{unit}"
    return f"{value:.2f} {unit}"
