"""CSV and self-contained SVG renderings of run timelines: one band per slot
id for utilization, one segment per task for I/O."""
from __future__ import annotations

import csv
from pathlib import Path

from .metrics import io_timeline, utilization_timeline
from .trace import RunTrace

_PALETTE = ["#4c72b0", "#dd8452", "#55a868", "#c44e52", "#8172b3",
            "#937860", "#da8bc3", "#8c8c8c", "#ccb974", "#64b5cd"]
_WIDTH = 900
_MARGIN = 60
_BAND_HEIGHT = 14
_IO_HEIGHT = 400


def utilization_csv(trace: RunTrace, path):
    rows = []
    for slot, intervals in sorted(utilization_timeline(trace).items()):
        for start, end, task in intervals:
            rows.append({"slot": slot, "start_s": start, "end_s": end, "value": task})
    _write_csv(path, ["slot", "start_s", "end_s", "value"], rows)
    return len(rows)


def io_csv(trace: RunTrace, path):
    rows = []
    for seg in io_timeline(trace):
        rows.append({"task": seg["task"], "start_s": seg["start"],
                     "end_s": seg["end"], "value": seg["read_bytes"],
                     "metric": "read_bytes"})
        rows.append({"task": seg["task"], "start_s": seg["start"],
                     "end_s": seg["end"], "value": seg["write_bytes"],
                     "metric": "write_bytes"})
    _write_csv(path, ["task", "start_s", "end_s", "value", "metric"], rows)
    return len(rows)


def _write_csv(path, fields, rows):
    with Path(path).open("w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def _color(name, palette_index):
    if name not in palette_index:
        palette_index[name] = _PALETTE[len(palette_index) % len(_PALETTE)]
    return palette_index[name]


def utilization_svg(trace: RunTrace, path):
    """One horizontal band per slot id, colored by occupying task."""
    timeline = utilization_timeline(trace)
    slots = sorted(timeline)
    t_max = max((end for ivals in timeline.values() for _, end, _ in ivals),
                default=1.0) or 1.0
    height = _MARGIN + _BAND_HEIGHT * max(len(slots), 1) + 20
    sx = (_WIDTH - _MARGIN - 10) / t_max
    colors = {}
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{height}">',
             f'<text x="{_MARGIN}" y="16" font-size="13">slot occupancy '
             f'(run {trace.run_id}, 0..{t_max:.2f}s)</text>']
    for i, slot in enumerate(slots):
        y = _MARGIN + i * _BAND_HEIGHT
        parts.append(f'<text x="4" y="{y + _BAND_HEIGHT - 3}" font-size="9">{slot}</text>')
        for start, end, task in timeline[slot]:
            x = _MARGIN + start * sx
            w = max((end - start) * sx, 0.5)
            fill = _color(task, colors)
            parts.append(f'<rect x="{x:.2f}" y="{y}" width="{w:.2f}" '
                         f'height="{_BAND_HEIGHT - 2}" fill="{fill}">'
                         f'<title>{task}</title></rect>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts), encoding="utf-8")
    return len(slots)


def io_svg(trace: RunTrace, path):
    """One horizontal segment per task per direction, y = bytes moved."""
    segments = io_timeline(trace)
    t_max = max((s["end"] for s in segments), default=1.0) or 1.0
    b_max = max((max(s["read_bytes"], s["write_bytes"]) for s in segments),
                default=1) or 1
    sx = (_WIDTH - _MARGIN - 10) / t_max
    sy = (_IO_HEIGHT - _MARGIN - 20) / b_max
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_IO_HEIGHT}">',
             f'<text x="{_MARGIN}" y="16" font-size="13">task I/O '
             f'(run {trace.run_id}; blue=read, red=write)</text>']
    for seg in segments:
        for key, color in (("read_bytes", "#4c72b0"), ("write_bytes", "#c44e52")):
            if seg[key] <= 0:
                continue
            y = _IO_HEIGHT - 20 - seg[key] * sy
            x1 = _MARGIN + seg["start"] * sx
            x2 = _MARGIN + seg["end"] * sx
            parts.append(f'<line x1="{x1:.2f}" y1="{y:.2f}" x2="{x2:.2f}" '
                         f'y2="{y:.2f}" stroke="{color}" stroke-width="2">'
                         f'<title>{seg["task"]} {key}={seg[key]}</title></line>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts), encoding="utf-8")
    return len(segments)
