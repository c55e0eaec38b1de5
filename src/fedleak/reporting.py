"""File emission: CSV tables, SVG line charts, PGM images, manifests.

All writers are deterministic (no timestamps inside data files, floats
rendered with shortest round-trip repr, LF line endings, '.' decimal
point) so repeated runs with the same inputs produce byte-identical
files. Writes go through a temp-file-then-rename step to stay atomic;
write_pgm formats each distinct image once and makes each image file
that repeats an earlier one of its call a hard link of that file: a new
path is linked straight to its name, an existing one through a link to
a temporary name and a rename, and a path whose link fails is written
alone. Rewriting any path through atomic_write_text gives it its own
file again.
"""

from __future__ import annotations

import os
import secrets
import tempfile
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "atomic_write_text",
    "format_cell",
    "write_csv",
    "write_records",
    "read_csv",
    "write_pgm",
    "Series",
    "svg_line_chart",
    "write_manifest",
    "read_keyvalue",
]


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temporary file in the same directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_cell(value) -> str:
    """Stable text for one CSV cell; floats use shortest round-trip repr."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, Enum):
        return str(value.value)
    return str(value)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(format_cell(v) for v in row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_records(path: str | Path, record_type: type, records: Iterable) -> None:
    """A table of dataclass records: one column per field of record_type,
    named after it, in field order, and one row per record. The fields
    are the table's format, so a new field is a new column and changes
    the header line (perfbench/oracle.py requires the sweep tables'
    header lines exactly)."""
    names = [f.name for f in fields(record_type)]
    write_csv(path, names, ([getattr(r, name) for name in names] for r in records))


def read_csv(path: str | Path) -> tuple[list[str], list[dict[str, str]], list[int]]:
    """Parse a CSV written by write_csv.

    Returns (header, rows-as-dicts, per-row line numbers); raises
    ValueError naming the line on malformed input."""
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"{path}:1: empty file")
    header = lines[0].split(",")
    rows = []
    numbers = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(
                f"{path}:{lineno}: expected {len(header)} columns, got {len(cells)}"
            )
        rows.append(dict(zip(header, cells)))
        numbers.append(lineno)
    return header, rows, numbers


def write_pgm(images: Mapping[str | Path, np.ndarray]) -> None:
    """Plain-text portable graymaps (P2), maxval 255, one per path, from
    pixels in [0, 1], rounded half to even and clipped.

    Every image is checked and formatted before any file is written, so
    a non-finite pixel writes nothing; equal pixel arrays (same shape and
    values) are formatted once. The first path of each distinct text is
    written through atomic_write_text; every later path with the same
    text becomes a hard link of that file (_link_file), so a call
    allocates one file per distinct image. A path whose link fails (no
    hard links on its file system, too many links, a missing directory)
    is written alone."""
    text_of: dict[tuple, str] = {}  # (shape, pixel bytes) -> text
    texts = {}
    for path, pixels in images.items():
        px = np.asarray(pixels, dtype=float)
        key = (px.shape, px.tobytes())
        if key not in text_of:
            text_of[key] = _pgm_text(path, px)
        texts[Path(path)] = text_of[key]
    first: dict[str, Path] = {}
    for path, text in texts.items():
        source = first.setdefault(text, path)
        if source is path or not _link_file(source, path):
            atomic_write_text(path, text)


def _pgm_text(path: str | Path, px: np.ndarray) -> str:
    maxval = 255
    if px.ndim != 2:
        raise ValueError(f"{path}: pixels must be 2-d, got shape {px.shape}")
    if not np.isfinite(px).all():
        raise ValueError(f"{path}: pixels must be finite")
    levels = np.clip(np.rint(px * maxval), 0, maxval).astype(int)
    lines = ["P2", f"{px.shape[1]} {px.shape[0]}", str(maxval)]
    lines.extend(" ".join(map(str, row)) for row in levels.tolist())
    return "\n".join(lines) + "\n"


def _link_file(source: Path, path: Path) -> bool:
    """Make path a hard link of source. A new path is linked straight to
    its name. An existing path is replaced atomically: link to a new
    temporary name beside it, then rename. False, with nothing changed,
    if the link fails."""
    try:
        os.link(source, path)
        return True
    except FileExistsError:
        pass
    except OSError:
        return False
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        os.link(source, tmp)
    except OSError:
        return False
    try:
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return True


@dataclass(frozen=True)
class Series:
    label: str
    xs: tuple[float, ...]
    ys: tuple[float, ...]


_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#e377c2",
    "#bcbd22",
    "#7f7f7f",
    "#aec7e8",
    "#ff9896",
)


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def svg_line_chart(
    series: Sequence[Series],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Minimal line chart: axes, ticks, one polyline per series, legend."""
    if not series:
        raise ValueError("no series to plot")
    width, height = 780, 480
    left, right, top, bottom = 75, 200, 45, 55
    plot_w = width - left - right
    plot_h = height - top - bottom

    xs_all = [x for s in series for x in s.xs]
    ys_all = [y for s in series for y in s.ys if np.isfinite(y)]
    if not ys_all:
        raise ValueError("no finite y values to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
        f'stroke="black"/>',
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{x_label}</text>',
        f'<text x="20" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {top + plot_h / 2:.1f})">{y_label}</text>',
    ]
    for tick in _ticks(x_lo, x_hi):
        px = sx(tick)
        parts.append(
            f'<line x1="{px:.2f}" y1="{top + plot_h}" x2="{px:.2f}" '
            f'y2="{top + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{top + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        py = sy(tick)
        parts.append(
            f'<line x1="{left - 5}" y1="{py:.2f}" x2="{left}" y2="{py:.2f}" '
            f'stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 9}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
        )
    for idx, s in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(
            f"{sx(x):.2f},{sy(y):.2f}"
            for x, y in zip(s.xs, s.ys)
            if np.isfinite(y)
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"/>'
        )
        for x, y in zip(s.xs, s.ys):
            if np.isfinite(y):
                parts.append(
                    f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.6" '
                    f'fill="{color}"/>'
                )
        ly = top + 18 * idx
        lx = left + plot_w + 14
        parts.append(
            f'<line x1="{lx}" y1="{ly + 5}" x2="{lx + 22}" y2="{ly + 5}" '
            f'stroke="{color}" stroke-width="2.5"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly + 9}" font-family="sans-serif" '
            f'font-size="12">{s.label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_manifest(path: str | Path, entries: dict[str, str]) -> None:
    """Flat key=value manifest; loadable back as a config file."""
    lines = [f"{key}={value}" for key, value in entries.items()]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_keyvalue(path: str | Path) -> dict[str, str]:
    """Parse key=value lines; '#' starts a comment, blanks are skipped.
    A key given twice is a ValueError naming the second line."""
    entries: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in entries:
            raise ValueError(f"{path}:{lineno}: key {key} is given twice")
        entries[key] = value.strip()
    return entries
