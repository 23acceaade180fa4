"""Deterministic, diffable output formats (CSV, canonical JSON, binary PGM) and their writer.

Every floating-point number is written with 17 significant digits, enough to
round-trip any double exactly; identical inputs therefore produce
byte-identical files.

That conversion is nearly all the cost of writing a table, so every CSV
table goes one way: column by column, with each distinct double of a float
column formatted once where its bit patterns repeat, and the rows written by
one `%` template per block. JSON lists of finite Python floats are written
through one template each.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = ["fmt17", "csv_text", "json_text", "pgm_bytes", "write"]


def fmt17(x) -> str:
    """Round-trip decimal form of a double (17 significant digits); 'nan',
    'inf' and '-inf' for the special values."""
    return format(float(x), ".17g")


def _cell(v) -> str:
    if type(v) is str:
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt17(v)
    return str(v)


# rows per `%` call: per-cell Python objects exist for one block at a time
_BLOCK_ROWS = 256


def _column(cells) -> tuple:
    """One table column as (values, index, conversion): its cells are
    values[index], or values where index is None. A float64 array, or cells
    all float or np.float64, become one float64 array whose distinct bit
    patterns (0.0 and -0.0 print differently) are formatted once each where
    they repeat; any other column holds the _cell text of each cell."""
    if not isinstance(cells, np.ndarray):
        if not set(map(type, cells)) <= {float, np.float64}:
            return np.array(list(map(_cell, cells)), dtype=object), None, "%s"
        cells = np.array(cells, dtype=np.float64)
    keys, index = np.unique(cells.view(np.uint64), return_inverse=True)
    if len(keys) == len(cells):
        return cells, None, "%.17g"
    text = "\n".join(["%.17g"] * len(keys)) % tuple(keys.view(np.float64).tolist())
    return np.array(text.split("\n"), dtype=object), index, "%s"


def csv_text(header, rows) -> str:
    """CSV text of a header and rows: equal-length row sequences (else
    ValueError), or an ndarray, written as its .tolist() would be. A 2-D
    float64 array gives its columns as they are."""
    if isinstance(rows, np.ndarray) and rows.dtype == np.float64 and rows.ndim == 2:
        n, columns = len(rows), rows.T
    else:
        rows = rows.tolist() if isinstance(rows, np.ndarray) else list(rows)
        n, columns = len(rows), zip(*rows, strict=True)
    columns = list(map(_column, columns))
    line = "\n" + ",".join([conversion for _, _, conversion in columns])
    cells = np.empty((min(n, _BLOCK_ROWS), len(columns)), dtype=object)
    blocks = [",".join(header)]
    for start in range(0, n, _BLOCK_ROWS):
        block = cells[: min(n - start, _BLOCK_ROWS)]
        part = slice(start, start + len(block))
        for j, (values, index, _) in enumerate(columns):
            block[:, j] = values[part] if index is None else values[index[part]]
        blocks.append((line * len(block)) % tuple(block.ravel().tolist()))
    return "".join([*blocks, "\n"])


def _finite_floats(v) -> bool:
    """True for a non-empty sequence of plain, finite Python floats, which
    `%.17g` writes as _json_value would, one by one. (An inf or nan makes the
    sum non-finite; a sum that overflows only sends v down the slow path.)"""
    return set(map(type, v)) == {float} and math.isfinite(sum(v))


def _json_value(v, out) -> None:
    if isinstance(v, (list, tuple)) and _finite_floats(v):
        out.append("[" + ",".join(["%.17g"] * len(v)) % tuple(v) + "]")
    elif v is None:
        out.append("null")
    elif isinstance(v, bool):
        out.append("true" if v else "false")
    elif isinstance(v, (int, np.integer)):
        out.append(str(int(v)))
    elif isinstance(v, (float, np.floating)):
        f = float(v)
        # JSON has no inf/nan literals; encode as strings
        out.append(fmt17(f) if math.isfinite(f) else f'"{fmt17(f)}"')
    elif isinstance(v, str):
        out.append('"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(v, dict):
        out.append("{")
        for i, key in enumerate(sorted(v)):
            if i:
                out.append(",")
            _json_value(str(key), out)
            out.append(":")
            _json_value(v[key], out)
        out.append("}")
    elif isinstance(v, (list, tuple, np.ndarray)):
        out.append("[")
        for i, item in enumerate(v):
            if i:
                out.append(",")
            _json_value(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(v).__name__}")


def json_text(obj) -> str:
    out = []
    _json_value(obj, out)
    return "".join(out) + "\n"


def pgm_bytes(values: np.ndarray) -> bytes:
    """Binary PGM (P5, maxval 255) of a 2D array, clamped to [0, max] ([0, 1] if max <= 0)."""
    a = np.asarray(values, dtype=float)
    if a.ndim != 2:
        raise ValueError("heatmap needs a 2D array")
    hi = float(np.max(a))
    if hi <= 0.0:
        hi = 1.0
    scaled = np.clip(a / hi, 0.0, 1.0)
    pixels = np.round(scaled * 255.0).astype(np.uint8)
    header = f"P5\n{a.shape[1]} {a.shape[0]}\n255\n".encode("ascii")
    return header + pixels.tobytes()


def write(path, data) -> None:
    """Write text (as UTF-8, with its newlines as they are) or bytes to the
    file at path, or text to stdout for '-'."""
    if path == "-":
        sys.stdout.write(data)
        return
    with open(path, "wb") as fh:
        fh.write(data.encode() if isinstance(data, str) else data)
