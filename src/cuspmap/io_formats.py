"""Deterministic, diffable output formats: CSV, canonical JSON, binary PGM.

Every floating-point number is written with 17 significant digits, enough to
round-trip any double exactly; identical inputs therefore produce
byte-identical files.

That conversion is nearly all the cost of writing a table, so no double is
converted twice where the input shows a repeat. A column of a 2-D float
array whose bit patterns repeat has each distinct pattern formatted once and
its cells put back by index; a column without repeats, and every CSV row
sequence, goes through a single `%` template. JSON lists of finite Python
floats are written through one template each.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["fmt17", "csv_text", "json_text", "pgm_bytes", "write_pgm"]


def fmt17(x) -> str:
    """Round-trip decimal form of a double (17 significant digits); 'nan',
    'inf' and '-inf' for the special values."""
    return format(float(x), ".17g")


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt17(v)
    return str(v)


# %-conversions that write the same bytes as _cell for cells of exactly
# these types; rows holding any other type (bool, for one) go through _cell
_CONVERSIONS = {float: "%.17g", np.float64: "%.17g", int: "%d", np.int64: "%d", str: "%s"}


# rows of a float array per `%` call, so that per-cell Python objects exist
# for one block at a time, never for the whole table
_BLOCK_ROWS = 256


def _float_table_blocks(rows) -> list:
    """The text of a 2-D float64 array in blocks of _BLOCK_ROWS rows, each
    row beginning with a newline.

    A column whose bit patterns repeat (keyed on bits, not values: 0.0 and
    -0.0 print differently) has every distinct pattern formatted once; its
    cells are those shared strings, picked by index.
    """
    n, m = rows.shape
    conversions, columns = [], []
    for col in rows.T:
        keys, index = np.unique(col.view(np.uint64), return_inverse=True)
        if len(keys) < n:
            text = "\n".join(["%.17g"] * len(keys)) % tuple(keys.view(np.float64).tolist())
            conversions.append("%s")
            columns.append((np.array(text.split("\n"), dtype=object), index))
        else:
            conversions.append("%.17g")
            columns.append((None, col))
    line = "\n" + ",".join(conversions)
    cells = np.empty((min(n, _BLOCK_ROWS), m), dtype=object)
    blocks = []
    for start in range(0, n, _BLOCK_ROWS):
        block = cells[: min(n - start, _BLOCK_ROWS)]
        stop = start + len(block)
        for j, (strings, values) in enumerate(columns):
            block[:, j] = values[start:stop] if strings is None else strings[values[start:stop]]
        blocks.append((line * len(block)) % tuple(block.ravel().tolist()))
    return blocks


def csv_text(header, rows) -> str:
    """CSV text of a header and rows: row sequences, or a 2-D float ndarray
    (written as its .tolist() would be)."""
    if isinstance(rows, np.ndarray):
        if rows.dtype == np.float64 and rows.ndim == 2 and rows.size:
            return "".join([",".join(header), *_float_table_blocks(rows), "\n"])
        rows = rows.tolist()
    lines = [",".join(header)]
    templates = {}
    for row in rows:
        types = tuple(map(type, row))
        if types not in templates:
            conversions = [_CONVERSIONS.get(t) for t in types]
            templates[types] = None if None in conversions else ",".join(conversions)
        template = templates[types]
        lines.append(template % tuple(row) if template is not None
                     else ",".join([_cell(v) for v in row]))
    return "\n".join(lines) + "\n"


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


def pgm_bytes(values: np.ndarray, lo: float = None, hi: float = None) -> bytes:
    """Binary PGM (P5, maxval 255) of a 2D array, linearly clamped to [lo, hi]."""
    a = np.asarray(values, dtype=float)
    if a.ndim != 2:
        raise ValueError("heatmap needs a 2D array")
    lo = float(np.min(a)) if lo is None else float(lo)
    hi = float(np.max(a)) if hi is None else float(hi)
    if hi <= lo:
        hi = lo + 1.0
    scaled = np.clip((a - lo) / (hi - lo), 0.0, 1.0)
    pixels = np.round(scaled * 255.0).astype(np.uint8)
    header = f"P5\n{a.shape[1]} {a.shape[0]}\n255\n".encode("ascii")
    return header + pixels.tobytes()


def write_pgm(path, values, lo: float = None, hi: float = None) -> None:
    with open(path, "wb") as fh:
        fh.write(pgm_bytes(values, lo, hi))
