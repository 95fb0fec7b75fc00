"""Canonical serialization: matrix JSON codec and byte-stable report encoding.

Floats are written as decimal strings with 17 significant digits, which
round-trip to the exact binary double. The canonical encoder sorts object
keys and uses no whitespace, so two encodings of equal data are
byte-identical.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "float17",
    "dumps_canonical",
    "matrix_to_json",
    "matrix_from_json",
    "symbol_to_json",
    "symbol_from_json",
]


def float17(x: float) -> str:
    """Decimal string with 17 significant digits (exact double round-trip)."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    return format(x, ".17g")


def _encode(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"')
                   .replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t") + '"')
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(float17(obj))
    elif isinstance(obj, complex):
        raise TypeError("serialize complex values as {re, im} pairs explicitly")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"object keys must be strings, got {key!r}")
            if i:
                out.append(",")
            _encode(key, out)
            out.append(":")
            _encode(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)) and all(type(v) is float for v in obj):
        # plain float lists take one %-format call ("%.17g" is float17's
        # format); a non-finite value goes through float17, which rejects it
        if all(map(math.isfinite, obj)):
            text = ",".join(["%.17g"] * len(obj)) % tuple(obj)
        else:
            text = ",".join([float17(v) for v in obj])
        out.append("[" + text + "]")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _encode(item, out)
        out.append("]")
    elif isinstance(obj, np.ndarray):
        _encode(obj.tolist(), out)
    else:
        raise TypeError(f"cannot canonically encode {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, compact, floats via float17."""
    out: list = []
    _encode(obj, out)
    return "".join(out)


def matrix_to_json(a: np.ndarray) -> dict:
    """Matrix wire format: {dim, re: row-major, im: row-major}."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(np.asarray(a, complex).imag)):
        raise ValueError("matrix has non-finite entries")
    c = np.asarray(a, dtype=complex)
    return {
        "dim": int(a.shape[0]),
        "re": c.real.ravel().tolist(),
        "im": c.imag.ravel().tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    dim = int(obj["dim"])
    re = np.asarray(obj["re"], dtype=float).reshape(dim, dim)
    im = np.asarray(obj["im"], dtype=float).reshape(dim, dim)
    return re + 1j * im


def symbol_to_json(rows, cols, values) -> dict:
    """Multiplier symbol wire format: {rows, cols, values(row-major)}."""
    values = np.asarray(values, dtype=float)
    return {
        "rows": np.asarray(rows, dtype=float).tolist(),
        "cols": np.asarray(cols, dtype=float).tolist(),
        "values": values.ravel().tolist(),
    }


def symbol_from_json(obj: dict):
    rows = np.asarray(obj["rows"], dtype=float)
    cols = np.asarray(obj["cols"], dtype=float)
    values = np.asarray(obj["values"], dtype=float).reshape(rows.size, cols.size)
    return rows, cols, values
