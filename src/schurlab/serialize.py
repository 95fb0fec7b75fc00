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
    "dump_canonical",
    "matrix_to_json",
    "matrix_from_json",
    "symbol_to_json",
    "symbol_from_json",
]

# Values per text piece of a long float list or 1-D float64 array. At most
# this many values are formatted in one "%.17g" call: the distinct-value
# path first touches numpy's sort code, 0.4-0.5 MB of resident pages, which
# for the short lists of the search reports costs more peak RSS than it
# saves. More values (the two 264,192-value `factorize` sample arrays) take
# that path, and are written in pieces of this many values (about 330 kB of
# text each). The `factorize` arrays reach it as arrays, with no list of
# Python floats. A script that builds the `factorize` result and writes it
# with dump_canonical peaked at 48.9 MB RSS, against 61.9 MB with the whole
# text built by dumps_canonical first and 66.4 MB with the arrays turned
# into lists (2-vCPU x86 VM); tracemalloc saw 7.5 MiB for one array on the
# streamed path, and 13.0 MiB when its pieces were kept for one text.
FLOAT_PIECE = 16384


def float17(x: float) -> str:
    """Decimal string with 17 significant digits (exact double round-trip)."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    return format(x, ".17g")


def _encode_floats(values, write) -> None:
    """Write the text of a list of plain floats, or of a 1-D float64 array:
    the bytes that float17 per item gives, and the same ValueError at the
    first non-finite value, before any of its text is written. More than
    FLOAT_PIECE values format each distinct double once, by bit pattern (so
    -0.0 and +0.0 stay apart), and repeat its text through the inverse
    index, FLOAT_PIECE values to a write, so no text of the whole list is
    made. Each temporary is dropped once it has been used: the table of
    distinct texts and the inverse index are what the writes hold."""
    array = isinstance(values, np.ndarray)
    if not (np.isfinite(values).all() if array else all(map(math.isfinite, values))):
        for v in values:
            float17(v)  # raises at the first non-finite value
    if len(values) <= FLOAT_PIECE:
        write("[" + ",".join(["%.17g"] * len(values)) % tuple(values) + "]")
        return
    bits = (values if array else np.array(values, dtype=float)).view(np.int64)
    # the sorted bit patterns, each once (np.unique would import numpy.ma,
    # 14 ms and 0.8 MB, on its first call in a process)
    distinct = np.sort(bits)
    first = np.ones(distinct.shape, dtype=bool)
    np.not_equal(distinct[1:], distinct[:-1], out=first[1:])
    distinct = distinct[first]
    del first
    doubles = distinct.view(float).tolist()
    text = ",".join(["%.17g"] * len(doubles)) % tuple(doubles)
    del doubles
    texts = np.array(text.split(","), dtype=object)
    del text
    inverse = np.searchsorted(distinct, bits)
    del bits, distinct
    write("[")
    for start in range(0, inverse.size, FLOAT_PIECE):
        if start:
            write(",")
        write(",".join(texts[inverse[start:start + FLOAT_PIECE]].tolist()))
    write("]")


def _encode(obj, write) -> None:
    if obj is None:
        write("null")
    elif obj is True:
        write("true")
    elif obj is False:
        write("false")
    elif isinstance(obj, str):
        write('"' + obj.replace("\\", "\\\\").replace('"', '\\"')
              .replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t") + '"')
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        write(float17(obj))
    elif isinstance(obj, complex):
        raise TypeError("serialize complex values as {re, im} pairs explicitly")
    elif isinstance(obj, dict):
        write("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"object keys must be strings, got {key!r}")
            if i:
                write(",")
            _encode(key, write)
            write(":")
            _encode(obj[key], write)
        write("}")
    elif isinstance(obj, (list, tuple)) and all(type(v) is float for v in obj):
        _encode_floats(obj, write)
    elif isinstance(obj, (list, tuple)):
        write("[")
        for i, item in enumerate(obj):
            if i:
                write(",")
            _encode(item, write)
        write("]")
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype == np.float64:
        _encode_floats(obj, write)
    elif isinstance(obj, np.ndarray):
        _encode(obj.tolist(), write)
    else:
        raise TypeError(f"cannot canonically encode {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, compact, floats via float17."""
    out: list = []
    _encode(obj, out.append)
    return "".join(out)


def dump_canonical(obj, fh) -> None:
    """Write the text of ``dumps_canonical(obj)`` to the text file ``fh``
    piece by piece, without holding the whole text. A value that fails to
    encode raises after the pieces before it have been written."""
    _encode(obj, fh.write)


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
