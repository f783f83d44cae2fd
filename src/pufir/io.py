"""JSON file formats for polynomials and angle parameters.

Complex entries are stored as [re, im] pairs; floats serialize with
Python's shortest round-trip repr, so save/load is bit-exact and the
output bytes are deterministic.  The text is the standard library's
indented one (sorted keys, indent 1), produced without its slow encoder.
"""
from __future__ import annotations

import json

import numpy as np

from .blaschke import AngleParams
from .laurent import LaurentPoly

__all__ = [
    "complex_pairs", "dumps_json",
    "poly_to_dict", "poly_from_dict", "dumps_poly", "loads_poly",
    "save_poly", "load_poly",
    "angles_to_dict", "angles_from_dict", "save_angles", "load_angles",
]


PIECE_FLOATS = 8192  # array leaves per piece of text, so files stream


def complex_pairs(M):
    """[re, im] pairs of a complex array: a float array, trailing axis 2."""
    return np.stack([M.real, M.imag], -1)


def _poly_fields(F):
    return {"p": F.p, "m": F.m, "q": F.q, "n": F.n,
            "coeffs": complex_pairs(F.coeffs)}


def poly_to_dict(F):
    data = _poly_fields(F)
    data["coeffs"] = data["coeffs"].tolist()
    return data


def _int_field(data, key):
    """A JSON integer; floats, strings and booleans are refused."""
    value = data[key]
    if type(value) is not int:
        raise ValueError(f"field {key!r} must be an integer, got {value!r}")
    return value


def _numbers(values, key):
    """A list of JSON numbers; booleans, strings and lists are refused."""
    if not (isinstance(values, list)
            and all(type(v) in (int, float) for v in values)):
        raise ValueError(f"field {key!r} must be a list of numbers")
    return values


def _complex_block(B):
    """A complex matrix from rows of [re, im] pairs of JSON numbers, one
    block at a time: freeing temporaries as large as all coefficients
    raises glibc's mmap threshold and leaves later arrays resident."""
    b = np.array(B, dtype=object)
    if (b.ndim == 3 and b.shape[2] == 2
            and set(map(type, b.flat)) <= {int, float}):
        return b.astype(float).view(complex)[..., 0]
    if b.ndim > 1:      # refuse the first entry that is no [re, im] pair
        for pair in b.reshape(b.shape[0] * b.shape[1], *b.shape[2:]).tolist():
            re, im = _numbers(pair, "coeffs")
    if b.size:
        raise ValueError("field 'coeffs' must be a list of matrices of "
                         "[re, im] pairs")
    return b.astype(complex)    # empty: LaurentPoly names what is missing


def poly_from_dict(data):
    try:
        q = _int_field(data, "q")
        coeffs = [_complex_block(B) for B in data["coeffs"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed polynomial data: {exc}") from exc
    F = LaurentPoly(q, coeffs)
    for key, val in (("p", F.p), ("m", F.m), ("n", F.n)):
        if key in data and _int_field(data, key) != val:
            raise ValueError(f"inconsistent field {key!r} in polynomial file")
    return F


def _array_pieces(a, level):
    """Text of a non-empty array of dimension k >= 1 at indent `level`.

    The leaf tokens are the C encoder's.  After a leaf come the closings
    of the r trailing axes that roll over there, then, unless r = k, a
    comma and r openings: one table entry per r, indexed with NumPy.
    """
    k, flat = a.ndim, a.ravel()
    pad = ["\n" + " " * (level + j) for j in range(k + 1)]
    opening = ["".join("[" + pad[j] for j in range(d + 1, k + 1))
               for d in range(k + 1)]
    closing = ["".join(pad[j] + "]" for j in range(k - 1, k - 1 - r, -1))
               for r in range(k + 1)]
    seps = np.array([closing[r] + "," + pad[k - r] + opening[k - r]
                     for r in range(k)] + [closing[k]], dtype=object)
    sizes = np.cumprod(a.shape[::-1])
    yield opening[0]
    for start in range(0, flat.size, PIECE_FLOATS):
        stop = min(start + PIECE_FLOATS, flat.size)
        rolls = sum(np.arange(start + 1, stop + 1) % n == 0 for n in sizes)
        tokens = json.dumps(flat[start:stop].tolist())[1:-1].split(", ")
        yield "".join([t + s for t, s in zip(tokens, seps[rolls].tolist())])


def _pieces(value, level):
    """The text of `value` at indent `level`, in pieces; keys are strings."""
    if isinstance(value, np.ndarray):
        if value.ndim and value.size:
            yield from _array_pieces(value, level)
            return
        value = value.tolist()
    if not (isinstance(value, (dict, list, tuple)) and value):
        yield json.dumps(value)
        return
    pad = "\n" + " " * (level + 1)
    if isinstance(value, dict):
        brackets = "{}"
        items = [(json.dumps(key) + ": ", value[key]) for key in sorted(value)]
    else:
        brackets, items = "[]", [("", item) for item in value]
    for i, (key, item) in enumerate(items):
        yield ("," if i else brackets[0]) + pad + key
        yield from _pieces(item, level + 1)
    yield pad[:-1] + brackets[1]


def dumps_json(data):
    """The one JSON text format: sorted keys, one-space indent; arrays
    are written as their nested lists."""
    return "".join(_pieces(data, 0)) + "\n"


def _write(data, path):
    with open(path, "w") as fh:
        fh.writelines(_pieces(data, 0))
        fh.write("\n")


def dumps_poly(F):
    return dumps_json(_poly_fields(F))


def loads_poly(text):
    return poly_from_dict(json.loads(text))


def save_poly(F, path):
    _write(_poly_fields(F), path)


def load_poly(path):
    with open(path) as fh:
        return loads_poly(fh.read())


def angles_to_dict(params):
    return {"side": params.side, "p": params.p, "m": params.m,
            "d": params.d, "gamma": params.gamma,
            "angles": params.angles.tolist()}


def angles_from_dict(data):
    try:
        p, m, d, gamma = (_int_field(data, key)
                          for key in ("p", "m", "d", "gamma"))
        angles = _numbers(data["angles"], "angles")
        params = AngleParams(p, m, d, gamma, np.array(angles, dtype=float))
        if data["side"] != params.side:
            raise ValueError(f"field 'side' must be {params.side!r} for a "
                             f"{p} x {m} chart, got {data['side']!r}")
        return params
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed angle data: {exc}") from exc


def save_angles(params, path):
    _write({**angles_to_dict(params), "angles": params.angles}, path)


def load_angles(path):
    with open(path) as fh:
        return angles_from_dict(json.loads(fh.read()))
