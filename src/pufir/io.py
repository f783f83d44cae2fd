"""JSON file formats for polynomials and angle parameters.

Complex entries are stored as [re, im] pairs; floats serialize with
Python's shortest round-trip repr, so save/load is bit-exact and the
output bytes are deterministic.
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


def complex_pairs(M):
    """Nested lists of [re, im] float pairs for a complex array."""
    return np.stack([M.real, M.imag], -1).tolist()


def poly_to_dict(F):
    return {"p": F.p, "m": F.m, "q": F.q, "n": F.n,
            "coeffs": complex_pairs(F.coeffs)}


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


def poly_from_dict(data):
    try:
        q = _int_field(data, "q")
        coeffs = [np.array([[complex(re, im) for re, im in
                             (_numbers(pair, "coeffs") for pair in row)]
                            for row in B]) for B in data["coeffs"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed polynomial data: {exc}") from exc
    F = LaurentPoly(q, coeffs)
    for key, val in (("p", F.p), ("m", F.m), ("n", F.n)):
        if key in data and _int_field(data, key) != val:
            raise ValueError(f"inconsistent field {key!r} in polynomial file")
    return F


def dumps_json(data):
    """The one JSON text format: sorted keys, one-space indent."""
    return json.dumps(data, sort_keys=True, separators=(",", ": "),
                      indent=1) + "\n"


def dumps_poly(F):
    return dumps_json(poly_to_dict(F))


def loads_poly(text):
    return poly_from_dict(json.loads(text))


def save_poly(F, path):
    with open(path, "w") as fh:
        fh.write(dumps_poly(F))


def load_poly(path):
    with open(path) as fh:
        return loads_poly(fh.read())


def angles_to_dict(params):
    return {"side": params.side, "p": params.p, "m": params.m,
            "d": params.d, "gamma": params.gamma,
            "angles": [float(a) for a in params.angles]}


def angles_from_dict(data):
    try:
        p, m, d, gamma = (_int_field(data, key)
                          for key in ("p", "m", "d", "gamma"))
        angles = _numbers(data["angles"], "angles")
        return AngleParams(data["side"], p, m, d, gamma,
                           np.array(angles, dtype=float))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed angle data: {exc}") from exc


def save_angles(params, path):
    with open(path, "w") as fh:
        fh.write(dumps_json(angles_to_dict(params)))


def load_angles(path):
    with open(path) as fh:
        return angles_from_dict(json.loads(fh.read()))
