"""Canonical JSON encoding for matrices and the structures built on them.

Rationals are written as plain integers when possible and otherwise as
"p/q" strings in lowest terms with the sign on the numerator.  Encoding is
canonical: re-encoding a decoded value reproduces the bytes exactly.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .exactlin import Matrix, rational


class FormatError(ValueError):
    """Malformed input file."""


def encode_rational(v: Fraction):
    if v.denominator == 1:
        return int(v)
    return f"{v.numerator}/{v.denominator}"


def decode_rational(v) -> Fraction:
    if isinstance(v, bool) or isinstance(v, float):
        raise FormatError(f"entry {v!r} is not an exact rational")
    try:
        return rational(v)
    except (TypeError, ValueError) as exc:
        raise FormatError(str(exc)) from exc


def _decode_dim(v, what: str) -> int:
    """A dimension from a file: a nonnegative int, and never a bool or a float."""
    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
        raise FormatError(f"{what} must be a nonnegative integer, got {v!r}")
    return v


def matrix_to_obj(m: Matrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[encode_rational(v) for v in row] for row in m.to_rows()],
    }


def matrix_from_obj(obj) -> Matrix:
    if not isinstance(obj, dict) or not {"rows", "cols", "entries"} <= set(obj):
        raise FormatError("matrix object needs rows, cols and entries")
    rows, cols = _decode_dim(obj["rows"], "rows"), _decode_dim(obj["cols"], "cols")
    entries = obj["entries"]
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise FormatError(f"entries do not form a {rows}x{cols} grid")
    data = {}
    for i, row in enumerate(entries):
        for j, v in enumerate(row):
            v = decode_rational(v)
            if v:
                data[(i, j)] = v
    return Matrix(rows, cols, data)


def coalgebra_to_obj(c) -> dict:
    return {
        "dim": c.dim,
        "delta": matrix_to_obj(c.delta),
        "epsilon": matrix_to_obj(c.epsilon),
    }


def coalgebra_from_obj(obj):
    from .coalgebra import Coalgebra

    if not isinstance(obj, dict) or not {"dim", "delta", "epsilon"} <= set(obj):
        raise FormatError("coalgebra object needs dim, delta and epsilon")
    return Coalgebra(
        dim=_decode_dim(obj["dim"], "coalgebra dim"),
        delta=matrix_from_obj(obj["delta"]),
        epsilon=matrix_from_obj(obj["epsilon"]),
    )


def bicomodule_to_obj(m) -> dict:
    return {
        "over": coalgebra_to_obj(m.over),
        "dim": m.dim,
        "rho_l": matrix_to_obj(m.rho_l),
        "rho_r": matrix_to_obj(m.rho_r),
    }


def bicomodule_from_obj(obj, base_dir=None):
    from .bicomodule import Bicomodule

    if not isinstance(obj, dict) or not {"over", "dim", "rho_l", "rho_r"} <= set(obj):
        raise FormatError("bicomodule object needs over, dim, rho_l and rho_r")
    over = obj["over"]
    if isinstance(over, str):
        import os

        path = over if base_dir is None else os.path.join(base_dir, over)
        over = load_json(path)
    coalg = coalgebra_from_obj(over) if isinstance(over, dict) else over
    return Bicomodule(
        over=coalg,
        dim=_decode_dim(obj["dim"], "bicomodule dim"),
        rho_l=matrix_from_obj(obj["rho_l"]),
        rho_r=matrix_from_obj(obj["rho_r"]),
    )


def cochain_to_obj(c) -> dict:
    return {"degree": c.degree, "value": matrix_to_obj(c.value)}


def cochain_from_obj(obj):
    from .cohomology import Cochain

    if not isinstance(obj, dict) or not {"degree", "value"} <= set(obj):
        raise FormatError("cochain object needs degree and value")
    return Cochain(degree=obj["degree"], value=matrix_from_obj(obj["value"]))


def truncated_to_obj(t, include_maps: bool = False) -> dict:
    obj = {
        "total": coalgebra_to_obj(t.total),
        "trunc": t.trunc,
        "grading": list(t.grading),
        "base": coalgebra_to_obj(t.base),
        "input": bicomodule_to_obj(t.input),
    }
    if include_maps:
        obj["inclusions"] = [matrix_to_obj(m) for m in t.inclusions]
        obj["projections"] = [matrix_to_obj(m) for m in t.projections]
    return obj


def truncated_from_obj(obj):
    from .bicomodule import Bicomodule
    from .cotensor import build_truncated
    from .exactlin import kron_mul

    if not isinstance(obj, dict) or not {"total", "trunc", "grading"} <= set(obj):
        raise FormatError("truncated object needs total, trunc and grading")
    total = coalgebra_from_obj(obj["total"])
    grading = list(obj["grading"])
    if {"base", "input"} <= set(obj):
        base = coalgebra_from_obj(obj["base"])
        inp = bicomodule_from_obj(obj["input"])
    elif obj["trunc"] >= 1 and len(grading) >= 2:
        # the base and the degree-one slice sit in the leading corner blocks
        d0, d1 = grading[0], grading[1]
        i0 = Matrix(total.dim, d0, {(i, i): 1 for i in range(d0)})
        i1 = Matrix(total.dim, d1, {(d0 + i, i): 1 for i in range(d1)})
        p0, p1 = i0.transpose(), i1.transpose()
        base = coalgebra_from_obj(
            {
                "dim": d0,
                "delta": matrix_to_obj(kron_mul([p0, p0], total.delta) * i0),
                "epsilon": matrix_to_obj(total.epsilon * i0),
            }
        )
        inp = Bicomodule(
            base,
            d1,
            kron_mul([p0, p1], total.delta) * i1,
            kron_mul([p1, p0], total.delta) * i1,
        )
    else:
        raise FormatError("degree-zero truncations need embedded base and input")
    t = build_truncated(base, inp, obj["trunc"])
    if list(t.grading) != grading:
        raise FormatError("grading does not match the rebuilt object")
    if t.total.delta != total.delta or t.total.epsilon != total.epsilon:
        raise FormatError("stored comultiplication does not match the rebuilt object")
    return t


def subspace_to_obj(s) -> dict:
    return {"ambient_dim": s.ambient_dim, "basis": matrix_to_obj(s.basis)}


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: {exc}") from exc


def save_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
