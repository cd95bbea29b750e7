"""Second routes for checking answers, written without coalgkit's algorithms.

Path counts come from powers of the adjacency matrix, the path coalgebra
from the benchmark's own path enumeration, and invertibility from a rank
modulo a prime.  Identities are evaluated column by column on plain
dictionaries of Fractions, with tensor products applied factor by factor,
so a defect in coalgkit's own matrix arithmetic cannot hide behind a check.
"""

from __future__ import annotations

from fractions import Fraction

PRIME = (1 << 61) - 1


def path_counts(n_vertices: int, arrows, trunc: int) -> list:
    """Number of composable paths of each length 0..trunc, by adjacency powers."""
    adj = [[0] * n_vertices for _ in range(n_vertices)]
    for _, s, t in arrows:
        adj[s][t] += 1
    counts = [n_vertices]
    walk = [[int(i == j) for j in range(n_vertices)] for i in range(n_vertices)]
    for _ in range(trunc):
        walk = [
            [sum(walk[i][k] * adj[k][j] for k in range(n_vertices)) for j in range(n_vertices)]
            for i in range(n_vertices)
        ]
        counts.append(sum(map(sum, walk)))
    return counts


def path_basis(n_vertices: int, arrows, trunc: int) -> list:
    """Paths as (arrow tuple, source, target) in coalgkit's basis order.

    Arrow tuples list the latest arrow first.  The order is by length,
    then lexicographic in the arrow tuple; vertex paths come first.
    """
    level = [((), v, v) for v in range(n_vertices)]
    out = list(level)
    for _ in range(trunc):
        nxt = [
            ((j,) + word, src, t)
            for j, (_, s, t) in enumerate(arrows)
            for word, src, tgt in level
            if tgt == s
        ]
        nxt.sort(key=lambda p: p[0])
        out.extend(nxt)
        level = nxt
    return out


def _columns(m) -> list:
    cols = [dict() for _ in range(m.cols)]
    for (i, j), v in m.data.items():
        cols[j][i] = Fraction(v)
    return cols


def _add_into(acc: dict, vec: dict, scale) -> None:
    for i, v in vec.items():
        s = acc.get(i, 0) + scale * v
        if s:
            acc[i] = s
        else:
            acc.pop(i, None)


class _Factor:
    """A matrix, or a tensor product of two, applied to sparse column vectors."""

    def __init__(self, spec):
        if isinstance(spec, tuple):
            a, b = spec
            self.parts = (_columns(a), _columns(b), b.rows, b.cols)
            self.rows, self.cols = a.rows * b.rows, a.cols * b.cols
        else:
            self.parts = (_columns(spec),)
            self.rows, self.cols = spec.rows, spec.cols

    def apply(self, vec: dict) -> dict:
        out = {}
        if len(self.parts) == 1:
            cols = self.parts[0]
            for j, v in vec.items():
                _add_into(out, cols[j], v)
            return out
        a_cols, b_cols, b_rows, b_width = self.parts
        for idx, v in vec.items():
            i, k = divmod(idx, b_width)
            for r, x in a_cols[i].items():
                base = r * b_rows
                for s, y in b_cols[k].items():
                    key = base + s
                    t = out.get(key, 0) + v * x * y
                    if t:
                        out[key] = t
                    else:
                        out.pop(key, None)
        return out


def _product_columns(specs) -> list:
    factors = [_Factor(s) for s in specs]
    out = []
    for j in range(factors[-1].cols):
        vec = {j: Fraction(1)}
        for f in reversed(factors):
            vec = f.apply(vec)
        out.append(vec)
    return out


def identity_holds(lhs, rhs) -> bool:
    """Exact check that two products of matrices agree.

    Each side is a list of factors, applied right to left; a factor is a
    coalgkit matrix or a pair (A, B) standing for the tensor product A (x) B.
    Pass ``"id"`` as the right-hand side to compare with the identity.
    """
    left = _product_columns(lhs)
    if rhs == "id":
        return left == [{j: 1} for j in range(len(left))]
    return left == _product_columns(rhs)


def path_coalgebra_iso_ok(delta, epsilon, iso, arrows, paths) -> bool:
    """iso carries the deconcatenation coproduct of paths to (delta, epsilon).

    Checks Delta(iso p) = sum over splits of iso(left) (x) iso(right) and
    eps(iso p) = [p has length 0] for every path p, exactly.
    """
    dim = iso.rows
    if iso.cols != len(paths) or delta.shape != (dim * dim, dim) or epsilon.shape != (1, dim):
        return False
    index = {word: k for k, (word, _, _) in enumerate(paths) if word}
    vertex = {s: k for k, (word, s, _) in enumerate(paths) if not word}
    iso_cols = _columns(iso)
    delta_f = _Factor(delta)
    eps_f = _Factor(epsilon)
    for k, (word, src, tgt) in enumerate(paths):
        lhs = delta_f.apply(iso_cols[k])
        rhs = {}
        ell = len(word)
        for cut in range(ell + 1):
            left, right = word[: ell - cut], word[ell - cut :]
            li = index[left] if left else vertex[tgt]
            ri = index[right] if right else vertex[src]
            for a, x in iso_cols[li].items():
                _add_into(rhs, {a * dim + b: x * y for b, y in iso_cols[ri].items()}, 1)
        if lhs != rhs:
            return False
        if eps_f.apply(iso_cols[k]).get(0, 0) != (1 if ell == 0 else 0):
            return False
    return True


def rank_mod_p(m) -> int:
    """Rank of a rational matrix modulo a 61-bit prime (never above the rank over Q)."""
    pivots = {}
    rows = {}
    for (i, j), v in m.data.items():
        v = Fraction(v)
        rows.setdefault(i, {})[j] = v.numerator * pow(v.denominator, -1, PRIME) % PRIME
    for row in rows.values():
        row = {j: v for j, v in row.items() if v}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(row[lead], -1, PRIME)
                pivots[lead] = {j: v * inv % PRIME for j, v in row.items()}
                break
            f = row[lead]
            for j, v in pivot.items():
                s = (row.get(j, 0) - f * v) % PRIME
                if s:
                    row[j] = s
                else:
                    row.pop(j, None)
    return len(pivots)
