"""Shared generators and fixtures for the test suite.

Randomness is always seeded so expected values stay frozen; quiver
generation resamples anything whose truncated path count would blow past
desk scale, keeping the whole suite inside its time budget.
"""

from __future__ import annotations

import random
from fractions import Fraction
from heapq import heappop, heappush

import pytest

from coalgkit.bicomodule import Bicomodule, cotensor_tower, outer_bicomodule
from coalgkit.coalgebra import Coalgebra, comatrix, divided_power, grouplike, iterated_delta
from coalgkit.exactlin import DimensionMismatch, Matrix, Subspace, factor_through, kernel, kron, kron_mul
from coalgkit.quiver import (
    Quiver,
    arrow_bicomodule,
    cycle_quiver,
    enumerate_paths,
    kronecker_quiver,
    loop_quiver,
    vertex_coalgebra,
)


def random_matrix(rng: random.Random, rows: int, cols: int, span: int = 3) -> Matrix:
    data = {}
    for i in range(rows):
        for j in range(cols):
            v = rng.randint(-span, span)
            if v:
                data[(i, j)] = Fraction(v)
    return Matrix(rows, cols, data)


def oracle_solve(a: Matrix, b: Matrix):
    """Reference solve: one exact solution x of a x = b with the free
    variables set to zero, or None, by its own Fraction elimination and back
    substitution."""
    if a.rows != b.rows:
        raise DimensionMismatch(f"{a.shape} x = {b.shape}")
    rows = {}
    for (i, j), v in a.data.items():
        rows.setdefault(i, ({}, {}))[0][j] = v
    for (i, j), v in b.data.items():
        rows.setdefault(i, ({}, {}))[1][j] = v

    buckets = {}
    heap = []

    def register(w):
        lead = min(w[0])
        if lead in buckets:
            buckets[lead].append(w)
        else:
            buckets[lead] = [w]
            heappush(heap, lead)

    for i in sorted(rows):
        w = rows[i]
        if w[0]:
            register(w)
        elif w[1]:
            return None

    pivots = []  # (col, lhs_row, rhs_row)
    while heap:
        lead = heappop(heap)
        bucket = buckets.pop(lead)
        pivot = bucket[0]
        plhs, prhs = pivot
        pv = plhs[lead]
        for w in bucket[1:]:
            lhs, rhs = w
            f = lhs.get(lead)
            if f:
                r = f / pv
                for part, ppart in ((lhs, plhs), (rhs, prhs)):
                    for c, v in ppart.items():
                        s = part.get(c, 0) - r * v
                        if s:
                            part[c] = s
                        else:
                            part.pop(c, None)
            if lhs:
                register(w)
            elif rhs:
                return None
        pivots.append((lead, plhs, prhs))

    xby = {}  # solved variable -> {rhs column -> value}
    for lead, plhs, prhs in reversed(pivots):
        pv = plhs[lead]
        cols = set(prhs)
        for j in plhs:
            if j != lead and j in xby:
                cols.update(xby[j])
        sol = {}
        for col in cols:
            acc = prhs.get(col, 0)
            for j, v in plhs.items():
                if j != lead and j in xby:
                    acc -= v * xby[j].get(col, 0)
            if acc:
                sol[col] = acc / pv
        if sol:
            xby[lead] = sol
    return Matrix(a.cols, b.cols, {(var, col): v for var, sol in xby.items() for col, v in sol.items()})


def random_invertible(rng: random.Random, n: int) -> tuple:
    """A small invertible matrix and its exact inverse."""
    eye = Matrix.identity(n)
    u = eye
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        elem = Matrix(n, n, {(a, a): 1 for a in range(n)} | {(i, j): rng.choice((-2, -1, 1, 2))})
        u = u * elem
    inv = oracle_solve(u, eye)
    assert inv is not None and u * inv == eye
    return u, inv


def random_split_surjection(rng: random.Random, rows: int, cols: int) -> Matrix:
    """A surjection with a right inverse: a coordinate projection conjugated."""
    assert rows <= cols
    u, _ = random_invertible(rng, cols)
    proj = Matrix(rows, cols, {(i, i): 1 for i in range(rows)})
    return proj * u


def random_quiver(rng: random.Random, max_vertices=5, max_arrows=6, trunc=3, dim_cap=60) -> Quiver:
    """A random quiver whose path count up to trunc stays below dim_cap."""
    while True:
        nv = rng.randint(1, max_vertices)
        na = rng.randint(0, max_arrows)
        arrows = tuple(
            (f"a{k}", rng.randrange(nv), rng.randrange(nv)) for k in range(na)
        )
        q = Quiver(tuple(f"v{i}" for i in range(nv)), arrows)
        if len(enumerate_paths(q, trunc).paths) <= dim_cap:
            return q


def random_graded_bicomodule(rng: random.Random, c: Coalgebra, dim: int) -> Bicomodule:
    """A bicomodule over a grouplike coalgebra: each basis vector bigraded."""
    n = c.dim
    rho_l = {}
    rho_r = {}
    for j in range(dim):
        left, right = rng.randrange(n), rng.randrange(n)
        rho_l[(left * dim + j, j)] = 1
        rho_r[(j * n + right, j)] = 1
    return Bicomodule(c, dim, Matrix(n * dim, dim, rho_l), Matrix(dim * n, dim, rho_r))


def conjugated_bicomodule(rng: random.Random, m: Bicomodule) -> Bicomodule:
    """The same bicomodule in a random basis; still satisfies all axioms."""
    u, inv = random_invertible(rng, m.dim)
    eye = Matrix.identity(m.over.dim)
    return Bicomodule(
        m.over,
        m.dim,
        kron(eye, inv) * m.rho_l * u,
        kron(inv, eye) * m.rho_r * u,
    )


def random_bicomodule_over(rng: random.Random, c: Coalgebra, inner: int = 1) -> Bicomodule:
    """A randomly re-based relatively injective bicomodule over any coalgebra."""
    return conjugated_bicomodule(rng, outer_bicomodule(c, inner))


def rebased_coalgebra(c: Coalgebra, u: Matrix, inv: Matrix) -> Coalgebra:
    """The same coalgebra in new coordinates u x, for u invertible with inverse inv."""
    return Coalgebra(c.dim, kron(u, u) * c.delta * inv, c.epsilon * inv)


def permuted_coalgebra(c: Coalgebra, perm: list) -> Coalgebra:
    """The same coalgebra with basis vector i renamed perm[i]."""
    p = Matrix(c.dim, c.dim, {(perm[i], i): 1 for i in range(c.dim)})
    return rebased_coalgebra(c, p, p.transpose())


def oracle_coradical(c: Coalgebra) -> Subspace:
    """Reference coradical by the trace form of the dual algebra C*: forms
    every left multiplication L_k[a, j] = delta[(k, j), a], multiplies them
    out pairwise for tau(i, j) = trace(L_i L_j), and returns the annihilator
    of the radical of tau."""
    n = c.dim
    left_mult = []
    for k in range(n):
        data = {}
        for (row, a), v in c.delta.data.items():
            i, j = divmod(row, n)
            if i == k:
                data[(a, j)] = v
        left_mult.append(Matrix(n, n, data))
    gram = {}
    for i in range(n):
        for j in range(i, n):
            prod = left_mult[i] * left_mult[j]
            tr = sum(prod[(a, a)] for a in range(n))
            if tr:
                gram[(i, j)] = gram[(j, i)] = tr
    radical = kernel(Matrix(n, n, gram))
    if radical.dim == 0:
        return Subspace.full(n)
    return kernel(radical.basis.transpose())


def oracle_universal_components(e, f_c, f_m: Matrix, t, upto=None) -> list:
    """Reference degree-k pieces of the universal map, k = 1..upto (default
    t.trunc), by the cotensor-power route: builds E's own cotensor tower over
    the base (coactions through f_c) and returns, per degree, the pair
    (f_m^[]k : E^[]k -> M^[]k as the restriction-corestriction of f_m^(x)k
    to t.slices[k], Delta^(k-1) corestricted to E^[]k); the component is
    their product."""
    upto = t.trunc if upto is None else upto
    eye_e = Matrix.identity(e.dim)
    e_bic = Bicomodule(
        t.base, e.dim, kron_mul([f_c.map, eye_e], e.delta), kron_mul([eye_e, f_c.map], e.delta)
    )
    pieces = []
    for k, (_, chi_e) in enumerate(cotensor_tower(e_bic, upto)[1:], 1):
        power = factor_through(t.slices[k].chi, kron_mul([f_m] * k, chi_e))
        corestricted = factor_through(chi_e, iterated_delta(e, k - 1))
        pieces.append((power, corestricted))
    return pieces


def probe_system(shape, residual_fn) -> tuple:
    """Reference assembly of linear matrix constraints, by probing.

    residual_fn must be affine in X and return a list of matrices.  Calls it
    once at X = 0 and once per unknown at X = E_ab, and returns (A, b) with
    A vec(X) = b exactly when every residual vanishes: vec is row-major, and
    the residuals are vectorized row-major one after the other.
    """
    rows_u, cols_u = shape
    base = residual_fn(Matrix.zero(rows_u, cols_u))
    offsets = []
    total = 0
    for m in base:
        offsets.append(total)
        total += m.rows * m.cols

    def vectorize(mats):
        out = {}
        for m, off in zip(mats, offsets):
            for (i, j), v in m.data.items():
                out[off + i * m.cols + j] = v
        return out

    const = vectorize(base)
    coeff = {}
    for u in range(rows_u * cols_u):
        res = vectorize(residual_fn(Matrix(rows_u, cols_u, {divmod(u, cols_u): 1})))
        for k in set(res) | set(const):
            v = res.get(k, 0) - const.get(k, 0)
            if v:
                coeff[(k, u)] = v
    system = Matrix(total, rows_u * cols_u, coeff)
    return system, Matrix(total, 1, {(k, 0): -v for k, v in const.items()})


def solve_matrix_equations(shape, residual_fn):
    """A witness X making every residual vanish, or None, from probe_system."""
    x = oracle_solve(*probe_system(shape, residual_fn))
    if x is None:
        return None
    return Matrix(*shape, {divmod(u, shape[1]): v for (u, _), v in x.data.items()})


NAMED_QUIVERS = {
    "loop": loop_quiver(),
    "kronecker": kronecker_quiver(),
    "3cycle": cycle_quiver(3),
}


@pytest.fixture(scope="session")
def rng():
    return random.Random(20240817)


@pytest.fixture(scope="session")
def example_coalgebras():
    return {
        "unit": grouplike(1),
        "grouplike2": grouplike(2),
        "grouplike3": grouplike(3),
        "comatrix2": comatrix(2),
        "dp1": divided_power(1),
        "dp2": divided_power(2),
    }


@pytest.fixture(scope="session")
def acceptance_quivers():
    """The named quivers at their levels plus 25 seeded random quivers at N=3."""
    gen = random.Random(73)
    cases = [("loop", loop_quiver(), 5), ("kronecker", kronecker_quiver(), 5), ("3cycle", cycle_quiver(3), 5)]
    for k in range(25):
        cases.append((f"random{k}", random_quiver(gen), 3))
    return cases


@pytest.fixture(scope="session")
def built_truncations(acceptance_quivers):
    """Every acceptance quiver with its built truncation, shared across criteria."""
    from coalgkit.cotensor import build_truncated

    out = []
    for name, q, trunc in acceptance_quivers:
        c = vertex_coalgebra(q)
        m = arrow_bicomodule(q)
        out.append((name, q, trunc, build_truncated(c, m, trunc)))
    return out
