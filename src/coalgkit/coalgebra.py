"""Coalgebras over Q as structure matrices.

A coalgebra is (dim, delta, epsilon) with delta an n^2 x n matrix for the
comultiplication C -> C (x) C and epsilon a 1 x n matrix for the counit.
Tensor coordinates are always left-factor major: e_i (x) e_j sits at index
i * dim(right factor) + j.
"""

from __future__ import annotations

from typing import Optional

from dataclasses import dataclass

from .exactlin import (
    DimensionMismatch,
    Matrix,
    NotInImage,
    Subspace,
    cokernel,
    factor_through,
    kernel,
    kron,
    kron_mul,
)


class NotCoalgebraMap(ValueError):
    """The matrix does not intertwine the coalgebra structures."""


class NotSubcoalgebra(ValueError):
    """The subspace is not closed under the comultiplication."""


class NotBicomoduleMap(ValueError):
    """The matrix does not intertwine the coactions."""


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    ok: bool
    witness: Optional[tuple] = None  # (row, col, lhs_entry, rhs_entry)

    def __str__(self):
        if self.ok:
            return f"{self.axiom}: ok"
        i, j, a, b = self.witness
        return f"{self.axiom}: FAIL at ({i},{j}): {a} != {b}"


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def __str__(self):
        return "\n".join(f"  {c}" for c in self.checks)


def _check(axiom: str, lhs: Matrix, rhs: Matrix) -> AxiomCheck:
    diff = lhs.first_difference(rhs)
    return AxiomCheck(axiom, diff is None, diff)


@dataclass(frozen=True)
class Coalgebra:
    dim: int
    delta: Matrix
    epsilon: Matrix

    def __post_init__(self):
        n = self.dim
        if self.delta.shape != (n * n, n):
            raise DimensionMismatch(f"delta must be {n * n}x{n}, got {self.delta.shape}")
        if self.epsilon.shape != (1, n):
            raise DimensionMismatch(f"epsilon must be 1x{n}, got {self.epsilon.shape}")


def validate_coalgebra(c: Coalgebra) -> ValidationReport:
    """Check coassociativity and both counit laws as exact matrix identities."""
    n = c.dim
    eye = Matrix.identity(n)
    coassoc_l = kron_mul([c.delta, eye], c.delta)
    coassoc_r = kron_mul([eye, c.delta], c.delta)
    checks = [
        _check("coassociativity", coassoc_l, coassoc_r),
        _check("left counit", kron_mul([c.epsilon, eye], c.delta), eye),
        _check("right counit", kron_mul([eye, c.epsilon], c.delta), eye),
    ]
    return ValidationReport(tuple(checks))


@dataclass(frozen=True)
class CoalgebraMap:
    source: Coalgebra
    target: Coalgebra
    map: Matrix

    def __post_init__(self):
        if self.map.shape != (self.target.dim, self.source.dim):
            raise DimensionMismatch(
                f"map must be {self.target.dim}x{self.source.dim}, got {self.map.shape}"
            )
        lhs = self.target.delta * self.map
        rhs = kron_mul([self.map, self.map], self.source.delta)
        diff = lhs.first_difference(rhs)
        if diff is not None:
            raise NotCoalgebraMap(f"comultiplication not intertwined, first mismatch {diff}")
        diff = (self.target.epsilon * self.map).first_difference(self.source.epsilon)
        if diff is not None:
            raise NotCoalgebraMap(f"counit not preserved, first mismatch {diff}")

    def __mul__(self, other: "CoalgebraMap") -> "CoalgebraMap":
        if other.target is not self.source and other.target != self.source:
            raise DimensionMismatch("maps are not composable")
        return CoalgebraMap(other.source, self.target, self.map * other.map)


# -- constructors -------------------------------------------------------------


def grouplike(n: int) -> Coalgebra:
    """n grouplike elements: delta(e_i) = e_i (x) e_i, epsilon(e_i) = 1."""
    if n < 1:
        raise ValueError("need at least one grouplike element")
    delta = Matrix(n * n, n, {(i * n + i, i): 1 for i in range(n)})
    eps = Matrix(1, n, {(0, i): 1 for i in range(n)})
    return Coalgebra(n, delta, eps)


def comatrix(n: int) -> Coalgebra:
    """The n x n comatrix coalgebra: delta(e_ij) = sum_k e_ik (x) e_kj."""
    d = n * n
    data = {}
    for i in range(n):
        for j in range(n):
            col = i * n + j
            for k in range(n):
                data[((i * n + k) * d + (k * n + j), col)] = 1
    eps = Matrix(1, d, {(0, i * n + i): 1 for i in range(n)})
    return Coalgebra(d, Matrix(d * d, d, data), eps)


def divided_power(trunc: int) -> Coalgebra:
    """Truncated divided-power coalgebra: delta(p_k) = sum_{a+b=k} p_a (x) p_b."""
    n = trunc + 1
    data = {}
    for k in range(n):
        for a in range(k + 1):
            data[(a * n + (k - a), k)] = 1
    eps = Matrix(1, n, {(0, 0): 1})
    return Coalgebra(n, Matrix(n * n, n, data), eps)


def unit_coalgebra() -> Coalgebra:
    return grouplike(1)


# -- iterated comultiplication -----------------------------------------------


def iterated_delta(c: Coalgebra, n: int) -> Matrix:
    """delta^n : C -> C^(x)(n+1); delta^0 = id, delta^(k) = (delta^(k-1) (x) C) delta."""
    if n < 0:
        raise ValueError("iteration count must be nonnegative")
    if n == 0:
        return Matrix.identity(c.dim)
    eye = Matrix.identity(c.dim)
    out = c.delta
    for _ in range(n - 1):
        out = kron_mul([out, eye], c.delta)
    return out


# -- the dual algebra and the coradical ----------------------------------------


@dataclass(frozen=True)
class DualAlgebra:
    dim: int
    mult: Matrix  # n x n^2
    unit: Matrix  # n x 1


def dual_algebra(c: Coalgebra) -> DualAlgebra:
    """Transpose the structure maps under (C (x) C)* = C* (x) C*; checked associative."""
    n = c.dim
    mult = c.delta.transpose()
    unit = c.epsilon.transpose()
    eye = Matrix.identity(n)
    if mult * kron(mult, eye) != mult * kron(eye, mult):
        raise AssertionError("dual multiplication is not associative")
    if mult * kron(unit, eye) != eye or mult * kron(eye, unit) != eye:
        raise AssertionError("dual unit law fails")
    return DualAlgebra(n, mult, unit)


def coradical(c: Coalgebra) -> Subspace:
    """Largest cosemisimple subcoalgebra, as the annihilator of rad(C*).

    Over a characteristic-zero field the Jacobson radical of the
    finite-dimensional dual algebra is the radical of the trace form
    tau(a, b) = trace of left multiplication by ab, so the coradical is the
    orthogonal of that radical under the evaluation pairing.
    """
    alg = dual_algebra(c)
    n = c.dim
    left_mult = []
    for k in range(n):
        data = {}
        for (a, col), v in alg.mult.data.items():
            i, j = divmod(col, n)
            if i == k:
                data[(a, j)] = data.get((a, j), 0) + v
        left_mult.append(Matrix(n, n, data))
    gram = {}
    for i in range(n):
        for j in range(i, n):
            prod = left_mult[i] * left_mult[j]
            tr = sum(prod[(a, a)] for a in range(n))
            if tr:
                gram[(i, j)] = tr
                gram[(j, i)] = tr
    radical = kernel(Matrix(n, n, gram))
    if radical.dim == 0:
        return Subspace.full(n)
    return kernel(radical.basis.transpose())


# -- subcoalgebras --------------------------------------------------------------


@dataclass(frozen=True)
class Subcoalgebra:
    """A subspace of a coalgebra together with its verified coalgebra structure."""

    ambient: Coalgebra
    subspace: Subspace
    coalgebra: Coalgebra
    inclusion: CoalgebraMap

    @property
    def dim(self) -> int:
        return self.subspace.dim


def subcoalgebra_on(c: Coalgebra, s: Subspace) -> Subcoalgebra:
    """Equip a subspace with the restricted coalgebra structure; verify it."""
    if s.ambient_dim != c.dim:
        raise DimensionMismatch("subspace does not live in the coalgebra")
    inc = s.basis
    try:
        delta_d = factor_through(kron(inc, inc), c.delta * inc)
    except NotInImage as exc:
        raise NotSubcoalgebra(f"delta does not restrict: {exc}") from exc
    sub = Coalgebra(s.dim, delta_d, c.epsilon * inc)
    report = validate_coalgebra(sub)
    if not report.passed:
        raise NotSubcoalgebra(f"restricted structure fails axioms:\n{report}")
    return Subcoalgebra(c, s, sub, CoalgebraMap(sub, c, inc))


def kernel_subcoalgebra(c: Coalgebra, f: Matrix, target) -> tuple:
    """Coalgebra structure on Ker(f) for a bicomodule morphism f : C -> L.

    C is regarded as a bicomodule over itself via delta; target supplies the
    coactions of L.  Returns (coalgebra, inclusion map).
    """
    n = c.dim
    eye = Matrix.identity(n)
    if f.shape != (target.dim, n):
        raise DimensionMismatch(f"f must be {target.dim}x{n}")
    if target.rho_l * f != kron_mul([eye, f], c.delta):
        raise NotBicomoduleMap("left coaction not intertwined")
    if target.rho_r * f != kron_mul([f, eye], c.delta):
        raise NotBicomoduleMap("right coaction not intertwined")
    ker = kernel(f)
    inc = ker.basis
    delta_d = factor_through(kron(inc, inc), c.delta * inc)
    sub = Coalgebra(ker.dim, delta_d, c.epsilon * inc)
    report = validate_coalgebra(sub)
    if not report.passed:
        raise AssertionError(f"kernel coalgebra fails axioms:\n{report}")
    return sub, CoalgebraMap(sub, c, inc)


# -- wedges ---------------------------------------------------------------------


def wedge(c: Coalgebra, x: Subspace, y: Subspace) -> Subspace:
    """X wedge Y = Ker[(p_X (x) p_Y) delta] for the canonical quotient maps."""
    if x.ambient_dim != c.dim or y.ambient_dim != c.dim:
        raise DimensionMismatch("subspaces must live in the coalgebra")
    p_x, _ = cokernel(x.basis)
    p_y, _ = cokernel(y.basis)
    return kernel(kron_mul([p_x, p_y], c.delta))


def _wedge_power_maps(c: Coalgebra, proj: Matrix, n_max: int):
    """Yield (n, p^(x)n . delta^(n-1)) for n = 1 .. n_max without forming p^(x)n."""
    current = proj
    yield 1, current
    for n in range(2, n_max + 1):
        current = kron_mul([current, proj], c.delta)
        yield n, current


def _recheck_subcoalgebra(c: Coalgebra, sub: Subcoalgebra):
    # cheap re-verification instead of trusting the carrier
    if sub.ambient != c or sub.inclusion.target != c:
        raise NotSubcoalgebra("subcoalgebra belongs to a different coalgebra")
    if sub.inclusion.map != sub.subspace.basis or sub.inclusion.source != sub.coalgebra:
        raise NotSubcoalgebra("inclusion does not match the carried subspace")


def wedge_power(c: Coalgebra, sub: Subcoalgebra, n: int) -> Subspace:
    """n-th wedge power Ker(p^(x)n delta^(n-1)); the 0-th power is zero."""
    _recheck_subcoalgebra(c, sub)
    if n < 0:
        raise ValueError("wedge power must be nonnegative")
    if n == 0:
        return Subspace.zero(c.dim)
    proj, _ = cokernel(sub.inclusion.map)
    result = None
    for k, mat in _wedge_power_maps(c, proj, n):
        if k == n:
            result = kernel(mat)
    return result


@dataclass(frozen=True)
class WedgeFiltration:
    chain: tuple  # increasing wedge powers, first repeat omitted
    stabilized: Subspace
    loewy_length: int


def wedge_filtration(c: Coalgebra, sub: Subcoalgebra) -> WedgeFiltration:
    """Increasing chain of wedge powers up to its first stabilization."""
    _recheck_subcoalgebra(c, sub)
    proj, _ = cokernel(sub.inclusion.map)
    chain = []
    prev = None
    for _, mat in _wedge_power_maps(c, proj, c.dim + 1):
        term = kernel(mat)
        if prev is not None and term == prev:
            return WedgeFiltration(tuple(chain), prev, len(chain))
        chain.append(term)
        prev = term
    # dimensions strictly increase until stabilization, so this is unreachable
    raise AssertionError("wedge filtration failed to stabilize")
