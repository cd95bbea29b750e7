"""Bicomodules over a coalgebra and their cotensor products.

A bicomodule is (over, dim, rho_l, rho_r) with rho_l : M -> C (x) M and
rho_r : M -> M (x) C.  Cotensor products are computed as equalizer kernels
inside the tensor product and are always carried together with their
concrete inclusion into the ambient tensor power.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coalgebra import (
    Coalgebra,
    NotBicomoduleMap,
    ValidationReport,
    _check,
)
from .exactlin import (
    DimensionMismatch,
    Matrix,
    factor_through,
    kernel,
    kron,
    kron_mul,
    solve,
)


class CoalgebraMismatch(ValueError):
    """The operands are bicomodules over different coalgebras."""


@dataclass(frozen=True)
class Bicomodule:
    over: Coalgebra
    dim: int
    rho_l: Matrix  # (n*m) x m
    rho_r: Matrix  # (m*n) x m

    def __post_init__(self):
        n, m = self.over.dim, self.dim
        if self.rho_l.shape != (n * m, m):
            raise DimensionMismatch(f"rho_l must be {n * m}x{m}, got {self.rho_l.shape}")
        if self.rho_r.shape != (m * n, m):
            raise DimensionMismatch(f"rho_r must be {m * n}x{m}, got {self.rho_r.shape}")


def validate_bicomodule(m: Bicomodule) -> ValidationReport:
    """Coassociativity, counit and compatibility of the two coactions."""
    c = m.over
    n, md = c.dim, m.dim
    eye_c = Matrix.identity(n)
    eye_m = Matrix.identity(md)
    checks = [
        _check(
            "left coassociativity",
            kron_mul([c.delta, eye_m], m.rho_l),
            kron_mul([eye_c, m.rho_l], m.rho_l),
        ),
        _check(
            "right coassociativity",
            kron_mul([eye_m, c.delta], m.rho_r),
            kron_mul([m.rho_r, eye_c], m.rho_r),
        ),
        _check("left counit", kron_mul([c.epsilon, eye_m], m.rho_l), eye_m),
        _check("right counit", kron_mul([eye_m, c.epsilon], m.rho_r), eye_m),
        _check(
            "compatibility",
            kron_mul([eye_c, m.rho_r], m.rho_l),
            kron_mul([m.rho_l, eye_c], m.rho_r),
        ),
    ]
    return ValidationReport(tuple(checks))


@dataclass(frozen=True)
class BicomoduleMap:
    source: Bicomodule
    target: Bicomodule
    map: Matrix

    def __post_init__(self):
        if self.source.over != self.target.over:
            raise CoalgebraMismatch("source and target live over different coalgebras")
        if self.map.shape != (self.target.dim, self.source.dim):
            raise DimensionMismatch(
                f"map must be {self.target.dim}x{self.source.dim}, got {self.map.shape}"
            )
        eye = Matrix.identity(self.source.over.dim)
        if self.target.rho_l * self.map != kron_mul([eye, self.map], self.source.rho_l):
            raise NotBicomoduleMap("left coaction not intertwined")
        if self.target.rho_r * self.map != kron_mul([self.map, eye], self.source.rho_r):
            raise NotBicomoduleMap("right coaction not intertwined")


def regular_bicomodule(c: Coalgebra) -> Bicomodule:
    """C over itself, both coactions given by the comultiplication."""
    return Bicomodule(c, c.dim, c.delta, c.delta)


def outer_bicomodule(c: Coalgebra, inner_dim: int) -> Bicomodule:
    """C (x) X (x) C with the outer coactions delta (x) X (x) C and C (x) X (x) delta."""
    n = c.dim
    dim = n * inner_dim * n
    rho_l = kron(c.delta, Matrix.identity(inner_dim * n))
    rho_r = kron(Matrix.identity(n * inner_dim), c.delta)
    return Bicomodule(c, dim, rho_l, rho_r)


def tensor_square_bicomodule(c: Coalgebra) -> Bicomodule:
    """C (x) C with the outer coactions; the codomain of delta as a bicomodule map."""
    return outer_bicomodule(c, 1)


# -- cotensor products ---------------------------------------------------------


def cotensor(v: Bicomodule, w: Bicomodule):
    """Equalizer of rho_r_V (x) W and V (x) rho_l_W inside V (x) W.

    Returns (bicomodule, chi) where chi is the canonical inclusion into the
    tensor product of the underlying spaces.
    """
    if v.over != w.over:
        raise CoalgebraMismatch("cotensor factors live over different coalgebras")
    c = v.over
    eye_v = Matrix.identity(v.dim)
    eye_w = Matrix.identity(w.dim)
    eye_c = Matrix.identity(c.dim)
    equalizer = kron(v.rho_r, eye_w) - kron(eye_v, w.rho_l)
    chi = kernel(equalizer).basis
    rho_l = factor_through(kron(eye_c, chi), kron_mul([v.rho_l, eye_w], chi))
    rho_r = factor_through(kron(chi, eye_c), kron_mul([eye_v, w.rho_r], chi))
    result = Bicomodule(c, chi.cols, rho_l, rho_r)
    report = validate_bicomodule(result)
    if not report.passed:
        raise AssertionError(f"cotensor product fails bicomodule axioms:\n{report}")
    return result, chi


def cotensor_tower(m: Bicomodule, n: int) -> list:
    """Cotensor powers 0..n of m, each with its inclusion into M^(x)k.

    Degree 0 is the base coalgebra as the regular bicomodule; its "inclusion"
    is the identity on C since the zeroth tensor power is the ground field.
    """
    if n < 0:
        raise ValueError("cotensor power must be nonnegative")
    c = m.over
    tower = [(regular_bicomodule(c), Matrix.identity(c.dim))]
    if n == 0:
        return tower
    tower.append((m, Matrix.identity(m.dim)))
    eye_m = Matrix.identity(m.dim)
    for k in range(2, n + 1):
        prev, chi_prev = tower[k - 1]
        step, chi_step = cotensor(prev, m)
        chi = kron_mul([chi_prev, eye_m], chi_step)
        tower.append((step, chi))
    return tower


def cotensor_power(m: Bicomodule, n: int):
    """(M^[]n, chi_n) with chi_n the composite inclusion into M^(x)n."""
    return cotensor_tower(m, n)[n]


def cotensor_of_maps(f: BicomoduleMap, g: BicomoduleMap) -> Matrix:
    """Restriction-corestriction of f (x) g to the cotensor subspaces."""
    _, chi_src = cotensor(f.source, g.source)
    _, chi_tgt = cotensor(f.target, g.target)
    return factor_through(chi_tgt, kron_mul([f.map, g.map], chi_src))


# -- induced structures on kernels and cokernels -------------------------------


def induced_on_kernel(f: BicomoduleMap):
    """Ker(f) with its induced coactions; returns (bicomodule, inclusion map)."""
    c = f.source.over
    eye_c = Matrix.identity(c.dim)
    inc = kernel(f.map).basis
    rho_l = factor_through(kron(eye_c, inc), f.source.rho_l * inc)
    rho_r = factor_through(kron(inc, eye_c), f.source.rho_r * inc)
    ker = Bicomodule(c, inc.cols, rho_l, rho_r)
    report = validate_bicomodule(ker)
    if not report.passed:
        raise AssertionError(f"kernel bicomodule fails axioms:\n{report}")
    return ker, BicomoduleMap(ker, f.source, inc)


def induced_on_cokernel(f: BicomoduleMap):
    """Coker(f) with its descended coactions; returns (bicomodule, projection map)."""
    from .exactlin import cokernel

    c = f.source.over
    eye_c = Matrix.identity(c.dim)
    proj, qdim = cokernel(f.map)
    section = solve(proj, Matrix.identity(qdim))
    if section is None:
        raise AssertionError("cokernel projection has no right inverse")
    pushed_l = kron_mul([eye_c, proj], f.target.rho_l)
    pushed_r = kron_mul([proj, eye_c], f.target.rho_r)
    rho_l = pushed_l * section
    rho_r = pushed_r * section
    # the coactions must descend, not just factor through the chosen section
    if rho_l * proj != pushed_l:
        raise AssertionError("left coaction does not descend to the cokernel")
    if rho_r * proj != pushed_r:
        raise AssertionError("right coaction does not descend to the cokernel")
    cok = Bicomodule(c, qdim, rho_l, rho_r)
    report = validate_bicomodule(cok)
    if not report.passed:
        raise AssertionError(f"cokernel bicomodule fails axioms:\n{report}")
    return cok, BicomoduleMap(f.target, cok, proj)


# -- unit constraints -----------------------------------------------------------


def unit_left(m: Bicomodule):
    """The inverse pair of isomorphisms M -> C [] M and C [] M -> M."""
    c = m.over
    _, chi = cotensor(regular_bicomodule(c), m)
    fwd = factor_through(chi, m.rho_l)
    back = kron_mul([c.epsilon, Matrix.identity(m.dim)], chi)
    return fwd, back


def unit_right(m: Bicomodule):
    """The inverse pair of isomorphisms M -> M [] C and M [] C -> M."""
    c = m.over
    _, chi = cotensor(m, regular_bicomodule(c))
    fwd = factor_through(chi, m.rho_r)
    back = kron_mul([Matrix.identity(m.dim), c.epsilon], chi)
    return fwd, back
