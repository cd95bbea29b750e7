"""The standard complex of a coalgebra with bicomodule coefficients, the
extensions classified by its 2-cocycles, and the derived decision
procedures: coseparability, relative injectivity, formal smoothness.

A degree-n cochain is a linear map L -> C^(x)n.  The differential
alternates the two coactions on the outside with the comultiplication
applied in each inner position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .bicomodule import (
    Bicomodule,
    BicomoduleMap,
    induced_on_cokernel,
    regular_bicomodule,
    tensor_square_bicomodule,
)
from .coalgebra import Coalgebra, CoalgebraMap, NotCoalgebraMap, validate_coalgebra
from .exactlin import (
    DimensionMismatch,
    Matrix,
    Subspace,
    column_space,
    kernel,
    kron_mul,
    linear_system,
    solve,
)


class NotACocycle(ValueError):
    def __init__(self, witness: Matrix):
        super().__init__("the square of the differential witness is nonzero")
        self.witness = witness


class InternalCheckFailed(AssertionError):
    """A mathematically guaranteed verification failed; convention bug."""


@dataclass(frozen=True)
class Cochain:
    degree: int
    value: Matrix  # C^(x)degree rows, L columns (degree 0: one row)

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("cochain degree must be nonnegative")


def _check_shape(c: Coalgebra, l: Bicomodule, f: Cochain):
    expected = c.dim**f.degree
    if f.value.shape != (expected, l.dim):
        raise DimensionMismatch(
            f"degree-{f.degree} cochain must be {expected}x{l.dim}, got {f.value.shape}"
        )


def face(c: Coalgebra, l: Bicomodule, f: Cochain, i: int) -> Matrix:
    """The i-th face of a degree-n cochain, 0 <= i <= n + 1.

    Face 0 pushes through the right coaction, face n + 1 through the left
    coaction, and face i for 0 < i <= n comultiplies the i-th tensor slot
    counted from the right.
    """
    _check_shape(c, l, f)
    n = f.degree
    if not 0 <= i <= n + 1:
        raise ValueError(f"face index {i} out of range for degree {n}")
    nn = c.dim
    if i == 0:
        return kron_mul([f.value, Matrix.identity(nn)], l.rho_r)
    if i == n + 1:
        return kron_mul([Matrix.identity(nn), f.value], l.rho_l)
    return kron_mul(
        [Matrix.identity(nn ** (n - i)), c.delta, Matrix.identity(nn ** (i - 1))],
        f.value,
    )


def differential(c: Coalgebra, l: Bicomodule, f: Cochain) -> Cochain:
    """b(f) = alternating sum of the faces; raises the degree by one."""
    n = f.degree
    out = Matrix.zero(c.dim ** (n + 1), l.dim)
    for i in range(n + 2):
        term = face(c, l, f, i)
        out = out + (term if i % 2 == 0 else -term)
    return Cochain(n + 1, out)


def differential_matrix(c: Coalgebra, l: Bicomodule, degree: int) -> Matrix:
    """b^degree as a matrix on vectorized cochains (index = row * dim L + col)."""
    n, eye = c.dim, Matrix.identity(c.dim)
    faces = [(1, [], [None, eye], [l.rho_r]), ((-1) ** (degree + 1), [], [eye, None], [l.rho_l])]
    for i in range(1, degree + 1):
        inner = [Matrix.identity(n ** (degree - i)), c.delta, Matrix.identity(n ** (i - 1))]
        faces.append(((-1) ** i, inner, [None], []))
    zero = Matrix.zero(n ** (degree + 1), l.dim)
    return linear_system((n**degree, l.dim), [(faces, zero)])[0]


def _vectorize(f: Matrix) -> Matrix:
    m = f.cols
    return Matrix(f.rows * m, 1, {(i * m + j, 0): v for (i, j), v in f.data.items()})


def _unvectorize(v: Matrix, rows: int, cols: int) -> Matrix:
    return Matrix(rows, cols, {divmod(i, cols): val for (i, _), val in v.data.items()})


@dataclass(frozen=True)
class CohomologyResult:
    degree: int
    dim: int
    representatives: tuple  # cocycle Cochains spanning the quotient


def cohomology(c: Coalgebra, l: Bicomodule, degree: int) -> CohomologyResult:
    """dim Ker(b^degree) - rank(b^(degree-1)) with explicit representatives."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    n, m = c.dim, l.dim
    b_here = differential_matrix(c, l, degree)
    cocycles = kernel(b_here)
    if degree == 0:
        boundaries = Subspace.zero(n**degree * m)
    else:
        boundaries = column_space(differential_matrix(c, l, degree - 1))
    dim = cocycles.dim - boundaries.dim
    reps = []
    if dim:
        # one echelon pass: the boundary basis, then each cocycle in order
        # that is not in the span of the boundaries and the earlier ones
        echelon = {min(col): col for col in boundaries.basis.columns()}
        for col in cocycles.basis.columns():
            rest = _reduce(col, echelon)
            if rest:
                vec = Matrix(n**degree * m, 1, {(k, 0): v for k, v in col.items()})
                reps.append(Cochain(degree, _unvectorize(vec, n**degree, m)))
                if len(reps) == dim:
                    break
                lead = min(rest)
                echelon[lead] = {i: v / rest[lead] for i, v in rest.items()}
    return CohomologyResult(degree, dim, tuple(reps))


def _reduce(vec: dict, echelon: dict) -> dict:
    """The remainder of vec against echelon rows {lead: row}, each with
    row[lead] = 1 and no entry before lead: empty exactly when vec lies in
    their span."""
    vec = dict(vec)
    while vec:
        lead = min(vec)
        row = echelon.get(lead)
        if row is None:
            break
        f = vec[lead]
        for i, v in row.items():
            s = vec.get(i, 0) - f * v
            if s:
                vec[i] = s
            else:
                del vec[i]
    return vec


# -- square-zero extensions ------------------------------------------------------


@dataclass(frozen=True)
class HochschildExtensionData:
    base: Coalgebra
    cok: Bicomodule
    cocycle: Cochain
    total: Coalgebra
    sigma: CoalgebraMap  # base -> total
    proj: Matrix  # total -> cokernel bicomodule
    retraction: Matrix  # linear retraction total -> base


def extension_structure(c: Coalgebra, l: Bicomodule, zeta_value: Matrix):
    """The candidate comultiplication and counit on C (+) L twisted by a cochain.

    No cocycle condition is checked here; the result is coassociative
    exactly when the cochain is a 2-cocycle.
    """
    n, m = c.dim, l.dim
    total_dim = n + m
    i_c = Matrix(total_dim, n, {(i, i): 1 for i in range(n)})
    i_l = Matrix(total_dim, m, {(n + j, j): 1 for j in range(m)})
    p_c = i_c.transpose()
    p_l = i_l.transpose()
    delta = kron_mul([i_c, i_c], c.delta) * p_c
    delta = delta + kron_mul([i_l, i_c], l.rho_r) * p_l
    delta = delta + kron_mul([i_c, i_l], l.rho_l) * p_l
    delta = delta - kron_mul([i_c, i_c], zeta_value) * p_l
    eps = c.epsilon * p_c + kron_mul([c.epsilon, c.epsilon], zeta_value) * p_l
    return delta, eps, i_c, i_l, p_c, p_l


def hochschild_extension(c: Coalgebra, l: Bicomodule, zeta: Cochain) -> HochschildExtensionData:
    """Build the extension with square-zero cokernel defined by a 2-cocycle.

    Refuses non-cocycles.  All four structural properties of the result are
    verified exactly: the total is a coalgebra, the base includes as a
    coalgebra with a linear retraction, the base wedges to everything, and
    the coactions of the cokernel are recovered from the comultiplication.
    """
    if zeta.degree != 2:
        raise ValueError("the twisting cochain must have degree two")
    _check_shape(c, l, zeta)
    obstruction = differential(c, l, zeta)
    if not obstruction.value.is_zero():
        raise NotACocycle(obstruction.value)
    delta, eps, i_c, i_l, p_c, p_l = extension_structure(c, l, zeta.value)
    total = Coalgebra(c.dim + l.dim, delta, eps)
    report = validate_coalgebra(total)
    if not report.passed:
        raise InternalCheckFailed(f"twisted structure fails axioms:\n{report}")
    sigma = CoalgebraMap(c, total, i_c)
    if p_c * i_c != Matrix.identity(c.dim):
        raise InternalCheckFailed("retraction does not split the inclusion")
    if not kron_mul([p_l, p_l], delta).is_zero():
        raise InternalCheckFailed("base does not wedge to the whole extension")
    if l.rho_l * p_l != kron_mul([p_c, p_l], delta):
        raise InternalCheckFailed("left coaction is not recovered")
    if l.rho_r * p_l != kron_mul([p_l, p_c], delta):
        raise InternalCheckFailed("right coaction is not recovered")
    return HochschildExtensionData(
        base=c,
        cok=l,
        cocycle=zeta,
        total=total,
        sigma=sigma,
        proj=p_l,
        retraction=p_c,
    )


def trivialize_extension(e: HochschildExtensionData) -> Optional[CoalgebraMap]:
    """A coalgebra retraction of the extension, when the cocycle bounds.

    Solves the linear coboundary problem first; on a witness h the candidate
    retraction is the linear one corrected by h up to sign, and the
    candidate is verified exactly before being returned.  Returns None when
    the cocycle is not a coboundary.
    """
    c, l = e.base, e.cok
    b1 = differential_matrix(c, l, 1)
    h_vec = solve(b1, _vectorize(e.cocycle.value))
    if h_vec is None:
        return None
    h = _unvectorize(h_vec, c.dim, l.dim)
    for sign in (1, -1):
        candidate = e.retraction + (h * e.proj).scale(sign)
        try:
            ret = CoalgebraMap(e.total, e.base, candidate)
        except NotCoalgebraMap:
            continue
        if candidate * e.sigma.map == Matrix.identity(c.dim):
            return ret
    raise InternalCheckFailed("coboundary witness produced no valid retraction")


# -- decision procedures -----------------------------------------------------------


def _solve_for(shape, constraints) -> Optional[Matrix]:
    """An unknown matrix X satisfying the constraints (see linear_system), or None."""
    system, rhs = linear_system(shape, constraints)
    x = solve(system, rhs)
    return None if x is None else _unvectorize(x, *shape)


def _coseparable_constraints(c: Coalgebra) -> list:
    """pi delta = id and delta pi = (C (x) pi)(delta (x) C) = (pi (x) C)(C (x) delta)."""
    eye, zero = Matrix.identity(c.dim), Matrix.zero(c.dim**2, c.dim**2)
    return [
        ([(1, [], [None], [c.delta])], -eye),
        ([(1, [c.delta], [None], []), (-1, [], [eye, None], [c.delta, eye])], zero),
        ([(1, [c.delta], [None], []), (-1, [], [None, eye], [eye, c.delta])], zero),
    ]


def is_coseparable(c: Coalgebra) -> Optional[Matrix]:
    """A bicomodule retraction of the comultiplication, or None.

    The retraction pi : C (x) C -> C must satisfy pi delta = id and
    intertwine the outer coactions of C (x) C with the comultiplication.
    """
    return _solve_for((c.dim, c.dim**2), _coseparable_constraints(c))


def _injective_constraints(m: Bicomodule) -> list:
    """r j = id, rho_l r = (C (x) r)(delta (x) M (x) C) and
    rho_r r = (r (x) C)(C (x) M (x) delta), for j = (C (x) rho_r) rho_l."""
    n, md, delta = m.over.dim, m.dim, m.over.delta
    eye, zero = Matrix.identity(n), Matrix.zero(n * md, n * md * n)
    j = kron_mul([eye, m.rho_r], m.rho_l)
    return [
        ([(1, [], [None], [j])], -Matrix.identity(md)),
        ([(1, [m.rho_l], [None], []), (-1, [], [eye, None], [delta, Matrix.identity(md * n)])], zero),
        ([(1, [m.rho_r], [None], []), (-1, [], [None, eye], [Matrix.identity(n * md), delta])], zero),
    ]


def is_I_injective(m: Bicomodule) -> Optional[Matrix]:
    """A bicomodule retraction of the canonical embedding into C (x) M (x) C.

    The embedding j = (C (x) rho_r) rho_l cosplits linearly via the counits,
    so it lies in the cosplit class; a bicomodule retraction of it exists
    exactly when m is a direct summand of the relatively injective
    C (x) M (x) C, i.e. when m is itself relatively injective.
    """
    return _solve_for((m.dim, m.over.dim**2 * m.dim), _injective_constraints(m))


@dataclass(frozen=True)
class SmoothnessResult:
    smooth: bool
    witness: Optional[Matrix]  # retraction for Coker(delta) when smooth
    h2_dim: int  # dim H^2 with coefficients in Coker(delta)
    cokernel: Bicomodule

    def __bool__(self):
        return self.smooth


def is_formally_smooth(c: Coalgebra) -> SmoothnessResult:
    """Decide formal smoothness via relative injectivity of Coker(delta).

    Cross-checks against the vanishing of the second cohomology with
    coefficients in that same cokernel and refuses to answer if the two
    criteria ever disagree.
    """
    reg = regular_bicomodule(c)
    square = tensor_square_bicomodule(c)
    delta_map = BicomoduleMap(reg, square, c.delta)
    cok, _ = induced_on_cokernel(delta_map)
    witness = is_I_injective(cok)
    h2 = cohomology(c, cok, 2)
    if (witness is not None) != (h2.dim == 0):
        raise InternalCheckFailed(
            f"injectivity of the cokernel ({witness is not None}) and "
            f"H^2 vanishing (dim={h2.dim}) disagree"
        )
    return SmoothnessResult(witness is not None, witness, h2.dim, cok)
