"""Truncated cotensor coalgebras.

The total space is the direct sum of the cotensor powers M^[]k for k up to
the truncation level, with the graded comultiplication that splits a
degree-k slice into all (r, k-r) pairs: coactions into degree 0 on the
outside, cotensor-inclusion splits in between.  The same coalgebra is also
built a second way, as a tower of square-zero extensions driven by the
graded 2-cocycles; the two constructions must agree matrix for matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bicomodule import (
    Bicomodule,
    BicomoduleMap,
    cotensor_tower,
    validate_bicomodule,
)
from .coalgebra import (
    Coalgebra,
    CoalgebraMap,
    NotBicomoduleMap,
    Subcoalgebra,
    coradical,
    subcoalgebra_on,
    validate_coalgebra,
    verify,
    wedge_power,
)
from .exactlin import (
    Matrix,
    Subspace,
    cokernel,
    factor_through,
    kron,
    kron_mul,
)


class NicholsViolated(ValueError):
    """The degree-one component does not kill the coradical."""


class TruncationTooSmall(ValueError):
    def __init__(self, minimal: int):
        super().__init__(
            f"universal map does not vanish beyond the truncation; "
            f"smallest adequate truncation level is {minimal}"
        )
        self.minimal = minimal


@dataclass(frozen=True)
class CotensorSlice:
    degree: int
    dim: int
    chi: Matrix  # inclusion into M^(x)degree (identity on C in degree 0)
    bicomodule: Bicomodule  # coactions of the base coalgebra on the slice


@dataclass(frozen=True)
class TruncatedCotensorCoalgebra:
    base: Coalgebra
    input: Bicomodule
    trunc: int
    slices: tuple  # CotensorSlice for degrees 0..trunc
    total: Coalgebra
    grading: tuple  # dimensions of the slices
    offsets: tuple
    inclusions: tuple  # i_k : slice k -> total
    projections: tuple  # p_k : total -> slice k

    def sigma(self, n: int) -> Matrix:
        """Inclusion of the partial sum of degrees < n into the total space."""
        d = sum(self.grading[:n])
        return Matrix(self.total.dim, d, {(i, i): 1 for i in range(d)})

    def coalgebra_slice(self) -> Subcoalgebra:
        """The degree-zero copy of the base, as a verified subcoalgebra."""
        span = Subspace.from_matrix(self.inclusions[0])
        return subcoalgebra_on(self.total, span)


def _split_map(slices, r: int, k: int) -> Matrix:
    """M^[]k -> M^[]r (x) M^[](k-r) through the common ambient tensor power."""
    return factor_through(kron(slices[r].chi, slices[k - r].chi), slices[k].chi)


def _make_slices(c: Coalgebra, m: Bicomodule, trunc: int) -> tuple:
    tower = cotensor_tower(m, trunc)
    return tuple(
        CotensorSlice(k, bic.dim, chi, bic) for k, (bic, chi) in enumerate(tower)
    )


def build_truncated(c: Coalgebra, m: Bicomodule, trunc: int) -> TruncatedCotensorCoalgebra:
    """Assemble the graded comultiplication degree by degree."""
    if m.over != c:
        from .bicomodule import CoalgebraMismatch

        raise CoalgebraMismatch("bicomodule is not over the given coalgebra")
    if trunc < 0:
        raise ValueError("truncation level must be nonnegative")
    slices = _make_slices(c, m, trunc)
    dims = tuple(s.dim for s in slices)
    offsets = []
    acc = 0
    for d in dims:
        offsets.append(acc)
        acc += d
    total_dim = acc
    inclusions = tuple(
        Matrix(total_dim, d, {(off + a, a): 1 for a in range(d)})
        for d, off in zip(dims, offsets)
    )
    projections = tuple(i.transpose() for i in inclusions)

    delta_data = {}
    for k, s in enumerate(slices):
        if k == 0:
            block = kron_mul([inclusions[0], inclusions[0]], c.delta)
        else:
            block = kron_mul([inclusions[0], inclusions[k]], s.bicomodule.rho_l)
            block = block + kron_mul([inclusions[k], inclusions[0]], s.bicomodule.rho_r)
            for r in range(1, k):
                block = block + kron_mul(
                    [inclusions[r], inclusions[k - r]], _split_map(slices, r, k)
                )
        off = offsets[k]
        for (i, j), v in block.data.items():
            delta_data[(i, off + j)] = v
    delta = Matrix(total_dim * total_dim, total_dim, delta_data)
    epsilon = c.epsilon * projections[0]
    total = Coalgebra(total_dim, delta, epsilon)
    verify("assembled coalgebra", validate_coalgebra(total))
    return TruncatedCotensorCoalgebra(
        base=c,
        input=m,
        trunc=trunc,
        slices=slices,
        total=total,
        grading=dims,
        offsets=tuple(offsets),
        inclusions=inclusions,
        projections=projections,
    )


# -- the graded cocycle tower ---------------------------------------------------


@dataclass(frozen=True)
class GradedCocycle:
    degree: int
    value: Matrix  # M^[]n -> C^n(M) (x) C^n(M)
    partial: Coalgebra  # C^n(M)
    bicomodule: Bicomodule  # M^[]n as a C^n(M)-bicomodule


def _partial_inclusion(dims, t: int, partial_dim: int) -> Matrix:
    off = sum(dims[:t])
    return Matrix(partial_dim, dims[t], {(off + a, a): 1 for a in range(dims[t])})


def _zeta_value(slices, n: int, partial_dim: int) -> Matrix:
    """zeta^n = - sum over inner splits of the cotensor inclusion maps."""
    dims = [s.dim for s in slices]
    d_n = dims[n]
    out = Matrix.zero(partial_dim * partial_dim, d_n)
    for t in range(1, n):
        i_t = _partial_inclusion(dims, t, partial_dim)
        i_nt = _partial_inclusion(dims, n - t, partial_dim)
        out = out - kron_mul([i_t, i_nt], _split_map(slices, t, n))
    return out


def _graded_bicomodule(slices, n: int, partial: Coalgebra) -> Bicomodule:
    """M^[]n over C^n(M): coactions land in the degree-zero block."""
    dims = [s.dim for s in slices]
    inc0 = _partial_inclusion(dims, 0, partial.dim)
    s = slices[n]
    rho_l = kron_mul([inc0, Matrix.identity(s.dim)], s.bicomodule.rho_l)
    rho_r = kron_mul([Matrix.identity(s.dim), inc0], s.bicomodule.rho_r)
    bic = Bicomodule(partial, s.dim, rho_l, rho_r)
    verify("graded bicomodule", validate_bicomodule(bic))
    return bic


def graded_cocycle(c: Coalgebra, m: Bicomodule, n: int) -> GradedCocycle:
    """The degree-n cocycle over the partial sum coalgebra; b^2-closedness checked."""
    from .cohomology import Cochain, differential

    if n < 1:
        raise ValueError("the cocycle tower starts in degree one")
    slices = _make_slices(c, m, n)
    partial = build_truncated(c, m, n - 1).total
    value = _zeta_value(slices, n, partial.dim)
    bic = _graded_bicomodule(slices, n, partial)
    closure = differential(partial, bic, Cochain(2, value))
    verify("graded cocycle is closed", closure.value.is_zero())
    return GradedCocycle(n, value, partial, bic)


def build_iterative(c: Coalgebra, m: Bicomodule, trunc: int):
    """Rebuild the truncation as a tower of square-zero coalgebra extensions.

    Returns (coalgebra, extension steps).  The result must agree entrywise
    with build_truncated; the acceptance suite asserts that it does.
    """
    from .cohomology import Cochain, hochschild_extension

    slices = _make_slices(c, m, trunc)
    partial = c
    steps = []
    for n in range(1, trunc + 1):
        value = _zeta_value(slices, n, partial.dim)
        bic = _graded_bicomodule(slices, n, partial)
        ext = hochschild_extension(partial, bic, Cochain(2, value))
        steps.append(ext)
        partial = ext.total
    return partial, steps


# -- structural checks ------------------------------------------------------------


def component_formula_check(t: TruncatedCotensorCoalgebra) -> bool:
    """The four component identities of the graded comultiplication.

    (p_m (x) p_n) Delta is the split through the cotensor inclusion for
    m, n >= 1, the appropriate one-sided coaction when one index is zero,
    and the base comultiplication in degree (0, 0).
    """
    slices = t.slices
    delta = t.total.delta
    for mm in range(t.trunc + 1):
        for nn in range(t.trunc + 1):
            lhs = kron_mul([t.projections[mm], t.projections[nn]], delta)
            k = mm + nn
            if k > t.trunc:
                rhs = Matrix.zero(lhs.rows, lhs.cols)
            elif mm == 0 and nn == 0:
                rhs = t.base.delta * t.projections[0]
            elif nn == 0:
                rhs = slices[mm].bicomodule.rho_r * t.projections[mm]
            elif mm == 0:
                rhs = slices[nn].bicomodule.rho_l * t.projections[nn]
            else:
                rhs = _split_map(slices, mm, k) * t.projections[k]
            if lhs != rhs:
                return False
    return True


def grading_check(t: TruncatedCotensorCoalgebra) -> bool:
    """(p_m (x) p_n) Delta i_k = 0 unless m + n = k."""
    delta = t.total.delta
    for mm in range(t.trunc + 1):
        for nn in range(t.trunc + 1):
            lhs = kron_mul([t.projections[mm], t.projections[nn]], delta)
            for k in range(t.trunc + 1):
                if mm + nn != k and not (lhs * t.inclusions[k]).is_zero():
                    return False
    return True


def wedge_recovery_check(t: TruncatedCotensorCoalgebra, n: int) -> bool:
    """The n-th wedge power of the degree-zero slice is the partial sum."""
    if n < 0 or n > t.trunc + 1:
        raise ValueError("wedge index out of range for this truncation")
    sub = t.coalgebra_slice()
    lhs = wedge_power(t.total, sub, n)
    rhs = Subspace.from_matrix(t.sigma(n))
    return lhs == rhs


def graded_limit_check(t: TruncatedCotensorCoalgebra) -> bool:
    """p^(x)(n+1) Delta^n vanishes on every slice of degree at most n."""
    proj, _ = cokernel(t.inclusions[0])
    current = proj
    for n in range(0, t.trunc + 1):
        if n > 0:
            current = kron_mul([current, proj], t.total.delta)
        for b in range(0, min(n, t.trunc) + 1):
            if not (current * t.inclusions[b]).is_zero():
                return False
    return True


def determination_check(
    t: TruncatedCotensorCoalgebra, alpha: CoalgebraMap, beta: CoalgebraMap
) -> bool:
    """Degree-one components agreeing forces all positive degrees to agree."""
    for f in (alpha, beta):
        if f.target != t.total:
            raise ValueError("maps must land in the truncated coalgebra")
    if alpha.source != beta.source:
        raise ValueError("maps must share their source")
    if t.projections[1] * alpha.map != t.projections[1] * beta.map:
        return True  # nothing to check: the hypothesis fails
    return all(
        t.projections[n] * alpha.map == t.projections[n] * beta.map
        for n in range(1, t.trunc + 1)
    )


# -- the universal map -------------------------------------------------------------


def universal_map(
    e: Coalgebra, f_c: CoalgebraMap, f_m: Matrix, t: TruncatedCotensorCoalgebra
) -> CoalgebraMap:
    """The unique coalgebra map into the truncation with components f_c, f_m.

    The degree-k component is f_m^[]k composed with Delta^(k-1) corestricted
    to E^[]k.  The inclusion chi_k : M^[]k -> M^(x)k turns that composite
    into P_k = f_m^(x)k Delta^(k-1), and chi_k is injective, so the
    component is the unique h with chi_k h = P_k.  The powers follow
    P_1 = f_m and P_k = (P_(k-1) (x) f_m) Delta, because iterated_delta is
    (Delta^(k-2) (x) E) Delta.  So neither E's cotensor tower nor any M^[]k
    above the truncation is built: past degree n, a component vanishes
    exactly when P_k does.  Preconditions: f_m must be a map of bicomodules
    for the structure induced by f_c, must kill the coradical of the
    source, and all components beyond the truncation must vanish.
    """
    if f_c.source != e or f_c.target != t.base:
        raise ValueError("f_c must map the source coalgebra to the base")
    if f_m.shape != (t.input.dim, e.dim):
        raise NotBicomoduleMap(f"f_m must be {t.input.dim}x{e.dim}")
    eye_e = Matrix.identity(e.dim)
    rho_l_e = kron_mul([f_c.map, eye_e], e.delta)
    rho_r_e = kron_mul([eye_e, f_c.map], e.delta)
    BicomoduleMap(Bicomodule(t.base, e.dim, rho_l_e, rho_r_e), t.input, f_m)

    corad = coradical(e)
    if not (f_m * corad.basis).is_zero():
        raise NicholsViolated("degree-one component is nonzero on the coradical")

    total = t.inclusions[0] * f_c.map
    power = f_m
    for k in range(1, t.trunc + 1):
        total = total + t.inclusions[k] * factor_through(t.slices[k].chi, power)
        power = kron_mul([power, f_m], e.delta)
    if not power.is_zero():
        for k in range(t.trunc + 2, e.dim + 4):
            power = kron_mul([power, f_m], e.delta)
            if power.is_zero():
                raise TruncationTooSmall(k - 1)
        verify("components vanish above some degree (the coradical filtration)", False)

    result = CoalgebraMap(e, t.total, total)
    verify("universal map keeps its degree-0 component", t.projections[0] * total, f_c.map)
    verify("universal map keeps its degree-1 component", t.projections[1] * total, f_m)
    return result
