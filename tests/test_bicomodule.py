"""Bicomodules, cotensor products and induced structures."""

import random
from fractions import Fraction

import pytest

from coalgkit import InternalCheckFailed as ExportedFailure
from coalgkit import bicomodule
from coalgkit.bicomodule import (
    Bicomodule,
    BicomoduleMap,
    CoalgebraMismatch,
    cotensor,
    cotensor_of_maps,
    cotensor_power,
    induced_on_cokernel,
    induced_on_kernel,
    outer_bicomodule,
    regular_bicomodule,
    tensor_square_bicomodule,
    unit_left,
    unit_right,
    validate_bicomodule,
)
from coalgkit.coalgebra import (
    AxiomCheck,
    InternalCheckFailed,
    ValidationReport,
    divided_power,
    grouplike,
)
from coalgkit.cohomology import InternalCheckFailed as CohomologyFailure
from coalgkit.exactlin import Matrix, Subspace, kernel, kron
from coalgkit.quiver import (
    Quiver,
    arrow_bicomodule,
    cycle_quiver,
    kronecker_quiver,
    loop_quiver,
)

from conftest import random_graded_bicomodule


def two_cycle_quiver() -> Quiver:
    # arrows a: 1 -> 2 and b: 2 -> 1
    return Quiver(("v1", "v2"), (("a", 0, 1), ("b", 1, 0)))


# -- validation ----------------------------------------------------------------


def test_regular_bicomodule_passes():
    for c in (grouplike(2), divided_power(2)):
        assert validate_bicomodule(regular_bicomodule(c)).passed


def test_arrow_bicomodule_passes():
    for q in (loop_quiver(), kronecker_quiver(), two_cycle_quiver(), cycle_quiver(3)):
        assert validate_bicomodule(arrow_bicomodule(q)).passed


def test_perturbed_coaction_fails():
    m = arrow_bicomodule(two_cycle_quiver())
    # add a cross-arrow term e_v1 (x) b to rho_l(a): rows out of step with rho_r
    bad_rho_l = Matrix(m.rho_l.rows, m.rho_l.cols, dict(m.rho_l.data) | {(1, 0): Fraction(1)})
    report = validate_bicomodule(Bicomodule(m.over, m.dim, bad_rho_l, m.rho_r))
    assert not report.passed
    assert any(c.axiom == "compatibility" for c in report.failures())


def test_outer_bicomodule_passes():
    for c in (grouplike(2), divided_power(1)):
        assert validate_bicomodule(outer_bicomodule(c, 2)).passed
        assert validate_bicomodule(tensor_square_bicomodule(c)).passed


# -- cotensor product -------------------------------------------------------------


def test_cotensor_unit_laws():
    for q in (loop_quiver(), two_cycle_quiver(), cycle_quiver(3)):
        m = arrow_bicomodule(q)
        c = m.over
        left, _ = cotensor(regular_bicomodule(c), m)
        right, _ = cotensor(m, regular_bicomodule(c))
        assert left.dim == m.dim
        assert right.dim == m.dim
        fwd, back = unit_left(m)
        assert back * fwd == Matrix.identity(m.dim)
        assert fwd * back == Matrix.identity(m.dim)
        fwd, back = unit_right(m)
        assert back * fwd == Matrix.identity(m.dim)
        assert fwd * back == Matrix.identity(m.dim)


def test_cotensor_two_cycle():
    m = arrow_bicomodule(two_cycle_quiver())
    square, chi = cotensor(m, m)
    assert square.dim == 2
    # composable pairs in tensor coordinates: a(x)b at 0*2+1, b(x)a at 1*2+0
    assert chi == Matrix(4, 2, {(1, 0): 1, (2, 1): 1})


def test_cotensor_loop():
    m = arrow_bicomodule(loop_quiver())
    square, chi = cotensor(m, m)
    assert square.dim == 1


def test_cotensor_kronecker_vanishes():
    m = arrow_bicomodule(kronecker_quiver())
    square, _ = cotensor_power(m, 2)
    assert square.dim == 0


def test_cotensor_power_zero_is_base():
    m = arrow_bicomodule(loop_quiver())
    power, chi = cotensor_power(m, 0)
    assert power.dim == m.over.dim
    assert power.rho_l == m.over.delta


def test_cotensor_power_one_is_m():
    m = arrow_bicomodule(cycle_quiver(3))
    power, chi = cotensor_power(m, 1)
    assert power.dim == m.dim
    assert chi == Matrix.identity(m.dim)


def test_cotensor_internal_failure_raises_internal_check_failed(monkeypatch):
    assert ExportedFailure is CohomologyFailure is InternalCheckFailed
    failing = ValidationReport((AxiomCheck("compatibility", False, (0, 0, 1, 0)),))
    monkeypatch.setattr(bicomodule, "validate_bicomodule", lambda m: failing)
    m = arrow_bicomodule(loop_quiver())
    with pytest.raises(InternalCheckFailed, match="cotensor"):
        cotensor(m, m)


def test_cotensor_mismatched_coalgebras():
    with pytest.raises(CoalgebraMismatch):
        cotensor(arrow_bicomodule(loop_quiver()), arrow_bicomodule(kronecker_quiver()))


def bracketed_chi(factors, split):
    """chi of a bracketed cotensor product, for bracketing-independence checks."""
    if len(factors) == 1:
        return factors[0], Matrix.identity(factors[0].dim)
    left, right = factors[:split], factors[split:]
    lb, lchi = bracketed_chi(left, max(1, len(left) // 2))
    rb, rchi = bracketed_chi(right, max(1, len(right) // 2))
    step, chi_step = cotensor(lb, rb)
    return step, kron(lchi, rchi) * chi_step


def test_bracketing_independence():
    for q in (cycle_quiver(3), two_cycle_quiver(), loop_quiver()):
        m = arrow_bicomodule(q)
        for n in (3, 4):
            spans = set()
            for split in range(1, n):
                _, chi = bracketed_chi([m] * n, split)
                spans.add(Subspace.from_matrix(chi))
            assert len(spans) == 1


# -- cotensor of maps ---------------------------------------------------------------


def graded_map(rng, src, tgt):
    """A random bicomodule map between graded bicomodules over a grouplike base."""
    n = src.over.dim

    def grade(bic, j):
        left = next(i for (i, jj), _ in bic.rho_l.data.items() if jj == j)
        right = next(i for (i, jj), _ in bic.rho_r.data.items() if jj == j)
        return (left // bic.dim, right % n)

    data = {}
    for j in range(src.dim):
        for i in range(tgt.dim):
            if grade(src, j) == grade(tgt, i):
                v = rng.randint(-2, 2)
                if v:
                    data[(i, j)] = Fraction(v)
    return BicomoduleMap(src, tgt, Matrix(tgt.dim, src.dim, data))


def test_cotensor_of_identity_maps():
    m = arrow_bicomodule(cycle_quiver(3))
    ident = BicomoduleMap(m, m, Matrix.identity(m.dim))
    square, _ = cotensor(m, m)
    assert cotensor_of_maps(ident, ident) == Matrix.identity(square.dim)


def test_cotensor_of_maps_is_functorial():
    rng = random.Random(21)
    c = grouplike(2)
    for _ in range(6):
        a = random_graded_bicomodule(rng, c, 3)
        b = random_graded_bicomodule(rng, c, 3)
        d = random_graded_bicomodule(rng, c, 3)
        f1 = graded_map(rng, a, b)
        f2 = graded_map(rng, b, d)
        g1 = graded_map(rng, a, b)
        g2 = graded_map(rng, b, d)
        composed = cotensor_of_maps(
            BicomoduleMap(a, d, f2.map * f1.map), BicomoduleMap(a, d, g2.map * g1.map)
        )
        assert composed == cotensor_of_maps(f2, g2) * cotensor_of_maps(f1, g1)


def test_left_exactness_on_monomorphisms():
    rng = random.Random(22)
    c = grouplike(2)
    for _ in range(6):
        big = random_graded_bicomodule(rng, c, 4)
        # a graded subspace inclusion is a bicomodule monomorphism
        keep = sorted(rng.sample(range(4), 2))
        inc = Matrix(4, 2, {(r, j): 1 for j, r in enumerate(keep)})
        rho_l = Matrix(
            c.dim * 2,
            2,
            {
                (next(i for (i, jj), _ in big.rho_l.data.items() if jj == r) // 4 * 2 + j, j): 1
                for j, r in enumerate(keep)
            },
        )
        rho_r = Matrix(
            2 * c.dim,
            2,
            {
                (j * c.dim + next(i for (i, jj), _ in big.rho_r.data.items() if jj == r) % c.dim, j): 1
                for j, r in enumerate(keep)
            },
        )
        small = Bicomodule(c, 2, rho_l, rho_r)
        j_map = BicomoduleMap(small, big, inc)
        probe = random_graded_bicomodule(rng, c, 3)
        ident = BicomoduleMap(probe, probe, Matrix.identity(3))
        restricted = cotensor_of_maps(ident, j_map)
        assert kernel(restricted).dim == 0


# -- induced structures ----------------------------------------------------------------


def test_induced_on_kernel_of_zero():
    m = arrow_bicomodule(cycle_quiver(3))
    zero = BicomoduleMap(m, m, Matrix.zero(m.dim, m.dim))
    ker, inc = induced_on_kernel(zero)
    assert ker.dim == m.dim
    cok, proj = induced_on_cokernel(zero)
    assert cok.dim == m.dim


def test_induced_on_kernel_of_injective():
    m = arrow_bicomodule(cycle_quiver(3))
    ident = BicomoduleMap(m, m, Matrix.identity(m.dim))
    ker, _ = induced_on_kernel(ident)
    assert ker.dim == 0


def test_cokernel_of_comultiplication():
    for c in (grouplike(2), divided_power(1), divided_power(2)):
        reg = regular_bicomodule(c)
        square = tensor_square_bicomodule(c)
        delta_map = BicomoduleMap(reg, square, c.delta)
        cok, proj = induced_on_cokernel(delta_map)
        assert cok.dim == c.dim * c.dim - c.dim
        assert validate_bicomodule(cok).passed
        assert (proj.map * c.delta).is_zero()
