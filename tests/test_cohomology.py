"""Standard complex, extensions, coseparability and smoothness."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalgkit.bicomodule import (
    Bicomodule,
    BicomoduleMap,
    induced_on_cokernel,
    outer_bicomodule,
    regular_bicomodule,
    tensor_square_bicomodule,
)
from coalgkit.coalgebra import (
    comatrix,
    divided_power,
    grouplike,
    unit_coalgebra,
    validate_coalgebra,
    Coalgebra,
)
from coalgkit.cohomology import (
    Cochain,
    NotACocycle,
    cohomology,
    differential,
    differential_matrix,
    extension_structure,
    face,
    hochschild_extension,
    is_coseparable,
    is_formally_smooth,
    is_I_injective,
    trivialize_extension,
    _coseparable_constraints,
    _injective_constraints,
    _vectorize,
)
from coalgkit.exactlin import Matrix, Subspace, column_space, kernel, kron, linear_system, subspace_sum
from coalgkit.quiver import arrow_bicomodule, loop_quiver

from conftest import (
    conjugated_bicomodule,
    permuted_coalgebra,
    probe_system,
    random_bicomodule_over,
    random_graded_bicomodule,
    random_matrix,
    solve_matrix_equations,
)


def trivial_pair():
    c = unit_coalgebra()
    l = Bicomodule(c, 1, Matrix.from_rows([[1]]), Matrix.from_rows([[1]]))
    return c, l


def coker_delta(c):
    reg = regular_bicomodule(c)
    square = tensor_square_bicomodule(c)
    cok, _ = induced_on_cokernel(BicomoduleMap(reg, square, c.delta))
    return cok


def random_pairs(rng, count):
    """Seeded (coalgebra, bicomodule) pairs with dimensions up to four."""
    coalgebras = [grouplike(1), grouplike(2), grouplike(3), divided_power(1), divided_power(2), divided_power(3), comatrix(2)]
    pairs = []
    while len(pairs) < count:
        c = rng.choice(coalgebras)
        kind = rng.randrange(3)
        if kind == 0:
            pairs.append((c, regular_bicomodule(c)))
        elif kind == 1 and c.dim <= 2:
            pairs.append((c, random_bicomodule_over(rng, c)))
        elif c.delta.data and c.dim <= 3 and c == grouplike(c.dim):
            pairs.append((c, random_graded_bicomodule(rng, c, rng.randint(1, 4))))
    return pairs


# -- the one-dimensional oracle ---------------------------------------------------


def test_unit_coalgebra_complex():
    c, l = trivial_pair()
    assert differential_matrix(c, l, 1) == Matrix.identity(1)
    assert differential_matrix(c, l, 2) == Matrix.zero(1, 1)
    assert cohomology(c, l, 1).dim == 0
    assert cohomology(c, l, 2).dim == 0


def test_faces_match_displayed_degree_two():
    # on the regular bicomodule the degree-2 differential is
    # (f (x) C) rho - (C (x) delta) f + (delta (x) C) f - (C (x) f) rho
    rng = random.Random(31)
    for c in (grouplike(2), divided_power(2)):
        l = regular_bicomodule(c)
        n = c.dim
        f = Cochain(2, random_matrix(rng, n * n, n))
        eye = Matrix.identity(n)
        expected = (
            kron(f.value, eye) * l.rho_r
            - kron(eye, c.delta) * f.value
            + kron(c.delta, eye) * f.value
            - kron(eye, f.value) * l.rho_l
        )
        assert differential(c, l, f).value == expected
        assert face(c, l, f, 1) == kron(eye, c.delta) * f.value
        assert face(c, l, f, 2) == kron(c.delta, eye) * f.value


def test_differential_matrix_matches_differential():
    rng = random.Random(32)
    for c, l in random_pairs(rng, 6):
        for deg in (0, 1, 2):
            f = Cochain(deg, random_matrix(rng, c.dim**deg, l.dim))
            via_matrix = differential_matrix(c, l, deg) * _vectorize(f.value)
            direct = differential(c, l, f).value
            assert via_matrix == _vectorize(direct)


def test_differential_squares_to_zero():
    rng = random.Random(33)
    for c, l in random_pairs(rng, 5):
        for deg in range(0, 5):
            bn = differential_matrix(c, l, deg)
            bn1 = differential_matrix(c, l, deg + 1)
            assert (bn1 * bn).is_zero()


def test_coboundaries_are_cocycles():
    rng = random.Random(34)
    c, l = grouplike(2), random_graded_bicomodule(random.Random(35), grouplike(2), 3)
    for _ in range(5):
        h = Cochain(1, random_matrix(rng, c.dim, l.dim))
        zeta = differential(c, l, h)
        assert differential(c, l, zeta).value.is_zero()


def test_h0_counts_invariant_functionals():
    rng = random.Random(36)
    for c, l in random_pairs(rng, 6):
        n, m = c.dim, l.dim
        # independent assembly: f (x) C . rho_r = C (x) f . rho_l entry by entry
        conditions = {}
        row = 0
        for s in range(n):
            for col in range(m):
                coeffs = {}
                for a in range(m):
                    lhs = l.rho_r[(a * n + s, col)]
                    rhs = l.rho_l[(s * m + a, col)]
                    v = lhs - rhs
                    if v:
                        coeffs[a] = v
                for a, v in coeffs.items():
                    conditions[(row, a)] = v
                row += 1
        system = Matrix(row, m, conditions)
        assert cohomology(c, l, 0).dim == kernel(system).dim


# -- extensions -------------------------------------------------------------------


def test_extension_with_zero_cocycle():
    m = arrow_bicomodule(loop_quiver())
    c = m.over
    zeta = Cochain(2, Matrix.zero(c.dim**2, m.dim))
    ext = hochschild_extension(c, m, zeta)
    # on the square-zero part the comultiplication is the sum of the coactions
    i_c = ext.sigma.map
    i_l = Matrix(2, 1, {(1, 0): 1})
    expected = kron(i_l, i_c) * m.rho_r + kron(i_c, i_l) * m.rho_l
    assert ext.total.delta * i_l == expected


def test_extension_refuses_non_cocycles_and_delta_fails():
    rng = random.Random(41)
    c = grouplike(2)
    l = random_graded_bicomodule(random.Random(42), c, 2)
    b2 = differential_matrix(c, l, 2)
    found = 0
    attempts = 0
    while found < 3 and attempts < 50:
        attempts += 1
        zeta = random_matrix(rng, c.dim**2, l.dim)
        if (b2 * _vectorize(zeta)).is_zero():
            continue
        found += 1
        with pytest.raises(NotACocycle):
            hochschild_extension(c, l, Cochain(2, zeta))
        delta, eps, *_ = extension_structure(c, l, zeta)
        report = validate_coalgebra(Coalgebra(c.dim + l.dim, delta, eps))
        assert not report.checks[0].ok  # coassociativity fails
    assert found == 3


def test_extension_accepts_exactly_cocycles():
    rng = random.Random(43)
    c = grouplike(2)
    l = random_graded_bicomodule(random.Random(44), c, 3)
    for _ in range(3):
        h = random_matrix(rng, c.dim, l.dim)
        zeta = differential(c, l, Cochain(1, h))
        ext = hochschild_extension(c, l, zeta)
        assert validate_coalgebra(ext.total).passed
        ret = trivialize_extension(ext)
        assert ret is not None
        assert ret.map * ext.sigma.map == Matrix.identity(c.dim)


def test_trivialize_zero_cocycle_gives_projection():
    m = arrow_bicomodule(loop_quiver())
    c = m.over
    ext = hochschild_extension(c, m, Cochain(2, Matrix.zero(1, 1)))
    ret = trivialize_extension(ext)
    assert ret is not None
    assert ret.map == ext.retraction


def test_nontrivial_class_does_not_trivialize():
    c = divided_power(1)
    cok = coker_delta(c)
    reps = cohomology(c, cok, 2).representatives
    assert reps, "expected a nonzero second cohomology class"
    ext = hochschild_extension(c, cok, reps[0])
    assert trivialize_extension(ext) is None


def test_extension_axioms_hold():
    rng = random.Random(45)
    c = grouplike(2)
    l = random_graded_bicomodule(random.Random(46), c, 2)
    h = random_matrix(rng, c.dim, l.dim)
    ext = hochschild_extension(c, l, differential(c, l, Cochain(1, h)))
    p, pi = ext.proj, ext.retraction
    d = ext.total.delta
    assert (kron(p, p) * d).is_zero()
    assert l.rho_l * p == kron(pi, p) * d
    assert l.rho_r * p == kron(p, pi) * d
    assert pi * ext.sigma.map == Matrix.identity(c.dim)


# -- coseparability ------------------------------------------------------------------


def verify_coseparability_witness(c, pi):
    n = c.dim
    eye = Matrix.identity(n)
    outer = tensor_square_bicomodule(c)
    assert pi * c.delta == eye
    assert c.delta * pi == kron(eye, pi) * outer.rho_l
    assert c.delta * pi == kron(pi, eye) * outer.rho_r


def test_grouplike_coseparable_with_kronecker_witness():
    for n in (1, 2, 3):
        c = grouplike(n)
        pi = is_coseparable(c)
        assert pi is not None
        verify_coseparability_witness(c, pi)
        kronecker = Matrix(n, n * n, {(i, i * n + i): 1 for i in range(n)})
        verify_coseparability_witness(c, kronecker)


def test_comatrix_coseparable():
    c = comatrix(2)
    pi = is_coseparable(c)
    assert pi is not None
    verify_coseparability_witness(c, pi)


def test_divided_power_not_coseparable():
    for trunc in (1, 2):
        c = divided_power(trunc)
        assert is_coseparable(c) is None
        # cross-check: some bicomodule has nonvanishing first cohomology
        assert cohomology(c, regular_bicomodule(c), 1).dim > 0


def reference_representatives(c, l, degree):
    """Cocycles in basis order that enlarge the span of the boundaries and
    the earlier picks, one full re-echelon per cocycle."""
    rows = c.dim**degree
    span = Subspace.zero(rows * l.dim)
    if degree:
        span = column_space(differential_matrix(c, l, degree - 1))
    reps = []
    for col in kernel(differential_matrix(c, l, degree)).basis.columns():
        grown = subspace_sum(span, Subspace.span(span.ambient_dim, [col]))
        if grown.dim > span.dim:
            value = Matrix(rows, l.dim, {divmod(k, l.dim): v for k, v in col.items()})
            reps.append(Cochain(degree, value))
            span = grown
    return tuple(reps)


def test_representatives_match_the_growing_span():
    rng = random.Random(52)
    cases = [(c, l, d) for c, l in random_pairs(rng, 8) for d in (0, 1, 2)]
    cases += [(c, coker_delta(c), d) for c in (divided_power(1), divided_power(2)) for d in (1, 2)]
    nonzero = 0
    for c, l, degree in cases:
        result = cohomology(c, l, degree)
        assert result.representatives == reference_representatives(c, l, degree)
        assert len(result.representatives) == result.dim
        nonzero += result.dim > 0
    assert nonzero >= 3


def test_cohomology_vanishes_over_coseparable():
    rng = random.Random(51)
    for c in (grouplike(2), grouplike(3)):
        for _ in range(3):
            l = random_graded_bicomodule(rng, c, rng.randint(1, 4))
            assert cohomology(c, l, 1).dim == 0
            assert cohomology(c, l, 2).dim == 0


# -- relative injectivity --------------------------------------------------------------


def verify_injectivity_witness(m, r):
    c = m.over
    eye = Matrix.identity(c.dim)
    j = kron(eye, m.rho_r) * m.rho_l
    assert r * j == Matrix.identity(m.dim)
    assert m.rho_l * r == kron(eye, r) * kron(c.delta, Matrix.identity(m.dim * c.dim))
    assert m.rho_r * r == kron(r, eye) * kron(Matrix.identity(c.dim * m.dim), c.delta)


def test_outer_bicomodules_are_injective():
    # holds even over a non-coseparable base
    for c in (grouplike(2), divided_power(1)):
        m = outer_bicomodule(c, 2)
        r = is_I_injective(m)
        assert r is not None
        verify_injectivity_witness(m, r)


def test_everything_injective_over_grouplike():
    rng = random.Random(52)
    for n in (1, 2, 3):
        c = grouplike(n)
        for _ in range(3):
            m = random_graded_bicomodule(rng, c, rng.randint(1, 4))
            r = is_I_injective(m)
            assert r is not None
            verify_injectivity_witness(m, r)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_cokernel_of_delta_not_injective_for_divided_power(k):
    c = divided_power(k)
    assert is_I_injective(coker_delta(c)) is None
    result = is_formally_smooth(c)
    assert (result.smooth, result.witness, result.h2_dim) == (False, None, k)


# -- the assembled constraints against the probing oracle ----------------------------


def coseparable_residual(c):
    """The residuals of is_coseparable, as products and Kronecker products."""
    eye = Matrix.identity(c.dim)
    outer = tensor_square_bicomodule(c)
    return lambda pi: [
        pi * c.delta - eye,
        c.delta * pi - kron(eye, pi) * outer.rho_l,
        c.delta * pi - kron(pi, eye) * outer.rho_r,
    ]


def injective_residual(m):
    """The residuals of is_I_injective, with C (x) M (x) C's coactions formed."""
    c = m.over
    eye = Matrix.identity(c.dim)
    j = kron(eye, m.rho_r) * m.rho_l
    big_rho_l = kron(c.delta, Matrix.identity(m.dim * c.dim))
    big_rho_r = kron(Matrix.identity(c.dim * m.dim), c.delta)
    return lambda r: [
        r * j - Matrix.identity(m.dim),
        m.rho_l * r - kron(eye, r) * big_rho_l,
        m.rho_r * r - kron(r, eye) * big_rho_r,
    ]


SMALL_COALGEBRAS = [
    grouplike(1), grouplike(2), grouplike(3), comatrix(2), divided_power(1), divided_power(2), divided_power(3)
]


@st.composite
def permuted_coalgebras(draw, coalgebras=SMALL_COALGEBRAS):
    c = draw(st.sampled_from(coalgebras))
    return permuted_coalgebra(c, draw(st.permutations(range(c.dim))))


@settings(max_examples=25, deadline=None)
@given(permuted_coalgebras(SMALL_COALGEBRAS + [comatrix(3)]))
def test_coseparable_system_matches_probing(c):
    shape = (c.dim, c.dim**2)
    residual = coseparable_residual(c)
    assert linear_system(shape, _coseparable_constraints(c)) == probe_system(shape, residual)
    assert is_coseparable(c) == solve_matrix_equations(shape, residual)


@st.composite
def injective_cases(draw):
    """A random graded bicomodule over grouplike(n), re-based or not, or
    Coker(delta) of a permuted coalgebra."""
    if draw(st.booleans()):
        return coker_delta(draw(permuted_coalgebras([c for c in SMALL_COALGEBRAS if c.dim <= 3])))
    rng = random.Random(draw(st.integers(0, 2**32)))
    m = random_graded_bicomodule(rng, grouplike(draw(st.integers(1, 3))), draw(st.integers(1, 4)))
    return conjugated_bicomodule(rng, m) if draw(st.booleans()) else m


def assert_injective_system_matches_probing(m):
    shape = (m.dim, m.over.dim**2 * m.dim)
    residual = injective_residual(m)
    assert linear_system(shape, _injective_constraints(m)) == probe_system(shape, residual)
    assert is_I_injective(m) == solve_matrix_equations(shape, residual)


@settings(max_examples=25, deadline=None)
@given(injective_cases())
def test_injective_system_matches_probing(m):
    assert_injective_system_matches_probing(m)


def test_injective_system_matches_probing_on_larger_cokernels():
    # 12-dim Coker(delta): a smooth and a non-smooth case of the decide benchmark
    rng = random.Random(35)
    for c in (comatrix(2), divided_power(3)):
        perm = list(range(c.dim))
        rng.shuffle(perm)
        assert_injective_system_matches_probing(coker_delta(permuted_coalgebra(c, perm)))


def test_differential_matrix_matches_probing():
    rng = random.Random(34)
    for c, l in random_pairs(rng, 6) + [(divided_power(2), coker_delta(divided_power(2)))]:
        for deg in (0, 1, 2, 3):
            probed, _ = probe_system(
                (c.dim**deg, l.dim), lambda x: [differential(c, l, Cochain(deg, x)).value]
            )
            assert differential_matrix(c, l, deg) == probed


# -- formal smoothness -------------------------------------------------------------------


def test_smoothness_battery():
    assert is_formally_smooth(grouplike(2)).smooth
    assert is_formally_smooth(grouplike(3)).smooth
    assert is_formally_smooth(comatrix(2)).smooth
    for trunc in (1, 2):
        result = is_formally_smooth(divided_power(trunc))
        assert not result.smooth
        assert result.h2_dim > 0


def test_smoothness_reports_witness():
    result = is_formally_smooth(grouplike(2))
    assert result.witness is not None
    verify_injectivity_witness(result.cokernel, result.witness)
