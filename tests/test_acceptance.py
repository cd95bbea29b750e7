"""Acceptance suite: every criterion checked exactly, one line per criterion.

All checks are tolerance-zero (exact rational arithmetic).  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

from coalgkit.bicomodule import (
    BicomoduleMap,
    induced_on_cokernel,
    regular_bicomodule,
    tensor_square_bicomodule,
)
from coalgkit.coalgebra import (
    CoalgebraMap,
    comatrix,
    coradical,
    divided_power,
    grouplike,
    subcoalgebra_on,
    wedge,
    wedge_filtration,
    wedge_power,
)
from coalgkit.cohomology import (
    Cochain,
    cohomology,
    differential_matrix,
    hochschild_extension,
    is_coseparable,
    is_formally_smooth,
    is_I_injective,
    trivialize_extension,
    _unvectorize,
)
from coalgkit.cotensor import (
    NicholsViolated,
    build_iterative,
    build_truncated,
    component_formula_check,
    graded_cocycle,
    universal_map,
    wedge_recovery_check,
)
from coalgkit.exactlin import (
    Matrix,
    Subspace,
    column_space,
    kernel,
    kron,
    preimage,
    subspace_sum,
)
from coalgkit.quiver import (
    arrow_bicomodule,
    deconcatenation_oracle,
    loop_quiver,
    oracle_compare,
    vertex_coalgebra,
)

from conftest import (
    oracle_universal_components,
    random_bicomodule_over,
    random_graded_bicomodule,
    random_matrix,
    random_split_surjection,
)

import pytest


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {description}")


def small_example_coalgebras():
    return [grouplike(1), grouplike(2), grouplike(3), divided_power(1), divided_power(2), divided_power(3), comatrix(2)]


def test_criterion_1_oracle_equivalence(acceptance_quivers):
    with criterion(1, "path-coalgebra oracle equivalence on 25 random + 3 named quivers"):
        for name, q, max_trunc in acceptance_quivers:
            for trunc in range(max_trunc + 1):
                oracle_compare(q, trunc)  # raises MismatchReport on any disagreement


def test_criterion_2_construction_equivalence(built_truncations):
    with criterion(2, "degreewise and extension-tower constructions agree entrywise"):
        for name, q, trunc, t in built_truncations:
            tower, steps = build_iterative(t.base, t.input, trunc)
            assert tower.delta == t.total.delta, name
            assert tower.epsilon == t.total.epsilon, name
            assert len(steps) == trunc


def test_criterion_3_cocycle_tower(built_truncations):
    from coalgkit.cohomology import differential

    with criterion(3, "graded 2-cocycles are closed in degrees 1..4 on all examples"):
        for name, q, trunc, t in built_truncations:
            for n in range(1, 5):
                g = graded_cocycle(t.base, t.input, n)
                closure = differential(g.partial, g.bicomodule, Cochain(2, g.value))
                assert closure.value.is_zero(), (name, n)


def test_criterion_4_component_formulas(built_truncations):
    with criterion(4, "all four component identities of the graded comultiplication"):
        for name, q, trunc, t in built_truncations:
            assert component_formula_check(t), name


def test_criterion_5_wedge_recovery(built_truncations):
    with criterion(5, "partial sums are exactly the wedge powers of the base slice"):
        for name, q, trunc, t in built_truncations:
            for n in range(trunc + 2):
                assert wedge_recovery_check(t, n), (name, n)


def test_criterion_6_wedge_algebra():
    rng = random.Random(601)
    with criterion(6, "wedge-of-kernels, power additivity, preimage formula, split tensor kernels"):
        # Ker(f) wedge Ker(g) = Ker[(f (x) g) delta], 20 randomized instances
        coalgebras = small_example_coalgebras()
        for i in range(20):
            c = coalgebras[i % len(coalgebras)]
            f = random_matrix(rng, rng.randint(1, 4), c.dim)
            g = random_matrix(rng, rng.randint(1, 4), c.dim)
            assert wedge(c, kernel(f), kernel(g)) == kernel(kron(f, g) * c.delta)

        # wedge-power additivity for m + n <= 4 on randomized subcoalgebras
        instances = 0
        cases = []
        for trunc in (1, 2, 3):
            c, _ = deconcatenation_oracle(loop_quiver(), trunc)
            cases.append((c, Subspace.span(c.dim, [{0: Fraction(1)}])))
        for n in (2, 3, 4):
            c = grouplike(n)
            for count in range(1, n + 1):
                cases.append((c, Subspace.span(c.dim, [{i: Fraction(1)} for i in range(count)])))
        for k in (1, 2):
            c = divided_power(3)
            cases.append((c, Subspace.span(c.dim, [{i: Fraction(1)} for i in range(k)])))
        for c, span in cases:
            sub = subcoalgebra_on(c, span)
            powers = {n: wedge_power(c, sub, n) for n in range(5)}
            for m_exp in range(3):
                for n_exp in range(3):
                    if 0 < m_exp + n_exp <= 4:
                        assert wedge(c, powers[m_exp], powers[n_exp]) == powers[m_exp + n_exp]
                        instances += 1
        assert instances >= 20

        # the squared wedge as a comultiplication preimage, one per subcoalgebra
        for c, span in cases:
            eye = Matrix.identity(c.dim)
            embedded = subspace_sum(
                Subspace.from_matrix(kron(span.basis, eye)),
                Subspace.from_matrix(kron(eye, span.basis)),
            )
            assert wedge(c, span, span) == preimage(c.delta, embedded)
        assert len(cases) >= 12

        # split kernel decomposition, 20 randomized instances
        for _ in range(20):
            c1, c2 = rng.randint(1, 4), rng.randint(1, 4)
            f1 = random_split_surjection(rng, rng.randint(1, c1), c1)
            f2 = random_split_surjection(rng, rng.randint(1, c2), c2)
            lhs = kernel(kron(f1, f2))
            rhs = subspace_sum(
                Subspace.from_matrix(kron(kernel(f1).basis, Matrix.identity(c2))),
                Subspace.from_matrix(kron(Matrix.identity(c1), kernel(f2).basis)),
            )
            assert lhs == rhs


def test_criterion_7_coseparability_battery():
    rng = random.Random(701)
    with criterion(7, "coseparability, relative injectivity and vanishing cohomology agree"):
        for c in (grouplike(1), grouplike(2), grouplike(3), comatrix(2)):
            pi = is_coseparable(c)
            assert pi is not None
            # witness verification
            eye = Matrix.identity(c.dim)
            outer = tensor_square_bicomodule(c)
            assert pi * c.delta == eye
            assert c.delta * pi == kron(eye, pi) * outer.rho_l
            assert c.delta * pi == kron(pi, eye) * outer.rho_r
            # (b): the coalgebra itself is relatively injective over itself
            assert is_I_injective(regular_bicomodule(c)) is not None
            # (c), (d): five random bicomodules with vanishing H^1 and H^2
            for k in range(5):
                if c.dim <= 3:
                    l = random_graded_bicomodule(rng, c, rng.randint(1, 4))
                else:
                    l = random_bicomodule_over(rng, c)
                assert cohomology(c, l, 1).dim == 0
                assert cohomology(c, l, 2).dim == 0
        # the three answers also agree on a non-coseparable instance
        c = divided_power(1)
        assert is_coseparable(c) is None
        assert is_I_injective(regular_bicomodule(c)) is None
        assert cohomology(c, regular_bicomodule(c), 1).dim > 0


def test_criterion_8_formal_smoothness_battery():
    rng = random.Random(801)
    with criterion(8, "smoothness decisions agree with second cohomology; trivialization is exact"):
        for c in (grouplike(1), grouplike(2), grouplike(3), comatrix(2)):
            result = is_formally_smooth(c)  # raises if the two criteria disagree
            assert result.smooth
        for trunc in (1, 2):
            result = is_formally_smooth(divided_power(trunc))
            assert not result.smooth
            assert result.h2_dim > 0

        # extension trivialization succeeds exactly on coboundary cocycles
        checked_boundary = 0
        checked_nonboundary = 0
        pairs = []
        c = grouplike(2)
        for _ in range(3):
            pairs.append((c, random_graded_bicomodule(rng, c, rng.randint(2, 3))))
        dp = divided_power(1)
        reg = regular_bicomodule(dp)
        square = tensor_square_bicomodule(dp)
        cok, _ = induced_on_cokernel(BicomoduleMap(reg, square, dp.delta))
        pairs.append((dp, cok))
        for base, l in pairs:
            b2 = differential_matrix(base, l, 2)
            b1 = differential_matrix(base, l, 1)
            cocycles = kernel(b2)
            boundaries = column_space(b1)
            for col in cocycles.basis.columns():
                vec = Matrix(cocycles.ambient_dim, 1, {(i, 0): v for i, v in col.items()})
                zeta = Cochain(2, _unvectorize(vec, base.dim**2, l.dim))
                ext = hochschild_extension(base, l, zeta)
                retraction = trivialize_extension(ext)
                is_boundary = boundaries.contains_vector(col)
                assert (retraction is not None) == is_boundary
                if is_boundary:
                    checked_boundary += 1
                    assert retraction.map * ext.sigma.map == Matrix.identity(base.dim)
                else:
                    checked_nonboundary += 1
        assert checked_boundary > 0 and checked_nonboundary > 0


def test_criterion_9_universal_property():
    with criterion(9, "universal map: identity case, base case, components, coradical rejection"):
        t = build_truncated(vertex_coalgebra(loop_quiver()), arrow_bicomodule(loop_quiver()), 4)
        f_c = CoalgebraMap(t.total, t.base, t.projections[0])
        f = universal_map(t.total, f_c, t.projections[1], t)
        assert f.map == Matrix.identity(t.total.dim)

        base_map = CoalgebraMap(t.base, t.base, Matrix.identity(t.base.dim))
        f0 = universal_map(t.base, base_map, Matrix.zero(t.input.dim, t.base.dim), t)
        assert f0.map == t.inclusions[0]

        # component recursion for an embedded divided-power coalgebra
        e = divided_power(3)
        f_c = CoalgebraMap(e, t.base, e.epsilon)
        f_m = Matrix(1, 4, {(0, 1): 1})
        g = universal_map(e, f_c, f_m, t)
        assert t.projections[0] * g.map == f_c.map
        for k, (power, corestricted) in enumerate(oracle_universal_components(e, f_c, f_m, t), 1):
            assert t.projections[k] * g.map == power * corestricted

        # nonzero degree-one component on the coradical is rejected
        ident = CoalgebraMap(t.base, t.base, Matrix.identity(1))
        with pytest.raises(NicholsViolated):
            universal_map(t.base, ident, Matrix.from_rows([[1]]), t)


def test_criterion_10_coradical(built_truncations):
    with criterion(10, "coradical is the vertex span; filtrations match; coradical containment"):
        for name, q, trunc, t in built_truncations:
            oracle, basis = deconcatenation_oracle(q, trunc)
            vertex_span = Subspace.span(oracle.dim, [{i: Fraction(1)} for i in range(q.n_vertices)])
            assert coradical(oracle) == vertex_span, name
            sub = subcoalgebra_on(oracle, vertex_span)
            filt = wedge_filtration(oracle, sub)
            for k, term in enumerate(filt.chain, start=1):
                expected = Subspace.span(
                    oracle.dim,
                    [{i: Fraction(1)} for i, p in enumerate(basis.paths) if p.length < k],
                )
                assert term == expected, (name, k)
        # containment: a subcoalgebra with exhaustive filtration contains the coradical
        tested = 0
        for c, span in (
            (deconcatenation_oracle(loop_quiver(), 3)[0], Subspace.span(4, [{0: Fraction(1)}])),
            (divided_power(3), Subspace.span(4, [{0: Fraction(1)}, {1: Fraction(1)}])),
            (grouplike(3), Subspace.full(3)),
            (comatrix(2), Subspace.full(4)),
        ):
            sub = subcoalgebra_on(c, span)
            filt = wedge_filtration(c, sub)
            if filt.stabilized == Subspace.full(c.dim):
                assert filt.stabilized.contains(coradical(c))
                assert span.contains(coradical(c))
                tested += 1
        assert tested >= 3
