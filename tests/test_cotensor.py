"""The truncated construction, its cocycle tower and the universal map."""

import random
from fractions import Fraction

import pytest

from coalgkit.coalgebra import (
    CoalgebraMap,
    NotBicomoduleMap,
    coradical,
    divided_power,
    grouplike,
    validate_coalgebra,
)
from coalgkit.cotensor import (
    NicholsViolated,
    TruncationTooSmall,
    build_iterative,
    build_truncated,
    component_formula_check,
    determination_check,
    graded_cocycle,
    graded_limit_check,
    grading_check,
    universal_map,
    wedge_recovery_check,
)
from coalgkit.exactlin import Matrix, Subspace
from coalgkit.quiver import (
    Quiver,
    arrow_bicomodule,
    cycle_quiver,
    kronecker_quiver,
    loop_quiver,
    vertex_coalgebra,
)

from conftest import oracle_universal_components


def build(q, trunc):
    return build_truncated(vertex_coalgebra(q), arrow_bicomodule(q), trunc)


def single_arrow_quiver():
    return Quiver(("v1", "v2"), (("a", 0, 1),))


# -- direct construction ----------------------------------------------------------


def test_truncation_zero_is_base():
    t = build(cycle_quiver(3), 0)
    assert t.total.dim == 3
    assert t.total.delta == t.base.delta
    assert t.total.epsilon == t.base.epsilon


def test_loop_quiver_is_divided_powers():
    t = build(loop_quiver(), 3)
    assert t.total.dim == 4
    assert t.grading == (1, 1, 1, 1)
    dp = divided_power(3)
    assert t.total.delta == dp.delta
    assert t.total.epsilon == dp.epsilon
    # the length-2 path splits as g|p2 + p1|p1 + p2|g
    col = {(i, j): v for (i, j), v in t.total.delta.data.items() if j == 2}
    assert col == {(2, 2): 1, (5, 2): 1, (8, 2): 1}


def test_single_arrow_comultiplication():
    t = build(single_arrow_quiver(), 2)
    assert t.total.dim == 3
    assert t.grading == (2, 1, 0)
    # delta(a) = e2 (x) a + a (x) e1
    col = {(i, j): v for (i, j), v in t.total.delta.data.items() if j == 2}
    assert col == {(1 * 3 + 2, 2): 1, (2 * 3 + 0, 2): 1}


def test_total_passes_validation():
    for q, trunc in ((loop_quiver(), 4), (kronecker_quiver(), 3), (cycle_quiver(3), 3)):
        t = build(q, trunc)
        assert validate_coalgebra(t.total).passed


def test_epsilon_is_base_counit_on_degree_zero():
    t = build(cycle_quiver(3), 2)
    assert t.total.epsilon == t.base.epsilon * t.projections[0]


# -- the cocycle tower ---------------------------------------------------------------


def test_zeta_one_is_zero():
    g = graded_cocycle(vertex_coalgebra(loop_quiver()), arrow_bicomodule(loop_quiver()), 1)
    assert g.value.is_zero()


def test_zeta_two_loop_quiver():
    g = graded_cocycle(vertex_coalgebra(loop_quiver()), arrow_bicomodule(loop_quiver()), 2)
    # C^2 = span{g, p1}; zeta^2(p2) = -(p1 (x) p1)
    assert g.partial.dim == 2
    assert g.value == Matrix(4, 1, {(3, 0): -1})


def test_zeta_closed_up_to_degree_four():
    for q in (loop_quiver(), cycle_quiver(3), kronecker_quiver()):
        c, m = vertex_coalgebra(q), arrow_bicomodule(q)
        for n in range(1, 5):
            graded_cocycle(c, m, n)  # raises if not closed


def test_iterative_matches_direct():
    for q, trunc in (
        (loop_quiver(), 4),
        (kronecker_quiver(), 3),
        (cycle_quiver(3), 3),
        (single_arrow_quiver(), 2),
    ):
        t = build(q, trunc)
        tower, steps = build_iterative(t.base, t.input, trunc)
        assert tower.delta == t.total.delta
        assert tower.epsilon == t.total.epsilon
        assert len(steps) == trunc


def test_degree_one_truncation_is_trivial_extension():
    q = cycle_quiver(3)
    t = build(q, 1)
    m = t.input
    i_c, i_m = t.inclusions[0], t.inclusions[1]
    from coalgkit.exactlin import kron

    expected = kron(i_m, i_c) * m.rho_r + kron(i_c, i_m) * m.rho_l
    assert t.total.delta * i_m == expected


# -- structural checks ------------------------------------------------------------------


def test_component_formulas():
    for q, trunc in ((loop_quiver(), 4), (cycle_quiver(3), 3)):
        assert component_formula_check(build(q, trunc))


def test_grading():
    for q, trunc in ((loop_quiver(), 3), (kronecker_quiver(), 3)):
        assert grading_check(build(q, trunc))


def test_wedge_recovery():
    t = build(loop_quiver(), 3)
    for n in range(t.trunc + 2):
        assert wedge_recovery_check(t, n)
    # the level-2 wedge power is exactly the vertex and the loop
    from coalgkit.coalgebra import wedge_power

    sub = t.coalgebra_slice()
    assert wedge_power(t.total, sub, 2) == Subspace.from_matrix(t.sigma(2))


def test_graded_limit():
    for q, trunc in ((loop_quiver(), 3), (cycle_quiver(3), 3), (kronecker_quiver(), 2)):
        assert graded_limit_check(build(q, trunc))


def test_coradical_of_total_is_base_slice():
    for q, trunc in ((loop_quiver(), 3), (cycle_quiver(3), 2)):
        t = build(q, trunc)
        assert coradical(t.total) == Subspace.from_matrix(t.inclusions[0])


def test_tower_over_comatrix_base():
    # a cosemisimple but non-grouplike base with a 16-dim injective bicomodule
    from coalgkit.bicomodule import outer_bicomodule
    from coalgkit.coalgebra import comatrix, coradical

    c = comatrix(2)
    m = outer_bicomodule(c, 1)
    t = build_truncated(c, m, 2)
    assert t.grading == (4, 16, 64)
    tower, _ = build_iterative(c, m, 2)
    assert tower.delta == t.total.delta
    assert component_formula_check(t)
    assert all(wedge_recovery_check(t, n) for n in range(4))
    assert graded_limit_check(t)
    assert coradical(t.total) == Subspace.from_matrix(t.inclusions[0])


def test_block_maps_are_orthogonal_sections():
    t = build(cycle_quiver(3), 3)
    for n in range(t.trunc + 1):
        for k in range(t.trunc + 1):
            prod = t.projections[n] * t.inclusions[k]
            if n == k:
                assert prod == Matrix.identity(t.grading[k])
            else:
                assert prod.is_zero()


def test_cotensor_of_maps_matches_direct_restriction():
    # the squared cotensor power of the degree-one component both ways
    from coalgkit.bicomodule import Bicomodule, BicomoduleMap, cotensor_of_maps
    from coalgkit.exactlin import kron

    e = divided_power(2)
    t = build(loop_quiver(), 3)
    f_c = CoalgebraMap(e, t.base, e.epsilon)
    f_m = Matrix(1, 3, {(0, 1): 1})
    eye_e = Matrix.identity(e.dim)
    e_bic = Bicomodule(
        t.base, e.dim, kron(f_c.map, eye_e) * e.delta, kron(eye_e, f_c.map) * e.delta
    )
    fmap = BicomoduleMap(e_bic, t.input, f_m)
    via_functor = cotensor_of_maps(fmap, fmap)
    direct, _ = oracle_universal_components(e, f_c, f_m, t, 2)[1]
    assert via_functor == direct


# -- determination ---------------------------------------------------------------------


def test_determination_equal_maps():
    t = build(loop_quiver(), 3)
    ident = CoalgebraMap(t.total, t.total, Matrix.identity(t.total.dim))
    assert determination_check(t, ident, ident)


def test_determination_differing_in_degree_zero():
    t = build(single_arrow_quiver(), 2)
    e = grouplike(1)
    alpha = CoalgebraMap(e, t.total, Matrix(3, 1, {(0, 0): 1}))
    beta = CoalgebraMap(e, t.total, Matrix(3, 1, {(1, 0): 1}))
    assert t.projections[0] * alpha.map != t.projections[0] * beta.map
    assert determination_check(t, alpha, beta)


# -- the universal map -------------------------------------------------------------------


def test_universal_map_reconstructs_identity():
    t = build(loop_quiver(), 4)
    f_c = CoalgebraMap(t.total, t.base, t.projections[0])
    f = universal_map(t.total, f_c, t.projections[1], t)
    assert f.map == Matrix.identity(t.total.dim)


def test_universal_map_with_zero_degree_one():
    t = build(loop_quiver(), 4)
    c = t.base
    f_c = CoalgebraMap(c, c, Matrix.identity(c.dim))
    f = universal_map(c, f_c, Matrix.zero(t.input.dim, c.dim), t)
    assert f.map == t.inclusions[0]


def test_universal_map_embeds_divided_powers():
    # E = truncated divided powers, mapped by the coefficient-of-degree-one functional
    e = divided_power(2)
    t = build(loop_quiver(), 3)
    f_c = CoalgebraMap(e, t.base, e.epsilon)
    f_m = Matrix(1, 3, {(0, 1): 1})
    f = universal_map(e, f_c, f_m, t)
    expected = Matrix(4, 3, {(0, 0): 1, (1, 1): 1, (2, 2): 1})
    assert f.map == expected


def _universal_map_against_oracle(e, f_c, f_m, t):
    f = universal_map(e, f_c, f_m, t)
    assert t.projections[0] * f.map == f_c.map
    for k, (power, corestricted) in enumerate(oracle_universal_components(e, f_c, f_m, t), 1):
        assert t.projections[k] * f.map == power * corestricted
    return f


def test_universal_map_components_satisfy_the_recursion():
    e = divided_power(3)
    t = build(loop_quiver(), 4)
    _universal_map_against_oracle(e, CoalgebraMap(e, t.base, e.epsilon), Matrix(1, 4, {(0, 1): 1}), t)


def test_universal_map_rejects_nonzero_on_coradical():
    t = build(loop_quiver(), 2)
    c = t.base
    f_c = CoalgebraMap(c, c, Matrix.identity(1))
    with pytest.raises(NicholsViolated):
        universal_map(c, f_c, Matrix.from_rows([[1]]), t)


def test_universal_map_reports_minimal_truncation():
    e = divided_power(3)
    t = build(loop_quiver(), 2)
    f_c = CoalgebraMap(e, t.base, e.epsilon)
    f_m = Matrix(1, 4, {(0, 1): 1})
    with pytest.raises(TruncationTooSmall) as exc:
        universal_map(e, f_c, f_m, t)
    assert exc.value.minimal == 3


def test_universal_map_rejects_non_bicomodule_maps():
    t = build(single_arrow_quiver(), 2)
    e = t.total
    f_c = CoalgebraMap(e, t.base, t.projections[0])
    bad = Matrix(1, 3, {(0, 0): 1})  # sends a vertex to the arrow: breaks the grading
    with pytest.raises(NotBicomoduleMap):
        universal_map(e, f_c, bad, t)


def _universal_map_battery(rng):
    """46 cases: divided powers into loop truncations at two scalings of f_M;
    identity, zero and bigger-into-smaller maps on four quivers; one map that
    breaks the coactions and one that is nonzero on the coradical."""
    a2 = single_arrow_quiver()
    for d in range(1, 5):
        e = divided_power(d)
        for n in range(1, 5):
            t = build(loop_quiver(), n)
            for s in (1, rng.choice((-3, -2, 2, 3, Fraction(1, 2)))):
                yield e, CoalgebraMap(e, t.base, e.epsilon), Matrix(1, d + 1, {(0, 1): s}), t
    for q in (loop_quiver(), kronecker_quiver(), cycle_quiver(3), a2):
        t, big = build(q, 2), build(q, 3)
        yield t.total, CoalgebraMap(t.total, t.base, t.projections[0]), t.projections[1], t
        ident = CoalgebraMap(t.base, t.base, Matrix.identity(t.base.dim))
        yield t.base, ident, Matrix.zero(t.input.dim, t.base.dim), t
        yield big.total, CoalgebraMap(big.total, t.base, big.projections[0]), big.projections[1], t
    t = build(a2, 2)
    yield t.total, CoalgebraMap(t.total, t.base, t.projections[0]), Matrix(1, 3, {(0, 0): 1}), t
    t = build(loop_quiver(), 2)
    yield t.base, CoalgebraMap(t.base, t.base, Matrix.identity(1)), Matrix.from_rows([[1]]), t


def test_universal_map_matches_the_cotensor_power_route():
    outcomes = []
    for e, f_c, f_m, t in _universal_map_battery(random.Random(3001)):
        try:
            _universal_map_against_oracle(e, f_c, f_m, t)
            outcomes.append("map")
        except TruncationTooSmall as exc:
            # the reported level is enough, and its top component is needed
            assert exc.minimal > t.trunc
            t = build_truncated(t.base, t.input, exc.minimal)
            f = _universal_map_against_oracle(e, f_c, f_m, t)
            assert not (t.projections[-1] * f.map).is_zero()
            outcomes.append("too small")
        except (NotBicomoduleMap, NicholsViolated) as exc:
            outcomes.append(type(exc).__name__)
    assert len(outcomes) == 46
    assert outcomes.count("too small") == 14
    assert outcomes[-2:] == ["NotBicomoduleMap", "NicholsViolated"]


def test_universal_map_overflow_needs_no_tower_above_the_truncation():
    e = divided_power(6)
    t = build(loop_quiver(), 2)
    with pytest.raises(TruncationTooSmall) as exc:
        universal_map(e, CoalgebraMap(e, t.base, e.epsilon), Matrix(1, 7, {(0, 1): 1}), t)
    assert exc.value.minimal == 6


def test_universal_map_makes_no_cotensor_call(monkeypatch):
    import coalgkit.bicomodule

    t = build(loop_quiver(), 3)
    e = divided_power(2)
    small = build(loop_quiver(), 1)
    monkeypatch.setattr(coalgkit.bicomodule, "cotensor", lambda *args: pytest.fail("cotensor called"))
    ident = universal_map(t.total, CoalgebraMap(t.total, t.base, t.projections[0]), t.projections[1], t)
    assert ident.map == Matrix.identity(t.total.dim)
    f = universal_map(e, CoalgebraMap(e, t.base, e.epsilon), Matrix(1, 3, {(0, 1): 1}), t)
    assert f.map == Matrix(4, 3, {(0, 0): 1, (1, 1): 1, (2, 2): 1})
    with pytest.raises(TruncationTooSmall) as exc:
        universal_map(e, CoalgebraMap(e, small.base, e.epsilon), Matrix(1, 3, {(0, 1): 1}), small)
    assert exc.value.minimal == 2
