"""Coalgebra validation, verify, constructors, coradical and wedges."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalgkit.bicomodule import BicomoduleMap, induced_on_cokernel, regular_bicomodule
from coalgkit.coalgebra import (
    Coalgebra,
    InternalCheckFailed,
    NotBicomoduleMap,
    NotSubcoalgebra,
    comatrix,
    coradical,
    divided_power,
    grouplike,
    iterated_delta,
    kernel_subcoalgebra,
    subcoalgebra_on,
    unit_coalgebra,
    validate_coalgebra,
    verify,
    wedge,
    wedge_filtration,
    wedge_power,
)
from coalgkit.exactlin import (
    Matrix,
    Subspace,
    kernel,
    kron,
    preimage,
    subspace_sum,
)
from coalgkit.quiver import cycle_quiver, deconcatenation_oracle, kronecker_quiver, loop_quiver

from conftest import (
    oracle_coradical,
    permuted_coalgebra,
    random_invertible,
    random_matrix,
    rebased_coalgebra,
)


def vertex_span(c: Coalgebra, count: int) -> Subspace:
    return Subspace.span(c.dim, [{i: Fraction(1)} for i in range(count)])


# -- validation ---------------------------------------------------------------


def test_grouplike_passes():
    assert validate_coalgebra(grouplike(2)).passed
    assert validate_coalgebra(grouplike(3)).passed


def test_perturbed_grouplike_fails_coassociativity():
    c = grouplike(2)
    # add a cross term e_1 (x) e_1 with coefficient 2 to delta(e_0)
    bad = Matrix(4, 2, dict(c.delta.data) | {(3, 0): Fraction(2)})
    report = validate_coalgebra(Coalgebra(2, bad, c.epsilon))
    assert not report.passed
    failed = {chk.axiom for chk in report.failures()}
    assert "coassociativity" in failed
    assert report.failures()[0].witness is not None


def test_comatrix_passes():
    assert validate_coalgebra(comatrix(2)).passed
    assert validate_coalgebra(comatrix(3)).passed


def test_divided_power_passes():
    for trunc in range(4):
        assert validate_coalgebra(divided_power(trunc)).passed


def test_unit_coalgebra():
    c = unit_coalgebra()
    assert c.delta == Matrix.from_rows([[1]])
    assert c.epsilon == Matrix.from_rows([[1]])


def test_grouplike_two_indicator_columns():
    c = grouplike(2)
    assert c.delta == Matrix(4, 2, {(0, 0): 1, (3, 1): 1})


# -- iterated comultiplication ---------------------------------------------------


def test_iterated_delta_degenerate_cases():
    c = divided_power(2)
    assert iterated_delta(c, 0) == Matrix.identity(3)
    assert iterated_delta(c, 1) == c.delta


def test_iterated_delta_grouplike():
    c = grouplike(2)
    d2 = iterated_delta(c, 2)
    assert d2 == Matrix(8, 2, {(0, 0): 1, (7, 1): 1})


def test_iterated_delta_bracketing_independence():
    for c in (grouplike(2), comatrix(2), divided_power(3)):
        n = c.dim
        eye = Matrix.identity(n)
        d2 = iterated_delta(c, 2)
        d3 = iterated_delta(c, 3)
        assert kron(c.delta, kron(eye, eye)) * d2 == d3
        assert kron(eye, kron(c.delta, eye)) * d2 == d3
        assert kron(kron(eye, eye), c.delta) * d2 == d3


# -- coradical ---------------------------------------------------------------------


def test_coradical_of_cosemisimple_is_everything():
    for n in (1, 2, 3):
        assert coradical(grouplike(n)) == Subspace.full(n)
    assert coradical(comatrix(2)) == Subspace.full(4)


def test_coradical_two_dimensional_example():
    # span{g, x} with x primitive over g
    delta = Matrix(4, 2, {(0, 0): 1, (1, 1): 1, (2, 1): 1})
    eps = Matrix(1, 2, {(0, 0): 1})
    c = Coalgebra(2, delta, eps)
    assert validate_coalgebra(c).passed
    assert coradical(c) == Subspace.span(2, [{0: Fraction(1)}])


def test_coradical_of_path_truncations_is_vertex_span():
    for q, trunc in ((loop_quiver(), 3), (cycle_quiver(3), 2)):
        c, _ = deconcatenation_oracle(q, trunc)
        assert coradical(c) == vertex_span(c, q.n_vertices)


CORADICAL_CASES = [
    grouplike(3),
    comatrix(2),
    divided_power(5),
    deconcatenation_oracle(loop_quiver(), 3)[0],
    deconcatenation_oracle(kronecker_quiver(), 1)[0],
    deconcatenation_oracle(cycle_quiver(3), 2)[0],
]


@st.composite
def rebased_coalgebras(draw):
    """A case of CORADICAL_CASES, its basis permuted or changed at random."""
    c = draw(st.sampled_from(CORADICAL_CASES))
    if draw(st.booleans()):
        return permuted_coalgebra(c, draw(st.permutations(range(c.dim))))
    return rebased_coalgebra(c, *random_invertible(random.Random(draw(st.integers(0, 2**32))), c.dim))


@settings(max_examples=20, deadline=None)
@given(rebased_coalgebras())
def test_coradical_matches_trace_form_oracle(c):
    assert coradical(c) == oracle_coradical(c)


# -- kernel subcoalgebra -------------------------------------------------------------


def test_kernel_subcoalgebra_of_zero_map():
    c = divided_power(2)
    target = regular_bicomodule(c)
    sub, inc = kernel_subcoalgebra(c, Matrix.zero(c.dim, c.dim), target)
    assert sub.dim == c.dim
    assert inc.map == Matrix.identity(c.dim)


def test_kernel_subcoalgebra_of_injective_map_is_zero():
    c = divided_power(1)
    target = regular_bicomodule(c)
    sub, inc = kernel_subcoalgebra(c, Matrix.identity(c.dim), target)
    assert sub.dim == 0


def test_kernel_subcoalgebra_top_degree_projection():
    # killing the top path degree leaves the next-lower truncation
    trunc = 3
    c, basis = deconcatenation_oracle(loop_quiver(), trunc)
    lower_dim = sum(1 for p in basis.paths if p.length < trunc)
    inc = Matrix(c.dim, lower_dim, {(i, i): 1 for i in range(lower_dim)})
    reg = regular_bicomodule(c)
    sub_bic_rho_l = kron(Matrix.identity(c.dim), inc)
    # inclusion of the lower truncation is a bicomodule map; build its cokernel
    from coalgkit.bicomodule import Bicomodule
    from coalgkit.exactlin import factor_through

    rho_l = factor_through(kron(Matrix.identity(c.dim), inc), c.delta * inc)
    rho_r = factor_through(kron(inc, Matrix.identity(c.dim)), c.delta * inc)
    lower = Bicomodule(c, lower_dim, rho_l, rho_r)
    cok, projmap = induced_on_cokernel(BicomoduleMap(lower, reg, inc))
    sub, incmap = kernel_subcoalgebra(c, projmap.map, cok)
    oracle_lower, _ = deconcatenation_oracle(loop_quiver(), trunc - 1)
    assert sub.delta == oracle_lower.delta
    assert sub.epsilon == oracle_lower.epsilon


def test_kernel_subcoalgebra_rejects_non_bicomodule_maps():
    c = divided_power(2)
    target = regular_bicomodule(c)
    f = Matrix(c.dim, c.dim, {(0, 1): 1})  # shuffles grades: no intertwining
    with pytest.raises(NotBicomoduleMap):
        kernel_subcoalgebra(c, f, target)


# -- wedge --------------------------------------------------------------------------


def test_wedge_of_whole_space():
    c = divided_power(2)
    full = Subspace.full(c.dim)
    assert wedge(c, full, full) == full


def test_wedge_of_kernels_identity():
    # Ker(f) wedge Ker(g) = Ker[(f (x) g) delta] for random plain maps
    rng = random.Random(11)
    for c in (divided_power(2), grouplike(3), comatrix(2)):
        for _ in range(8):
            f = random_matrix(rng, rng.randint(1, 3), c.dim)
            g = random_matrix(rng, rng.randint(1, 3), c.dim)
            lhs = wedge(c, kernel(f), kernel(g))
            rhs = kernel(kron(f, g) * c.delta)
            assert lhs == rhs


def test_wedge_monotone_and_contains_sum():
    c, _ = deconcatenation_oracle(loop_quiver(), 3)
    x = vertex_span(c, 1)
    y = Subspace.span(c.dim, [{0: Fraction(1)}, {1: Fraction(1)}])
    w_small = wedge(c, x, x)
    w_big = wedge(c, y, x)
    assert w_big.contains(w_small)
    assert wedge(c, x, y).contains(subspace_sum(x, y))


def test_wedge_squared_matches_preimage_formula():
    # D wedge D = delta^{-1}(D (x) C + C (x) D) for split subcoalgebra inclusions
    for c, d_dim in (
        (divided_power(3), 1),
        (deconcatenation_oracle(cycle_quiver(3), 2)[0], 3),
    ):
        d = Subspace.span(c.dim, [{i: Fraction(1)} for i in range(d_dim)])
        eye = Matrix.identity(c.dim)
        embedded = subspace_sum(
            Subspace.from_matrix(kron(d.basis, eye)),
            Subspace.from_matrix(kron(eye, d.basis)),
        )
        assert wedge(c, d, d) == preimage(c.delta, embedded)


# -- wedge powers and filtration ---------------------------------------------------


def test_wedge_power_one_is_the_subcoalgebra():
    c, _ = deconcatenation_oracle(loop_quiver(), 3)
    sub = subcoalgebra_on(c, vertex_span(c, 1))
    assert wedge_power(c, sub, 1) == sub.subspace
    assert wedge_power(c, sub, 0) == Subspace.zero(c.dim)


def test_wedge_power_loop_quiver():
    c, _ = deconcatenation_oracle(loop_quiver(), 3)
    sub = subcoalgebra_on(c, vertex_span(c, 1))
    assert wedge_power(c, sub, 2) == Subspace.span(
        c.dim, [{0: Fraction(1)}, {1: Fraction(1)}]
    )


def test_wedge_power_additivity():
    # wedge of wedge powers is the wedge power of the sum of the exponents
    for q, trunc in ((loop_quiver(), 3), (cycle_quiver(3), 2)):
        c, _ = deconcatenation_oracle(q, trunc)
        sub = subcoalgebra_on(c, vertex_span(c, q.n_vertices))
        powers = {n: wedge_power(c, sub, n) for n in range(5)}
        for m in range(3):
            for n in range(3):
                if m + n > 4:
                    continue
                assert wedge(c, powers[m], powers[n]) == powers[m + n]


def test_wedge_filtration_whole_space():
    c = divided_power(2)
    sub = subcoalgebra_on(c, Subspace.full(c.dim))
    filt = wedge_filtration(c, sub)
    assert filt.loewy_length == 1
    assert len(filt.chain) == 1
    assert filt.stabilized == Subspace.full(c.dim)


def test_wedge_filtration_is_length_filtration():
    trunc = 3
    q = loop_quiver()
    c, basis = deconcatenation_oracle(q, trunc)
    sub = subcoalgebra_on(c, vertex_span(c, 1))
    filt = wedge_filtration(c, sub)
    assert filt.loewy_length == trunc + 1
    for k, term in enumerate(filt.chain, start=1):
        expected = sum(1 for p in basis.paths if p.length < k)
        assert term.dim == expected
    assert filt.stabilized == Subspace.full(c.dim)


def test_coradical_filtration_exhausts(example_coalgebras):
    for name, c in example_coalgebras.items():
        sub = subcoalgebra_on(c, coradical(c))
        filt = wedge_filtration(c, sub)
        assert filt.stabilized == Subspace.full(c.dim), name


def test_coradical_is_a_subcoalgebra(example_coalgebras):
    for c in example_coalgebras.values():
        sub = subcoalgebra_on(c, coradical(c))
        assert validate_coalgebra(sub.coalgebra).passed


def test_subcoalgebra_rejects_non_closed_subspace():
    c, _ = deconcatenation_oracle(loop_quiver(), 2)
    bad = Subspace.span(c.dim, [{2: Fraction(1)}])  # top path alone is not closed
    with pytest.raises(NotSubcoalgebra):
        subcoalgebra_on(c, bad)


# -- verify -----------------------------------------------------------------------------


def _no_witness_search(monkeypatch):
    def refuse(self, other):
        raise RuntimeError("first_difference called on a passing check")

    monkeypatch.setattr(Matrix, "first_difference", refuse)


def test_verify_passes_silently_without_a_witness_search(monkeypatch):
    _no_witness_search(monkeypatch)
    verify("report", validate_coalgebra(divided_power(2)))
    verify("bool", True)
    verify("matrices", Matrix.identity(3), Matrix.identity(3))


def test_verify_failed_report_names_the_check_and_failed_axioms():
    c = divided_power(2)
    broken = Coalgebra(c.dim, c.delta, c.epsilon.scale(2))
    with pytest.raises(InternalCheckFailed) as exc:
        verify("doubled counit", validate_coalgebra(broken))
    assert str(exc.value) == (
        "doubled counit fails axioms:\n"
        "  left counit: FAIL at (0,0): 2 != 1\n"
        "  right counit: FAIL at (0,0): 2 != 1"
    )


def test_verify_false_names_the_check():
    with pytest.raises(InternalCheckFailed, match=r"^graded cocycle is closed: FAIL$"):
        verify("graded cocycle is closed", False)


def test_verify_matrix_mismatch_gives_the_first_differing_entry():
    lhs = Matrix.from_rows([[1, 0], [2, 5]])
    with pytest.raises(InternalCheckFailed, match=r"^coaction: FAIL at \(1,0\): 2 != 3$"):
        verify("coaction", lhs, Matrix.from_rows([[1, 0], [3, 4]]))
    with pytest.raises(InternalCheckFailed, match=r"^coaction: FAIL shape \(2, 2\) != \(2, 1\)$"):
        verify("coaction", lhs, Matrix.zero(2, 1))
