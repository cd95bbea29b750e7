"""Kernels, cokernels, tensor products and the subspace lattice."""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalgkit import exactlin
from coalgkit.exactlin import (
    DimensionMismatch,
    Matrix,
    NotInImage,
    Subspace,
    cokernel,
    factor_through,
    kernel,
    kron,
    kron_all,
    kron_mul,
    linear_system,
    preimage,
    rank,
    solve,
    subspace_equal,
    subspace_intersect,
    subspace_sum,
)

from conftest import oracle_solve, probe_system, random_matrix, random_split_surjection


def entries(m: Matrix):
    return m.to_rows()


small_rational = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


def matrices(rows, cols):
    return st.lists(
        st.lists(small_rational, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(Matrix.from_rows)


# -- kernels -------------------------------------------------------------------


def test_kernel_single_relation():
    k = kernel(Matrix.from_rows([[1, 1]]))
    assert k.dim == 1
    assert k.basis == Matrix.from_rows([[1], [-1]])


def test_kernel_identity_is_zero():
    assert kernel(Matrix.identity(2)).dim == 0


def test_kernel_coordinate_projection():
    k = kernel(Matrix.from_rows([[1, 0, 0], [0, 1, 0]]))
    assert k.basis == Matrix.from_rows([[0], [0], [1]])


def test_kernel_annihilates():
    rng = random.Random(1)
    for _ in range(20):
        f = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert (f * kernel(f).basis).is_zero()


@settings(max_examples=40, deadline=None)
@given(matrices(3, 4))
def test_rank_nullity(f):
    assert rank(f) + kernel(f).dim == f.cols


# -- cokernels -----------------------------------------------------------------


def test_cokernel_identity():
    _, q = cokernel(Matrix.identity(2))
    assert q == 0


def test_cokernel_axis_inclusion():
    proj, q = cokernel(Matrix.from_rows([[1], [0]]))
    assert q == 1
    assert proj == Matrix.from_rows([[0, 1]])


def test_cokernel_rank_one():
    f = Matrix.from_rows([[1, 1], [1, 1]])
    proj, q = cokernel(f)
    assert q == 1
    assert (proj * f).is_zero()


def test_cokernel_canonical_for_image():
    # same column space, different generating matrices
    a = Matrix.from_rows([[1, 0], [0, 1], [1, 1]])
    b = Matrix.from_rows([[2, 1], [1, 1], [3, 2]])
    assert cokernel(a)[0] == cokernel(b)[0]


# -- kron ------------------------------------------------------------------------


def test_kron_identities():
    assert kron(Matrix.identity(2), Matrix.identity(2)) == Matrix.identity(4)


def test_kron_scalars():
    assert kron(Matrix.from_rows([[2]]), Matrix.from_rows([[3]])) == Matrix.from_rows([[6]])


def test_kron_index_convention():
    # e_i (x) e_j goes to slot i * (right dim) + j: left factor most significant
    a = Matrix(3, 1, {(1, 0): 1})
    b = Matrix(4, 1, {(2, 0): 1})
    assert kron(a, b) == Matrix(12, 1, {(1 * 4 + 2, 0): 1})


@settings(max_examples=25, deadline=None)
@given(matrices(2, 2), matrices(2, 2), matrices(2, 2), matrices(2, 2))
def test_kron_mixed_product(a, b, c, d):
    assert kron(a, b) * kron(c, d) == kron(a * c, b * d)


@settings(max_examples=25, deadline=None)
@given(matrices(2, 2), matrices(2, 3), matrices(3, 2))
def test_kron_associativity(a, b, c):
    assert kron(kron(a, b), c) == kron(a, kron(b, c))


@st.composite
def sparse_matrices(draw, rows=None, cols=None):
    """Rational matrices with 0-3 rows and columns, from empty to full."""
    rows = draw(st.integers(0, 3)) if rows is None else rows
    cols = draw(st.integers(0, 3)) if cols is None else cols
    if not rows or not cols:
        return Matrix.zero(rows, cols)
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    return Matrix(rows, cols, draw(st.dictionaries(cells, small_rational)))


tensor_factors = st.one_of(st.integers(0, 3).map(Matrix.identity), sparse_matrices())


@settings(max_examples=200, deadline=None)
@given(st.lists(tensor_factors, min_size=1, max_size=3), st.data())
def test_kron_mul_matches_kron_product(factors, data):
    cols = 1
    for f in factors:
        cols *= f.cols
    x = data.draw(sparse_matrices(rows=cols))
    assert kron_mul(factors, x) == kron_all(factors) * x


def test_kron_mul_both_loop_orders():
    rng = random.Random(7)
    eye = Matrix.identity(3)
    # sparse factors against a dense x: the product is formed and multiplied
    sparse = [eye, Matrix(2, 3, {(1, 2): Fraction(-2, 3)}), Matrix(3, 2, {(0, 1): 5})]
    dense_x = random_matrix(rng, 18, 4)
    assert len(kron_all(sparse).data) < len(dense_x.data)
    assert kron_mul(sparse, dense_x) == kron_all(sparse) * dense_x
    # dense factors against a sparse x: the rows of x drive the loop
    dense = [random_matrix(rng, 3, 2), eye, random_matrix(rng, 2, 3)]
    sparse_x = Matrix(18, 3, {(5, 0): Fraction(1, 2), (16, 2): -1, (11, 1): 3})
    assert len(kron_all(dense).data) >= len(sparse_x.data)
    assert kron_mul(dense, sparse_x) == kron_all(dense) * sparse_x


def test_kron_mul_degenerate_shapes():
    x = Matrix.from_rows([[1, 2], [3, 4]])
    assert kron_mul([Matrix.identity(1), x, Matrix.from_rows([[5]])], x) == (x * x).scale(5)
    assert kron_mul([Matrix.zero(3, 0)], Matrix.zero(0, 2)) == Matrix.zero(3, 2)
    assert kron_mul([Matrix.zero(0, 2), x], Matrix.identity(4)) == Matrix.zero(0, 4)


def test_kron_mul_rejects_bad_shape():
    with pytest.raises(DimensionMismatch):
        kron_mul([Matrix.identity(2), Matrix.identity(3)], Matrix.identity(5))


# -- linear matrix constraints -------------------------------------------------------


@st.composite
def factor_lists(draw, rows, cols):
    """Zero to two factors whose tensor product is rows x cols; no factor
    stands for the identity, so that case needs rows == cols."""
    splits = [
        ((r1, rows // r1), (c1, cols // c1))
        for r1 in range(1, rows + 1) if rows % r1 == 0
        for c1 in range(1, cols + 1) if cols % c1 == 0
    ]
    count = draw(st.integers(0 if rows == cols else 1, 2 if splits else 1))
    if count == 2:
        shapes = list(zip(*draw(st.sampled_from(splits))))
    else:
        shapes = [(rows, cols)][:count]
    return [
        Matrix.identity(r) if r == c and draw(st.booleans()) else draw(sparse_matrices(r, c))
        for r, c in shapes
    ]


@st.composite
def constraint_systems(draw):
    """(shape, constraints) with one to three constraints of one to three terms."""
    p, q = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    constraints = []
    for _ in range(draw(st.integers(1, 3))):
        const = draw(sparse_matrices())
        terms = []
        for _ in range(draw(st.integers(1, 3))):
            before = draw(st.lists(tensor_factors, max_size=1))
            after = draw(st.lists(tensor_factors, max_size=1))
            mid_rows = prod(f.rows for f in before + after) * p
            mid_cols = prod(f.cols for f in before + after) * q
            left = draw(factor_lists(const.rows, mid_rows))
            right = draw(factor_lists(mid_cols, const.cols))
            coef = draw(st.sampled_from([1, -1, 2, Fraction(-1, 3)]))
            terms.append((coef, left, before + [None] + after, right))
        constraints.append((terms, const))
    return (p, q), constraints


def evaluate(constraints, x):
    """Each constraint's sum(terms) + const at X = x, term by term."""
    out = []
    for terms, const in constraints:
        total = const
        for coef, left, middle, right in terms:
            mid = kron_all([x if f is None else f for f in middle])
            left = kron_all(left) if left else Matrix.identity(mid.rows)
            right = kron_all(right) if right else Matrix.identity(mid.cols)
            total = total + (left * mid * right).scale(coef)
        out.append(total)
    return out


@settings(max_examples=150, deadline=None)
@given(constraint_systems())
def test_linear_system_matches_probing(case):
    shape, constraints = case
    assembled = linear_system(shape, constraints)
    assert assembled == probe_system(shape, lambda x: evaluate(constraints, x))


def test_linear_system_rejects_bad_shapes():
    eye = Matrix.identity(2)
    with pytest.raises(DimensionMismatch):  # L . X does not compose
        linear_system((2, 2), [([(1, [Matrix.identity(3)], [None], [])], Matrix.zero(3, 2))])
    with pytest.raises(DimensionMismatch):  # (X (x) I) . R has the wrong columns
        linear_system((2, 2), [([(1, [], [None, eye], [eye])], Matrix.zero(4, 4))])
    with pytest.raises(DimensionMismatch):  # the term is 2x2, the constant 2x3
        linear_system((2, 2), [([(1, [], [None], [])], Matrix.zero(2, 3))])


# -- factor_through ----------------------------------------------------------------


def test_factor_through_identity():
    g = Matrix.from_rows([[1, 2], [3, 4]])
    assert factor_through(Matrix.identity(2), g) == g


def test_factor_through_axis():
    chi = Matrix.from_rows([[1], [0]])
    g = Matrix.from_rows([[5], [0]])
    assert factor_through(chi, g) == Matrix.from_rows([[5]])


def test_factor_through_recomposes():
    rng = random.Random(2)
    for _ in range(20):
        f = random_matrix(rng, 3, 4)
        chi = kernel(f).basis
        coeffs = random_matrix(rng, chi.cols, 2)
        g = chi * coeffs
        h = factor_through(chi, g)
        assert chi * h == g


def test_factor_through_rejects_outside_image():
    chi = Matrix.from_rows([[1], [0]])
    with pytest.raises(NotInImage):
        factor_through(chi, Matrix.from_rows([[0], [1]]))


def test_solve_consistency():
    rng = random.Random(3)
    for _ in range(30):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        x_true = random_matrix(rng, a.cols, 2)
        b = a * x_true
        x = solve(a, b)
        assert x is not None and a * x == b


# -- subspace lattice ------------------------------------------------------------


def test_sum_idempotent():
    s = Subspace.span(3, [{0: Fraction(1), 1: Fraction(2)}])
    assert subspace_sum(s, s) == s


def test_preimage_under_identity():
    s = Subspace.span(3, [{0: Fraction(1)}, {2: Fraction(5)}])
    assert preimage(Matrix.identity(3), s) == s


def test_kron_subspace_sum_matches_nullspace():
    # span{e2} (x) K^2 + K^2 (x) span{e2} inside K^4
    e2 = Matrix.from_rows([[0], [1]])
    left = Subspace.from_matrix(kron(e2, Matrix.identity(2)))
    right = Subspace.from_matrix(kron(Matrix.identity(2), e2))
    total = subspace_sum(left, right)
    assert total.dim == 3
    assert total == kernel(kron(Matrix.from_rows([[1, 0]]), Matrix.from_rows([[1, 0]])))


def test_intersection():
    xy = Subspace.span(3, [{0: Fraction(1)}, {1: Fraction(1)}])
    yz = Subspace.span(3, [{1: Fraction(1)}, {2: Fraction(1)}])
    meet = subspace_intersect(xy, yz)
    assert meet == Subspace.span(3, [{1: Fraction(1)}])


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        subspace_sum(Subspace.full(2), Subspace.full(3))


def test_canonical_equality():
    # different generating sets, same subspace: identical basis matrices
    a = Subspace.span(3, [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1), 2: Fraction(1)}])
    b = Subspace.span(
        3,
        [
            {0: Fraction(2), 1: Fraction(2)},
            {0: Fraction(1), 1: Fraction(2), 2: Fraction(1)},
        ],
    )
    assert subspace_equal(a, b)
    assert a.basis == b.basis


def test_modular_law_sanity():
    rng = random.Random(4)
    for _ in range(10):
        a = Subspace.from_matrix(random_matrix(rng, 4, 2))
        b = Subspace.from_matrix(random_matrix(rng, 4, 2))
        meet = subspace_intersect(a, b)
        join = subspace_sum(a, b)
        assert a.dim + b.dim == meet.dim + join.dim


# -- split kernel decomposition ---------------------------------------------------


def test_split_kernel_decomposition():
    # Ker(f1 (x) f2) = Ker(f1) (x) X2 + X1 (x) Ker(f2) for split surjections
    rng = random.Random(5)
    for _ in range(20):
        c1, c2 = rng.randint(1, 4), rng.randint(1, 4)
        r1, r2 = rng.randint(1, c1), rng.randint(1, c2)
        f1 = random_split_surjection(rng, r1, c1)
        f2 = random_split_surjection(rng, r2, c2)
        lhs = kernel(kron(f1, f2))
        part1 = Subspace.from_matrix(kron(kernel(f1).basis, Matrix.identity(c2)))
        part2 = Subspace.from_matrix(kron(Matrix.identity(c1), kernel(f2).basis))
        assert lhs == subspace_sum(part1, part2)


# -- the certified modular echelon against the exact oracle ------------------------


def _kernel_columns(f: Matrix) -> list:
    """Reference nullspace by exact sparse column elimination; returns
    coefficient dicts, one per dependent column."""
    cols = f.columns()
    work = [(dict(c), {j: Fraction(1)}) for j, c in enumerate(cols)]
    kernel = []
    for idx in range(len(work)):
        vec, track = work[idx]
        if not vec:
            kernel.append(track)
            continue
        lead = min(vec)
        pv = vec[lead]
        for idx2 in range(idx + 1, len(work)):
            vec2, track2 = work[idx2]
            f2 = vec2.get(lead)
            if not f2:
                continue
            r = f2 / pv
            for part, ppart in ((vec2, vec), (track2, track)):
                for i, v in ppart.items():
                    s = part.get(i, 0) - r * v
                    if s:
                        part[i] = s
                    else:
                        part.pop(i, None)
    return kernel


def _rref_rows(rows: list) -> list:
    """Reference reduced row echelon form, pivots on the lowest index, by
    exact elimination that rescans every row for the next lead."""
    work = [dict(r) for r in rows if r]
    done = []  # (pivot_col, row)
    while work:
        lead = min(min(r) for r in work)
        pivot = next(r for r in work if lead in r)
        pivot = {c: v / pivot[lead] for c, v in pivot.items()}
        for r in work + [r for _, r in done]:
            f = r.get(lead)
            if f:
                for c, v in pivot.items():
                    r[c] = r.get(c, 0) - f * v
                for c in [c for c, v in r.items() if not v]:
                    del r[c]
        done.append((lead, pivot))
        work = [r for r in work if r]
    return sorted(done, key=lambda t: t[0])


def oracle_span(ambient_dim: int, vectors: list) -> Matrix:
    """The canonical basis by exact elimination only."""
    return Matrix.from_columns(ambient_dim, [r for _, r in _rref_rows(vectors)])


def oracle_kernel(f: Matrix) -> Matrix:
    return oracle_span(f.cols, _kernel_columns(f))


@st.composite
def deficient_matrices(draw):
    """Sparse rational matrices up to 6x6, zero-size shapes included, with
    up to two rows and two columns appended as combinations of others."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), small_rational)
    grid = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        a, b = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        c = draw(small_rational)
        grid.append([x + c * y for x, y in zip(grid[a], grid[b])])
    for _ in range(draw(st.integers(0, 2)) if cols else 0):
        a, b = draw(st.integers(0, cols - 1)), draw(st.integers(0, cols - 1))
        c = draw(small_rational)
        for row in grid:
            row.append(row[a] + c * row[b])
    ncols = len(grid[0]) if grid else cols
    data = {(i, j): v for i, row in enumerate(grid) for j, v in enumerate(row) if v}
    return Matrix(len(grid), ncols, data)


@settings(max_examples=150, deadline=None)
@given(deficient_matrices())
def test_kernel_and_rank_match_oracle(f):
    assert kernel(f).basis == oracle_kernel(f)
    assert rank(f) == f.cols - len(_kernel_columns(f))


@settings(max_examples=150, deadline=None)
@given(deficient_matrices())
def test_span_matches_exact_echelon(f):
    assert Subspace.span(f.rows, f.columns()).basis == oracle_span(f.rows, f.columns())


@settings(max_examples=100, deadline=None)
@given(deficient_matrices())
def test_cokernel_matches_oracle(f):
    proj, q = cokernel(f)
    assert proj == oracle_kernel(f.transpose()).transpose()
    assert q == proj.rows


@settings(max_examples=100, deadline=None)
@given(deficient_matrices(), st.data())
def test_intersect_matches_oracle(f, data):
    split = data.draw(st.integers(0, f.cols))
    cols = f.columns()
    a = Subspace(f.rows, oracle_span(f.rows, cols[:split]))
    b = Subspace(f.rows, oracle_span(f.rows, cols[split:]))
    # a x = b y: the a-part of each kernel vector of [A | -B] meets b
    stacked = Matrix.from_columns(
        f.rows, a.basis.columns() + [{i: -v for i, v in c.items()} for c in b.basis.columns()]
    )
    meet = []
    for track in _kernel_columns(stacked):
        vec = {}
        for j, c in track.items():
            if j < a.dim:
                for i, v in a.basis.column(j).items():
                    vec[i] = vec.get(i, 0) + c * v
        meet.append(vec)
    assert subspace_intersect(a, b).basis == oracle_span(f.rows, meet)


@st.composite
def linear_systems(draw):
    """(a, b, inconsistent_row): a from deficient_matrices, b with 0-3
    columns, either a x for a drawn x or drawn freely so that some systems
    are inconsistent; inconsistent_row when a last row was appended that is
    zero in a and nonzero in b."""
    a = draw(deficient_matrices())
    k = draw(st.integers(0, 3))
    entry = st.one_of(st.just(Fraction(0)), small_rational)
    if draw(st.booleans()):
        b = a * Matrix(a.cols, k, {(i, j): draw(entry) for i in range(a.cols) for j in range(k)})
    else:
        b = Matrix(a.rows, k, {(i, j): draw(entry) for i in range(a.rows) for j in range(k)})
    inconsistent_row = k > 0 and draw(st.booleans())
    if inconsistent_row:
        nonzero = {(a.rows, draw(st.integers(0, k - 1))): draw(small_rational.filter(bool))}
        a = Matrix(a.rows + 1, a.cols, a.data)
        b = Matrix(b.rows + 1, k, b.data | nonzero)
    return a, b, inconsistent_row


@settings(max_examples=200, deadline=None)
@given(linear_systems())
def test_solve_matches_oracle(system):
    a, b, inconsistent_row = system
    x = solve(a, b)
    assert x == oracle_solve(a, b)
    if inconsistent_row:
        assert x is None
    if x is not None:
        assert a * x == b


# -- each fallback to the exact echelon, one per trigger ---------------------------


P = 2**61 - 1


@pytest.fixture()
def exact_calls(monkeypatch):
    """Records the pivot order of each exact (not modular) echelon."""
    calls = []
    rref = exactlin._rref

    def spy(rows, highest, p=None):
        if p is None:
            calls.append(highest)
        return rref(rows, highest, p)

    monkeypatch.setattr(exactlin, "_rref", spy)
    return calls


def test_ordinary_input_stays_on_the_modular_path(exact_calls):
    rng = random.Random(6)
    for _ in range(40):
        f = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        f = f * random_matrix(rng, f.cols, rng.randint(1, 7)).scale(Fraction(1, 2))
        assert kernel(f).basis == oracle_kernel(f)
        assert Subspace.from_matrix(f).basis == oracle_span(f.rows, f.columns())
    assert exact_calls == []


def test_fallback_when_the_prime_divides_a_denominator(exact_calls):
    f = Matrix.from_rows([[1, Fraction(1, P)]])
    assert kernel(f).basis == Matrix.from_rows([[1], [-P]])
    assert Subspace.span(2, [{0: Fraction(1), 1: Fraction(1, P)}]).basis == Matrix.from_rows([[1], [Fraction(1, P)]])
    assert exact_calls == [True, False]


def test_fallback_when_entries_exceed_the_lift_bound(exact_calls):
    big = 3**20  # above 2**30
    assert exactlin._lifted_rref([{0: Fraction(1), 1: Fraction(big)}], highest=False) is None
    f = Matrix.from_rows([[big, 1]])
    assert kernel(f).basis == Matrix.from_rows([[1], [-big]])
    assert Subspace.span(2, [{0: Fraction(1), 1: Fraction(big)}]).basis == Matrix.from_rows([[1], [big]])
    assert exact_calls == [True, False]


def test_fallback_on_an_unlucky_prime(exact_calls):
    # rank 0 modulo P, rank 1 over Q: the certificates catch both
    f = Matrix.from_rows([[P]])
    assert kernel(f).basis == Matrix.zero(1, 0)
    assert rank(f) == 1
    assert Subspace.span(1, [{0: Fraction(P)}]).basis == Matrix.identity(1)
    assert exact_calls == [True, True, False]
