"""Exact sparse linear algebra over the rationals.

Matrices are immutable maps between coordinate spaces with entries in Q,
held as a sparse dictionary of nonzero entries so that maps into very
large tensor powers stay cheap.  All semantics (shape checks, equality,
serialization) are those of an ordinary dense rows x cols matrix.

Tensor products are applied without being formed: kron_mul(factors, x)
returns (F1 (x) ... (x) Fk) . x, the same matrix as kron_all(factors) * x,
at the cost of the entries that actually meet a nonzero of x.  In the same
way linear_system assembles the linear system of matrix constraints
sum coef . L (F1 (x) ... (x) X (x) ... (x) Fk) R + const = 0 in an unknown
X, reading each coefficient off the factors' nonzeros.

Subspaces are kept in a canonical reduced column-echelon form, so that
two equal subspaces have literally identical basis matrices and equality
is a matrix comparison.

kernel, Subspace.span and solve share one elimination, _rref: a sparse
reduced row echelon form over Q, or modulo the prime p = 2^61 - 1 on plain
ints.  kernel and span first run it modulo p and lift the entries to Q by
rational reconstruction (numerators and denominators below 2^30).  A lifted
result is used only once it is certified exactly over Q:

- kernel(f) reduces the rows of f with pivots on their highest index; each
  free column q then gives e_q - sum_p R[p, q] e_p, already the canonical
  basis.  Certificate: f K = 0, checked in integers.  The modular rank never
  exceeds the rational one, so K spans the whole kernel.
- Subspace.span(vs) reduces the vectors with pivots on their lowest index.
  Certificate: every input v equals sum_i v[p_i] R_i.

When p divides a denominator, an entry has no lift within the bound, or a
certificate fails, the same elimination and read-off run over Q in Fraction
arithmetic instead.  rank, column_space, cokernel, subspace_sum,
subspace_intersect and preimage all go through kernel or span.

solve(a, b) reduces the rows of [a | b] over Q only, with pivots on their
lowest index, and reads the solution off the pivot rows.  A modular pass
with a span certificate on the augmented rows measured slower on the 0/1
systems of factor_through and heavier in memory on those of the decision
procedures.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm, prod
from typing import Iterable, Optional

Rational = Fraction


class DimensionMismatch(ValueError):
    """Shapes of the operands are incompatible."""


class NotInImage(ValueError):
    """factor_through received a column outside the image of the injection."""


def rational(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to a Fraction in lowest terms."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as a rational number")


_ZERO = Fraction(0)
_ONE = Fraction(1)


class Matrix:
    """An immutable rows x cols matrix over Q.

    Only nonzero entries are stored.  Row and column indices may be large
    (tensor-power coordinates); the dense entry grid is never materialized
    except on explicit export.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Optional[dict] = None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        if data is None:
            data = {}
        clean = {}
        for (i, j), v in data.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"entry ({i},{j}) outside {rows}x{cols} matrix")
            v = rational(v)
            if v:
                clean[(i, j)] = v
        self.data = clean

    # -- construction ------------------------------------------------

    @classmethod
    def from_rows(cls, entries: Iterable[Iterable]) -> "Matrix":
        rows = [list(r) for r in entries]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        data = {}
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                v = rational(v)
                if v:
                    data[(i, j)] = v
        return cls(nrows, ncols, data)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, {})

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, {(i, i): _ONE for i in range(n)})

    @classmethod
    def from_columns(cls, rows: int, columns: Iterable[dict]) -> "Matrix":
        cols = list(columns)
        data = {}
        for j, col in enumerate(cols):
            for i, v in col.items():
                if v:
                    data[(i, j)] = rational(v)
        return cls(rows, len(cols), data)

    @classmethod
    def basis_vector(cls, n: int, i: int) -> "Matrix":
        return cls(n, 1, {(i, 0): _ONE})

    # -- basic queries -------------------------------------------------

    def __getitem__(self, ij) -> Fraction:
        return self.data.get(ij, _ZERO)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.data.items())))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols}, nnz={len(self.data)})"

    def is_zero(self) -> bool:
        return not self.data

    @property
    def shape(self):
        return (self.rows, self.cols)

    def first_difference(self, other: "Matrix"):
        """First (row, col, self_entry, other_entry) where the matrices differ."""
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} vs {other.shape}")
        keys = set(self.data) | set(other.data)
        for ij in sorted(keys):
            a, b = self[ij], other[ij]
            if a != b:
                return (ij[0], ij[1], a, b)
        return None

    def column(self, j: int) -> dict:
        return {i: v for (i, jj), v in self.data.items() if jj == j}

    def columns(self) -> list:
        cols = [dict() for _ in range(self.cols)]
        for (i, j), v in self.data.items():
            cols[j][i] = v
        return cols

    def to_rows(self) -> list:
        """Dense row-major export; only sensible at desk scale."""
        if self.rows * self.cols > 4_000_000:
            raise MemoryError("refusing to densify a matrix this large")
        out = [[_ZERO] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.data.items():
            out[i][j] = v
        return out

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} + {other.shape}")
        data = dict(self.data)
        for ij, v in other.data.items():
            s = data.get(ij, _ZERO) + v
            if s:
                data[ij] = s
            else:
                data.pop(ij, None)
        return Matrix(self.rows, self.cols, data)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, {ij: -v for ij, v in self.data.items()})

    def scale(self, s) -> "Matrix":
        s = rational(s)
        if not s:
            return Matrix.zero(self.rows, self.cols)
        return Matrix(self.rows, self.cols, {ij: s * v for ij, v in self.data.items()})

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.shape} * {other.shape}")
        # index only the rows of other that self reads: a small self against
        # a large other is common
        needed = {k for _, k in self.data}
        rows_of_other = {}
        for (k, j), v in other.data.items():
            if k in needed:
                rows_of_other.setdefault(k, []).append((j, v))
        acc = {}
        for (i, k), a in self.data.items():
            hits = rows_of_other.get(k)
            if not hits:
                continue
            for j, b in hits:
                ij = (i, j)
                s = acc.get(ij, _ZERO) + a * b
                if s:
                    acc[ij] = s
                else:
                    acc.pop(ij, None)
        return Matrix(self.rows, other.cols, acc)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, {(j, i): v for (i, j), v in self.data.items()})

    def kron(self, other: "Matrix") -> "Matrix":
        """Tensor product with the left factor most significant in indices."""
        data = {}
        br, bc = other.rows, other.cols
        for (i, j), a in self.data.items():
            ii = i * br
            jj = j * bc
            for (k, l), b in other.data.items():
                data[(ii + k, jj + l)] = a * b
        return Matrix(self.rows * br, self.cols * bc, data)


def kron(f: Matrix, g: Matrix) -> Matrix:
    return f.kron(g)


def kron_all(factors: Iterable[Matrix]) -> Matrix:
    """Left-associated iterated tensor product."""
    out = None
    for f in factors:
        out = f if out is None else out.kron(f)
    if out is None:
        return Matrix.identity(1)
    return out


def _tensor_columns(factors: list):
    """The function c -> column c of kron_all(factors).

    c is read as digits (d_1, ..., d_k) in mixed radix over the factors'
    column counts, left factor most significant, and the column is the tensor
    product of column d_i of every factor F_i: a list of (row, value) pairs
    over its nonzeros.  Values equal to one are kept as None: the structure
    matrices are 0/1, and skipping those Fraction products halves
    truncation's time.
    """
    plan = []
    for f in factors:
        fcols = [[] for _ in range(f.cols)]
        for (i, j), v in f.data.items():
            fcols[j].append((i, None if v == 1 else v))
        plan.append((f.rows, fcols))
    radices = [f.cols for f in reversed(factors)]

    def column(c):
        digits = []
        for radix in radices:
            c, d = divmod(c, radix)
            digits.append(d)
        out = [(0, None)]
        for (fr, fcols), d in zip(plan, reversed(digits)):
            out = [
                (r * fr + i, v if a is None else a if v is None else a * v)
                for r, a in out
                for i, v in fcols[d]
            ]
        return out

    return column


def kron_mul(factors: Iterable[Matrix], x: Matrix) -> Matrix:
    """(F1 (x) ... (x) Fk) . x without forming the tensor product.

    Equal to kron_all(factors) * x.  Each nonzero row r of x is expanded
    through column r of the product (see _tensor_columns), so only entries
    that meet a nonzero of x are multiplied.  When the product has fewer
    nonzeros than x it is cheaper to form it, and kron_all(factors) * x is
    returned instead.
    """
    factors = list(factors)
    rows = cols = nnz = 1
    for f in factors:
        rows *= f.rows
        cols *= f.cols
        nnz *= len(f.data)
    if cols != x.rows:
        shapes = " (x) ".join(f"{f.rows}x{f.cols}" for f in factors)
        raise DimensionMismatch(f"({shapes}) * {x.shape}")
    if nnz < len(x.data):
        return kron_all(factors) * x

    column = _tensor_columns(factors)
    x_rows = {}
    for (k, j), v in x.data.items():
        x_rows.setdefault(k, []).append((j, v))
    acc = {}
    for c, hits in x_rows.items():
        for r, a in column(c):
            for j, b in hits:
                if a is not None:
                    b = a * b
                ij = (r, j)
                old = acc.get(ij)
                acc[ij] = b if old is None else old + b
    return Matrix(rows, x.cols, acc)  # drops the sums that cancelled to zero


# -- echelon machinery -----------------------------------------------------

_P = 2**61 - 1  # a Mersenne prime: residues are plain Python ints
_BOUND = 2**30  # |numerator|, denominator < _BOUND: 2 * (_BOUND - 1)**2 < _P


def _rref(rows: list, highest: bool, p: Optional[int] = None) -> list:
    """Reduced row echelon form of sparse row dicts, over Q or modulo p.

    Pivots sit on the lowest index of each row, or on the highest when
    `highest` is set.  Returns (pivot_col, row) pairs sorted by pivot column,
    with pivots normalized to one and pivot columns cleared elsewhere; the
    result depends only on the row space, which makes it a canonical form.
    The given row dicts are reduced in place: callers pass rows they built
    for this elimination and do not read them afterwards.

    Rows wait in buckets by their current lead and are reduced only when
    that lead comes up, against the sparsest row of the bucket.  Back
    substitution then clears the other pivot columns from each row, starting
    with the row whose entries hold no other pivot, so that each row is
    reduced against finished rows only.
    """
    pick = max if highest else min
    order = -1 if highest else 1
    buckets = {}
    heap = []

    def file(r):
        lead = pick(r)
        bucket = buckets.get(lead)
        if bucket is None:
            buckets[lead] = [r]
            heappush(heap, order * lead)
        else:
            bucket.append(r)

    for r in rows:
        if r:
            file(r)
    pivots = {}
    while heap:
        lead = order * heappop(heap)
        bucket = buckets.pop(lead)
        bucket.sort(key=len)
        pivot = bucket[0]
        x = pivot[lead]
        if x != 1:
            if p is None:
                pivot = {c: v / x for c, v in pivot.items()}
            else:
                inv = pow(x, -1, p)
                pivot = {c: v * inv % p for c, v in pivot.items()}
        for r in bucket[1:]:
            _subtract(r, r[lead], pivot, p)
            if r:
                file(r)
        pivots[lead] = pivot
    for col in sorted(pivots, reverse=not highest):
        row = pivots[col]
        for c in [c for c in row if c != col and c in pivots]:
            _subtract(row, row[c], pivots[c], p)
    return sorted(pivots.items())


def _subtract(row: dict, f, pivot: dict, p: Optional[int]):
    """row -= f * pivot, modulo p unless p is None, in place, dropping the
    entries that vanish."""
    for c, v in pivot.items():
        s = row.get(c, 0) - f * v
        if p:
            s %= p
        if s:
            row[c] = s
        else:
            del row[c]


def _lift(u: int) -> Optional[Fraction]:
    """The a/b = u mod _P with |a|, b < _BOUND, or None (Wang 1981)."""
    if u < _BOUND:
        return Fraction(u)
    if _P - u < _BOUND:
        return Fraction(u - _P)
    r0, r1, t0, t1 = _P, u, 0, 1
    while r1 >= _BOUND:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) >= _BOUND or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _lifted_rref(rows: list, highest: bool) -> Optional[list]:
    """The RREF modulo _P lifted to Q, in the format of _rref.

    None when _P divides a denominator or an entry has no lift within
    _BOUND.  The lift is a candidate only: it is the RREF over Q exactly
    when the caller's certificate holds.
    """
    residues = []
    for r in rows:
        res = {}
        for c, v in r.items():
            den = v.denominator
            if den == 1:
                u = v.numerator % _P
            elif den % _P:
                u = v.numerator * pow(den, -1, _P) % _P
            else:
                return None
            if u:
                res[c] = u
        residues.append(res)
    lifted = []
    for col, row in _rref(residues, highest, _P):
        out = {}
        for c, u in row.items():
            q = _lift(u)
            if q is None:
                return None
            out[c] = q
        lifted.append((col, out))
    return lifted


def _integral(vec: dict) -> tuple:
    """(d, d * vec) for the least d > 0 making every entry an integer."""
    d = 1
    for v in vec.values():
        d = lcm(d, v.denominator)
    return d, {i: v.numerator * (d // v.denominator) for i, v in vec.items()}


def _spans(rref: list, vectors: list) -> bool:
    """Span certificate: every vector v equals sum_i v[p_i] R_i exactly.

    The rows R_i are independent, and the modular rank never exceeds the
    rational one, so this proves that they span exactly the vectors' span.
    """
    rows = {p: _integral(r) for p, r in rref}
    for vec in vectors:
        _, w = _integral(vec)
        used = [(w[p], rows[p]) for p in w if p in rows]
        scale = lcm(*(row[0] for _, row in used))
        acc = {i: -scale * v for i, v in w.items()}
        for coeff, (d, row) in used:
            coeff *= scale // d
            for i, v in row.items():
                acc[i] = acc.get(i, 0) + coeff * v
        if any(acc.values()):
            return False
    return True


def _null_vectors(rref: list, ncols: int) -> list:
    """e_q - sum_p R[p, q] e_p for each free column q, in order of q.

    With pivots on the highest index this is the canonical echelon basis of
    the nullspace of the rows: each vector leads with its own free column.
    """
    pivots = {p for p, _ in rref}
    vectors = {q: {q: _ONE} for q in range(ncols) if q not in pivots}
    for p, row in rref:
        for q, v in row.items():
            if q != p:
                vectors[q][p] = -v
    return list(vectors.values())


def _annihilates(rows: list, vectors: list) -> bool:
    """Kernel certificate: f K = 0, in integers after clearing the denominators
    of each row of f and each column of K.

    The vectors are independent and number at least the nullity, because
    the modular rank never exceeds the rational one; so this proves that
    they span the kernel.
    """
    by_coord = {}
    for j, vec in enumerate(vectors):
        for k, v in _integral(vec)[1].items():
            by_coord.setdefault(k, []).append((j, v))
    for row in rows:
        acc = {}
        for k, a in _integral(row)[1].items():
            for j, b in by_coord.get(k, ()):
                acc[j] = acc.get(j, 0) + a * b
        if any(acc.values()):
            return False
    return True


class Subspace:
    """A subspace of Q^ambient_dim with a canonical echelon basis.

    The basis matrix has one column per basis vector; pivots are 1, sit in
    strictly increasing rows, and their rows vanish in the other columns.
    Equal subspaces therefore have identical basis matrices.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: Matrix):
        if basis.rows != ambient_dim:
            raise DimensionMismatch("basis rows must equal the ambient dimension")
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[dict]) -> "Subspace":
        exact = [{i: rational(v) for i, v in vec.items() if v} for vec in vectors]
        rref = _lifted_rref(exact, highest=False)
        if rref is None or not _spans(rref, exact):
            rref = _rref(exact, highest=False)
        return cls(ambient_dim, Matrix.from_columns(ambient_dim, [r for _, r in rref]))

    @classmethod
    def from_matrix(cls, m: Matrix) -> "Subspace":
        """Column space of m, canonicalized."""
        return cls.span(m.rows, m.columns())

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.zero(ambient_dim, 0))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim} in Q^{self.ambient_dim})"

    def contains_vector(self, col: dict) -> bool:
        try:
            factor_through(self.basis, Matrix.from_columns(self.ambient_dim, [col]))
        except NotInImage:
            return False
        return True

    def contains(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return subspace_sum(self, other) == self


# -- kernels, images, solving ----------------------------------------------


def kernel(f: Matrix) -> Subspace:
    """The nullspace {x : f x = 0} as a canonical subspace of the domain."""
    by_row = {}
    for (i, j), v in f.data.items():
        by_row.setdefault(i, {})[j] = v
    rows = list(by_row.values())
    rref = _lifted_rref(rows, highest=True)
    vectors = None if rref is None else _null_vectors(rref, f.cols)
    if vectors is None or not _annihilates(rows, vectors):
        vectors = _null_vectors(_rref(rows, highest=True), f.cols)
    return Subspace(f.cols, Matrix.from_columns(f.cols, vectors))


def rank(f: Matrix) -> int:
    return f.cols - kernel(f).dim


def column_space(f: Matrix) -> Subspace:
    return Subspace.from_matrix(f)


def cokernel(f: Matrix):
    """Canonical projection onto the cokernel of f.

    Returns (proj, quotient_dim) with proj surjective, proj . f = 0 and
    quotient_dim = rows(f) - rank(f).  The rows of proj are the canonical
    echelon basis of the annihilator of the image, so proj depends only on
    the image of f.
    """
    ann = kernel(f.transpose())
    proj = ann.basis.transpose()
    return proj, proj.rows


def solve(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """One exact solution x of a x = b (free variables set to zero), or None.

    Reads x off the reduced echelon form of [a | b] over Q, with column j of
    b at index a.cols + j: the system is inconsistent when a pivot lies in b,
    and otherwise x[p, j] is entry a.cols + j of pivot row p.
    """
    if a.rows != b.rows:
        raise DimensionMismatch(f"{a.shape} x = {b.shape}")
    n = a.cols
    rows = {}
    for (i, j), v in a.data.items():
        rows.setdefault(i, {})[j] = v
    for (i, j), v in b.data.items():
        rows.setdefault(i, {})[n + j] = v
    rref = _rref(list(rows.values()), highest=False)
    if rref and rref[-1][0] >= n:
        return None
    return Matrix(n, b.cols, {(p, c - n): v for p, row in rref for c, v in row.items() if c >= n})


def factor_through(chi: Matrix, g: Matrix) -> Matrix:
    """The unique h with chi . h = g, for chi injective.

    Raises NotInImage when some column of g falls outside the image of chi.
    """
    h = solve(chi, g)
    if h is None or chi * h != g:
        # identify an offending column for the error message
        bad = None
        for j in range(g.cols):
            gj = Matrix.from_columns(g.rows, [g.column(j)])
            hj = solve(chi, gj)
            if hj is None or chi * hj != gj:
                bad = j
                break
        raise NotInImage(f"column {bad} is not in the image of the injection")
    return h


# -- subspace lattice --------------------------------------------------------


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    return Subspace.span(a.ambient_dim, a.basis.columns() + b.basis.columns())


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    # solve a x = b y; kernel vectors of [A | -B] give intersection elements
    ka = a.basis.cols
    stacked = {}
    for (i, j), v in a.basis.data.items():
        stacked[(i, j)] = v
    for (i, j), v in b.basis.data.items():
        stacked[(i, ka + j)] = -v
    combined = Matrix(a.ambient_dim, ka + b.basis.cols, stacked)
    k = kernel(combined).basis
    coeffs = Matrix(ka, k.cols, {(i, j): v for (i, j), v in k.data.items() if i < ka})
    return column_space(a.basis * coeffs)


def preimage(f: Matrix, s: Subspace) -> Subspace:
    """{v : f v in s} as a subspace of the domain of f."""
    if f.rows != s.ambient_dim:
        raise DimensionMismatch("codomain of f must be the ambient space of s")
    proj, _ = cokernel(s.basis)
    return kernel(proj * f)


def subspace_equal(a: Subspace, b: Subspace) -> bool:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    return a == b


# -- linear matrix constraints -----------------------------------------------


def linear_system(shape, constraints) -> tuple:
    """(system, rhs) with system . vec(X) = rhs exactly when X, a p x q
    matrix, meets every constraint; vec is row-major, so column a * q + b of
    the system is X[a, b].

    A constraint (terms, const) states sum(terms) + const = 0, and its
    entry (i, j) is row off + i * const.cols + j of system and rhs, with off
    the size of the constraints before it.  A term (coef, left, middle, right)
    stands for coef . L (F1 (x) ... (x) X (x) ... (x) Fk) R, where L and R
    are the tensor products of the lists left and right (an empty list is an
    identity) and middle holds None in the slot of X.  No term is evaluated:
    for each nonzero of the Fi and each X[a, b], the coefficients are the
    products of the matching column of L and row of R (_tensor_columns).
    """
    p, q = shape
    acc, rhs, off = {}, {}, 0
    for terms, const in constraints:
        for (i, j), v in const.data.items():
            rhs[(off + i * const.cols + j, 0)] = -v
        for coef, left, middle, right in terms:
            slot = middle.index(None)
            before, after = kron_all(middle[:slot]), kron_all(middle[slot + 1 :])
            mid = (before.rows * p * after.rows, before.cols * q * after.cols)
            left = left or [Matrix.identity(mid[0])]
            right = [f.transpose() for f in right or [Matrix.identity(mid[1])]]
            inner = (prod(f.cols for f in left), prod(f.cols for f in right))
            outer = (prod(f.rows for f in left), prod(f.rows for f in right))
            if inner != mid or outer != const.shape:
                raise DimensionMismatch(f"term {outer[0]}x{inner[0]} . {mid} . {inner[1]}x{outer[1]}")
            column, row = _tensor_columns(left), _tensor_columns(right)
            for (r1, s1), f1 in before.data.items():
                for (r3, s3), f3 in after.data.items():
                    f = coef * f1 * f3
                    lines = [(b, row((s1 * q + b) * after.cols + s3)) for b in range(q)]
                    lines = [(b, line) for b, line in lines if line]
                    for a in range(p):
                        scaled = [
                            (off + i * const.cols, f if v is None else f * v)
                            for i, v in column((r1 * p + a) * after.rows + r3)
                        ]
                        for b, line in lines:
                            u = a * q + b
                            for base, y in scaled:
                                for j, v in line:
                                    key = (base + j, u)
                                    v = y if v is None else y * v
                                    old = acc.get(key)
                                    acc[key] = v if old is None else old + v
        off += const.rows * const.cols
    return Matrix(off, p * q, acc), Matrix(off, 1, rhs)
