"""Exact sparse linear algebra over the rationals.

Matrices are immutable maps between coordinate spaces with entries in Q,
held as a sparse dictionary of nonzero entries so that maps into very
large tensor powers stay cheap.  All semantics (shape checks, equality,
serialization) are those of an ordinary dense rows x cols matrix.

Tensor products are applied without being formed: kron_mul(factors, x)
returns (F1 (x) ... (x) Fk) . x, the same matrix as kron_all(factors) * x,
at the cost of the entries that actually meet a nonzero of x.

Subspaces are kept in a canonical reduced column-echelon form, so that
two equal subspaces have literally identical basis matrices and equality
is a matrix comparison.
"""

from __future__ import annotations

from fractions import Fraction
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
        # a large other is common (kron_mul of a one-entry probe, for example)
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


def kron_mul(factors: Iterable[Matrix], x: Matrix) -> Matrix:
    """(F1 (x) ... (x) Fk) . x without forming the tensor product.

    Equal to kron_all(factors) * x.  Row r of x is the tensor index
    (c1, ..., ck) read in mixed radix over the factors' column counts, left
    factor most significant, and each nonzero row of x is expanded through
    column ci of every factor Fi, so only entries that meet a nonzero of x
    are multiplied.  When the product has fewer nonzeros than x it is
    cheaper to form it, and kron_all(factors) * x is returned instead.
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

    # coefficients equal to one are kept as None: the structure matrices are
    # 0/1, and skipping those Fraction products halves truncation's time
    plan = []
    for f in factors:
        fcols = [[] for _ in range(f.cols)]
        for (i, j), v in f.data.items():
            fcols[j].append((i, None if v == 1 else v))
        plan.append((f.rows, f.cols, fcols))
    x_rows = {}
    for (k, j), v in x.data.items():
        x_rows.setdefault(k, []).append((j, v))

    acc = {}
    for c, hits in x_rows.items():
        digits = []
        for _, fc, _ in reversed(plan):
            c, d = divmod(c, fc)
            digits.append(d)
        column = [(0, None)]
        for (fr, _, fcols), d in zip(plan, reversed(digits)):
            column = [
                (r * fr + i, v if a is None else a if v is None else a * v)
                for r, a in column
                for i, v in fcols[d]
            ]
        for r, a in column:
            for j, b in hits:
                if a is not None:
                    b = a * b
                ij = (r, j)
                old = acc.get(ij)
                acc[ij] = b if old is None else old + b
    return Matrix(rows, x.cols, acc)  # drops the sums that cancelled to zero


# -- echelon machinery -----------------------------------------------------


def _rref_rows(rows: list, ncols: int) -> list:
    """Reduced row echelon form of a list of sparse row dicts.

    Returns the nonzero rows with pivots normalized to one, pivot columns
    cleared elsewhere, sorted by pivot column.  The result depends only on
    the row space, which makes it a canonical form.
    """
    work = [dict(r) for r in rows if r]
    done = []  # (pivot_col, row)
    while work:
        lead = min(min(r) for r in work)
        pivot = None
        rest = []
        for r in work:
            if pivot is None and lead in r:
                pivot = r
            else:
                rest.append(r)
        pv = pivot[lead]
        if pv != 1:
            pivot = {c: v / pv for c, v in pivot.items()}
        new_work = []
        for r in rest:
            f = r.get(lead)
            if f:
                r = {
                    c: v
                    for c, v in (
                        (c, r.get(c, _ZERO) - f * pivot.get(c, _ZERO))
                        for c in set(r) | set(pivot)
                    )
                    if v
                }
            if r:
                new_work.append(r)
        for col, r in done:
            f = r.get(lead)
            if f:
                upd = {
                    c: v
                    for c, v in (
                        (c, r.get(c, _ZERO) - f * pivot.get(c, _ZERO))
                        for c in set(r) | set(pivot)
                    )
                    if v
                }
                r.clear()
                r.update(upd)
        done.append((lead, pivot))
        work = new_work
    done.sort(key=lambda t: t[0])
    return [r for _, r in done]


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
        rows = _rref_rows(exact, ambient_dim)
        cols = [{i: val for i, val in r.items()} for r in rows]
        return cls(ambient_dim, Matrix.from_columns(ambient_dim, cols))

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


def _kernel_columns(f: Matrix) -> list:
    """Sparse column-elimination nullspace; returns coefficient dicts."""
    cols = f.columns()
    work = [(dict(c), {j: _ONE}) for j, c in enumerate(cols)]
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
            for i, v in vec.items():
                s = vec2.get(i, _ZERO) - r * v
                if s:
                    vec2[i] = s
                else:
                    vec2.pop(i, None)
            for j, v in track.items():
                s = track2.get(j, _ZERO) - r * v
                if s:
                    track2[j] = s
                else:
                    track2.pop(j, None)
    return kernel


def kernel(f: Matrix) -> Subspace:
    """The nullspace {x : f x = 0} as a canonical subspace of the domain."""
    return Subspace.span(f.cols, _kernel_columns(f))


def rank(f: Matrix) -> int:
    return f.cols - len(_kernel_columns(f))


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
    """One exact solution x of a x = b (free variables set to zero), or None."""
    from heapq import heappush, heappop

    if a.rows != b.rows:
        raise DimensionMismatch(f"{a.shape} x = {b.shape}")
    rows = {}
    for (i, j), v in a.data.items():
        rows.setdefault(i, ({}, {}))[0][j] = v
    for (i, j), v in b.data.items():
        rows.setdefault(i, ({}, {}))[1][j] = v

    buckets = {}
    heap = []

    def register(w):
        lead = min(w[0])
        if lead in buckets:
            buckets[lead].append(w)
        else:
            buckets[lead] = [w]
            heappush(heap, lead)
        return None

    for i in sorted(rows):
        w = rows[i]
        if w[0]:
            register(w)
        elif w[1]:
            return None

    pivots = []  # (col, lhs_row, rhs_row)
    while heap:
        lead = heappop(heap)
        bucket = buckets.pop(lead, None)
        if not bucket:
            continue
        pivot = bucket[0]
        plhs, prhs = pivot
        pv = plhs[lead]
        for w in bucket[1:]:
            lhs, rhs = w
            f = lhs.get(lead)
            if f:
                r = f / pv
                for part, ppart in ((lhs, plhs), (rhs, prhs)):
                    for c, v in ppart.items():
                        s = part.get(c, _ZERO) - r * v
                        if s:
                            part[c] = s
                        else:
                            part.pop(c, None)
            if lhs:
                register(w)
            elif rhs:
                return None
        pivots.append((lead, plhs, prhs))

    xby = {}  # solved variable -> {rhs column -> value}
    for lead, plhs, prhs in reversed(pivots):
        pv = plhs[lead]
        cols = set(prhs)
        for j in plhs:
            if j != lead and j in xby:
                cols.update(xby[j])
        sol = {}
        for col in cols:
            acc = prhs.get(col, _ZERO)
            for j, v in plhs.items():
                if j == lead:
                    continue
                prev = xby.get(j)
                if prev:
                    xv = prev.get(col)
                    if xv:
                        acc -= v * xv
            if acc:
                sol[col] = acc / pv
        if sol:
            xby[lead] = sol
    data = {}
    for var, sol in xby.items():
        for col, v in sol.items():
            data[(var, col)] = v
    return Matrix(a.cols, b.cols, data)


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
    vectors = []
    for track in _kernel_columns(combined):
        coeffs = {j: v for j, v in track.items() if j < ka}
        vec = {}
        for j, c in coeffs.items():
            for i, v in a.basis.column(j).items():
                s = vec.get(i, _ZERO) + c * v
                if s:
                    vec[i] = s
                else:
                    vec.pop(i, None)
        if vec:
            vectors.append(vec)
    return Subspace.span(a.ambient_dim, vectors)


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


# -- generic linear feasibility ----------------------------------------------


def solve_matrix_equations(shape, residual_fn) -> Optional[Matrix]:
    """Find X of the given shape making residual_fn(X) all zero matrices.

    residual_fn must be affine in X and return a list of Matrix values.
    Returns a witness X, or None when the system is infeasible.  Used for
    retraction/splitting searches where the constraints are naturally
    written as matrix identities.
    """
    rows_u, cols_u = shape
    nunk = rows_u * cols_u
    base = residual_fn(Matrix.zero(rows_u, cols_u))
    offsets = []
    total = 0
    for m in base:
        offsets.append(total)
        total += m.rows * m.cols

    def vectorize(mats):
        out = {}
        for m, off in zip(mats, offsets):
            for (i, j), v in m.data.items():
                out[off + i * m.cols + j] = v
        return out

    const = vectorize(base)
    coeff = {}
    for u in range(nunk):
        probe = Matrix(rows_u, cols_u, {(u // cols_u, u % cols_u): _ONE})
        res = vectorize(residual_fn(probe))
        col = {}
        for k in set(res) | set(const):
            v = res.get(k, _ZERO) - const.get(k, _ZERO)
            if v:
                col[k] = v
        for k, v in col.items():
            coeff[(k, u)] = v
    system = Matrix(total, nunk, coeff)
    rhs = Matrix(total, 1, {(k, 0): -v for k, v in const.items()})
    x = solve(system, rhs)
    if x is None:
        return None
    data = {}
    for (u, _), v in x.data.items():
        data[(u // cols_u, u % cols_u)] = v
    return Matrix(rows_u, cols_u, data)
