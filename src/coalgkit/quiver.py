"""Quivers, their vertex coalgebra and arrow bicomodule, and the
path-coalgebra-by-deconcatenation oracle.

Paths are stored in tensor order: the arrow applied last comes first, so
the tuple (b, a) is the composite "a then b" and needs source(b) = target(a).
Arrows in a path therefore read left to right from the target end; this
matches the coaction convention rho_l(a) = e_target (x) a, rho_r(a) =
a (x) e_source, under which the comultiplication of a path enumerates its
two-sided deconcatenations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coalgebra import Coalgebra, grouplike
from .bicomodule import Bicomodule, validate_bicomodule
from .exactlin import Matrix, factor_through, kron_mul


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class MismatchReport(AssertionError):
    """The two path-coalgebra constructions disagree."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class Quiver:
    vertices: tuple  # names
    arrows: tuple  # (name, source index, target index)

    def __post_init__(self):
        names = [a[0] for a in self.arrows]
        if len(set(self.vertices)) != len(self.vertices) or len(set(names)) != len(names):
            raise ValueError("names must be unique")
        for _, s, t in self.arrows:
            if not (0 <= s < len(self.vertices) and 0 <= t < len(self.vertices)):
                raise ValueError("arrow endpoint out of range")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_arrows(self) -> int:
        return len(self.arrows)


def parse_quiver(text: str) -> Quiver:
    """Parse the line format: 'vertex NAME' / 'arrow NAME: SRC -> TGT'."""
    vertices = []
    arrows = []
    index = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) != 2:
                raise ParseError(line_no, "expected 'vertex NAME'")
            name = parts[1]
            if name in index:
                raise ParseError(line_no, f"duplicate name {name!r}")
            index[name] = len(vertices)
            vertices.append(name)
        elif parts[0] == "arrow":
            rest = line[len("arrow") :].strip()
            if ":" not in rest:
                raise ParseError(line_no, "expected 'arrow NAME: SRC -> TGT'")
            name, endpoints = (s.strip() for s in rest.split(":", 1))
            if not name or " " in name:
                raise ParseError(line_no, "arrow needs a single-token name")
            if "->" not in endpoints:
                raise ParseError(line_no, "expected 'SRC -> TGT'")
            src, tgt = (s.strip() for s in endpoints.split("->", 1))
            for v in (src, tgt):
                if v not in index:
                    raise ParseError(line_no, f"unknown vertex {v!r}")
            if name in index or any(a[0] == name for a in arrows):
                raise ParseError(line_no, f"duplicate name {name!r}")
            arrows.append((name, index[src], index[tgt]))
        else:
            raise ParseError(line_no, f"unknown declaration {parts[0]!r}")
    return Quiver(tuple(vertices), tuple(arrows))


def loop_quiver() -> Quiver:
    return Quiver(("v",), (("l", 0, 0),))


def kronecker_quiver() -> Quiver:
    return Quiver(("v1", "v2"), (("a", 0, 1), ("b", 0, 1)))


def cycle_quiver(n: int) -> Quiver:
    vs = tuple(f"v{i}" for i in range(n))
    arrs = tuple((f"a{i}", i, (i + 1) % n) for i in range(n))
    return Quiver(vs, arrs)


def vertex_coalgebra(q: Quiver) -> Coalgebra:
    return grouplike(q.n_vertices)


def arrow_bicomodule(q: Quiver) -> Bicomodule:
    """Arrow span with rho_l(a) = e_target (x) a and rho_r(a) = a (x) e_source."""
    n, m = q.n_vertices, q.n_arrows
    c = vertex_coalgebra(q)
    rho_l = Matrix(n * m, m, {(t * m + j, j): 1 for j, (_, _, t) in enumerate(q.arrows)})
    rho_r = Matrix(m * n, m, {(j * n + s, j): 1 for j, (_, s, _) in enumerate(q.arrows)})
    bic = Bicomodule(c, m, rho_l, rho_r)
    report = validate_bicomodule(bic)
    if not report.passed:
        raise AssertionError(f"arrow bicomodule fails axioms:\n{report}")
    return bic


# -- path enumeration and the deconcatenation oracle ---------------------------


@dataclass(frozen=True)
class Path:
    arrows: tuple  # arrow indices in tensor order (latest first)
    source: int
    target: int

    @property
    def length(self) -> int:
        return len(self.arrows)


@dataclass(frozen=True)
class PathBasis:
    trunc: int
    paths: tuple  # all composable paths of length <= trunc, (length, lex) order

    def index(self) -> dict:
        return {p.arrows if p.arrows else ("v", p.source): i for i, p in enumerate(self.paths)}


def enumerate_paths(q: Quiver, trunc: int) -> PathBasis:
    by_len = [[Path((), v, v) for v in range(q.n_vertices)]]
    for _ in range(trunc):
        prev = by_len[-1]
        nxt = []
        for j, (_, s, t) in enumerate(q.arrows):
            for p in prev:
                if p.length == 0:
                    if p.source == s:
                        nxt.append(Path((j,), s, t))
                elif q.arrows[p.arrows[0]][2] == s:
                    # prefix arrow j applied after p: source(j) = target(p)
                    nxt.append(Path((j,) + p.arrows, p.source, t))
        nxt.sort(key=lambda p: p.arrows)
        by_len.append(nxt)
    flat = [p for level in by_len for p in level]
    return PathBasis(trunc, tuple(flat))


def deconcatenation_oracle(q: Quiver, trunc: int):
    """Path coalgebra on paths of length <= trunc, comultiplying by splitting.

    Built directly from path combinatorics, independently of any cotensor
    machinery.  Returns (coalgebra, path basis).
    """
    basis = enumerate_paths(q, trunc)
    idx = basis.index()
    dim = len(basis.paths)
    delta = {}
    eps = {}
    for col, p in enumerate(basis.paths):
        ell = p.length
        if ell == 0:
            eps[(0, col)] = 1
        for cut in range(ell + 1):
            left = p.arrows[: ell - cut]
            right = p.arrows[ell - cut :]
            li = idx[left] if left else idx[("v", p.target)]
            ri = idx[right] if right else idx[("v", p.source)]
            delta[(li * dim + ri, col)] = 1
    coalg = Coalgebra(dim, Matrix(dim * dim, dim, delta), Matrix(1, dim, eps))
    return coalg, basis


def oracle_compare(q: Quiver, trunc: int) -> Matrix:
    """Match the deconcatenation oracle with the degreewise construction.

    Builds both path coalgebras, sends each path to the corresponding
    cotensor basis vector inside the arrow tensor power, and verifies the
    resulting map is an exact coalgebra isomorphism.  Returns the matrix.
    """
    from .cotensor import build_truncated

    c = vertex_coalgebra(q)
    m = arrow_bicomodule(q)
    t = build_truncated(c, m, trunc)
    oracle, basis = deconcatenation_oracle(q, trunc)

    by_len = {}
    for p in basis.paths:
        by_len.setdefault(p.length, []).append(p)
    for k in range(trunc + 1):
        expected = len(by_len.get(k, []))
        if t.grading[k] != expected:
            raise MismatchReport(
                f"degree {k}: cotensor power has dimension {t.grading[k]}, "
                f"but there are {expected} paths of that length"
            )

    n_arrows = q.n_arrows
    cols = []
    for p in basis.paths:
        k = p.length
        if k == 0:
            coords = {p.source: 1}
        else:
            tensor_index = 0
            for a in p.arrows:
                tensor_index = tensor_index * n_arrows + a
            vec = Matrix(n_arrows**k, 1, {(tensor_index, 0): 1})
            coords = factor_through(t.slices[k].chi, vec).column(0)
        off = t.offsets[k]
        cols.append({off + r: v for r, v in coords.items()})
    iso = Matrix.from_columns(t.total.dim, cols)

    if iso.cols != t.total.dim:
        raise MismatchReport("oracle and construction have different total dimensions")
    from .exactlin import kernel

    if kernel(iso).dim != 0:
        raise MismatchReport("basis-matching map is not invertible")
    diff = (t.total.delta * iso).first_difference(kron_mul([iso, iso], oracle.delta))
    if diff is not None:
        raise MismatchReport(
            f"comultiplications disagree at entry ({diff[0]},{diff[1]}): "
            f"{diff[2]} vs {diff[3]}",
            witness=diff,
        )
    diff = (t.total.epsilon * iso).first_difference(oracle.epsilon)
    if diff is not None:
        raise MismatchReport(
            f"counits disagree at entry ({diff[0]},{diff[1]}): {diff[2]} vs {diff[3]}",
            witness=diff,
        )
    return iso
