"""The benchmark's workloads: seeded inputs, the job list, and answer checks.

Each workload factory takes a seed and a scratch directory and returns a
:class:`Workload`.  Inputs are made from the seed alone.  Every task reaches
coalgkit through module attributes at call time, so the tracer's wrappers
see the calls.  Each task's check compares its answer with invariants and
second routes that do not depend on the seed: path counts, the
deconcatenation coproduct, witnesses put back into their defining
identities, known decision values and the cohomology of the input before
it was re-based.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import checks


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the answer is right, else why not
    timeout_s: float


@dataclass
class Workload:
    name: str
    tasks: list
    warm_up: Callable[[], object]
    # True: each task is one request (one CLI call); False: one pass of the job list is
    request_is_task: bool = False


def _lib(name: str):
    return importlib.import_module(f"coalgkit.{name}")


def _first_failure(conditions) -> Optional[str]:
    for ok, reason in conditions:
        if not ok:
            return reason
    return None


def _permuted(c, rng):
    """The same coalgebra in a random permutation of its basis."""
    ex, cg = _lib("exactlin"), _lib("coalgebra")
    perm = list(range(c.dim))
    rng.shuffle(perm)
    p = ex.Matrix(c.dim, c.dim, {(perm[i], i): 1 for i in range(c.dim)})
    pt = p.transpose()
    return cg.Coalgebra(c.dim, ex.kron(p, p) * c.delta * pt, c.epsilon * pt)


def _unipotent(rng, n: int, per_row: int = 3):
    """An integer matrix u with integer inverse: unitriangular in a random order.

    Every row but the last few has exactly per_row off-diagonal entries of
    +-1, so all seeds give re-basings of the same size and entry width.
    """
    ex = _lib("exactlin")
    order = list(range(n))
    rng.shuffle(order)
    data = {(i, i): 1 for i in range(n)}
    for a in range(n - 1):
        later = order[a + 1 :]
        for b in rng.sample(later, min(per_row, len(later))):
            data[(order[a], b)] = rng.choice((-1, 1))
    u = ex.Matrix(n, n, data)
    inv = ex.solve(u, ex.Matrix.identity(n))
    if inv is None or u * inv != ex.Matrix.identity(n):
        raise RuntimeError("re-basing matrix is not invertible")
    return u, inv


def _rebased(m, rng, nnz_range=(0, float("inf"))):
    """A bicomodule conjugated by a random integer change of basis.

    Draws again until the two coactions have between nnz_range[0] and
    nnz_range[1] nonzeros together, so that every seed gives an input of
    the same size.
    """
    ex, bc = _lib("exactlin"), _lib("bicomodule")
    eye = ex.Matrix.identity(m.over.dim)
    while True:
        u, inv = _unipotent(rng, m.dim)
        rho_l = ex.kron(eye, inv) * m.rho_l * u
        rho_r = ex.kron(inv, eye) * m.rho_r * u
        if nnz_range[0] <= len(rho_l.data) + len(rho_r.data) <= nnz_range[1]:
            return bc.Bicomodule(m.over, m.dim, rho_l, rho_r)


def _delta_cokernel(c):
    """Coker(delta) of a coalgebra as a bicomodule over it."""
    bc = _lib("bicomodule")
    delta_map = bc.BicomoduleMap(bc.regular_bicomodule(c), bc.tensor_square_bicomodule(c), c.delta)
    return bc.induced_on_cokernel(delta_map)[0]


def _quiver_text(n_vertices: int, arrows) -> str:
    lines = [f"vertex v{i}" for i in range(n_vertices)]
    lines += [f"arrow {name}: v{s} -> v{t}" for name, s, t in arrows]
    return "\n".join(lines) + "\n"


def _random_quiver_text(rng, vertices, arrows, trunc, dims) -> str:
    """A random quiver whose path count up to trunc lies in the closed range dims."""
    lo, hi = dims
    while True:
        nv = rng.choice(vertices)
        arrs = [(f"a{k}", rng.randrange(nv), rng.randrange(nv)) for k in range(rng.choice(arrows))]
        if lo <= sum(checks.path_counts(nv, arrs, trunc)) <= hi:
            return _quiver_text(nv, arrs)


def _relabelled_quiver_text(rng, n_vertices: int, arrows) -> str:
    """A fixed quiver with its vertices and arrows renumbered and reordered at random."""
    perm = list(range(n_vertices))
    rng.shuffle(perm)
    arrs = [(perm[s], perm[t]) for s, t in arrows]
    rng.shuffle(arrs)
    return _quiver_text(n_vertices, [(f"a{k}", s, t) for k, (s, t) in enumerate(arrs)])


def _coseparable_witness_ok(c, pi) -> bool:
    """pi delta = id and pi intertwines the outer coactions of C (x) C with delta."""
    eye = _lib("exactlin").Matrix.identity(c.dim)
    return (
        checks.identity_holds([pi, c.delta], "id")
        and checks.identity_holds([c.delta, pi], [(eye, pi), (c.delta, eye)])
        and checks.identity_holds([c.delta, pi], [(pi, eye), (eye, c.delta)])
    )


def _injective_witness_ok(c, cok, r) -> bool:
    """r retracts the embedding into C (x) L (x) C as a map of bicomodules."""
    ex = _lib("exactlin")
    eye_c = ex.Matrix.identity(c.dim)
    eye_big = ex.Matrix.identity(cok.dim * c.dim)
    return (
        checks.identity_holds([r, (eye_c, cok.rho_r), cok.rho_l], "id")
        and checks.identity_holds([cok.rho_l, r], [(eye_c, r), (c.delta, eye_big)])
        and checks.identity_holds([cok.rho_r, r], [(r, eye_c), (eye_big, c.delta)])
    )


# -- truncation ------------------------------------------------------------------

FIBONACCI = "vertex a\nvertex b\narrow x: a -> a\narrow y: a -> b\narrow z: b -> a\n"


def _truncation_tasks(name: str, q, trunc: int) -> list:
    """Build the truncation both ways, then run the oracle, wedge and limit checks on it.

    The four steps are separate tasks, so that each is timed on its own;
    the later ones use the truncation built by the first in the same pass.
    """
    qv, ct = _lib("quiver"), _lib("cotensor")
    built = {}

    def build():
        built.clear()
        c, m = qv.vertex_coalgebra(q), qv.arrow_bicomodule(q)
        t = ct.build_truncated(c, m, trunc)
        iterative, _ = ct.build_iterative(c, m, trunc)
        built["t"] = t
        same = iterative.delta == t.total.delta and iterative.epsilon == t.total.epsilon
        return list(t.grading), same

    counts = checks.path_counts(q.n_vertices, q.arrows, trunc)
    paths = checks.path_basis(q.n_vertices, q.arrows, trunc)

    def check_build(ans):
        grading, same = ans
        return _first_failure(
            [
                (grading == counts, f"grading {grading} != path counts {counts}"),
                (same, "extension tower differs from the degreewise build"),
            ]
        )

    def check_iso(iso):
        total = built["t"].total
        return _first_failure(
            [
                (iso.shape == (len(paths), len(paths)), "iso has the wrong shape"),
                (checks.rank_mod_p(iso) == len(paths), "iso is not invertible"),
                (
                    checks.path_coalgebra_iso_ok(total.delta, total.epsilon, iso, q.arrows, paths),
                    "iso does not carry deconcatenation to the comultiplication",
                ),
            ]
        )

    return [
        Task(f"{name} build", build, check_build, 60.0),
        Task(f"{name} oracle", lambda: qv.oracle_compare(q, trunc), check_iso, 60.0),
        Task(
            f"{name} wedge",
            lambda: [ct.wedge_recovery_check(built["t"], n) for n in range(trunc + 2)],
            lambda ans: None if all(ans) else "wedge powers do not recover the filtration",
            60.0,
        ),
        Task(
            f"{name} limit",
            lambda: ct.graded_limit_check(built["t"]),
            lambda ans: None if ans is True else "graded limit check failed",
            60.0,
        ),
    ]


def truncation(seed: int, workdir: str) -> Workload:
    qv = _lib("quiver")
    rng = random.Random(seed)
    random_q = qv.parse_quiver(_random_quiver_text(rng, (2, 3), (3,), 4, (30, 40)))
    tasks = _truncation_tasks("fibonacci-N6", qv.parse_quiver(FIBONACCI), 6)
    tasks += _truncation_tasks("random-N4", random_q, 4)
    warm = _truncation_tasks("loop-N2", qv.loop_quiver(), 2)

    def warm_up():
        for task in warm:
            task.check(task.run())

    return Workload("truncation", tasks, warm_up)


# -- decide ------------------------------------------------------------------------

SMOOTH = {"comatrix(2)": (True, 0), "divided_power(2)": (False, 2), "divided_power(3)": (False, 3)}
COSEPARABLE = {"comatrix(3)": True, "divided_power(4)": False, "grouplike(3)": True}


def _named_coalgebra(name: str):
    cg = _lib("coalgebra")
    family, arg = name.rstrip(")").split("(")
    return getattr(cg, family)(int(arg))


def _smooth_task(name: str, c) -> Task:
    co = _lib("cohomology")
    smooth, h2 = SMOOTH[name]

    def check(res):
        return _first_failure(
            [
                (res.smooth == smooth, f"smooth={res.smooth}, expected {smooth}"),
                (res.h2_dim == h2, f"h2_dim={res.h2_dim}, expected {h2}"),
                (res.cokernel.dim == c.dim * c.dim - c.dim, "Coker(delta) has the wrong dimension"),
                (
                    (res.witness is None) != smooth
                    and (not smooth or _injective_witness_ok(c, res.cokernel, res.witness)),
                    "splitting witness fails its defining identities",
                ),
            ]
        )

    return Task(f"formally-smooth {name}", lambda: co.is_formally_smooth(c), check, 60.0)


def _coseparable_task(name: str, c) -> Task:
    co = _lib("cohomology")
    expected = COSEPARABLE[name]

    def check(pi):
        if (pi is not None) != expected:
            return f"coseparable={pi is not None}, expected {expected}"
        if pi is not None and not _coseparable_witness_ok(c, pi):
            return "retraction fails its defining identities"
        return None

    return Task(f"coseparable {name}", lambda: co.is_coseparable(c), check, 60.0)


def decide(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    tasks = [_smooth_task(n, _permuted(_named_coalgebra(n), rng)) for n in SMOOTH]
    tasks += [_coseparable_task(n, _permuted(_named_coalgebra(n), rng)) for n in COSEPARABLE]
    co, cg = _lib("cohomology"), _lib("coalgebra")
    return Workload(
        "decide",
        tasks,
        lambda: (co.is_coseparable(cg.grouplike(2)), co.is_formally_smooth(cg.grouplike(1))),
    )


# -- rebased-cohomology --------------------------------------------------------------

REBASINGS = 4  # re-based outer bicomodules per job list; their mean cost varies less by seed
# Coaction nonzeros of each re-based outer bicomodule.  Over seeds they range
# from about 640 to 920, and the elimination work follows them (correlation
# 0.74), so a narrow range keeps the work per seed alike.
OUTER_NNZ = (690, 750)


def _cohomology_task(name: str, c, rebased, original, degree: int) -> Task:
    co = _lib("cohomology")
    expected = []

    def check(res):
        if not expected:
            expected.append(co.cohomology(c, original, degree).dim)
        return _first_failure(
            [
                (res.dim == expected[0], f"H^{degree} dim {res.dim}, unrebased input gives {expected[0]}"),
                (len(res.representatives) == res.dim, "wrong number of representatives"),
                (
                    all(co.differential(c, rebased, r).value.is_zero() for r in res.representatives),
                    "a representative is not a cocycle",
                ),
            ]
        )

    return Task(name, lambda: co.cohomology(c, rebased, degree), check, 60.0)


def rebased_cohomology(seed: int, workdir: str) -> Workload:
    cg, bc = _lib("coalgebra"), _lib("bicomodule")
    rng = random.Random(seed)
    cm2 = cg.comatrix(2)
    outer = bc.outer_bicomodule(cm2, 1)
    tasks = []
    for k in range(REBASINGS):
        rebased = _rebased(outer, rng, OUTER_NNZ)
        for degree in (1, 2):
            tasks.append(_cohomology_task(f"H{degree} comatrix(2) outer#{k}", cm2, rebased, outer, degree))
    dp2 = cg.divided_power(2)
    cok = _delta_cokernel(dp2)
    cok_rebased = _rebased(cok, rng)
    for degree in (1, 2):
        tasks.append(_cohomology_task(f"H{degree} divided_power(2) Coker", dp2, cok_rebased, cok, degree))
    co = _lib("cohomology")
    dp1 = cg.divided_power(1)
    return Workload(
        "rebased-cohomology",
        tasks,
        lambda: co.cohomology(dp1, bc.regular_bicomodule(dp1), 1),
    )


# -- cli-batch ------------------------------------------------------------------------

CORADICAL_DIM = {"g2": 2, "g3": 3, "cm2": 4, "dp1": 1, "dp2": 1}
COALGEBRAS = {
    "g2": "grouplike(2)",
    "g3": "grouplike(3)",
    "cm2": "comatrix(2)",
    "dp1": "divided_power(1)",
    "dp2": "divided_power(2)",
}
# (vertex count, arrows): two parallel arrows and a return, a 3-cycle with a loop, a chain with a loop
CLI_QUIVERS = [
    (2, [(0, 1), (0, 1), (1, 0)]),
    (3, [(0, 1), (1, 2), (2, 0), (0, 0)]),
    (3, [(0, 0), (0, 1), (1, 2)]),
]
CLI_COSEPARABLE = {"g2": True, "g3": True, "cm2": True, "dp1": False, "dp2": False}
BATCH_REPEATS = 3  # each distinct request appears this often per batch


def _cli_task(name: str, argv: list, expect: Callable[[int, dict], Optional[str]]) -> Task:
    cli = _lib("cli")

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["--format", "json"] + argv)
        return code, out.getvalue()

    def check(ans):
        code, text = ans
        try:
            report = json.loads(text)
        except ValueError:
            return f"exit {code} without a JSON report"
        return expect(code, report)

    return Task(name, run, check, timeout_s=20.0)


def _expect(code: int, **fields):
    """An expectation on the exit code and on witness fields of the report."""

    def expect(got: int, report: dict) -> Optional[str]:
        if got != code:
            return f"exit code {got}, expected {code}"
        w = report.get("witnesses", {})
        for key, want in fields.items():
            ok = want(w.get(key)) if callable(want) else w.get(key) == want
            if not ok:
                return f"witness {key}={w.get(key)!r} is wrong"
        return None

    return expect


def cli_batch(seed: int, workdir: str) -> Workload:
    ser, cg, co = _lib("serialize"), _lib("coalgebra"), _lib("cohomology")
    qv = _lib("quiver")
    rng = random.Random(seed)
    os.makedirs(workdir, exist_ok=True)

    def write(name, obj):
        path = os.path.join(workdir, name)
        ser.save_json(path, obj)
        return path

    coalgebras = {k: _permuted(_named_coalgebra(v), rng) for k, v in COALGEBRAS.items()}
    files = {k: write(f"{k}.json", ser.coalgebra_to_obj(c)) for k, c in coalgebras.items()}
    broken = ser.coalgebra_to_obj(coalgebras["dp2"])
    unit = next(j for (_, j), v in coalgebras["dp2"].epsilon.data.items() if v == 1)
    broken["delta"]["entries"][unit * 3 + unit][unit] += 1  # breaks the counit laws
    files["broken"] = write("broken.json", broken)

    quivers = []
    for i, (nv, arrows) in enumerate(CLI_QUIVERS):
        text = _relabelled_quiver_text(rng, nv, arrows)
        q = qv.parse_quiver(text)
        qpath = os.path.join(workdir, f"q{i}.q")
        with open(qpath, "w", encoding="utf-8") as fh:
            fh.write(text)
        vpath = write(f"v{i}.json", ser.coalgebra_to_obj(qv.vertex_coalgebra(q)))
        mpath = write(f"m{i}.json", ser.bicomodule_to_obj(qv.arrow_bicomodule(q)))
        quivers.append((q, qpath, vpath, mpath))

    dp2 = cg.divided_power(2)
    cok = _delta_cokernel(dp2)
    dp2_path = write("dp2base.json", ser.coalgebra_to_obj(dp2))
    cok_path = write("cok.json", ser.bicomodule_to_obj(_rebased(cok, rng)))
    cok_h = {}

    def cok_dim(degree):
        def ok(value):
            if degree not in cok_h:
                cok_h[degree] = co.cohomology(dp2, cok, degree).dim
            return value == cok_h[degree]

        return ok

    smooth_h2 = {}

    def h2_of(key):
        def ok(value):
            if key not in smooth_h2:
                smooth_h2[key] = co.is_formally_smooth(_named_coalgebra(COALGEBRAS[key])).h2_dim
            return value == smooth_h2[key]

        return ok

    def retraction_ok(key):
        return lambda obj: obj is not None and _coseparable_witness_ok(
            coalgebras[key], ser.matrix_from_obj(obj)
        )

    requests = []
    for key, path in files.items():
        requests.append(_cli_task(f"validate {key}", ["validate", path],
                                  _expect(1 if key == "broken" else 0)))
    for i, (q, qpath, vpath, mpath) in enumerate(quivers):
        counts2 = checks.path_counts(q.n_vertices, q.arrows, 2)
        counts3 = checks.path_counts(q.n_vertices, q.arrows, 3)
        requests += [
            _cli_task(f"validate m{i}", ["validate", mpath], _expect(0)),
            _cli_task(f"cotensor m{i}", ["cotensor", "--left", mpath, "--right", mpath, "--over", vpath],
                      _expect(0, dimension=counts2[2])),
            _cli_task(f"quiver q{i}", ["quiver", "--file", qpath, "--trunc", "3", "--oracle-compare"],
                      _expect(0, dimension=sum(counts3), oracle_compare="ok")),
            _cli_task(f"build-T m{i}", ["build-T", "--coalgebra", vpath, "--bicomodule", mpath,
                                        "--trunc", "2", "--check"],
                      _expect(0, grading=counts2, checks=lambda c: bool(c) and all(c.values()))),
            _cli_task(f"cohomology m{i} H1", ["cohomology", "--coalgebra", vpath, "--bicomodule", mpath,
                                              "--degree", "1"], _expect(0, dimension=0)),
        ]
    requests.append(_cli_task("validate cok", ["validate", cok_path], _expect(0)))
    for degree in (1, 2):
        requests.append(_cli_task(f"cohomology cok H{degree}",
                                  ["cohomology", "--coalgebra", dp2_path, "--bicomodule", cok_path,
                                   "--degree", str(degree)],
                                  _expect(0, dimension=cok_dim(degree))))
    for key in COALGEBRAS:
        requests.append(_cli_task(f"coradical {key}", ["coradical", files[key]],
                                  _expect(0, dimension=CORADICAL_DIM[key])))
        requests.append(_cli_task(f"coseparable {key}", ["coseparable", files[key]],
                                  _expect(0, retraction=retraction_ok(key))
                                  if CLI_COSEPARABLE[key] else _expect(1)))
    for key, code in (("g2", 0), ("dp1", 1)):
        requests.append(_cli_task(f"formally-smooth {key}", ["formally-smooth", files[key]],
                                  _expect(code, h2_dim=h2_of(key))))

    batch = requests * BATCH_REPEATS
    rng.shuffle(batch)
    warm = _cli_task("warm-up", ["validate", files["g2"]], _expect(0))
    return Workload("cli-batch", batch, lambda: warm.check(warm.run()), request_is_task=True)


WORKLOADS = {
    "truncation": truncation,
    "decide": decide,
    "rebased-cohomology": rebased_cohomology,
    "cli-batch": cli_batch,
}
