"""Command-line surface: exit codes, file round-trips, reports."""

import json

import pytest

from coalgkit import cli, serialize
from coalgkit.cli import main
from coalgkit.coalgebra import Coalgebra, comatrix, divided_power, grouplike
from coalgkit.bicomodule import (
    Bicomodule,
    BicomoduleMap,
    induced_on_cokernel,
    regular_bicomodule,
    tensor_square_bicomodule,
)
from coalgkit.cohomology import Cochain, InternalCheckFailed, cohomology, differential
from coalgkit.cotensor import build_truncated
from coalgkit.exactlin import Matrix
from coalgkit.quiver import arrow_bicomodule, loop_quiver, vertex_coalgebra

from conftest import random_graded_bicomodule
import random


@pytest.fixture()
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        serialize.save_json(path, obj)
        return str(path)

    return tmp_path, write


def test_validate_pass(files):
    _, write = files
    path = write("g2.json", serialize.coalgebra_to_obj(grouplike(2)))
    assert main(["validate", path]) == 0


def test_validate_fail(files):
    _, write = files
    c = grouplike(2)
    obj = serialize.coalgebra_to_obj(c)
    obj["delta"]["entries"][3][0] = 2  # break coassociativity
    path = write("broken.json", obj)
    assert main(["validate", path]) == 1


def test_validate_bicomodule_file(files):
    _, write = files
    path = write("arrows.json", serialize.bicomodule_to_obj(arrow_bicomodule(loop_quiver())))
    assert main(["validate", path]) == 0


def test_bicomodule_over_by_file_reference(files):
    _, write = files
    m = arrow_bicomodule(loop_quiver())
    write("base.json", serialize.coalgebra_to_obj(m.over))
    obj = serialize.bicomodule_to_obj(m)
    obj["over"] = "base.json"  # resolved relative to the referencing file
    path = write("arrows.json", obj)
    assert main(["validate", path]) == 0


def test_malformed_input_is_exit_2(files):
    tmp, write = files
    bad = tmp / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", str(bad)]) == 2
    assert main(["validate", str(tmp / "missing.json")]) == 2
    path = write("floats.json", {"dim": 1, "delta": {"rows": 1, "cols": 1, "entries": [[0.5]]}, "epsilon": {"rows": 1, "cols": 1, "entries": [[1]]}})
    assert main(["validate", path]) == 2


def test_coradical_command(files, capsys):
    _, write = files
    path = write("dp2.json", serialize.coalgebra_to_obj(divided_power(2)))
    assert main(["--format", "json", "coradical", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["witnesses"]["dimension"] == 1


def test_cotensor_command(files, capsys):
    _, write = files
    m = arrow_bicomodule(loop_quiver())
    c_path = write("c.json", serialize.coalgebra_to_obj(m.over))
    m_path = write("m.json", serialize.bicomodule_to_obj(m))
    assert main(["--format", "json", "cotensor", "--left", m_path, "--right", m_path, "--over", c_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["witnesses"]["dimension"] == 1


def test_wedge_filtration_command(files, capsys):
    _, write = files
    from coalgkit.quiver import deconcatenation_oracle

    c, _ = deconcatenation_oracle(loop_quiver(), 3)
    c_path = write("pc.json", serialize.coalgebra_to_obj(c))
    sub_path = write("vertex.json", serialize.matrix_to_obj(Matrix(4, 1, {(0, 0): 1})))
    assert main(["--format", "json", "wedge-filtration", "--sub", sub_path, "--amb", c_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["witnesses"]["loewy_length"] == 4
    assert report["witnesses"]["chain_dims"] == [1, 2, 3, 4]


def test_build_t_and_universal_map(files, capsys):
    tmp, write = files
    q = loop_quiver()
    c = vertex_coalgebra(q)
    m = arrow_bicomodule(q)
    c_path = write("c.json", serialize.coalgebra_to_obj(c))
    m_path = write("m.json", serialize.bicomodule_to_obj(m))
    t_path = str(tmp / "t.json")
    code = main(
        ["build-T", "--coalgebra", c_path, "--bicomodule", m_path, "--trunc", "3", "--check", "-o", t_path]
    )
    assert code == 0
    capsys.readouterr()

    # round trip: re-encoding the emitted file is byte-identical
    raw = open(t_path, "rb").read()
    re_encoded = serialize.dumps(serialize.load_json(t_path)).encode()
    assert raw == re_encoded

    # E = divided powers include into the loop-quiver truncation
    e = divided_power(2)
    e_path = write("e.json", serialize.coalgebra_to_obj(e))
    fc_path = write("fc.json", serialize.matrix_to_obj(e.epsilon))
    fm_path = write("fm.json", serialize.matrix_to_obj(Matrix(1, 3, {(0, 1): 1})))
    out_path = str(tmp / "f.json")
    code = main(["universal-map", "--E", e_path, "--fC", fc_path, "--fM", fm_path, "--T", t_path, "-o", out_path])
    assert code == 0
    f = serialize.matrix_from_obj(serialize.load_json(out_path))
    assert f == Matrix(4, 3, {(0, 0): 1, (1, 1): 1, (2, 2): 1})


def test_universal_map_precondition_failure(files, capsys):
    tmp, write = files
    q = loop_quiver()
    c = vertex_coalgebra(q)
    m = arrow_bicomodule(q)
    c_path = write("c.json", serialize.coalgebra_to_obj(c))
    m_path = write("m.json", serialize.bicomodule_to_obj(m))
    t_path = str(tmp / "t.json")
    main(["build-T", "--coalgebra", c_path, "--bicomodule", m_path, "--trunc", "2", "-o", t_path])
    capsys.readouterr()
    fc_path = write("fc.json", serialize.matrix_to_obj(Matrix.identity(1)))
    fm_path = write("fm.json", serialize.matrix_to_obj(Matrix.from_rows([[1]])))
    code = main(["--format", "json", "universal-map", "--E", c_path, "--fC", fc_path, "--fM", fm_path, "--T", t_path])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert "NicholsViolated" in report["witnesses"]["precondition"]


def test_quiver_command(files, tmp_path):
    qfile = tmp_path / "loop.q"
    qfile.write_text("vertex v\narrow l: v -> v\n")
    assert main(["quiver", "--file", str(qfile), "--trunc", "3", "--oracle-compare"]) == 0
    bad = tmp_path / "bad.q"
    bad.write_text("arrow a: x -> y\n")
    assert main(["quiver", "--file", str(bad), "--trunc", "2"]) == 2


def test_cohomology_command(files, capsys):
    _, write = files
    c = divided_power(1)
    reg = regular_bicomodule(c)
    c_path = write("c.json", serialize.coalgebra_to_obj(c))
    l_path = write("l.json", serialize.bicomodule_to_obj(reg))
    assert main(["--format", "json", "cohomology", "--coalgebra", c_path, "--bicomodule", l_path, "--degree", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["witnesses"]["dimension"] == 1
    assert len(report["result"]["representatives"]) == 1


def test_extension_command(files, capsys):
    _, write = files
    rng = random.Random(71)
    c = grouplike(2)
    l = random_graded_bicomodule(rng, c, 2)
    h = Cochain(1, Matrix.from_rows([[1, 0], [0, 2]]))
    zeta = differential(c, l, h)
    c_path = write("c.json", serialize.coalgebra_to_obj(c))
    l_path = write("l.json", serialize.bicomodule_to_obj(l))
    z_path = write("z.json", serialize.cochain_to_obj(zeta))
    assert main(["extension", "--coalgebra", c_path, "--bicomodule", l_path, "--cocycle", z_path, "--trivialize"]) == 0
    capsys.readouterr()
    # a non-cocycle is refused with exit 1
    bad = Cochain(2, Matrix(4, 2, {(0, 0): 1}))
    from coalgkit.cohomology import differential as diff

    if not diff(c, l, bad).value.is_zero():
        bad_path = write("zbad.json", serialize.cochain_to_obj(bad))
        assert main(["extension", "--coalgebra", c_path, "--bicomodule", l_path, "--cocycle", bad_path]) == 1


def test_extension_nontrivial_class_exit_one(files, capsys):
    _, write = files
    c = divided_power(1)
    reg = regular_bicomodule(c)
    square = tensor_square_bicomodule(c)
    cok, _ = induced_on_cokernel(BicomoduleMap(reg, square, c.delta))
    rep = cohomology(c, cok, 2).representatives[0]
    c_path = write("c.json", serialize.coalgebra_to_obj(c))
    l_path = write("l.json", serialize.bicomodule_to_obj(cok))
    z_path = write("z.json", serialize.cochain_to_obj(rep))
    assert main(["--format", "json", "extension", "--coalgebra", c_path, "--bicomodule", l_path, "--cocycle", z_path, "--trivialize"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["witnesses"]["trivializable"] is False


def test_coseparable_exit_codes(files, capsys):
    _, write = files
    good = write("g2.json", serialize.coalgebra_to_obj(grouplike(2)))
    bad = write("dp1.json", serialize.coalgebra_to_obj(divided_power(1)))
    assert main(["--format", "json", "coseparable", good]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "retraction" in report["witnesses"]
    assert main(["coseparable", bad]) == 1


def test_formally_smooth_exit_codes(files):
    _, write = files
    assert main(["formally-smooth", write("c.json", serialize.coalgebra_to_obj(comatrix(2)))]) == 0
    assert main(["formally-smooth", write("d.json", serialize.coalgebra_to_obj(divided_power(1)))]) == 1


def test_report_payload_determinism(files, capsys):
    _, write = files
    path = write("g2.json", serialize.coalgebra_to_obj(grouplike(2)))
    main(["--format", "json", "coradical", path])
    first = json.loads(capsys.readouterr().out)
    main(["--format", "json", "coradical", path])
    second = json.loads(capsys.readouterr().out)
    first.pop("timing_ms")
    second.pop("timing_ms")
    assert first == second


def test_structure_files_round_trip(files):
    _, write = files
    values = {
        "coalgebra": serialize.coalgebra_to_obj(comatrix(2)),
        "bicomodule": serialize.bicomodule_to_obj(arrow_bicomodule(loop_quiver())),
        "matrix": serialize.matrix_to_obj(Matrix.from_rows([["1/2", -3], [0, "7/3"]])),
    }
    for name, obj in values.items():
        path = write(f"{name}.json", obj)
        raw = open(path, "rb").read()
        assert serialize.dumps(serialize.load_json(path)).encode() == raw
    decoded = serialize.matrix_from_obj(values["matrix"])
    assert serialize.matrix_to_obj(decoded) == values["matrix"]


@pytest.mark.parametrize(
    "argv",
    [
        ["build-T", "--coalgebra", "{c}", "--bicomodule", "{m}", "--trunc", "-1"],
        ["cohomology", "--coalgebra", "{c}", "--bicomodule", "{m}", "--degree", "-1"],
        ["quiver", "--file", "{q}", "--trunc", "-1"],
    ],
)
def test_negative_numeric_argument_is_exit_2(files, capsys, argv):
    tmp, write = files
    m = arrow_bicomodule(loop_quiver())
    paths = {
        "c": write("c.json", serialize.coalgebra_to_obj(m.over)),
        "m": write("m.json", serialize.bicomodule_to_obj(m)),
        "q": str(tmp / "loop.q"),
    }
    (tmp / "loop.q").write_text("vertex v\narrow l: v -> v\n")
    assert main([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["coradical", "coseparable", "formally-smooth"])
def test_no_verdict_on_a_non_coalgebra(files, capsys, command):
    _, write = files
    obj = serialize.coalgebra_to_obj(divided_power(2))
    obj["delta"]["entries"][2 * 3 + 2][1] = 1  # p2 (x) p2 in delta(p1): counits hold, coassociativity fails
    path = write("not_coassociative.json", obj)
    assert main(["validate", path]) == 1
    capsys.readouterr()
    assert main([command, path]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error:") and "coassociativity: FAIL at" in out.err


@pytest.mark.parametrize("dim", [True, 1.0, -1, "1"])
def test_dims_must_be_nonnegative_ints(files, dim):
    _, write = files
    coalgebra = dict(serialize.coalgebra_to_obj(grouplike(1)), dim=dim)
    bicomodule = dict(serialize.bicomodule_to_obj(arrow_bicomodule(loop_quiver())), dim=dim)
    for obj in (coalgebra, bicomodule):
        assert main(["validate", write("bad.json", obj)]) == 2
    matrix = serialize.matrix_to_obj(Matrix.identity(1))
    for key in ("rows", "cols"):
        with pytest.raises(serialize.FormatError):
            serialize.matrix_from_obj(dict(matrix, **{key: dim}))


@pytest.mark.parametrize("field, value", [("dim", True), ("epsilon", {"rows": 1, "cols": 2, "entries": [[1, 1]]})])
def test_validate_names_the_file_on_malformed_input(files, capsys, field, value):
    _, write = files
    path = write("bad.json", dict(serialize.coalgebra_to_obj(grouplike(1)), **{field: value}))
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


def _invalid_structure_files(write, broken):
    """Files over grouplike(1) in which either the coalgebra has a zero counit
    or the bicomodule zero coactions: both counit laws fail while
    coassociativity holds."""
    c = grouplike(1)
    m = regular_bicomodule(c)
    t = build_truncated(c, m, 1)
    if broken == "coalgebra":
        c = Coalgebra(1, c.delta, Matrix.zero(1, 1))
    else:
        m = Bicomodule(c, 1, Matrix.zero(1, 1), Matrix.zero(1, 1))
    return {
        "c": write("c.json", serialize.coalgebra_to_obj(c)),
        "m": write("m.json", serialize.bicomodule_to_obj(m)),
        "z": write("z.json", serialize.cochain_to_obj(Cochain(2, Matrix.zero(1, 1)))),
        "s": write("s.json", serialize.matrix_to_obj(Matrix.identity(1))),
        "t": write("t.json", serialize.truncated_to_obj(t)),
    }


def _assert_no_answer(capsys, paths, argv, broken):
    bad = paths["c" if broken == "coalgebra" else "m"]
    assert main(["validate", bad]) == 1
    capsys.readouterr()
    assert main([a.format(**paths) for a in argv]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {bad}: not a {broken}: left counit: FAIL at (0,0): 0 != 1; right counit")
    assert out.err.count("\n") == 1


@pytest.mark.parametrize("broken", ["coalgebra", "bicomodule"])
@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "--coalgebra", "{c}", "--bicomodule", "{m}", "--degree", "0"],
        ["extension", "--coalgebra", "{c}", "--bicomodule", "{m}", "--cocycle", "{z}"],
        ["cotensor", "--over", "{c}", "--left", "{m}", "--right", "{m}"],
        ["build-T", "--coalgebra", "{c}", "--bicomodule", "{m}", "--trunc", "2"],
    ],
)
def test_no_answer_on_invalid_structures(files, capsys, argv, broken):
    _, write = files
    _assert_no_answer(capsys, _invalid_structure_files(write, broken), argv, broken)


@pytest.mark.parametrize(
    "argv",
    [
        ["wedge-filtration", "--sub", "{s}", "--amb", "{c}"],
        ["universal-map", "--E", "{c}", "--fC", "{s}", "--fM", "{s}", "--T", "{t}"],
    ],
)
def test_no_answer_on_an_invalid_coalgebra(files, capsys, argv):
    _, write = files
    _assert_no_answer(capsys, _invalid_structure_files(write, "coalgebra"), argv, "coalgebra")


def _raise(exc):
    def fn(*args, **kwargs):
        raise exc

    return fn


@pytest.mark.parametrize(
    "command, call, fn",
    [
        ("formally-smooth", "is_formally_smooth", _raise(MemoryError())),
        # a witness too large to densify: Matrix.to_rows raises MemoryError
        ("coseparable", "is_coseparable", lambda c: Matrix(3000, 3000, {(0, 0): 1})),
        (
            "formally-smooth",
            "is_formally_smooth",
            _raise(InternalCheckFailed("twisted structure fails axioms:\nleft counit: FAIL")),
        ),
        ("coseparable", "is_coseparable", _raise(AssertionError("cotensor product fails axioms"))),
    ],
    ids=["memory-error", "densify-refusal", "internal-check", "assertion"],
)
def test_internal_failure_is_one_line_exit_3(files, capsys, monkeypatch, command, call, fn):
    _, write = files
    monkeypatch.setattr(cli, call, fn)
    path = write("g2.json", serialize.coalgebra_to_obj(grouplike(2)))
    assert main([command, path]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert "Traceback" not in out.err


@pytest.mark.parametrize(
    "flag, field, value",
    [("--cocycle", "degree", "2"), ("--cocycle", "degree", -1), ("--T", "trunc", "1"), ("--T", "grading", 5)],
)
def test_malformed_cochain_or_truncation_is_exit_2(files, capsys, flag, field, value):
    _, write = files
    c = grouplike(1)
    m = regular_bicomodule(c)
    c_path = write("c.json", serialize.coalgebra_to_obj(c))
    m_path = write("m.json", serialize.bicomodule_to_obj(m))
    s_path = write("s.json", serialize.matrix_to_obj(Matrix.identity(1)))
    if flag == "--cocycle":
        obj = serialize.cochain_to_obj(Cochain(2, Matrix.zero(1, 1)))
        argv = ["extension", "--coalgebra", c_path, "--bicomodule", m_path]
    else:
        obj = serialize.truncated_to_obj(build_truncated(c, m, 1))
        argv = ["universal-map", "--E", c_path, "--fC", s_path, "--fM", s_path]
    bad = write("bad.json", dict(obj, **{field: value}))
    assert main(argv + [flag, bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
