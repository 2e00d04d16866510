"""End-to-end CLI behavior: JSON round-trips, determinism, exit codes."""

import importlib
import json
import os
import random
import subprocess
import sys
import time

import pytest

import afweak
from afweak.cli import (
    SUITE_NAMES,
    _parser,
    run,
    triple_to_json,
    windowset_to_json,
)
from afweak.closure import window_set
from afweak.fan import triple_of_element
from afweak.perms import simple_reflections
from afweak.roots import AffineType, root_window
from afweak.verify import SUITES, random_triple

WORKED_FACE = [[1, 3], [0, 2]]


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _capture(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


def _child_env():
    """The environment with this checkout's afweak first on the path."""
    src = os.path.dirname(os.path.dirname(afweak.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def _child(*args, flags=(), stdout=subprocess.PIPE):
    """Run ``python [flags] -m afweak.cli args`` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, *flags, "-m", "afweak.cli", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=_child_env(),
        timeout=600,
    )


def test_the_cli_imports_no_rational_arithmetic():
    # the plane geometry is in integers; fractions (and decimal, which it
    # imports) would add to every cold command's start-up
    code = "import sys, afweak.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_child_env(), timeout=600, check=True).stdout
    assert out == "[]\n"


# runs one command in a fresh interpreter and prints its exit code and
# the afweak modules it loaded (the command's own stdout is dropped)
_LOADED = """
import contextlib, io, json, sys
import afweak.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = afweak.cli.run(sys.argv[1:])
    except SystemExit as e:  # --help
        code = e.code
print(json.dumps([code, sorted(sys.modules)]))
"""


def test_a_command_loads_only_the_layers_it_runs(tmp_path):
    a4 = AffineType("A", 4)
    window = _write(tmp_path, "w.json", windowset_to_json(
        random_triple(a4, random.Random(1)).window(3)))
    order = _write(tmp_path, "o.json", {"family": "A", "n": 2, "blocks": [[1], [0]],
                                         "orient": [False, True], "perms": {}})
    a = _write(tmp_path, "a.json", {"family": "A", "n": 4, "word": "s0 s1"})
    b = _write(tmp_path, "b.json", {"family": "A", "n": 4, "word": "s2 s3"})
    heavy = {"fan", "perms", "orders", "intset", "lattice", "verify"}
    # the records are plain classes, so no command imports dataclasses,
    # nor inspect and the code tools it brings
    generators = {"dataclasses", "inspect", "ast", "dis"}
    for args, absent in (
        (["--help"], heavy | {"roots", "closure"}),
        (["check", "--in", window], heavy),
        (["close", "--in", window], heavy),
        (["faces", "--family", "B", "--n", "2"], {"lattice", "intset", "verify"}),
        (["order", "--in", order, "--render"], {"lattice", "intset", "verify"}),
        (["classify", "--in", window], {"lattice", "intset", "verify"}),
        (["join", "--in", a, b], {"verify"}),
        (["verify", "all"], set()),
    ):
        out = subprocess.run([sys.executable, "-c", _LOADED, *args], capture_output=True,
                             text=True, env=_child_env(), timeout=600, check=True).stdout
        code, modules = json.loads(out)
        loaded = {m.removeprefix("afweak.") for m in modules if m.startswith("afweak.")}
        assert code == 0 and not loaded & absent, (args, code, sorted(loaded & absent))
        assert args == ["--help"] or {"errors", "roots", "closure"} <= loaded, (args, loaded)
        assert not generators & set(modules), (args, sorted(generators & set(modules)))


def test_the_package_names_load_on_first_use():
    for name in afweak.__all__:
        module = importlib.import_module(f"afweak.{afweak._MODULE_OF[name]}")
        assert getattr(afweak, name) is getattr(module, name), name
    assert set(afweak.__all__) <= set(dir(afweak))
    assert len(afweak.__all__) == len(set(afweak.__all__)) == 57
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        afweak.frobnicate
    # the CLI's suite names are verify's, in verify's order
    assert SUITE_NAMES == tuple(SUITES)


def test_close_and_check(tmp_path, capsys):
    seed = {
        "family": "A",
        "n": 4,
        "H": 5,
        "roots": [[0, 1], [0, 2], [2, 3], [2, 4]],
    }
    path = _write(tmp_path, "seed.json", seed)
    assert run(["close", "--in", path]) == 0
    closed = _capture(capsys)
    assert len(closed["roots"]) == 36
    path2 = _write(tmp_path, "closed.json", closed)
    assert run(["check", "--in", path2]) == 0
    result = _capture(capsys)
    assert result["biclosed"] and result["doubling"]
    # a non-biclosed set exits 1 and shows a witness
    bad = _write(
        tmp_path, "bad.json", {"family": "A", "n": 2, "H": 3, "roots": [[0, 3]]}
    )
    assert run(["check", "--in", bad]) == 1
    result = _capture(capsys)
    assert not result["biclosed"] and len(result["witness"]) == 3


def test_interior(tmp_path, capsys):
    bad = _write(
        tmp_path, "bad.json", {"family": "A", "n": 2, "H": 3, "roots": [[0, 3]]}
    )
    assert run(["interior", "--in", bad]) == 0
    assert _capture(capsys)["roots"] == []


def test_classify_blue_set(tmp_path, capsys):
    blue = {
        "family": "A",
        "n": 2,
        "H": 6,
        "roots": [[0, 1 + 2 * k] for k in range(7)],
    }
    path = _write(tmp_path, "blue.json", blue)
    assert run(["classify", "--in", path]) == 0
    out = _capture(capsys)
    assert out["face"] == [[1], [0]]
    assert out["one_indexed_face"] == [[1], [2]]
    assert out["phi_prime"] == [] and out["w"] == {}


def test_build_and_join_worked_example(tmp_path, capsys):
    # N(s0 s1) and N(s2 s3) as word inputs
    a = _write(tmp_path, "a.json", {"family": "A", "n": 4, "word": "s0 s1"})
    b = _write(tmp_path, "b.json", {"family": "A", "n": 4, "word": "s2 s3"})
    assert run(["join", "--in", a, b]) == 0
    joined = _capture(capsys)
    assert joined["face"] == WORKED_FACE
    assert joined["phi_prime"] == ["blk1"]
    assert joined["w"] == {}
    # the same triple built directly, with a windowed rendering
    assert (
        run(
            [
                "build",
                "--family",
                "A",
                "--n",
                "4",
                "--face",
                json.dumps(WORKED_FACE),
                "--phi-blocks",
                "[1]",
                "--height",
                "3",
            ]
        )
        == 0
    )
    built = _capture(capsys)
    assert built["face"] == joined["face"]
    assert built["phi_prime"] == joined["phi_prime"]
    assert len(built["window"]["roots"]) == 24
    # classify accepts the emitted window set back (round-trip)
    win = _write(tmp_path, "win.json", built["window"])
    assert run(["classify", "--in", win]) == 0
    assert _capture(capsys)["face"] == WORKED_FACE


def test_join_rejects_bd(tmp_path, capsys):
    a = _write(tmp_path, "a.json", {"family": "D", "n": 2, "word": "s0"})
    assert run(["join", "--in", a, a]) == 1


def test_meet(tmp_path, capsys):
    a = _write(tmp_path, "a.json", {"family": "A", "n": 4, "word": "s0 s1"})
    b = _write(tmp_path, "b.json", {"family": "A", "n": 4, "word": "s0 s2"})
    assert run(["meet", "--in", a, b]) == 0
    met = _capture(capsys)
    # N(s0) = N(s0 s1) & N(s0 s2)
    assert met == {"family": "A", "n": 4, "face": [[0, 1, 2, 3]],
                   "phi_prime": [], "w": {"blk0": [0, 2, 3, 5]}}
    s0 = simple_reflections(AffineType("A", 4))[0]
    assert met == triple_to_json(triple_of_element(s0))


def test_try_join(tmp_path, capsys):
    a = _write(tmp_path, "a.json", {"family": "D", "n": 2, "word": "s0"})
    b = _write(tmp_path, "b.json", {"family": "D", "n": 2, "word": "s1"})
    assert run(["try-join", "--type", "D", "--in", a, b, "--height", "6"]) == 0
    out = _capture(capsys)
    assert out["ok"] and out["join"]["phi_prime"] == ["ctrA1:1,2"]


def test_join_finite(capsys):
    assert (
        run(
            [
                "join-finite",
                "--family",
                "B",
                "--rank",
                "3",
                "--u",
                "624351",
                "--w",
                "365214",
            ]
        )
        == 0
    )
    assert _capture(capsys)["join"] == "654321"
    assert (
        run(
            [
                "join-finite",
                "--family",
                "D",
                "--rank",
                "3",
                "--u",
                "624351",
                "--w",
                "365214",
            ]
        )
        == 0
    )
    assert _capture(capsys)["join"] == "653421"


def test_faces_and_dot(tmp_path, capsys):
    dot = tmp_path / "faces.dot"
    assert run(["faces", "--family", "A", "--n", "3", "--dot", str(dot)]) == 0
    out = _capture(capsys)
    assert out["count"] == 13
    text = dot.read_text()
    # 18 covers: origin under each ray, each ray under two chambers
    assert text.count("->") == 18
    assert "digraph" in text


def test_hasse_dot(tmp_path, capsys):
    dot = tmp_path / "h.dot"
    assert (
        run(
            [
                "hasse",
                "--family",
                "A",
                "--n",
                "2",
                "--face",
                "[[0, 1]]",
                "--bound",
                "3",
                "--dot",
                str(dot),
            ]
        )
        == 0
    )
    out = _capture(capsys)
    assert len(out["nodes"]) == 7 and len(out["covers"]) == 6
    assert dot.read_text().count("->") == 6


def test_order_render_and_normalize(tmp_path, capsys):
    order = {
        "family": "A",
        "n": 2,
        "blocks": [[1], [0]],
        "orient": [False, True],
        "perms": {},
    }
    path = _write(tmp_path, "o.json", order)
    assert run(["order", "--in", path, "--render", "--width", "5"]) == 0
    out = _capture(capsys)
    sep = " \u227a "
    assert out["render"] == sep.join("-5 -3 -1 1 3 5 4 2 0 -2 -4".split())
    assert run(["order", "--in", path, "--normalize"]) == 0
    out = _capture(capsys)
    assert out["orient"] == [False, False]
    # classify accepts order JSON
    assert run(["classify", "--in", path]) == 0
    assert _capture(capsys)["face"] == [[1], [0]]


def test_determinism(tmp_path, capsys):
    a = _write(tmp_path, "a.json", {"family": "A", "n": 4, "word": "s0 s1"})
    b = _write(tmp_path, "b.json", {"family": "A", "n": 4, "word": "s2 s3"})
    run(["join", "--in", a, b])
    first = capsys.readouterr().out
    run(["join", "--in", a, b])
    second = capsys.readouterr().out
    assert first == second


def test_domain_error_exit_code(tmp_path, capsys):
    bad = _write(
        tmp_path, "bad.json", {"family": "A", "n": 2, "word": "s9"}
    )
    assert run(["classify", "--in", bad]) == 1
    err = capsys.readouterr().err
    assert "AfweakError" in err or "no generator" in err


def test_export_dot_empty():
    from afweak.cli import export_dot

    text = export_dot([], [])
    assert text.startswith("digraph") and "->" not in text


def test_usage_error_exit_code(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["close"])  # missing --in
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["join", "--family", "A", "--in", "a.json"])  # spelled --type
    assert exc.value.code == 2
    # an n out of range or a malformed one-line notation exits 2; a
    # well-formed --u that is no group element is a domain error
    a3 = str(tmp_path / "a3.json")
    assert run(["build", "--family", "A", "--n", "3", "--face", "[[0, 1], [2]]",
                "--out", a3]) == 0
    for code, argv in (
        (2, ["join", "--type", "A", "--n", "0", "--in", a3, a3]),
        (2, ["faces", "--family", "A", "--n", "0"]),
        (2, ["build", "--family", "D", "--n", "1", "--face", "[[1],[-1]]"]),
        (2, ["hasse", "--family", "A", "--n", "0", "--face", "[[0]]",
             "--bound", "1"]),
        (2, ["join-finite", "--family", "B", "--rank", "3", "--u", "12x",
             "--w", "123"]),
        (2, ["join-finite", "--family", "B", "--rank", "-1", "--u", "1",
             "--w", "1"]),
        (1, ["join-finite", "--family", "B", "--rank", "3", "--u", "123",
             "--w", "123"]),
        (2, ["build", "--family", "A", "--n", "3", "--face", "[[0, 1], [2]]",
             "--phi-blocks", "[true]"]),
        (2, ["build", "--family", "A", "--n", "3", "--face", "[[0, 1.0], [2]]"]),
    ):
        capsys.readouterr()
        assert run(argv) == code, argv
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, (argv, err)
    # JSON numbers are checked, not coerced: a float, a string or a bool
    # where an integer belongs exits 2, as does a string where a list of
    # component ids belongs
    window = {"family": "A", "n": 2, "H": 2, "roots": [[0, 1]]}
    with open(a3) as fh:
        triple = json.load(fh)
    order = {"family": "A", "n": 2, "blocks": [[0, 1]], "orient": [True],
             "perms": {"0": [2, 1]}}
    for cmd, obj in (("check", window), ("classify", triple), ("order", order)):
        assert run([cmd, "--in", _write(tmp_path, "ok.json", obj)]) == 0
    capsys.readouterr()
    for cmd, obj in (
        ("check", {**window, "H": 2.5}),
        ("check", {**window, "H": True}),
        ("check", {**window, "n": "2"}),
        ("check", {**window, "n": 2.0}),
        ("check", {**window, "roots": [[0, "1"]]}),
        ("check", {**window, "roots": [[0, 1.0]]}),
        ("check", {**window, "roots": [[False, 1]]}),
        ("check", {**window, "roots": "01"}),
        ("classify", {**triple, "phi_prime": "blk0"}),
        ("classify", {**triple, "phi_prime": [0]}),
        ("classify", {**triple, "face": [[0, 1], [2.0]]}),
        ("classify", {**triple, "w": {"blk0": [2.0, 1]}}),
        ("classify", {**triple, "w": [["blk0", [2, 1]]]}),
        ("classify", {"family": "A", "n": 3, "window": [1, 2, "3"]}),
        ("classify", {"family": "A", "n": 3, "window": [1, 2, 3.0]}),
        ("classify", {"family": "A", "n": 3, "word": 5}),
        ("order", {**order, "orient": [1]}),
        ("order", {**order, "blocks": [[0, True]]}),
        ("order", {**order, "perms": {"0": [2, 1.0]}}),
        ("order", {**order, "perms": [[0, [2, 1]]]}),
    ):
        path = _write(tmp_path, "bad.json", obj)
        assert run([cmd, "--in", path]) == 2, obj
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, (obj, err)
        assert err.startswith("afweak: malformed input: "), (obj, err)


def test_malformed_seed_is_a_usage_error(monkeypatch):
    monkeypatch.setenv("AFWEAK_SEED", "abc")
    child = _child("verify", "roundtrip")
    err = child.stderr.decode()
    assert child.returncode == 2, err
    assert child.stdout == b"" and "Traceback" not in err
    assert err == ("afweak: malformed input: AFWEAK_SEED: invalid literal for int()"
                   " with base 10: 'abc'\n")


def test_verify_accepts_every_suite():
    for name in [*SUITES, "all"]:
        assert _parser().parse_args(["verify", name]).suite == name


def test_closed_stdout_exits_without_traceback():
    # like `afweak build ... | head -1` with the reader already gone
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = _child("build", "--family", "A", "--n", "3",
                       "--face", "[[0,1],[2]]", stdout=write_end)
    finally:
        os.close(write_end)
    assert b"Traceback" not in child.stderr, child.stderr.decode()
    assert child.returncode == 1


def test_verify_all_under_optimize(capsys):
    # python -O strips asserts: every check behind verify must still hold
    child = _child("verify", "all", flags=("-O",))
    assert child.returncode == 0, child.stderr.decode()
    assert run(["verify", "all"]) == 0
    assert child.stdout == capsys.readouterr().out.encode()


@pytest.mark.parametrize(
    "text",
    [
        '{"family": "A", "n": 3}',  # no "roots"
        "not json",
        '{"family": "A", "n": 2, "H": 1, "roots": [[0, 5]]}',  # above H
    ],
    ids=["missing-key", "not-json", "root-above-H"],
)
def test_malformed_input_is_a_usage_error(tmp_path, text):
    path = tmp_path / "f.json"
    path.write_text(text)
    child = _child("close", "--in", str(path))
    err = child.stderr.decode()
    assert child.returncode == 2, err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "args",
    [
        ["build", "--family", "A", "--n", "3", "--face", "nope"],
        ["build", "--family", "A", "--n", "3", "--face", "5"],
        ["build", "--family", "A", "--n", "3", "--face", "[[0, 1], [2]]",
         "--phi-blocks", "{"],
        ["build", "--family", "A", "--n", "3", "--face", "[[0, 1], [2]]",
         "--phi-blocks", "[[0]]"],
        ["build", "--family", "A", "--n", "3", "--face", "[[0, 1], [2]]",
         "--w", "blk0=[2, 1"],
        ["build", "--family", "A", "--n", "3", "--face", "[[0, 1], [2]]",
         "--w", "blk0=[\"a\", 1]"],
        ["build", "--family", "A", "--n", "3", "--face", "[[0, 1], [2]]",
         "--w", "blk0=[[2], 1]"],
        ["hasse", "--family", "A", "--n", "3", "--face", "nope", "--bound", "2"],
        ["hasse", "--family", "A", "--n", "3", "--face", "[[0, 1], [2]]",
         "--phi-blocks", "[{}]", "--bound", "2"],
        ["hasse", "--family", "A", "--n", "3", "--face", "[[0, 1, 2]]", "--bound", "-1"],
        ["order", "--in", "{order}", "--render", "--width", "-3"],
        ["join", "--in", "{triple}", "{triple}", "--n", "2"],
        ["meet", "--in", "{triple}", "{triple}", "--n", "2"],
    ],
    ids=["build-face", "build-face-not-list", "build-phi-blocks",
         "build-phi-blocks-item", "build-w", "build-w-item", "build-w-nested",
         "hasse-face", "hasse-phi-blocks-item", "hasse-bound", "order-width",
         "join-n-without-type", "meet-n-without-type"],
)
def test_malformed_option_is_a_usage_error(args, tmp_path):
    # {order} and {triple} name input files that are themselves well formed
    files = {"{order}": {"family": "A", "n": 2, "blocks": [[1], [0]]},
             "{triple}": triple_to_json(triple_of_element(
                 simple_reflections(AffineType("C", 2))[0]))}
    args = [_write(tmp_path, "in.json", files[a]) if a in files else a for a in args]
    child = _child(*args)
    err = child.stderr.decode()
    assert child.returncode == 2, err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert child.stdout == b""


def test_a_hasse_guard_refuses_before_enumerating(capsys):
    # the component elements are enumerated only until the product of
    # their counts passes the node guard, whatever the bound
    face = ["--family", "A", "--n", "3", "--face", "[[0, 1, 2]]"]
    start = time.perf_counter()
    assert run(["hasse", *face, "--bound", "1000000"]) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.startswith("TooLarge: at least ")


def test_a_wide_render_is_refused_before_listing(tmp_path, capsys):
    path = _write(tmp_path, "o.json", {"family": "A", "n": 2, "blocks": [[1], [0]]})
    assert run(["order", "--in", path, "--render", "--width", str(10 ** 9)]) == 1
    assert capsys.readouterr().err == (
        "TooLarge: [-1000000000, 1000000000] holds more than 100000 integers\n")


def test_negative_heights_are_usage_errors(tmp_path):
    # a window needs H >= 0; try-join certifies h against 2h, so it needs
    # h >= 1
    d = ["--family", "D", "--n", "3", "--face", "[[-3], [-2, -1, 1, 2], [3]]"]
    path = tmp_path / "d.json"
    assert run(["build", *d, "--out", str(path)]) == 0
    window = _write(tmp_path, "w.json", {"family": "A", "n": 3, "H": -1, "roots": []})
    for args in (["try-join", "--in", str(path), str(path), "--height", "-1"],
                 ["try-join", "--in", str(path), str(path), "--height", "0"],
                 ["build", *d, "--height", "-1"],
                 ["classify", "--in", window]):
        child = _child(*args)
        err = child.stderr.decode()
        assert child.returncode == 2, err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert child.stdout == b""


def test_join_under_optimize_matches_in_process(tmp_path, capsys):
    # the order checks behind join are raises, so python -O keeps them:
    # the family-A ones and pi's sigma check and write-back of a C order
    rng = random.Random(int(os.environ.get("AFWEAK_SEED", "0")))
    for typ in (AffineType("A", 5), AffineType("C", 3)):
        paths = [
            _write(tmp_path, f"t{k}.json", triple_to_json(random_triple(typ, rng)))
            for k in range(2)
        ]
        child = _child("join", "--in", *paths, flags=("-O",))
        assert child.returncode == 0, child.stderr.decode()
        assert run(["join", "--in", *paths]) == 0
        assert child.stdout == capsys.readouterr().out.encode()


def test_check_child_matches_in_process(tmp_path, capsys):
    typ = AffineType("D", 4)
    biclosed = random_triple(typ, random.Random(3)).window(6)
    lone = window_set(typ, 6, [next(r for r in root_window(typ, 6) if r.height == 1)])
    for s, code in ((biclosed, 0), (lone, 1)):
        path = _write(tmp_path, "s.json", windowset_to_json(s))
        assert run(["check", "--in", path]) == code
        child = _child("check", "--in", path)
        assert child.returncode == code
        assert child.stdout == capsys.readouterr().out.encode()


def test_domain_error_prints_its_witness(tmp_path, capsys):
    # classify on a non-biclosed window names the witness that check prints
    bad = _write(
        tmp_path, "bad.json", {"family": "A", "n": 2, "H": 3, "roots": [[0, 3]]}
    )
    assert run(["check", "--in", bad]) == 1
    cert = _capture(capsys)
    child = _child("classify", "--in", bad)
    assert child.returncode == 1 and child.stdout == b""
    witness = json.dumps({k: cert[k] for k in ("violated", "witness")},
                         sort_keys=True)
    assert child.stderr.decode() == (
        f"NotBiclosed: window trace violates the {cert['violated']} condition"
        f" {witness}\n")


def test_oversized_window_is_refused_at_once(tmp_path):
    # H = 100000 would be 1.2 million roots and an O(N^2) plane scan
    path = _write(tmp_path, "big.json", {"family": "A", "n": 4, "H": 100000,
                                         "roots": [[0, 1]]})
    start = time.monotonic()
    child = _child("check", "--in", path)
    err = child.stderr.decode()
    assert child.returncode == 1, err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "limit" in err and child.stdout == b""
    assert time.monotonic() - start < 10
