import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from enriched_ph import cli
from enriched_ph.cli import main

FIXTURE_B = {
    "dataset": {
        "domain": ["x1", "x2", "x3"],
        "measurements": {"phi1": ["2", "2", "3"], "phi2": ["2", "2", "2"], "phi3": ["1", "2", "2"]},
    },
    "M": {
        "id": {"x1": "x1", "x2": "x2", "x3": "x3"},
        "g1": {"x1": "x2", "x2": "x2", "x3": "x3"},
        "g2": {"x1": "x2", "x2": "x2", "x3": "x2"},
        "g3": {"x1": "x1", "x2": "x2", "x3": "x2"},
    },
}

FIXTURE_A_BOTH = {
    "domain": ["x1", "x2", "x3", "x4"],
    "measurements": {"phi": ["-1", "0", "0", "1"], "psi": ["0", "1", "-1", "0"]},
}

FIXTURE_C_LEFT = {"domain": ["x1", "x2"], "measurements": {"one": ["1", "1"], "two": ["2", "2"]}}
FIXTURE_C_RIGHT = {"domain": ["x1", "x2"], "measurements": {"neg": ["-1", "-1"], "pos": ["1", "1"]}}


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return tmp_path, write


def test_metric_fixture_a(files, capsys):
    tmp, write = files
    path = write("psi.json", FIXTURE_A_BOTH)
    assert main(["metric", path]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == ",x1,x2,x3,x4"
    assert lines[2] == "x2,1,0,2,1"


def test_metric_single_point(files, capsys):
    tmp, write = files
    path = write("one.json", {"domain": ["p"], "measurements": {"f": ["7"]}})
    assert main(["metric", path]) == 0
    assert capsys.readouterr().out.strip().splitlines()[1] == "p,0"


def test_metric_malformed_json(files, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["metric", str(bad)]) == 2


def test_metric_deterministic(files, tmp_path):
    _, write = files
    path = write("psi.json", FIXTURE_A_BOTH)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["metric", path, "-o", str(out1)]) == 0
    assert main(["metric", path, "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_analyze_fixture_b(files, capsys):
    _, write = files
    path = write("b.json", FIXTURE_B)
    assert main(["analyze", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {
        "kind": "monoid",
        "blocks": [["phi1", "phi2", "phi3"]],
        "basis": ["phi1", "phi3"],
        "dimension": 2,
    }


def test_analyze_identity_only(files, capsys):
    _, write = files
    payload = {
        "dataset": FIXTURE_A_BOTH,
        "M": {"id": {"x1": "x1", "x2": "x2", "x3": "x3", "x4": "x4"}},
    }
    path = write("ida.json", payload)
    assert main(["analyze", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dimension"] == 2
    assert report["kind"] == "group"


def test_analyze_bad_operation_exit_3(files, capsys):
    _, write = files
    payload = {
        "dataset": FIXTURE_A_BOTH,
        "M": {"swap": {"x1": "x4", "x2": "x2", "x3": "x3", "x4": "x1"}},
    }
    path = write("bad.json", payload)
    assert main(["analyze", path]) == 3
    assert FIXTURE_A_BOTH["measurements"].keys() & set(capsys.readouterr().err.split())


def test_ops_end(files, capsys):
    _, write = files
    path = write("b.json", FIXTURE_B["dataset"])
    assert main(["ops", "end", path]) == 0
    found = json.loads(capsys.readouterr().out)
    assert len(found) == 4


def test_ph_grid_golden(files, tmp_path, capsys):
    _, write = files
    path = write("psi.json", FIXTURE_A_BOTH)
    out = tmp_path / "grid.json"
    assert main(["ph", path, "-m", "phi", "-d", "1", "--grid", str(out)]) == 0
    grid = json.loads(out.read_text())
    assert grid["r"] == ["0", "1", "2"]
    assert grid["s"] == ["-2", "-1", "0", "1"]
    assert grid["dims"] == [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]


def test_ph_default_output_is_the_grid_file(files, tmp_path, capsys):
    # with no output flag the grid goes to stdout, byte for byte as --grid writes it
    _, write = files
    path = write("psi.json", FIXTURE_A_BOTH)
    out = tmp_path / "grid.json"
    for d in ("0", "1"):
        assert main(["ph", path, "-m", "phi", "-d", d]) == 0
        printed = capsys.readouterr().out
        assert main(["ph", path, "-m", "phi", "-d", d, "--grid", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert printed.encode() == out.read_bytes()


def test_ph_grid_and_barcodes_build_each_homology_space_once(files, tmp_path, monkeypatch):
    from enriched_ph import persistence

    _, write = files
    path = write("psi.json", FIXTURE_A_BOTH)
    argv = ["ph", path, "-m", "phi", "-d", "1"]
    alone = {}
    for flag in ("--grid", "--barcodes"):
        assert main([*argv, flag, str(tmp_path / "alone")]) == 0
        alone[flag] = (tmp_path / "alone").read_bytes()
    real, built = persistence.HomologySpace.__init__, []

    def counted(self, cx, degree, p):
        built.append((cx.points, cx.scale, degree))  # an evaluator's key for the space
        real(self, cx, degree, p)

    monkeypatch.setattr(persistence.HomologySpace, "__init__", counted)
    assert main([*argv, "--grid", str(tmp_path / "g.json"), "--barcodes", str(tmp_path / "b.csv")]) == 0
    assert built and len(built) == len(set(built))
    assert (tmp_path / "g.json").read_bytes() == alone["--grid"]
    assert (tmp_path / "b.csv").read_bytes() == alone["--barcodes"]


def test_ph_unknown_measurement(files):
    _, write = files
    path = write("psi.json", FIXTURE_A_BOTH)
    assert main(["ph", path, "-m", "zeta"]) == 2


@pytest.mark.parametrize("flags", [["-p", "0"], ["-p", "1"], ["-p", "4"], ["-d", "-1"]])
def test_ph_bad_modulus_or_degree_exit_2(files, capsys, flags):
    _, write = files
    path = write("psi.json", FIXTURE_A_BOTH)
    assert main(["ph", path, "-m", "phi", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


WRONG_SHAPES = [[], 5, {"domain": 5, "measurements": {}}]
# values that are not rationals, and strings where lists belong
BAD_VALUES = [
    {"domain": ["p"], "measurements": {"f": ["1/0"]}},
    {"domain": ["p"], "measurements": {"f": [True]}},
    {"domain": ["p"], "measurements": {"f": [False]}},
    {"domain": "ab", "measurements": {"f": ["1", "2"]}},
    {"domain": ["a", "b"], "measurements": {"f": "12"}},
]
ONE_POINT = {"domain": ["p"], "measurements": {"f": ["7"]}}
EXTENSION = {"basis": ["phi1"], "alpha_bar": {"phi1": "phi1"}, "T": {"id": "id"}}


@pytest.mark.parametrize(
    "argv, bad",
    [
        (argv, bad)
        for argv in (["metric", "BAD"], ["ph", "BAD", "-m", "f"], ["ops", "end", "BAD"])
        for bad in WRONG_SHAPES
    ]
    + [
        (["ph", "BAD", "-m", "f"], {"dataset": ONE_POINT, "M": []}),
        (["ph", "BAD", "-m", "f"], {"dataset": ONE_POINT, "M": {"id": 5}}),
        (["ph", "BAD", "-m", "f"], {"domain": ["p"], "measurements": {"f": 7}}),
        (["seo", "check", "--source", "INC", "--target", "INC", "--seo", "BAD"], {"alpha": [], "T": {}}),
        (["seo", "extend", "--source", "INC", "--target", "INC", "--map", "BAD"], dict(EXTENSION, basis=5)),
        (["seo", "extend", "--source", "INC", "--target", "INC", "--map", "BAD"], dict(EXTENSION, T=[])),
        (["seo", "realize", "--source", "LEFT", "--target", "LEFT", "--alpha", "BAD"], {"one": ["one"]}),
        (["seo", "realize", "--source", "LEFT", "--target", "LEFT", "--alpha", "BAD"], []),
        (["seo", "units", "--valuemap", "BAD", "--incarnation", "INC"], {"table": 5}),
    ]
    + [(argv, bad) for argv in (["metric", "BAD"], ["ops", "end", "BAD"]) for bad in BAD_VALUES]
    + [(["seo", "extend", "--source", "INC", "--target", "INC", "--map", "BAD"], dict(EXTENSION, basis="phi1"))],
)
def test_wrong_shape_json_exit_2(files, capsys, argv, bad):
    _, write = files
    paths = {
        "BAD": write("bad.json", bad),
        "INC": write("b.json", FIXTURE_B),
        "LEFT": write("left.json", FIXTURE_C_LEFT),
    }
    assert main([paths.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_seo_extend_string_basis_names_basis(files, capsys):
    # a string is not read character by character as measurement names
    _, write = files
    inc, ext = write("b.json", FIXTURE_B), write("ext.json", dict(EXTENSION, basis="phi1"))
    assert main(["seo", "extend", "--source", inc, "--target", inc, "--map", ext]) == 2
    assert "basis must be a JSON list, not str" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["metric", "DIR"],
        ["metric", "DS", "-o", "MISSING/out.csv"],
        ["ph", "INC", "-m", "phi1", "--functor", "FILE"],
    ],
    ids=["input-is-directory", "output-in-missing-directory", "functor-dir-is-file"],
)
def test_unreadable_input_or_unwritable_output_exit_2(files, capsys, argv):
    tmp, write = files
    (tmp / "adir").mkdir()
    paths = {
        "DIR": str(tmp / "adir"),
        "DS": write("ds.json", FIXTURE_A_BOTH),
        "INC": write("b.json", FIXTURE_B),
        "FILE": write("afile", {}),
    }
    argv = [paths.get(a, a).replace("MISSING", str(tmp / "missing")) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "incarnation, flag, target",
    [(False, "--functor", "fdir"), (False, "--dot", "g.dot"), (True, "--functor", "afile")],
    ids=["functor-on-data-set", "dot-on-data-set", "functor-dir-is-file"],
)
def test_ph_bad_last_destination_writes_nothing(files, capsys, incarnation, flag, target):
    tmp, write = files
    path = write("b.json", FIXTURE_B) if incarnation else write("ds.json", FIXTURE_A_BOTH)
    write("afile", {})
    before = set(os.listdir(tmp))
    argv = ["ph", path, "-m", "phi1" if incarnation else "phi", "-d", "0"]
    argv += ["--grid", str(tmp / "g.json"), "--barcodes", str(tmp / "b.csv"), flag, str(tmp / target)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert set(os.listdir(tmp)) == before


def test_ph_single_point_bar(files, capsys, tmp_path):
    _, write = files
    path = write("one.json", {"domain": ["p"], "measurements": {"f": ["7"]}})
    out = tmp_path / "bars.csv"
    assert main(["ph", path, "-m", "f", "-d", "0", "--barcodes", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r,s_birth,s_death,degree"
    assert lines[1] == "0,7,inf,0"


def test_ph_functor_writes_twelve_edge_files(files, tmp_path):
    _, write = files
    path = write("b.json", FIXTURE_B)
    outdir = tmp_path / "functor"
    assert main(["ph", path, "-m", "phi1", "-d", "0", "--functor", str(outdir)]) == 0
    edge_files = [f for f in os.listdir(outdir) if f.startswith("edge_")]
    assert len(edge_files) == 12
    index = json.loads((outdir / "index.json").read_text())
    assert len(index["edges"]) == 12


def test_ph_dot_output(files, tmp_path):
    _, write = files
    path = write("b.json", FIXTURE_B)
    out = tmp_path / "g.dot"
    assert main(["ph", path, "-m", "phi1", "--dot", str(out)]) == 0
    assert out.read_text().count("->") == 12


def test_interleave_identity(files, capsys):
    _, write = files
    path = write("psi.json", FIXTURE_A_BOTH)
    assert main(["interleave", path, "--phi", "phi", "--psi", "phi"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["upper"] == "0" and report["lower"] == "0"


def test_interleave_fixture_a(files, capsys):
    _, write = files
    path = write("psi.json", FIXTURE_A_BOTH)
    assert main(["interleave", path, "--phi", "phi", "--psi", "psi", "-d", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["upper"] == "1"
    from fractions import Fraction

    assert Fraction(report["lower"]) <= Fraction(report["upper"])


def test_interleave_missing_measurement(files):
    _, write = files
    path = write("psi.json", FIXTURE_A_BOTH)
    assert main(["interleave", path, "--phi", "phi", "--psi", "nope"]) == 2


def test_interleave_accepts_a_large_prime_modulus(files, capsys):
    _, write = files
    path = write("psi.json", FIXTURE_A_BOTH)
    assert main(["interleave", path, "--phi", "phi", "--psi", "psi", "-p", str(2**61 - 1)]) == 0
    assert json.loads(capsys.readouterr().out)["upper"] == "1"


@pytest.mark.parametrize("modulus", ["561", "1" + "0" * 400])
def test_interleave_carmichael_or_huge_modulus_exit_2(files, capsys, modulus):
    _, write = files
    path = write("psi.json", FIXTURE_A_BOTH)
    assert main(["interleave", path, "--phi", "phi", "--psi", "psi", "-p", modulus]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _python_m(argv, cwd=None, text=True, **environ):
    """Run the CLI in a fresh interpreter through python -m enriched_ph, with
    environ added to the environment; text False keeps its output as bytes."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **environ)
    return subprocess.run(
        [sys.executable, "-m", "enriched_ph", *argv],
        capture_output=True, text=text, env=env, cwd=cwd, timeout=60,
    )


@pytest.mark.parametrize("flags, code", [([], 0), (["-p", "4"], 2)])
def test_python_m_runs_the_cli(files, flags, code):
    _, write = files
    path = write("psi.json", FIXTURE_A_BOTH)
    proc = _python_m(["interleave", path, "--phi", "phi", "--psi", "psi", *flags])
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert json.loads(proc.stdout)["upper"] == "1"


def test_files_are_utf8_whatever_the_locale(tmp_path):
    # an ASCII locale without UTF-8 mode: open() would default to ASCII
    ascii_locale = {"LC_ALL": "C", "PYTHONUTF8": "0"}
    data, out = tmp_path / "accent.json", tmp_path / "out.csv"
    data.write_bytes(json.dumps({"domain": ["é", "b"], "measurements": {"f": ["0", "1"]}}, ensure_ascii=False).encode())
    proc = _python_m(["metric", str(data), "-o", str(out)], **ascii_locale)
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == ",é,b\né,0,1\nb,1,0\n".encode()
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff{}")
    proc = _python_m(["metric", str(latin)], **ascii_locale)
    assert proc.returncode == 2
    assert proc.stderr == (
        f"error: {latin} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    )


def test_stdout_is_utf8_whatever_the_locale(tmp_path):
    # stdout's text layer would encode in ASCII here; the output is written as UTF-8 bytes
    data = tmp_path / "accent.json"
    data.write_bytes(json.dumps({"domain": ["é", "b"], "measurements": {"f": ["0", "1"]}}, ensure_ascii=False).encode())
    proc = _python_m(["metric", str(data)], text=False, LC_ALL="C", PYTHONUTF8="0")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ",é,b\né,0,1\nb,1,0\n".encode()
    # a stream without a byte buffer gets the text itself
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["metric", str(data)]) == 0
    assert out.getvalue() == ",é,b\né,0,1\nb,1,0\n"


def test_repeated_main_calls_match_fresh_processes(files, capsys, monkeypatch):
    tmp, write = files
    data, inc = write("psi.json", FIXTURE_A_BOTH), write("b.json", FIXTURE_B)
    runs = [
        ["ph", data],  # usage error: -m is required
        ["ph", data, "-m", "zeta"],  # CliError: no such measurement
        ["metric", data],
        ["ops", "end", inc],
        ["ph", data, "-m", "phi", "-d", "1", "--grid", "grid.json"],
        ["interleave", data, "--phi", "phi", "--psi", "psi", "-d", "1"],
    ]
    builds = []
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real_build())
    here, fresh = tmp / "here", tmp / "fresh"
    here.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(here)
    for argv in runs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        proc = _python_m(argv, cwd=fresh)
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
    assert len(builds) == 1
    assert (here / "grid.json").read_bytes() == (fresh / "grid.json").read_bytes()


EMPTY_DOMAIN = {"domain": [], "measurements": {"f": []}}


@pytest.mark.parametrize(
    "argv", [["ph", "DATA", "-m", "f"], ["interleave", "DATA", "--phi", "f", "--psi", "f"]]
)
def test_empty_domain_exit_2(files, capsys, argv):
    _, write = files
    path = write("empty.json", EMPTY_DOMAIN)
    assert main([path if a == "DATA" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: empty domain") and err.count("\n") == 1


def test_empty_domain_metric_and_ops_unchanged(files, capsys):
    _, write = files
    path = write("empty.json", EMPTY_DOMAIN)
    assert main(["metric", path]) == 0
    assert capsys.readouterr().out == ",\n"
    for which in ("end", "aut"):
        assert main(["ops", which, path]) == 0
        assert json.loads(capsys.readouterr().out) == {"e0": {}}


def test_seo_check_identity(files, capsys):
    _, write = files
    inc = write("b.json", FIXTURE_B)
    seo = write(
        "seo.json",
        {
            "alpha": {"phi1": "phi1", "phi2": "phi2", "phi3": "phi3"},
            "T": {"id": "id", "g1": "g1", "g2": "g2", "g3": "g3"},
        },
    )
    assert main(["seo", "check", "--source", inc, "--target", inc, "--seo", seo]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] and report["monoid_operator"] and report["geometric"]


def test_seo_check_rejects_swap_with_witness(files, capsys):
    _, write = files
    inc = write("b.json", FIXTURE_B)
    seo = write(
        "seo.json",
        {
            "alpha": {"phi1": "phi3", "phi2": "phi2", "phi3": "phi1"},
            "T": {"id": "id", "g1": "g1", "g2": "g2", "g3": "g3"},
        },
    )
    assert main(["seo", "check", "--source", inc, "--target", inc, "--seo", seo]) == 4
    report = json.loads(capsys.readouterr().out)
    assert not report["valid"]
    assert report["witness"]["operation"] in {"g1", "g3"}


def test_seo_realize_fixture_c(files, capsys):
    _, write = files
    left = write("left.json", FIXTURE_C_LEFT)
    right = write("right.json", FIXTURE_C_RIGHT)
    alpha = write("alpha.json", {"one": "neg", "two": "pos"})
    assert main(["seo", "realize", "--source", left, "--target", right, "--alpha", alpha]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"realizable": False, "empty_candidates_at": ["x1", "x2"]}


def test_seo_realize_positive(files, capsys):
    _, write = files
    left = write("left.json", FIXTURE_C_LEFT)
    alpha = write("alpha.json", {"one": "one", "two": "two"})
    assert main(["seo", "realize", "--source", left, "--target", left, "--alpha", alpha]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["realizable"]


def test_seo_extend_round_trip(files, capsys):
    _, write = files
    inc = write("b.json", FIXTURE_B)
    ext = write(
        "ext.json",
        {
            "basis": ["phi1", "phi3"],
            "alpha_bar": {"phi1": "phi2", "phi3": "phi3"},
            "T": {"id": "id", "g1": "g1", "g2": "g2", "g3": "g3"},
            "variant": "MEO",
        },
    )
    assert main(["seo", "extend", "--source", inc, "--target", inc, "--map", ext]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["extended"]
    assert report["seo"]["alpha"] == {"phi1": "phi2", "phi2": "phi2", "phi3": "phi3"}


def test_seo_extend_swap_exit_4(files, capsys):
    _, write = files
    inc = write("b.json", FIXTURE_B)
    ext = write(
        "ext.json",
        {
            "basis": ["phi1", "phi3"],
            "alpha_bar": {"phi1": "phi3", "phi3": "phi1"},
            "T": {"id": "id", "g1": "g1", "g2": "g2", "g3": "g3"},
            "variant": "MEO",
        },
    )
    assert main(["seo", "extend", "--source", inc, "--target", inc, "--map", ext]) == 4


def test_seo_decompose_fixture_a(files, capsys):
    _, write = files
    payload = {
        "dataset": FIXTURE_A_BOTH,
        "M": {"id": {"x1": "x1", "x2": "x2", "x3": "x3", "x4": "x4"}},
    }
    path = write("ida.json", payload)
    assert main(["seo", "decompose", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["isomorphism"]
    assert len(report["diagonal"]["dataset"]["domain"]) == 8


def test_seo_units_clamp(files, capsys):
    _, write = files
    payload = {"dataset": FIXTURE_C_LEFT, "M": {"id": {"x1": "x1", "x2": "x2"}}}
    inc = write("c.json", payload)
    vm = write("vm.json", {"builtin": "clamp-sign"})
    assert main(["seo", "units", "--valuemap", vm, "--incarnation", inc]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report["image"]["dataset"]["measurements"].values()) == [["1", "1"]]


def test_ops_guard_env_override(files, monkeypatch):
    _, write = files
    path = write("c.json", FIXTURE_C_LEFT)
    monkeypatch.setenv("ENRICHED_PH_GUARD", "1")
    assert main(["ops", "end", path]) == 2
    monkeypatch.setenv("ENRICHED_PH_GUARD", "2")
    assert main(["ops", "end", path]) == 0
    monkeypatch.setenv("ENRICHED_PH_GUARD", "zap")
    assert main(["ops", "end", path]) == 2


def test_unknown_measurement_prints_the_plain_message(files, capsys):
    _, write = files
    path = write("psi.json", FIXTURE_A_BOTH)
    assert main(["ph", path, "-m", "zz"]) == 2
    assert capsys.readouterr().err == "error: no measurement named 'zz'\n"


def test_ops_guard_exceeded_exits_2_with_one_line(files, capsys, monkeypatch):
    _, write = files
    path = write("c.json", FIXTURE_C_LEFT)
    monkeypatch.setenv("ENRICHED_PH_GUARD", "1")
    assert main(["ops", "end", path]) == 2
    assert capsys.readouterr().err == "error: |X|=2 exceeds enumeration guard 1\n"


def test_bad_operation_has_one_wording(files, capsys):
    _, write = files
    payload = {
        "dataset": FIXTURE_A_BOTH,
        "M": {"swap": {"x1": "x4", "x2": "x2", "x3": "x3", "x4": "x1"}},
    }
    path = write("bad.json", payload)
    for argv in (["analyze", path], ["ph", path, "-m", "phi"]):
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: swap is not an operation: moves phi out of the set\n"


@pytest.mark.parametrize(
    "argv, bad, what",
    [
        (["metric", "BAD"], {"domain": ["p"], "measurements": {}, "allow_empty": "no"}, "allow_empty"),
        (["metric", "BAD"], {"domain": ["p"], "measurements": {"f": ["1"]}, "allow_empty": 1}, "allow_empty"),
        (["metric", "BAD"], {"domain": [["a"], "b"], "measurements": {"f": ["1", "2"]}}, "domain"),
        (["metric", "BAD"], {"domain": [{"a": 1}, "b"], "measurements": {"f": ["1", "2"]}}, "domain"),
        (["metric", "BAD"], {"domain": [True, "b"], "measurements": {"f": ["1", "2"]}}, "domain"),
        (["metric", "BAD"], {"domain": [None, "b"], "measurements": {"f": ["1", "2"]}}, "domain"),
        (["analyze", "BAD"], {"dataset": FIXTURE_C_LEFT, "M": {"s": [["x1", "x2"], ["x2", "x1"]]}}, "'s'"),
        (["seo", "units", "--valuemap", "BAD", "--incarnation", "INC"], {"table": [[v, v] for v in "123"]}, "table"),
        # whole lines: a missing field, an object given as a list, and an unknown name, each after the file
        (["metric", "BAD"], {"measurements": {"f": ["1"]}}, "error: bad data set BAD: missing field 'domain'\n"),
        (
            ["metric", "BAD"],
            {"domain": ["p"], "measurements": [["f", "1"]]},
            "error: bad data set BAD: measurements must be a JSON object, not list\n",
        ),
        (["analyze", "BAD"], {"M": {}}, "error: bad incarnation BAD: missing field 'dataset'\n"),
        (
            ["analyze", "BAD"],
            {"dataset": [], "M": {}},
            "error: bad incarnation BAD: dataset must be a JSON object, not list\n",
        ),
        (
            ["analyze", "BAD"],
            {"dataset": ONE_POINT, "M": [["id", {"p": "p"}]]},
            "error: bad incarnation BAD: M must be a JSON object, not list\n",
        ),
        (
            ["seo", "check", "--source", "INC", "--target", "INC", "--seo", "BAD"],
            {"alpha": {"zz": "phi1"}, "T": {"id": "id"}},
            "error: bad operator file BAD: no measurement named 'zz'\n",
        ),
        (
            ["seo", "check", "--source", "INC", "--target", "INC", "--seo", "BAD"],
            {"T": {"id": "id"}},
            "error: bad operator file BAD: missing field 'alpha'\n",
        ),
        (
            ["seo", "check", "--source", "INC", "--target", "INC", "--seo", "BAD"],
            {"alpha": [["phi1", "phi1"]], "T": {"id": "id"}},
            "error: bad operator file BAD: alpha must be a JSON object, not list\n",
        ),
        (
            ["seo", "check", "--source", "INC", "--target", "INC", "--seo", "BAD"],
            {"alpha": {}, "T": [["id", "id"]]},
            "error: bad operator file BAD: T must be a JSON object, not list\n",
        ),
        (
            ["seo", "extend", "--source", "INC", "--target", "INC", "--map", "BAD"],
            dict(EXTENSION, alpha_bar=[["phi1", "phi1"]]),
            "error: bad extension file BAD: alpha_bar must be a JSON object, not list\n",
        ),
        (
            ["seo", "extend", "--source", "INC", "--target", "INC", "--map", "BAD"],
            {"basis": ["phi1"], "alpha_bar": {"phi1": "phi1"}},
            "error: bad extension file BAD: missing field 'T'\n",
        ),
        (
            ["seo", "realize", "--source", "LEFT", "--target", "LEFT", "--alpha", "BAD"],
            {"zz": "one"},
            "error: bad measurement map BAD: no measurement named 'zz'\n",
        ),
        (
            ["seo", "units", "--valuemap", "BAD", "--incarnation", "INC"],
            {"builtin": "affine", "a": "1"},
            "error: bad value map BAD: missing field 'b'\n",
        ),
        # a name given where a string belongs: one line naming the wrong type, per command and field
        (
            ["seo", "check", "--source", "INC", "--target", "INC", "--seo", "BAD"],
            {"alpha": {"phi1": ["phi1"]}, "T": {"id": "id"}},
            "error: bad operator file BAD: measurement names are strings, not list\n",
        ),
        (
            ["seo", "check", "--source", "INC", "--target", "INC", "--seo", "BAD"],
            {"alpha": {"phi1": "phi1"}, "T": {"id": ["id"]}},
            "error: bad operator file BAD: operation names are strings, not list\n",
        ),
        (
            ["seo", "extend", "--source", "INC", "--target", "INC", "--map", "BAD"],
            dict(EXTENSION, basis=[["phi1"]]),
            "error: bad extension file BAD: measurement names are strings, not list\n",
        ),
        (
            ["seo", "extend", "--source", "INC", "--target", "INC", "--map", "BAD"],
            dict(EXTENSION, alpha_bar={"phi1": ["phi1"]}),
            "error: bad extension file BAD: measurement names are strings, not list\n",
        ),
        (
            ["seo", "extend", "--source", "INC", "--target", "INC", "--map", "BAD"],
            dict(EXTENSION, T={"id": ["id"]}),
            "error: bad extension file BAD: operation names are strings, not list\n",
        ),
        (
            ["seo", "realize", "--source", "LEFT", "--target", "LEFT", "--alpha", "BAD"],
            {"one": ["one"], "two": "two"},
            "error: bad measurement map BAD: measurement names are strings, not list\n",
        ),
        (
            ["seo", "realize", "--source", "LEFT", "--target", "LEFT", "--alpha", "BAD"],
            {"one": "one", "two": 2},
            "error: bad measurement map BAD: measurement names are strings, not int\n",
        ),
        # a bad value names its witness
        (
            ["metric", "BAD"],
            {"domain": ["a", "b"], "measurements": {"f": ["1"]}},
            "error: bad data set BAD: value vector of length 1 on a domain of 2 points\n",
        ),
        (
            ["analyze", "BAD"],
            {"dataset": FIXTURE_C_LEFT, "M": {"s": {"x1": "x1"}}},
            "error: bad incarnation BAD: map must be total on the source domain: no image for 'x2'\n",
        ),
        (
            ["analyze", "BAD"],
            {"dataset": FIXTURE_C_LEFT, "M": {"s": {"x1": "x1", "z": "x1", "x2": "x2"}}},
            "error: bad incarnation BAD: map must be total on the source domain: 'z' is not a source point\n",
        ),
    ],
)
def test_wrong_json_type_exit_2_naming_the_field(files, capsys, argv, bad, what):
    _, write = files
    paths = {
        "BAD": write("bad.json", bad),
        "INC": write("b.json", FIXTURE_B),
        "LEFT": write("left.json", FIXTURE_C_LEFT),
    }
    assert main([paths.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert what.replace("BAD", paths["BAD"]) in err


def test_numeric_domain_entries_are_still_points(files, capsys):
    _, write = files
    path = write("num.json", {"domain": [1, 2.5], "measurements": {"f": ["0", "1"]}})
    assert main(["metric", path]) == 0
    assert capsys.readouterr().out.splitlines()[0] == ",1,2.5"


def test_empty_measurement_name_exit_2(files, capsys):
    # the constructor reads "" as no name; in a file it would be renamed m0 unseen
    _, write = files
    data = {"domain": ["a", "b"], "measurements": {"": ["0", "1"], "g": ["1", "0"]}}
    ds, inc = write("empty.json", data), write("inc.json", {"dataset": data, "M": {}})
    for argv, what in (
        (["metric", ds], f"data set {ds}"),
        (["ph", ds, "-m", ""], f"data set {ds}"),
        (["analyze", inc], f"incarnation {inc}"),
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: bad {what}: a measurement name is empty\n"
