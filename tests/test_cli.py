import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quasihopf

from quasihopf import cli
from quasihopf.qha import BUILTIN_NAMES


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_builtins_listed(capsys):
    code, out, _ = run(capsys, "builtins")
    assert code == 0
    for name in BUILTIN_NAMES:
        assert name in out


def test_export_verify_roundtrip(tmp_path, capsys):
    for name in BUILTIN_NAMES:
        path = tmp_path / f"{name}.json"
        code, _, _ = run(capsys, "export", name, "-o", str(path))
        assert code == 0
        code, out, _ = run(capsys, "verify", str(path), "--derived")
        assert code == 0, out
        # export of the re-imported algebra is bit-identical
        path2 = tmp_path / f"{name}2.json"
        code, _, _ = run(capsys, "export", name, "-o", str(path2))
        assert path.read_text() == path2.read_text()


def test_verify_flags_corrupted_alpha(tmp_path, capsys):
    code, out, _ = run(capsys, "export", "drinfeld_h2", "-o", str(tmp_path / "d.json"))
    obj = json.loads((tmp_path / "d.json").read_text())
    obj["alpha"] = ["1", "0"]
    (tmp_path / "bad.json").write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", str(tmp_path / "bad.json"))
    assert code == 1
    assert "H3" in out


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "--report", "json", "verify", "group_z2")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert all(set(item) == {"id", "status", "details"} for item in data["items"])


def test_missing_algebra_is_input_error(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/file.json")
    assert code == 2
    assert "error" in err


def test_malformed_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2


def test_end_command(capsys):
    code, out, _ = run(capsys, "end", "sweedler_h4")
    assert code == 0
    assert "spans_agree" in out


def test_end_with_module_file(tmp_path, capsys):
    # the regular module as an explicit file
    from quasihopf import qhio
    from quasihopf.repcat import regular_module
    from conftest import get_algebra
    h = get_algebra("drinfeld_h2")
    (tmp_path / "C.json").write_text(
        qhio.dumps(qhio.module_to_obj(regular_module(h))))
    code, out, _ = run(capsys, "end", "drinfeld_h2", "--left", str(tmp_path / "C.json"))
    assert code == 0


def test_check_triangle_scripts(capsys):
    code, _, _ = run(capsys, "check", "drinfeld_h2",
                     "--lhs", "(eta(C,C) * id(C)) ; eps(C*C, C)",
                     "--rhs", "id(C*C)")
    assert code == 0
    code, _, _ = run(capsys, "check", "drinfeld_h2",
                     "--lhs", "braid(A,A) ; mu(A)", "--rhs", "mu(A)")
    assert code == 0
    code, _, _ = run(capsys, "check", "drinfeld_h2",
                     "--lhs", "s(A) ; t(A)", "--rhs", "id(heart(A))")
    assert code == 0


def test_check_failure_exits_one(capsys):
    code, out, _ = run(capsys, "check", "sweedler_h4",
                       "--lhs", "braid(A,A)", "--rhs", "id(A*A)")
    assert code == 1
    assert "witness" in out


def test_check_syntax_error_exits_two(capsys):
    code, _, err = run(capsys, "check", "group_z2", "--lhs", "mu(A", "--rhs", "mu(A)")
    assert code == 2


def test_eval_text_and_json(capsys):
    code, out, _ = run(capsys, "eval", "group_z2", "--expr", "pi(C)")
    assert code == 0 and "->" in out
    code, out, _ = run(capsys, "--report", "json", "eval", "group_z2",
                       "--expr", "pi(C)")
    data = json.loads(out)
    assert data["source_dim"] == 4 and data["target_dim"] == 2


def test_equiv_command(capsys):
    code, out, _ = run(capsys, "equiv", "group_z2", "--objects", "unit,C")
    assert code == 0
    assert "hom_dims" in out


def test_context_file(tmp_path, capsys):
    from quasihopf import qhio
    from quasihopf.repcat import tensor, regular_module
    from conftest import get_algebra
    h = get_algebra("group_z2")
    cc = tensor(regular_module(h), regular_module(h))
    ctx = {"modules": {"CC": qhio.module_to_obj(cc)}}
    (tmp_path / "ctx.json").write_text(json.dumps(ctx))
    code, _, _ = run(capsys, "check", "group_z2", "--context", str(tmp_path / "ctx.json"),
                     "--lhs", "id(CC)", "--rhs", "id(C*C)")
    assert code == 0


def test_context_morphisms(tmp_path, capsys):
    from conftest import get_algebra
    h = get_algebra("group_z2")
    swap = {"source": "C", "target": "C", "matrix": ["0", "1", "1", "0"]}
    (tmp_path / "ctx.json").write_text(json.dumps({"morphisms": {"rg": swap}}))
    code, _, _ = run(capsys, "check", "group_z2",
                     "--context", str(tmp_path / "ctx.json"),
                     "--lhs", "rg ; rg", "--rhs", "id(C)")
    assert code == 0
    # a non-linear map is rejected at load time
    bad = {"source": "C", "target": "C", "matrix": ["1", "0", "0", "0"]}
    (tmp_path / "ctx2.json").write_text(json.dumps({"morphisms": {"pr": bad}}))
    code, _, err = run(capsys, "check", "group_z2",
                       "--context", str(tmp_path / "ctx2.json"),
                       "--lhs", "pr", "--rhs", "pr")
    assert code == 2


def test_invalid_context_module_exits_two(tmp_path, capsys):
    ctx = {"modules": {"X": {"dim": 1, "action": ["1", "5"]}}}  # not a module
    (tmp_path / "ctx.json").write_text(json.dumps(ctx))
    code, _, err = run(capsys, "check", "group_z2",
                       "--context", str(tmp_path / "ctx.json"),
                       "--lhs", "id(X)", "--rhs", "id(X)")
    assert code == 2


def _center_of_A(**changes):
    from quasihopf import qhio
    from quasihopf.algebra_a import build_A
    from conftest import get_algebra
    return dict(qhio.center_to_obj(build_A(get_algebra("drinfeld_h2")).center), **changes)


def _amodule_A(**changes):
    from quasihopf import qhio
    from quasihopf.algebra_a import build_A
    from quasihopf.mod_a import algebra_as_amodule
    from conftest import get_algebra
    return dict(qhio.amodule_to_obj(algebra_as_amodule(build_A(get_algebra("drinfeld_h2")))),
                **changes)


C_ONE = {"dim": 1, "action": ["1", "1"]}   # the trivial module of drinfeld_h2


@pytest.mark.parametrize("ctx", [
    [],
    {"modules": []},
    {"center": {"Z": _center_of_A(coaction=5)}},
    {"center": {"Z": _center_of_A(coaction=[None] * 8)}},
    {"amodules": {"R": _amodule_A(mu=7)}},
    {"morphisms": {"f": {"source": "C", "target": "C", "matrix": 5}}},
    {"morphisms": {"f": {"source": 5, "target": "C", "matrix": ["1", "0", "0", "1"]}}},
    {"modules": {"X": dict(C_ONE, dim=1.5)}},
    {"modules": {"X": dict(C_ONE, dim="1")}},
    {"modules": {"X": dict(C_ONE, dim=True)}},
    {"center": {"Z": _center_of_A(dim=2.0)}},
    {"amodules": {"R": _amodule_A(dim="2")}},
], ids=["top-level-list", "modules-list", "coaction-number", "coaction-null", "mu-number",
        "matrix-number", "source-number", "dim-float", "dim-string", "dim-bool",
        "center-dim-float", "amodule-dim-string"])
def test_wrong_shaped_context_exits_two(tmp_path, capsys, ctx):
    (tmp_path / "ctx.json").write_text(json.dumps(ctx))
    code, out, err = run(capsys, "eval", "drinfeld_h2", "--context", str(tmp_path / "ctx.json"),
                         "--expr", "id(C)")
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("module", [
    [],
    {"dim": 1.5, "action": ["1", "1"]},
    {"dim": "1", "action": ["1", "1"]},
    {"dim": 1, "action": ["1"]},
], ids=["list", "dim-float", "dim-string", "short-action"])
def test_malformed_module_file_exits_two(tmp_path, capsys, module):
    (tmp_path / "m.json").write_text(json.dumps(module))
    code, out, err = run(capsys, "end", "group_z2", "--left", str(tmp_path / "m.json"))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("ctx", [
    {"modules": {"C": C_ONE}},
    {"modules": {"unit": C_ONE}},
    {"modules": {"A": C_ONE}},
    {"center": {"I": _center_of_A()}},
    {"amodules": {"A": _amodule_A()}},
    {"modules": {"X": C_ONE}, "center": {"X": _center_of_A()}},
    {"center": {"Z": _center_of_A()}, "amodules": {"Z": _amodule_A()}},
    {"modules": {"X": C_ONE},
     "morphisms": {"X": {"source": "C", "target": "C", "matrix": ["1", "0", "0", "1"]}}},
], ids=["C", "unit", "A", "center-I", "amodule-A", "module-then-center",
        "center-then-amodule", "module-then-morphism"])
def test_context_rebinding_a_name_exits_two(tmp_path, capsys, ctx):
    (tmp_path / "ctx.json").write_text(json.dumps(ctx))
    code, _, err = run(capsys, "check", "drinfeld_h2", "--context", str(tmp_path / "ctx.json"),
                       "--lhs", "braid(A,A) ; mu(A)", "--rhs", "mu(A)")
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "is already bound" in err


def test_context_fresh_names_still_load(tmp_path, capsys):
    ctx = {"modules": {"X": C_ONE}, "center": {"Z": _center_of_A()},
           "amodules": {"R": _amodule_A()}}
    (tmp_path / "ctx.json").write_text(json.dumps(ctx))
    code, _, err = run(capsys, "check", "drinfeld_h2", "--context", str(tmp_path / "ctx.json"),
                       "--lhs", "braid(Z,X) ; braid_inv(Z,X)", "--rhs", "id(Z*X)")
    assert code == 0, err
    code, _, err = run(capsys, "check", "drinfeld_h2", "--context", str(tmp_path / "ctx.json"),
                       "--lhs", "braid(R,R) ; mu(R)", "--rhs", "mu(R)")
    assert code == 0, err


@pytest.mark.parametrize("key,value", [
    ("phi", ["1/0"] + ["0"] * 7),
    ("dim", 0),
    ("dim", -1),
    ("dim", "2"),
    ("alpha", ["1"]),
    ("beta", ["1", "0", "0"]),
    ("unit", ["1", "0", "0"]),
    ("counit", ["1"]),
    ("phi_inv", ["1"] * 7),
    ("antipode", ["1", "0", "0"]),
    ("antipode_inv", ["1"] * 8),
])
def test_malformed_algebra_file_exits_two(tmp_path, capsys, key, value):
    run(capsys, "export", "group_z2", "-o", str(tmp_path / "z2.json"))
    obj = json.loads((tmp_path / "z2.json").read_text())
    obj[key] = value
    (tmp_path / "bad.json").write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", str(tmp_path / "bad.json"))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err or "zero denominator" in err
    assert "Traceback" not in err and "OK" not in out


def test_singular_associator_file_exits_two(tmp_path, capsys):
    run(capsys, "export", "group_z2", "-o", str(tmp_path / "z2.json"))
    obj = json.loads((tmp_path / "z2.json").read_text())
    obj["phi"] = ["1", "0", "0", "0", "0", "0", "0", "1"]  # 1x1x1 + gxgxg: singular
    del obj["phi_inv"]
    (tmp_path / "bad.json").write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", str(tmp_path / "bad.json"))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "associator is not invertible" in err and "Traceback" not in err


DEEP = "(" * 3000 + "id(C)" + ")" * 3000


@pytest.mark.parametrize("argv", [
    ("eval", "group_z2", "--expr", DEEP),
    ("check", "group_z2", "--lhs", DEEP, "--rhs", "id(C)"),
])
def test_deeply_nested_expression_exits_two(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nested deeper" in err


def test_module_entry_point_keeps_exit_code_contract():
    src = str(Path(quasihopf.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "quasihopf", "check", "group_z2", "--lhs", DEEP, "--rhs", "id(C)"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
