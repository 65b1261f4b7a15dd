import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import quasihopf

from quasihopf import cli
from quasihopf.dsl import CENTRE, GENERATORS, MORPHISM, OBJECT, RIGHT
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


def test_verify_one_dimensional_algebra(tmp_path, capsys):
    # the ground field: every flat leg weight of a tensor power is 1
    one = {key: ["1"] for key in ("mult", "unit", "comult", "counit", "phi",
                                  "antipode", "alpha", "beta")}
    (tmp_path / "one.json").write_text(json.dumps({"dim": 1, **one}))
    code, out, err = run(capsys, "verify", str(tmp_path / "one.json"))
    assert code == 0, err
    assert "OK: 18/18" in out


def test_verify_flags_corrupted_alpha(tmp_path, capsys):
    code, out, _ = run(capsys, "export", "drinfeld_h2", "-o", str(tmp_path / "d.json"))
    obj = json.loads((tmp_path / "d.json").read_text())
    obj["alpha"] = ["1", "0"]
    (tmp_path / "bad.json").write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", str(tmp_path / "bad.json"))
    assert code == 1
    assert "H3" in out
    # the failing line names its witness: a component in the algebra's basis
    line = next(l for l in out.splitlines() if "H3.zigzag" in l)
    assert line.startswith("[FAIL]")
    assert re.search(r"component (\S+):", line).group(1) in obj["basis"]


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


def test_eval_refuses_a_map_too_large_to_print(capsys):
    # the 4096 x 4096 identity has 2^24 entries, above cli.MAX_PRINT_ENTRIES
    code, out, err = run(capsys, "eval", "sweedler_h4", "--expr", "id(C*C*C*C*C*C)")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "4096 x 4096" in err and str(cli.MAX_PRINT_ENTRIES) in err


def test_equiv_command(capsys):
    code, out, _ = run(capsys, "equiv", "group_z2", "--objects", "unit,C")
    assert code == 0
    assert "hom_dims" in out


def test_equiv_objects_split_at_top_level_commas(capsys):
    code, out, _ = run(capsys, "--report", "json", "equiv", "group_z2",
                       "--objects", "I,innh(C,C)")
    assert code == 0, out
    ids = [i["id"] for i in json.loads(out)["items"]]
    assert ids[:2] == ["counit_iso[I]", "counit_iso[innH(C,C)]"]


@pytest.mark.parametrize("objects", ["", "C,C", "I,unit"])
def test_equiv_rejects_no_objects_and_repeated_labels(capsys, objects):
    code, out, err = run(capsys, "equiv", "group_z2", "--objects", objects)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


EQUIV_IDS = (["counit_iso[I]", "counit_iso[C]", "counit_iso[C*C]",
              "unit_iso[A]", "unit_iso[(A)*A]", "unit_iso[heart(C)]"]
             + [f"{kind}[{x};{y}]" for kind in ("hom_dims", "monoidal_heart")
                for x in ("I", "C", "C*C") for y in ("I", "C", "C*C")])


def test_equiv_reports_every_id_when_a_check_raises(capsys, monkeypatch):
    from quasihopf import mod_a
    from quasihopf.report import Report, ReportItem, VerificationFailure
    real = mod_a.counit_iso

    def failing_on_cc(x, a):
        iso, rep = real(x, a)
        if x.label == "C*C":
            bad = Report(rep.title, [ReportItem(i.id, "fail") if i.id == "window_product"
                                     else i for i in rep.items])
            raise VerificationFailure("counit comparison failed for C*C", bad)
        return iso, rep

    monkeypatch.setattr(mod_a, "counit_iso", failing_on_cc)
    code, out, _ = run(capsys, "--report", "json", "equiv", "group_z2")
    assert code == 1
    data = json.loads(out)
    assert [i["id"] for i in data["items"]] == EQUIV_IDS
    assert not data["ok"]
    bad = {i["id"]: i for i in data["items"] if i["status"] == "fail"}
    assert list(bad) == ["counit_iso[C*C]"]
    assert "window_product" in bad["counit_iso[C*C]"]["details"]


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
    from quasihopf.algebra_a import build_A
    from quasihopf.mod_a import algebra_as_amodule
    from conftest import get_algebra
    from helpers import amodule_to_obj
    return dict(amodule_to_obj(algebra_as_amodule(build_A(get_algebra("drinfeld_h2")))),
                **changes)


C_ONE = {"dim": 1, "action": ["1", "1"]}   # the trivial module of drinfeld_h2


WRONG_SHAPED_CONTEXTS = [
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
]


@pytest.mark.parametrize("ctx", WRONG_SHAPED_CONTEXTS, ids=["top-level-list", "modules-list", "coaction-number", "coaction-null", "mu-number",
        "matrix-number", "source-number", "dim-float", "dim-string", "dim-bool",
        "center-dim-float", "amodule-dim-string"])
def test_wrong_shaped_context_exits_two(tmp_path, capsys, ctx):
    (tmp_path / "ctx.json").write_text(json.dumps(ctx))
    code, out, err = run(capsys, "eval", "drinfeld_h2", "--context", str(tmp_path / "ctx.json"),
                         "--expr", "id(C)")
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and out == ""


MALFORMED_MODULES = [
    [],
    {"dim": 1.5, "action": ["1", "1"]},
    {"dim": "1", "action": ["1", "1"]},
    {"dim": 1, "action": ["1"]},
    {"dim": 1, "action": [True, True]},
    {"dim": 1, "action": ["1", "1"], "name": 5},
]


@pytest.mark.parametrize("module", MALFORMED_MODULES,
                         ids=["list", "dim-float", "dim-string", "short-action", "action-bool",
                              "name-int"])
def test_malformed_module_file_exits_two(tmp_path, capsys, module):
    (tmp_path / "m.json").write_text(json.dumps(module))
    code, out, err = run(capsys, "end", "group_z2", "--left", str(tmp_path / "m.json"))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and out == ""


NOT_AN_OBJECT, NO_DIM = "expected a JSON object, got list", "missing key 'dim'"
JSON_SHAPE_ERRORS = [
    (["verify", "{f}"], [], NOT_AN_OBJECT),
    (["verify", "{f}"], {"mult": ["1"], "unit": ["1"]}, NO_DIM),
    (["end", "group_z2", "--left", "{f}"], [], NOT_AN_OBJECT),
    (["end", "group_z2", "--left", "{f}"], {"action": ["1", "1"]}, NO_DIM),
    (["check", "drinfeld_h2", "--context", "{f}", "--lhs", "id(C)", "--rhs", "id(C)"],
     {"modules": {"X": []}}, NOT_AN_OBJECT),
    (["check", "drinfeld_h2", "--context", "{f}", "--lhs", "id(C)", "--rhs", "id(C)"],
     {"center": {"Z": {"action": ["1", "1"]}}}, NO_DIM),
]


@pytest.mark.parametrize("argv,data,message", JSON_SHAPE_ERRORS, ids=[
    "algebra-list", "algebra-no-dim", "module-list", "module-no-dim", "context-list",
    "context-no-dim"])
def test_json_without_an_object_or_dim_says_so_in_one_line(tmp_path, capsys, argv, data, message):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *(a.replace("{f}", str(path)) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(f"{path}: {message}\n")


REBINDING_CONTEXTS = [
    {"modules": {"C": C_ONE}},
    {"modules": {"unit": C_ONE}},
    {"modules": {"A": C_ONE}},
    {"center": {"I": _center_of_A()}},
    {"amodules": {"A": _amodule_A()}},
    {"modules": {"X": C_ONE}, "center": {"X": _center_of_A()}},
    {"center": {"Z": _center_of_A()}, "amodules": {"Z": _amodule_A()}},
    {"modules": {"X": C_ONE},
     "morphisms": {"X": {"source": "C", "target": "C", "matrix": ["1", "0", "0", "1"]}}},
]


@pytest.mark.parametrize("ctx", REBINDING_CONTEXTS, ids=["C", "unit", "A", "center-I", "amodule-A", "module-then-center",
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


MALFORMED_ALGEBRA_FIELDS = [
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
    ("unit", [True, "0"]),
    ("alpha", ["1", "x"]),
    ("name", 5),
    ("basis", [1, 2]),
    # rational forms other than "p" and "p/q"; the exponent took seconds to expand
    ("alpha", ["1e10000000", "0"]),
    ("alpha", ["0.5", "0"]),
    ("alpha", ["1_0", "0"]),
    ("alpha", ["١", "0"]),
    # witnesses name basis tuples, so the names must tell them apart
    ("basis", ["g", "g"]),
    ("basis", ["1", ""]),
]


@pytest.mark.parametrize("key,value", MALFORMED_ALGEBRA_FIELDS)
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


def test_a_long_malformed_rational_exits_two_with_one_short_line(tmp_path, capsys):
    (tmp_path / "bad.json").write_text(_z2_with("alpha", ["1/" + "0" * 5000, "0"]))
    code, out, err = run(capsys, "verify", str(tmp_path / "bad.json"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200, err
    assert "zero denominator" in err and "(5002 characters)" in err


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


def test_equiv_loads_the_context_without_objects(tmp_path, capsys):
    (tmp_path / "bad.json").write_text("[1,2")
    code, out, err = run(capsys, "equiv", "group_z2", "--context", str(tmp_path / "bad.json"))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and out == ""
    (tmp_path / "ctx.json").write_text(json.dumps({"modules": {"X": C_ONE}}))
    code, _, err = run(capsys, "equiv", "group_z2", "--context", str(tmp_path / "ctx.json"))
    assert code == 0, err


# -- one fuzz test of the exit-code contract ---------------------------------------------

def _z2_with(key, value):
    from quasihopf.qha import algebra_to_json, builtin
    return json.dumps(dict(json.loads(algebra_to_json(builtin("group_z2"))), **{key: value}))


# (argv, files written to a fresh directory first); "{d}" in argv is that directory
CONTRACT_CASES = [
    *[(("eval", "drinfeld_h2", "--context", "{d}/x.json", "--expr", "id(C)"),
       (("x.json", json.dumps(ctx)),)) for ctx in WRONG_SHAPED_CONTEXTS],
    *[(("check", "drinfeld_h2", "--context", "{d}/x.json", "--lhs", "mu(A)", "--rhs", "mu(A)"),
       (("x.json", json.dumps(ctx)),)) for ctx in REBINDING_CONTEXTS],
    *[(("end", "group_z2", "--left", "{d}/x.json"), (("x.json", json.dumps(m)),))
      for m in MALFORMED_MODULES],
    *[(("verify", "{d}/x.json"), (("x.json", _z2_with(key, value)),))
      for key, value in MALFORMED_ALGEBRA_FIELDS],
    *[(argv, (("x.json", "[1,2"),)) for argv in [
        ("verify", "{d}/x.json"),
        ("end", "group_z2", "--right", "{d}/x.json"),
        ("equiv", "group_z2", "--context", "{d}/x.json"),
        ("equiv", "group_z2", "--context", "{d}/x.json", "--objects", "C"),
        ("eval", "group_z2", "--context", "{d}/x.json", "--expr", "id(C)"),
        ("check", "group_z2", "--context", "{d}/x.json", "--lhs", "id(C)", "--rhs", "id(C)")]],
    (("equiv", "group_z2", "--objects", "C,zz"), ()),
    (("eval", "{d}/missing.json", "--expr", "id(C)"), ()),
    # an entry thousands of digits long is quoted short
    (("verify", "{d}/x.json"), (("x.json", _z2_with("alpha", ["1/" + "0" * 5000, "0"])),)),
    # an algebra path that is a directory, an export into a missing directory
    (("verify", "{d}"), ()),
    (("export", "group_z2", "-o", "{d}/missing/x.json"), ()),
    # usage errors: a missing option value, an unknown option, no command
    (("check", "group_z2", "--lhs", "id", "--rhs"), ()),
    (("equiv", "group_z2", "--bogus"), ()),
    ((), ()),
    # an object of dimension 4^41: refused at elaboration, before anything is built
    (("eval", "sweedler_h4", "--expr", "id(" + "*".join(["C"] * 41) + ")"), ()),
    # a 4096 x 4096 map: elaborated, refused before it is evaluated or printed
    (("eval", "sweedler_h4", "--expr", "id(C*C*C*C*C*C)"), ()),
]

# The objects bound in a context without a file, and every name the language knows.
_OBJECT_NAMES = ("C", "I", "unit", "A")
_DSL_NAMES = (*_OBJECT_NAMES, *GENERATORS)


def _must_reject(text):
    """True when the text has a character outside the language (a digit
    counts where it would start a token) or a name that nothing binds: such a
    text can neither parse nor elaborate."""
    return (re.search(r"[^A-Za-z0-9_(),;* \t\r\n]|(?<![A-Za-z0-9_])[0-9]", text) is not None
            or any(n not in _DSL_NAMES for n in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text)))


def _objects(depth):
    """Object expressions at most ``depth`` constructors deep."""
    leaf = st.sampled_from(_OBJECT_NAMES)
    if depth == 0:
        return leaf
    kid = _objects(depth - 1)
    return st.one_of(leaf, kid.map("heart({})".format), _rights(depth - 1).map("coinv({})".format),
                     st.builds("innh({},{})".format, kid, kid),
                     st.builds("{}*{}".format, kid, kid))


def _rights(depth):
    """Centre objects and right modules: A, or heart of an object."""
    if depth == 0:
        return st.just("A")
    return st.one_of(st.just("A"), _objects(depth - 1).map("heart({})".format))


def _morphisms(depth):
    """Generator calls whose arguments have the sorts the generator asks for,
    mostly well typed; composites with the inverse, or with another call,
    may or may not match.  Object arguments stay one level deep, which keeps
    every space small enough to evaluate quickly."""
    args = {OBJECT: _objects(1), CENTRE: _rights(1), RIGHT: _rights(1)}
    if depth:
        args[MORPHISM] = _morphisms(depth - 1)
    calls = [st.tuples(*map(args.get, spec.sorts)).map(
                 lambda xs, name=name: f"{name}({','.join(xs)})")
             for name, specs in GENERATORS.items()
             for spec in [specs.get(MORPHISM)] if spec and all(s in args for s in spec.sorts)]
    call = st.one_of(calls)
    return st.one_of(call, call.map("{0} ; inv({0})".format),
                     st.builds("{} ; {}".format, call, call), call.map("({})".format))


@st.composite
def _dsl_texts(draw):
    text = draw(_morphisms(2))
    if draw(st.booleans()):   # poison it: a stray character or an unbound name
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(["zz", "x1", "1", "#", "{", "é", "\x0b"])) + text[at:]
    return text


@st.composite
def _dsl_cases(draw):
    """(argv, no files, whether the text must be rejected) for eval or check."""
    if draw(st.booleans()):
        texts = (draw(_dsl_texts()),)
        argv = ("eval", "drinfeld_h2", "--expr", *texts)
    else:
        texts = (draw(_dsl_texts()), draw(_dsl_texts()))
        argv = ("check", "drinfeld_h2", "--lhs", texts[0], "--rhs", texts[1])
    return argv, (), any(map(_must_reject, texts))


def _with_contract_cases(test):
    for argv, files in CONTRACT_CASES:
        test = example(case=(argv, files, True))(test)
    return test


@_with_contract_cases
@given(case=_dsl_cases())
@settings(max_examples=40, deadline=None)
def test_malformed_input_exits_two_with_one_line(case):
    argv, files, must_reject = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        for name, text in files:
            Path(d, name).write_text(text, encoding="utf-8")
        # an exception escaping main would be a traceback
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([a.replace("{d}", d) for a in argv])
    out, err = out.getvalue(), err.getvalue()
    if must_reject:
        assert code == 2, (argv, out, err)
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and out == "", (argv, err)


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert "usage: qhopf" in capsys.readouterr().out
