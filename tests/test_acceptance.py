"""The acceptance gate: every criterion as an exact check, one line each.

All comparisons are exact rational identities (tolerance zero); the three
built-in algebras are the instance corpus.  Run with -s to see the lines."""

import json
import re
from contextlib import contextmanager

from quasihopf.linalg import Matrix
from quasihopf.qha import (BUILTIN_NAMES, QuasiHopfAlgebra, TensorElement,
                           algebra_to_json, builtin, verify_derived_identities)
from quasihopf.repcat import (adjunction_report, elem_action_matrix,
                              end_over_regular, hom_space, regular_module,
                              tensor, unit_module)
from quasihopf.center import tensor_center
from quasihopf.algebra_a import (build_A, diamond, heart, heart_compose,
                                 heart_base, pi_map, s_t_isos)
from quasihopf.mod_a import (algebra_as_amodule, counit_iso, equivalence_report,
                             free_amodule, heart_amodule, unit_iso,
                             validate_amodule)
from quasihopf import cli

from conftest import get_algebra
from helpers import (alpha_vec, beta_vec, counit_of, mul_vec, naive_icomult, naive_left_mult,
                     naive_right_mult, s_vec, stacked)

ALGEBRAS = list(BUILTIN_NAMES)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:>2}] FAIL  {desc}")
        raise
    print(f"[criterion {num:>2}] PASS  {desc}")


def test_criterion_1_axiom_suite():
    with criterion(1, "axiom suite incl. negative control and pentagon"):
        for name in ALGEBRAS:
            rep = get_algebra(name).verify_axioms()
            assert rep.ok, f"{name}: {rep.render_text()}"

        # negative control: the group algebra with alpha replaced by g
        z2 = builtin("group_z2")
        bad = QuasiHopfAlgebra(z2.dim, z2.basis, z2.mult, z2.unit, z2.comult, z2.counit,
                               z2.phi, z2.antipode, TensorElement(z2.dim, 1, {(1,): 1}),
                               z2.beta, name=z2.name)
        fails = {item.id for item in bad.verify_axioms().failures()}
        assert "H3.zigzag" in fails
        # ... and names where it fails: a component in the basis of z2
        h3 = next(i for i in bad.verify_axioms().items if i.id == "H3.zigzag")
        assert re.search(r"component (\S+):", h3.details).group(1) in z2.basis
        # the corruption also forces the other zigzag (it evaluates to
        # alpha*beta); nothing else may fail
        assert fails <= {"H3.zigzag", "H4.zigzag"}

        # the pentagon is an exact identity in the 4th tensor power
        dr = get_algebra("drinfeld_h2")
        lhs = dr.mul(dr.spread(dr.phi, [(1,), (2,), (3, 4)], 4),
                     dr.spread(dr.phi, [(1, 2), (3,), (4,)], 4))
        rhs = dr.mul_chain([
            dr.spread(dr.phi, [(2,), (3,), (4,)], 4),
            dr.spread(dr.phi, [(1,), (2, 3), (4,)], 4),
            dr.spread(dr.phi, [(1,), (2,), (3,)], 4)])
        assert lhs == rhs


def test_criterion_2_derived_identities():
    with criterion(2, "derived identity battery for every builtin"):
        for name in ALGEBRAS:
            rep = verify_derived_identities(get_algebra(name))
            assert rep.ok, f"{name}: {rep.render_text()}"


def test_criterion_3_adjunction_triangles():
    with criterion(3, "adjunction triangles for all pairs from {unit, C, C*C}"):
        for name in ALGEBRAS:
            h = get_algebra(name)
            c = regular_module(h)
            objs = (unit_module(h), c, tensor(c, c))
            for m in objs:
                for p in objs:
                    rep = adjunction_report(m, p)
                    assert rep.ok, f"{name} ({m.label},{p.label}): {rep.render_text()}"


def test_criterion_4_end_oracle():
    with criterion(4, "kernel-intersection end equals the closed form"):
        for name in ALGEBRAS:
            h = get_algebra(name)
            c = regular_module(h)
            i = unit_module(h)
            for p, q in ((i, i), (c, i), (i, c)):
                comp = end_over_regular(h, p, q)
                assert comp.report.ok, f"{name}: {comp.report.render_text()}"
                assert len(comp.kernel_basis) == p.dim * h.dim * q.dim


def test_criterion_5_algebra_invariants():
    with criterion(5, "algebra A: twisted associativity, unit=beta, "
                      "augmentation, commutativity"):
        for name in ALGEBRAS:
            h = get_algebra(name)
            a = build_A(h)
            assert a.report.ok, f"{name}: {a.report.render_text()}"
            assert a.unit_vec == beta_vec(h)
            for check_id in ("associativity_with_twist", "unit_laws",
                             "augmentation_multiplicative", "commutative_in_center"):
                assert any(item.id == check_id and item.ok for item in a.report.items)


def test_criterion_6_heart_validation():
    with criterion(6, "heart modules validate; evaluation action law; projection"):
        for name in ALGEBRAS:
            h = get_algebra(name)
            a = build_A(h)
            c = regular_module(h)
            i = unit_module(h)
            cc = tensor(c, c)
            for x in (i, c, cc):
                rep = validate_amodule(heart_amodule(a, x))
                assert rep.ok, f"{name} heart({x.label}): {rep.render_text()}"

            # evaluation after composing equals iterated evaluation
            for m in (i, c):
                for n_obj in (i, c):
                    hm, hn = heart_base(h, m), heart_base(h, n_obj)
                    for x in (i, c):
                        lhs = diamond(h, tensor(m, n_obj), x).matrix \
                            * heart_compose(h, m, n_obj).matrix.kron(
                                Matrix.identity(x.dim))
                        rhs = elem_action_matrix(h.phi, [x, m, n_obj]) \
                            * diamond(h, m, x).matrix.kron(Matrix.identity(n_obj.dim)) \
                            * elem_action_matrix(h.phi_inv, [hm, x, n_obj]) \
                            * Matrix.identity(hm.dim).kron(diamond(h, n_obj, x).matrix) \
                            * elem_action_matrix(h.phi, [hm, hn, x])
                        assert lhs == rhs, f"{name}: action law {m.label},{n_obj.label},{x.label}"

            # naturality of the evaluation in the module argument
            dia_c = diamond(h, c, c)
            for f in hom_space(c, c):
                lhs = Matrix.identity(c.dim).kron(f.matrix) * dia_c.matrix
                rhs = dia_c.matrix \
                    * Matrix.identity(h.dim).kron(f.matrix).kron(Matrix.identity(c.dim))
                assert lhs == rhs

            # the projection scales the unit section by eps(alpha)
            pi = pi_map(h, c)
            scale = counit_of(h, alpha_vec(h))
            for m in range(c.dim):
                sec = {}
                for i2, cu in h.unit.items():
                    sec[i2 * c.dim + m] = cu
                got = pi.matrix.apply(sec)
                want = {m: scale} if scale else {}
                assert got == want


def test_criterion_7_free_module_theorem():
    with criterion(7, "s/t mutually inverse, A-linear centre morphisms"):
        for name in ALGEBRAS:
            h = get_algebra(name)
            a = build_A(h)
            aa = tensor_center(a.center, a.center)
            for m in (a.center, aa):
                s_map, t_map, rep = s_t_isos(m, a)
                assert rep.ok, f"{name} {m.label}: {rep.render_text()}"


def test_criterion_8_equivalence():
    with criterion(8, "instance-level monoidal equivalence for all builtins"):
        for name in ALGEBRAS:
            h = get_algebra(name)
            rep = equivalence_report(h)
            assert rep.ok, f"{name}: {rep.render_text()}"

        # the stated unit-isomorphism corpus, explicitly
        for name in ALGEBRAS:
            h = get_algebra(name)
            a = build_A(h)
            for m in (algebra_as_amodule(a),
                      free_amodule(a, a.center),
                      heart_amodule(a, regular_module(h))):
                xi, zeta, urep = unit_iso(m)
                assert urep.ok, f"{name} {m.label}: {urep.render_text()}"

        # counit windows use the five-leg comparison elements exactly
        dr = get_algebra("drinfeld_h2")
        a = build_A(dr)
        _, crep = counit_iso(regular_module(dr), a)
        for check_id in ("window_product", "window_augmentation", "invertible"):
            assert any(item.id == check_id and item.ok for item in crep.items)


def test_criterion_9_hopf_specialization():
    with criterion(9, "Hopf case reduces to the structure theorem data"):
        for name in ("group_z2", "sweedler_h4"):
            h = get_algebra(name)
            a = build_A(h)
            c = regular_module(h)
            n, d = h.dim, c.dim
            hm = heart(h, c)

            # b) coaction: delta(a (x) m) = a_(1) (x) (a_(2) (x) m)
            for av in range(n):
                for m in range(d):
                    want = {}
                    for (a1, a2), cf in h.comult[av].items():
                        want[a1 * (n * d) + (a2 * d + m)] = cf
                    assert stacked(hm.center).col(av * d + m) == want

            # c) right action: (a (x) m) . b = (a b) (x) m
            for av in range(n):
                for m in range(d):
                    for b in range(n):
                        want = {}
                        for k, cv in h.mult[av][b].items():
                            want[k * d + m] = cv
                        assert hm.mu.col((av * d + m) * n + b) == want

            # d) module action: h |> (a (x) m) = h_(1)(1) a S(h_(2)) (x) h_(1)(2) m
            for t in range(n):
                want = Matrix.zero(n * d, n * d)
                for (t1, t2, t3), cf in naive_icomult(h, t, 3).items():
                    hop = naive_left_mult(h, {t1: 1}).then(
                        naive_right_mult(h, s_vec(h, {t3: 1})))
                    want = want + cf * hop.kron(c.action[t2])
                assert hm.base.action[t] == want

            # the validator's conditions specialize to the Hopf-bimodule ones
            am = heart_amodule(a, c)
            rep = validate_amodule(am)
            assert rep.ok

            # (C1): delta(h |> v) = h_(1) v_(-1) S(h_(3)) (x) h_(2) |> v_(0)
            delta = stacked(am.center)
            dimv = am.dim
            for t in range(n):
                lhs = delta * am.base.action[t]
                rhs = Matrix.zero(n * dimv, n * dimv)
                for (t1, t2, t3), cf in naive_icomult(h, t, 3).items():
                    hop = naive_left_mult(h, {t1: 1}).then(
                        naive_right_mult(h, s_vec(h, {t3: 1})))
                    rhs = rhs + cf * hop.kron(am.base.action[t2])
                assert lhs == rhs * delta

            # (C2): the right action is a module map (same as the validator item)
            assert any(item.id == "mu_h_linear" and item.ok for item in rep.items)

            # (C3): delta(v . b) = v_(-1) b_(1) (x) (v_(0) . b_(2))
            cols = []
            for v in range(dimv):
                for b in range(n):
                    out = {}
                    for flat, cv in delta.col(v).items():
                        hv, v0 = divmod(flat, dimv)
                        for (b1, b2), cb in h.comult[b].items():
                            prod = mul_vec(h, {hv: 1}, {b1: 1})
                            acted = am.mu.col(v0 * n + b2)
                            for k, pv in prod.items():
                                for m2, mv in acted.items():
                                    key = k * dimv + m2
                                    out[key] = out.get(key, 0) + cv * cb * pv * mv
                    cols.append({k: v2 for k, v2 in out.items() if v2})
            rhs_mat = Matrix(n * dimv, dimv * n, cols)
            assert delta * am.mu == rhs_mat


def test_criterion_10_cli(tmp_path, capsys):
    with criterion(10, "CLI round-trip, scripted checks, corrupted control"):
        for name in ALGEBRAS:
            path = tmp_path / f"{name}.json"
            assert cli.main(["export", name, "-o", str(path)]) == 0
            assert cli.main(["verify", str(path), "--derived"]) == 0
            path2 = tmp_path / f"{name}-again.json"
            assert cli.main(["export", name, "-o", str(path2)]) == 0
            assert path.read_text() == path2.read_text()

        # scripted forms of criteria 3, 5 and 7
        scripts = [
            ("(eta(C,C) * id(C)) ; eps(C*C, C)", "id(C*C)"),
            ("braid(A,A) ; mu(A)", "mu(A)"),
            ("s(A) ; t(A)", "id(heart(A))"),
            ("t(A) ; s(A)", "id(A*A)"),
        ]
        for name in ALGEBRAS:
            for lhs, rhs in scripts:
                code = cli.main(["check", name, "--lhs", lhs, "--rhs", rhs])
                assert code == 0, f"{name}: {lhs} vs {rhs}"

        # corrupted input: exit 1 with the failing axiom named
        obj = json.loads(algebra_to_json(get_algebra("drinfeld_h2")))
        obj["alpha"] = ["1", "0"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code = cli.main(["verify", str(bad)])
        out = capsys.readouterr().out
        assert code == 1
        assert "H3" in out
