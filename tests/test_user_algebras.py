"""End-to-end runs on algebras that do not ship with the package.

Both are fed through the same entry points a user file would hit: the cyclic
group of order three through the JSON loader, and the tensor square of the
nontrivial-associator example built from structure constants (a second
genuinely quasi instance, with a 64-term associator).
"""

import json

import pytest

from quasihopf.linalg import rat_str
from quasihopf.qha import algebra_from_json
from quasihopf.repcat import (adjunction_report, end_over_regular,
                              regular_module, snake_report, unit_module)
from quasihopf.algebra_a import build_A
from quasihopf.mod_a import equivalence_report

from conftest import SQUARE, get_algebra
from helpers import naive_axioms, naive_mul
from test_qha import outcome


@pytest.fixture(scope="module")
def z3():
    n = 3
    mult = [rat_str(0)] * n ** 3
    for i in range(n):
        for j in range(n):
            mult[(i * n + j) * n + (i + j) % n] = "1"
    comult = [rat_str(0)] * n ** 3
    for i in range(n):
        comult[i * n * n + (i * n + i)] = "1"
    phi = [rat_str(0)] * n ** 3
    phi[0] = "1"
    antipode = [rat_str(0)] * n * n
    antipode_flat = [[0] * n for _ in range(n)]
    for i in range(n):
        antipode_flat[(-i) % n][i] = 1
    obj = {
        "dim": n,
        "basis": ["1", "g", "g2"],
        "mult": mult,
        "unit": ["1", "0", "0"],
        "comult": comult,
        "counit": ["1", "1", "1"],
        "phi": phi,
        "antipode": [rat_str(c) for row in antipode_flat for c in row],
        "alpha": ["1", "0", "0"],
        "beta": ["1", "0", "0"],
        "name": "group_z3",
    }
    return algebra_from_json(json.dumps(obj))


def test_z3_axioms_and_derived(z3):
    assert z3.verify_axioms().ok
    from quasihopf.qha import verify_derived_identities
    assert verify_derived_identities(z3).ok


def test_z3_category_basics(z3):
    c = regular_module(z3)
    assert c.validate().ok
    assert snake_report(c).ok
    assert adjunction_report(c, c).ok
    comp = end_over_regular(z3, unit_module(z3), unit_module(z3))
    assert comp.report.ok and len(comp.kernel_basis) == 3


def test_z3_equivalence(z3):
    a = build_A(z3)
    assert a.report.ok
    c = regular_module(z3)
    rep = equivalence_report(z3, [unit_module(z3), c])
    assert rep.ok, rep.render_text()


@pytest.fixture(scope="module")
def dr2():
    return get_algebra(SQUARE)


def test_square_is_quasi_hopf(dr2):
    assert dr2.verify_axioms().ok
    assert dr2.phi != dr2.unit_elem(3)
    from quasihopf.qha import verify_derived_identities
    assert verify_derived_identities(dr2).ok


def test_user_axioms_match_the_basis_tuple_oracle(z3, dr2):
    for h in (z3, dr2):
        assert outcome(h.verify_axioms()) == outcome(naive_axioms(h))


def test_square_algebra_A(dr2):
    a = build_A(dr2)
    assert a.report.ok, a.report.render_text()


def test_square_adjunction_and_duals(dr2):
    c = regular_module(dr2)
    assert snake_report(c).ok
    assert adjunction_report(c, c).ok


def test_square_kappa_inverse_matches_solved_inverse(dr2):
    from quasihopf.qha import kappa_inverse, kappa_lambda
    kappa, _ = kappa_lambda(dr2)
    assert kappa_inverse(dr2) == dr2.tensor_inverse(kappa)


def test_square_dense_five_leg_product_matches_naive(dr2):
    # the counit window's kappa^-1 . lambda' (100 x 169 terms), far beyond
    # the sizes that the Hypothesis comparison in test_qha draws
    from quasihopf.qha import kappa_inverse, kappa_lambda
    _, lam = kappa_lambda(dr2)
    kinv, lam2 = kappa_inverse(dr2), lam.permute_legs((2, 3, 4, 5, 1))
    assert (len(kinv.coeffs), len(lam2.coeffs)) == (100, 169)
    assert dr2.mul(kinv, lam2) == naive_mul(dr2, kinv, lam2)


def test_square_free_module_comparison(dr2):
    # the deepest associator-dependent content at this dimension: the
    # comparison isomorphisms and the counit windows with the five-leg maps
    from quasihopf.algebra_a import s_t_isos
    from quasihopf.mod_a import counit_iso
    a = build_A(dr2)
    s_map, t_map, rep = s_t_isos(a.center, a)
    assert rep.ok, rep.render_text()
    _, crep = counit_iso(regular_module(dr2), a)
    assert crep.ok, crep.render_text()


def test_elem_action_matrix_expands_once_per_head(dr2, monkeypatch):
    # the associator's terms are summed per head prefix in the last slot, so
    # the Kronecker accumulation runs once per distinct (i, j) of Phi_ijk on
    # [C, C, C] and not once per term: 64 terms and 16 heads on the square
    from quasihopf import qha, repcat
    calls = []
    kron_into = qha._kron_into

    def spy(out, head, last, coeff):
        calls.append(1)
        kron_into(out, head, last, coeff)

    monkeypatch.setattr(qha, "_kron_into", spy)
    for h in (get_algebra("drinfeld_h2"), dr2):
        c = repcat.regular_module(h)
        heads = {idx[:2] for idx in h.phi.coeffs}
        calls.clear()
        repcat.elem_action_matrix(h.phi, [c, c, c])
        assert len(calls) == len(heads)
    assert (len(dr2.phi.coeffs), len(heads)) == (64, 16)
