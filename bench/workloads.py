"""The three workloads of the time-to-verdict benchmark.

Each workload has a set-up step (inputs and contexts; timed as ``setup_s``)
and a pass (timed as ``verdict_s``).  A pass returns one :class:`Outcome` per
verdict-producing call, and every outcome is compared with the answer
recorded in ``expected.json``.

* ``equiv-builtins`` runs ``qhopf --report json equiv NAME`` in-process on each
  builtin, loading the algebra afresh each time.  It is the user-facing
  command of the package and is dominated by the right-module layer
  (``mod_a``) and the matrix products under it.
* ``free-dr2`` loads the tensor square of ``drinfeld_h2`` from JSON text and
  runs the free-module comparison (``s_t_isos``) and the counit comparison on
  the regular module.  Its associator is dense (64 terms) with non-integer
  entries, so it loads ``qha`` and ``algebra_a`` while barely touching
  ``mod_a``.
* ``check-battery`` is a closed loop with one client: it sends a seeded,
  shuffled stream of ``dsl.check`` calls, one after another, against
  contexts built during set-up.  Many small matrices and the same objects
  rebuilt on every call, plus the expression language itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

EXPECTED_PATH = Path(__file__).with_name("expected.json")

BUILTINS = ("group_z2", "drinfeld_h2", "sweedler_h4")
BATTERY_ALGEBRAS = ("drinfeld_h2", "sweedler_h4")

# (template id, lhs, rhs).  The program only ever sees the expression text.
# The verdict of each template on each algebra is recorded in expected.json.
TEMPLATES = (
    ("triangle[C]", "(eta(C,C) * id(C)) ; eps(C*C, C)", "id(C*C)"),
    ("triangle[C*C]", "(eta(C*C,C) * id(C)) ; eps((C*C)*C, C)", "id((C*C)*C)"),
    ("assoc_roundtrip", "assoc(C,C,C) ; assoc_inv(C,C,C)", "id((C*C)*C)"),
    # false where the associator acts nontrivially (drinfeld_h2)
    ("assoc_vs_id", "assoc(C,C,C)", "id((C*C)*C)"),
    ("pentagon", "assoc(C*C,C,C) ; assoc(C,C,C*C)",
     "(assoc(C,C,C) * id(C)) ; assoc(C,C*C,C) ; (id(C) * assoc(C,C,C))"),
    ("icomp_assoc", "(icomp(C,C,C) * id(innh(I,C))) ; icomp(I,C,C)",
     "assoc(innh(C,C),innh(C,C),innh(I,C)) ; (id(innh(C,C)) * icomp(I,C,C)) ; icomp(I,C,C)"),
    ("inmap_square", "assoc(C,innh(C,C),C) ; (id(C) * eps(C,C))",
     "(inmap(C,C,C) * id(C)) ; eps(C*C, C)"),
    ("braid_roundtrip[A,A]", "braid(A,A) ; braid_inv(A,A)", "id(A*A)"),
    ("braid_roundtrip[A,C*C]", "braid(A,C*C) ; braid_inv(A,C*C)", "id(A*(C*C))"),
    ("braid_vs_id", "braid(A,A)", "id(A*A)"),
    ("commutative", "braid(A,A) ; mu(A)", "mu(A)"),
    # endpoint mismatch: A*C -> C*A against A*C -> A*C
    ("braid_endpoint", "braid(A,C)", "id(A*C)"),
    ("lambda_mu", "braid_inv(A,A) ; lambda(A)", "mu(A)"),
    ("s_t[A]", "s(A) ; t(A)", "id(heart(A))"),
    ("t_s[A]", "t(A) ; s(A)", "id(A*A)"),
    ("s_t[heart(C)]", "s(heart(C)) ; t(heart(C))", "id(heart(heart(C)))"),
    ("zeta_xi", "zeta(A) ; xi(A)", "id(A)"),
    ("xi_zeta", "xi(A) ; zeta(A)", "id(heart(coinv(A)))"),
    ("diamond_pi", "pi(C)", "diamond(C, I) ; id(C)"),
)


@dataclass
class Outcome:
    """One verdict-producing call: its id, start, wall time and answer."""
    id: str
    start: float
    seconds: float
    answer: object = None
    error: str | None = None


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def gate(outcomes, table: dict) -> list[str]:
    """The ids of outcomes that raised, or whose answer is not the one
    recorded for them in ``table`` (one workload's part of expected.json)."""
    return [o.id for o in outcomes
            if o.error is not None or o.id not in table or o.answer != table[o.id]]


def report_answer(rep) -> list:
    """A report as the list of [id, status] pairs, in report order."""
    return [[item.id, item.status] for item in rep.items]


def _timed(outcome_id: str, fn) -> Outcome:
    t0 = time.perf_counter()
    try:
        answer = fn()
    except Exception as exc:  # counted as a failed operation, never fatal
        return Outcome(outcome_id, t0, time.perf_counter() - t0,
                       error=f"{type(exc).__name__}: {exc}")
    return Outcome(outcome_id, t0, time.perf_counter() - t0, answer)


# ---------------------------------------------------------------------------
# equiv-builtins

def equiv_setup(seed: int) -> dict:
    return {"names": BUILTINS}


def equiv_pass(state: dict) -> list[Outcome]:
    from quasihopf.cli import main

    def run(name):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["--report", "json", "equiv", name])
        rep = json.loads(buf.getvalue())
        return {"exit": code, "items": [[i["id"], i["status"]] for i in rep["items"]]}

    return [_timed(f"equiv[{name}]", lambda name=name: run(name))
            for name in state["names"]]


# ---------------------------------------------------------------------------
# free-dr2

def tensor_square(d):
    """The tensor square of an algebra, componentwise on basis pairs.

    Every structure map is the tensor product of two copies of the original
    one; the associator is phi (x) phi regrouped leg by leg.
    """
    from quasihopf.qha import QuasiHopfAlgebra, TensorElement

    n = d.dim

    def pair(i, j):
        return i * n + j

    def square_vec(u, v):
        return {pair(i, j): a * b for i, a in u.items() for j, b in v.items()}

    mult = [[square_vec(d.mult[i1][j1], d.mult[i2][j2])
             for j1 in range(n) for j2 in range(n)]
            for i1 in range(n) for i2 in range(n)]
    comult = [{(pair(a1, a2), pair(b1, b2)): c1 * c2
               for (a1, b1), c1 in d.comult[i1].items()
               for (a2, b2), c2 in d.comult[i2].items()}
              for i1 in range(n) for i2 in range(n)]
    phi = {(pair(x1, x2), pair(y1, y2), pair(z1, z2)): c1 * c2
           for (x1, y1, z1), c1 in d.phi.coeffs.items()
           for (x2, y2, z2), c2 in d.phi.coeffs.items()}
    alpha = {i: c for (i,), c in d.alpha.coeffs.items()}
    beta = {i: c for (i,), c in d.beta.coeffs.items()}
    return QuasiHopfAlgebra(
        dim=n * n, basis=None, mult=mult, unit=square_vec(d.unit, d.unit),
        comult=comult, counit=[a * b for a in d.counit for b in d.counit],
        phi=TensorElement(n * n, 3, phi), antipode=d.antipode.kron(d.antipode),
        alpha=square_vec(alpha, alpha), beta=square_vec(beta, beta),
        name="drinfeld_square")


def dr2_setup(seed: int) -> dict:
    from quasihopf.qha import algebra_to_json, builtin

    sq = tensor_square(builtin("drinfeld_h2"))
    if len(sq.phi.coeffs) != 64 or sq.phi == sq.unit_elem(3):
        raise RuntimeError("tensor square lost its dense associator")
    return {"text": algebra_to_json(sq)}


def dr2_pass(state: dict) -> list[Outcome]:
    from quasihopf.algebra_a import build_A, s_t_isos
    from quasihopf.mod_a import counit_iso
    from quasihopf.qha import algebra_from_json
    from quasihopf.repcat import regular_module

    env = {}

    def load():
        h = algebra_from_json(state["text"])
        rep = h.verify_axioms()
        env["h"] = h.require_valid()
        return report_answer(rep)

    def algebra():
        env["a"] = build_A(env["h"])
        return report_answer(env["a"].report)

    def free():
        a = env["a"]
        return report_answer(s_t_isos(a.center, a)[2])

    def counit():
        return report_answer(counit_iso(regular_module(env["h"]), env["a"])[1])

    out = []
    for step, fn in (("load", load), ("build_A", algebra),
                     ("s_t[A]", free), ("counit_iso[C]", counit)):
        o = _timed(f"dr2.{step}", fn)
        out.append(o)
        if o.error is not None:
            break
    return out


# ---------------------------------------------------------------------------
# check-battery

def battery_round(seed: int, index: int) -> list[tuple[str, str]]:
    """Round ``index`` of the stream: every (template, algebra) pair once, in
    an order drawn from the seed.  Every round has the same mix, so rounds
    are comparable; only the order differs."""
    pairs = [(tid, alg) for tid, _, _ in TEMPLATES for alg in BATTERY_ALGEBRAS]
    random.Random(f"{seed}:{index}").shuffle(pairs)
    return pairs


def battery_setup(seed: int) -> dict:
    from quasihopf.dsl import Context
    from quasihopf.qha import builtin

    return {"seed": seed, "round": 0,
            "contexts": {alg: Context(builtin(alg)) for alg in BATTERY_ALGEBRAS},
            "text": {tid: (lhs, rhs) for tid, lhs, rhs in TEMPLATES}}


def battery_pass(state: dict) -> list[Outcome]:
    from quasihopf.dsl import check

    pairs = battery_round(state["seed"], state["round"])
    state["round"] += 1
    out = []
    for tid, alg in pairs:
        lhs, rhs = state["text"][tid]
        ctx = state["contexts"][alg]
        out.append(_timed(f"check.{tid}@{alg}",
                          lambda lhs=lhs, rhs=rhs, ctx=ctx: check(lhs, rhs, ctx).ok))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], dict]
    run_pass: Callable[[dict], list[Outcome]]


WORKLOADS = {w.name: w for w in (
    Workload("equiv-builtins", equiv_setup, equiv_pass),
    Workload("free-dr2", dr2_setup, dr2_pass),
    Workload("check-battery", battery_setup, battery_pass),
)}
