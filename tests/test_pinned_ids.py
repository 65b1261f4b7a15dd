"""The report ids and verdicts pinned in bench/expected.json, computed
in-process: a renamed, reordered or flipped id fails tier-1, not only the
benchmark gate.  The full `--report json` text of the three builtins,
details included, is pinned too (tests/golden/), so a change that should
leave every result alone is checked byte for byte."""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from quasihopf import cli
from quasihopf.algebra_a import build_A, s_t_isos
from quasihopf.mod_a import counit_iso
from quasihopf.repcat import regular_module

EXPECTED = json.loads((Path(__file__).resolve().parents[1] / "bench" / "expected.json")
                      .read_text(encoding="utf-8"))
GOLDEN = Path(__file__).resolve().parent / "golden"


def id_status(rep) -> list:
    return [[item.id, item.status] for item in rep.items]


@pytest.mark.parametrize("name", ["group_z2", "drinfeld_h2", "sweedler_h4"])
def test_equiv_report_matches_the_pinned_ids(name):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["--report", "json", "equiv", name])
    items = [[i["id"], i["status"]] for i in json.loads(buf.getvalue())["items"]]
    assert {"exit": code, "items": items} == EXPECTED["equiv-builtins"][f"equiv[{name}]"]
    assert buf.getvalue() == (GOLDEN / f"equiv_{name}.json").read_text(encoding="utf-8")


def test_free_module_reports_match_the_pinned_ids(dr):
    # the benchmark runs these on the tensor square of drinfeld_h2; the ids
    # do not depend on the algebra, and every status is pass
    a = build_A(dr)
    pinned = EXPECTED["free-dr2"]
    assert id_status(dr.verify_axioms()) == pinned["dr2.load"]
    assert id_status(a.report) == pinned["dr2.build_A"]
    assert id_status(s_t_isos(a.center, a)[2]) == pinned["dr2.s_t[A]"]
    assert id_status(counit_iso(regular_module(dr), a)[1]) == pinned["dr2.counit_iso[C]"]


@pytest.mark.parametrize("name", ["group_z2", "drinfeld_h2", "sweedler_h4"])
def test_verify_report_matches_the_golden_file(name):
    # the axioms and the derived identities, ids, order, verdicts and details
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["--report", "json", "verify", name, "--derived"])
    assert code == 0
    assert buf.getvalue() == (GOLDEN / f"verify_{name}.json").read_text(encoding="utf-8")
