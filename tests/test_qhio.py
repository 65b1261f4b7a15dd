import json
from pathlib import Path

import pytest

from quasihopf import qhio
from quasihopf.qha import algebra_from_json, algebra_to_json
from quasihopf.repcat import regular_module, tensor
from quasihopf.algebra_a import build_A, heart
from quasihopf.mod_a import heart_amodule, validate_amodule
from quasihopf.center import validate_center

from conftest import get_algebra
from helpers import amodule_to_obj

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_module_roundtrip(dr):
    cc = tensor(regular_module(dr), regular_module(dr))
    obj = qhio.module_to_obj(cc)
    back = qhio.module_from_obj(dr, obj, label="CC")
    assert back == cc
    assert back.validate().ok


def test_center_roundtrip(dr):
    a = build_A(dr)
    obj = qhio.center_to_obj(a.center)
    back = qhio.center_from_obj(dr, obj, label="A")
    assert back.base == a.center.base
    assert back.blocks == a.center.blocks
    assert validate_center(back).ok


@pytest.mark.parametrize("name", ["group_z2", "drinfeld_h2", "sweedler_h4"])
def test_center_files_match_the_golden_files(name):
    # the stacked file layout pinned by files, not by a round trip: a layout
    # flipped in both the reader and the writer would still round-trip
    h = get_algebra(name)
    built = {"A": build_A(h).center, "heart(C)": heart(h, regular_module(h)).center}
    text = (GOLDEN / f"center_{name}.json").read_text(encoding="utf-8")
    assert qhio.dumps({key: qhio.center_to_obj(m) for key, m in built.items()}) == text
    for key, obj in json.loads(text).items():
        back = qhio.center_from_obj(h, obj, label=key)
        assert validate_center(back).ok
        assert back.blocks == built[key].blocks


def test_amodule_roundtrip(dr):
    a = build_A(dr)
    hc = heart_amodule(a, regular_module(dr))
    obj = amodule_to_obj(hc)
    back = qhio.amodule_from_obj(a, obj, label="heartC")
    assert back.mu == hc.mu
    assert validate_amodule(back).ok


def test_malformed_module_data(dr):
    with pytest.raises(ValueError):
        qhio.module_from_obj(dr, {"dim": 2, "action": ["1"]})
    with pytest.raises(ValueError):
        qhio.center_from_obj(dr, {"dim": 1, "action": ["1", "1"], "coaction": ["1"]})


def test_algebra_without_optional_inverses():
    # phi_inv and antipode_inv are solved for exactly when absent
    h = get_algebra("drinfeld_h2")
    obj = json.loads(algebra_to_json(h))
    del obj["phi_inv"]
    del obj["antipode_inv"]
    back = algebra_from_json(json.dumps(obj))
    assert back.phi_inv == h.phi_inv
    assert back.antipode_inv == h.antipode_inv
    assert back.verify_axioms().ok
