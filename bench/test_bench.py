"""Tests of the benchmark itself: the known-answer gate, the seeded stream,
the tensor-square input and the outside-in tracer.

    python3 -m pytest bench -q
"""

import copy
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import speed  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def expected():
    return W.load_expected()


def test_expected_covers_every_template_on_every_algebra(expected):
    want = {f"check.{tid}@{alg}" for tid, _, _ in W.TEMPLATES for alg in W.BATTERY_ALGEBRAS}
    assert set(expected["check-battery"]) == want
    assert set(expected["equiv-builtins"]) == {f"equiv[{n}]" for n in W.BUILTINS}


def test_gate_passes_real_answers_and_fails_a_flipped_one(expected):
    outcomes = W.equiv_pass({"names": ("group_z2",)})
    table = expected["equiv-builtins"]
    assert W.gate(outcomes, table) == []
    flipped = copy.deepcopy(table)
    flipped["equiv[group_z2]"]["items"][3][1] = "fail"
    assert W.gate(outcomes, flipped) == ["equiv[group_z2]"]


def test_gate_counts_exceptions_and_unknown_ids(expected):
    table = expected["check-battery"]
    raised = W.Outcome("check.pentagon@sweedler_h4", 0.0, 0.1, error="LinAlgError: x")
    unknown = W.Outcome("check.nonsense@sweedler_h4", 0.0, 0.1, answer=True)
    assert W.gate([raised, unknown], table) == [raised.id, unknown.id]


def test_command_fails_when_one_expected_answer_is_flipped(expected, monkeypatch):
    flipped = copy.deepcopy(expected)
    table = flipped["check-battery"]
    table["check.assoc_vs_id@drinfeld_h2"] = not table["check.assoc_vs_id@drinfeld_h2"]
    monkeypatch.setattr(run, "load_expected", lambda: flipped)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", "check-battery", "--seed", "3",
                         "--seconds", "1", "--trace", "0"])
    result = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 2 * len(W.TEMPLATES)
    assert "failed_frac = " in buf.getvalue()


def test_battery_stream_is_drawn_from_the_seed():
    a, b = W.battery_round(7, 0), W.battery_round(7, 0)
    assert a == b
    assert W.battery_round(8, 0) != a and W.battery_round(7, 1) != a
    assert sorted(W.battery_round(8, 0)) == sorted(a)
    assert len(a) == len(W.TEMPLATES) * len(W.BATTERY_ALGEBRAS)


def test_tensor_square_text_is_a_valid_dense_quasi_hopf_algebra():
    from quasihopf.qha import algebra_from_json
    h = algebra_from_json(W.dr2_setup(0)["text"])
    assert h.dim == 4 and len(h.phi.coeffs) == 64
    assert h.phi != h.unit_elem(3)
    assert h.verify_axioms().ok


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def test_tracer_rebinds_aliases_and_restores_them():
    import quasihopf.algebra_a as algebra_a
    import quasihopf.center as center
    import quasihopf.dsl as dsl
    original = center.braiding
    assert algebra_a.braiding is original and dsl.braiding is original
    t = Tracer()
    t.install()
    try:
        assert center.braiding is not original
        assert algebra_a.braiding is center.braiding is dsl.braiding
        assert center.braiding.__wrapped__ is original
    finally:
        t.uninstall()
    assert center.braiding is original and algebra_a.braiding is original


def test_tracer_sees_calls_through_consumer_modules(tracer):
    from quasihopf.dsl import Context, check
    from quasihopf.qha import builtin
    ctx = Context(builtin("drinfeld_h2"))
    tracer.reset()
    assert check("braid(A,A) ; mu(A)", "mu(A)", ctx).ok
    m = tracer.metrics()
    assert m["dsl.parse.calls"] == 2
    assert m["dsl.elaborate.calls"] == 2 and m["dsl.evaluate.calls"] == 2
    assert m["center.braiding.calls"] >= 1
    assert m["linalg.matmul.calls"] >= 1 and m["linalg.eq.calls"] >= 1
    assert m["repcat.action_build.calls"] >= 1
    assert tracer.entries > 0 and m["linalg.entries.max_bits"] >= 1


def test_self_time_subtracts_direct_children():
    t = Tracer()
    outer, inner = t._index("a.outer"), t._index("b.inner")
    t.spans = [(1, 0, outer, 0, 100), (2, 1, inner, 10, 40), (3, 2, outer, 15, 25)]
    totals = t.layer_totals()
    assert totals["a.outer"] == (2, (70 + 10) / 1e9)
    assert totals["b.inner"] == (1, 20 / 1e9)


def test_nested_call_of_the_same_layer_opens_no_span(tracer):
    from quasihopf.linalg import Matrix
    a = Matrix.identity(3)
    tracer.reset()
    _ = a * a          # __mul__ delegates to then: one matmul span
    assert tracer.metrics()["linalg.matmul.calls"] == 1
    _ = 2 * a          # scaling counts as elementwise work
    assert tracer.metrics()["linalg.add.calls"] == 1


def test_reference_seconds_drop_probe_time_and_scale_by_probe_speed():
    s = speed.Speedometer()
    s.starts = [0.0, 0.1, 0.2, 0.9]
    s.durations = [0.002, 0.002, 0.004, 0.010]
    net, ref = s.reference_seconds(0.05, 0.15)
    assert net == pytest.approx(0.098)
    # probes at 0.0, 0.1 and 0.2 are within the window; the one at 0.9 is not
    scale = (speed.CAL_REF_S / 0.002 * 2 + speed.CAL_REF_S / 0.004) / 3
    assert ref == pytest.approx(0.098 * scale)


def test_speedometer_probes_while_running_and_stops_after():
    import signal
    import time
    with speed.Speedometer() as s:
        t_end = time.perf_counter() + 3 * speed.PROBE_INTERVAL_S
        while time.perf_counter() < t_end:
            pass
    assert len(s.starts) >= 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
