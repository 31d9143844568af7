"""Tests of the benchmark itself: workload generation, output checks and
the outside-in tracer.

    python3 -m pytest perfbench/tests -q
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import windcosim.cosim as cosim  # noqa: E402
from windcosim.scenario_io import parse_scenario_text  # noqa: E402

import study  # noqa: E402
from tracer import CallCounter, Tracer  # noqa: E402
from workloads import (MICRO_STEP, SHIPPED_SEED, STEPS, WORKLOADS, pick_fault,  # noqa: E402
                       scenario_text)

MONO = WORKLOADS["mono_embedded"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_text(name):
    w = WORKLOADS[name]
    for seed in (0, 1, 7, 12345):
        assert scenario_text(w, seed) == scenario_text(w, seed)
    assert scenario_text(w, 1) != scenario_text(w, 2)


def test_shipped_seed_reproduces_the_shipped_scenarios():
    shipped = {"mono_embedded": "monolithic.scn", "plant65_serial": "large_scale.scn"}
    for name, file in shipped.items():
        expected = (ROOT / "scenarios" / file).read_text(encoding="utf-8")
        assert scenario_text(WORKLOADS[name], SHIPPED_SEED) == expected
    parallel = scenario_text(WORKLOADS["plant65_parallel"], SHIPPED_SEED)
    assert parallel == scenario_text(WORKLOADS["plant65_serial"], SHIPPED_SEED).replace(
        "scheme = serial", "scheme = parallel")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_generated_seed_parses(name):
    w = WORKLOADS[name]
    for seed in range(200):
        fault = pick_fault(seed)
        sc = parse_scenario_text(scenario_text(w, seed))
        sc.validate()
        (ev,) = sc.events
        assert (ev.bus, ev.start, ev.duration) == (fault.bus, fault.start, fault.duration)
        assert 4 <= ev.bus <= 9
        for t in (ev.start, ev.duration):
            assert abs(t / MICRO_STEP - round(t / MICRO_STEP)) < 1e-9
        assert ev.start + ev.duration < sc.master.t_end
        assert round(sc.master.t_end / sc.master.macro_step) == STEPS
        assert sc.master.scheme.value == w.scheme
        assert {wtg.p_ref for wtg in sc.wtgs} == {fault.plant_mw / 85.0}


# -- output check -------------------------------------------------------------------


def _reference_result() -> study.StudyTimes:
    return study.StudyTimes(study_s=1.0, setup_s=0.1, loop_s=0.8, cpu_s=1.0, steps=STEPS,
                            trace_csv=study.load_reference(MONO), output_bytes=1)


def _perturbed(result: study.StudyTimes, channel: str, row: int, delta: float):
    lines = result.trace_csv.decode().splitlines()
    col = lines[0].split(",").index(channel)
    cells = lines[row + 1].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row + 1] = ",".join(cells)
    return replace(result, trace_csv=("\n".join(lines) + "\n").encode())


def test_check_accepts_the_reference_trace():
    shipped = pick_fault(SHIPPED_SEED)
    assert study.check_study(_reference_result(), MONO, shipped, study.load_reference(MONO)) == []


def test_check_rejects_a_trace_perturbed_by_1e6_pu():
    shipped = pick_fault(SHIPPED_SEED)
    bad = _perturbed(_reference_result(), "grid.v_pcc", 1500, 1e-6)
    problems = study.check_study(bad, MONO, shipped, study.load_reference(MONO))
    assert problems and "grid.v_pcc deviates" in problems[0]


@pytest.mark.parametrize("channel, delta, message", [
    ("grid.p_balance_residual", 2e-6, "p_balance_residual"),
    ("grid.v_bus6", float("nan"), "not finite"),
    ("time", -1.0, "not strictly increasing"),
])
def test_check_rejects_broken_invariants(channel, delta, message):
    bad = _perturbed(_reference_result(), channel, 700, delta)
    problems = study.check_study(bad, MONO, pick_fault(SHIPPED_SEED))
    assert any(message in p for p in problems)


def test_check_rejects_wrong_step_count_and_missed_fault():
    result = replace(_reference_result(), steps=STEPS - 1)
    assert any("macro steps" in p for p in study.check_study(result, MONO, pick_fault(0)))
    # a fault window that ends before the shipped fault starts: the shipped
    # trace's FRT mode stays 0 there
    early = replace(pick_fault(0), start_ticks=400, duration_ticks=200)
    problems = study.check_study(_reference_result(), MONO, early)
    assert any("never leaves 0" in p for p in problems)


# -- tracer -------------------------------------------------------------------------


def test_traced_study_is_pure_and_self_times_fit_in_the_study(tmp_path):
    text = scenario_text(MONO, 3)
    plain = study.run_study(text, tmp_path)
    tracer = Tracer()
    with tracer.installed(), tracer.span("study"):
        traced = study.run_study(text, tmp_path)
    counter = CallCounter()
    with counter.installed():
        counted = study.run_study(text, tmp_path)

    assert traced.trace_csv == plain.trace_csv
    assert counted.trace_csv == plain.trace_csv
    self_sum = sum(rec[2] for name, rec in tracer.spans.items() if name != "study")
    assert 0.0 < self_sum <= traced.study_s
    assert tracer.calls("cosim.step_macro") == STEPS
    assert tracer.calls("gridcomp.step") == STEPS
    assert tracer.calls("dynamics.lu_factorize") >= 2
    assert tracer.pf_iterations > 0
    assert counter.set_calls > 0


def test_tracer_restores_the_program_on_exit():
    before = (vars(cosim.Master)["step_macro"], vars(cosim.SimComponent)["step"],
              vars(cosim.SimComponent)["get"])
    tracer, counter = Tracer(), CallCounter()
    with tracer.installed(), counter.installed():
        assert vars(cosim.Master)["step_macro"] is not before[0]
    after = (vars(cosim.Master)["step_macro"], vars(cosim.SimComponent)["step"],
             vars(cosim.SimComponent)["get"])
    assert after == before
