"""Comparison harness, oscillation metrics, bench table, the CLI and the scripts."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import ringdown
from windcosim.bench import bench_scaling, format_bench_table
from windcosim.cli import main
from windcosim.compare import compare_traces, exclusion_mask, oscillation_metrics
from windcosim.cosim import Scheme
from windcosim.errors import TraceError
from windcosim.network import FaultEvent
from windcosim.scenario import build_monolithic, build_small_scale, run_scenario
from windcosim.scenario_io import serialize_scenario, write_scenario
from windcosim.trace import TraceSet, read_csv, write_csv


def make_trace(values: dict[str, np.ndarray], dt=1e-3) -> TraceSet:
    n = len(next(iter(values.values())))
    return TraceSet(time=np.arange(n) * dt,
                    channels={k: np.asarray(v, dtype=float) for k, v in values.items()})


# -- compare_traces ---------------------------------------------------------------


def test_compare_identical_traces_reports_zero():
    a = make_trace({"x": np.sin(np.arange(100) * 0.1)})
    rep = compare_traces(a, a)
    assert rep.channels[0].max_abs == 0.0
    assert rep.channels[0].rms == 0.0
    assert rep.within(0.0)


def test_compare_constant_offset():
    base = np.linspace(0.0, 1.0, 200)
    a = make_trace({"x": base})
    b = make_trace({"x": base + 0.01})
    rep = compare_traces(a, b)
    c = rep.channels[0]
    assert c.max_abs == pytest.approx(0.01, abs=1e-12)
    assert c.rms == pytest.approx(0.01, abs=1e-12)
    assert c.n_excluded == 0
    assert not rep.within(0.005)
    assert rep.worst() == pytest.approx(0.01, abs=1e-12)


def test_compare_excludes_event_windows():
    n = 1000
    x = np.zeros(n)
    a = make_trace({"x": x})
    spiked = x.copy()
    spiked[500] = 1.0                       # artifact exactly at the event
    b = make_trace({"x": spiked})
    rep = compare_traces(a, b, event_times=[0.5], exclude_steps=3)
    c = rep.channels[0]
    assert c.max_abs == 0.0                 # headline ignores the event window
    assert c.max_abs_full == 1.0            # full-series metric still sees it
    assert c.n_excluded == 7                # +/- 3 steps plus the event sample
    assert rep.within(1e-12)


def test_exclusion_mask_half_open_boundaries():
    t = np.arange(10) * 0.1
    keep = exclusion_mask(t, [0.5], exclude_steps=1, dt=0.1)
    assert list(np.where(~keep)[0]) == [4, 5, 6]


def test_compare_rejects_fully_excluded_trace():
    a = make_trace({"x": np.zeros(5)})
    with pytest.raises(TraceError, match="whole trace"):
        compare_traces(a, a, event_times=[0.002], exclude_steps=10)


def test_compare_requires_shared_channels():
    a = make_trace({"x": np.zeros(5)})
    b = make_trace({"y": np.zeros(5)})
    with pytest.raises(TraceError, match="no channels"):
        compare_traces(a, b)


def test_compare_format_mentions_verdict():
    a = make_trace({"x": np.zeros(10)})
    b = make_trace({"x": np.full(10, 0.02)})
    rep = compare_traces(a, b)
    assert "FAIL" in rep.format(0.01)
    assert "PASS" in rep.format(0.05)


# -- oscillation metrics ------------------------------------------------------------


def test_metrics_recover_synthetic_ringdown():
    t = np.arange(0.0, 6.0, 1e-3)
    y = ringdown(t, f_hz=3.0, decay_per_cycle=1.3, amp=1.0, offset=5.0)
    m = oscillation_metrics(t, y, t_start=0.0)
    assert m.frequency_hz == pytest.approx(3.0, rel=0.02)
    assert m.decay_per_cycle == pytest.approx(1.3, rel=0.02)
    assert m.steady_value == pytest.approx(5.0, abs=0.02)


def test_metrics_flag_growth_and_neutrality():
    t = np.arange(0.0, 4.0, 1e-3)
    undamped = ringdown(t, f_hz=2.0, decay_per_cycle=1.0)
    assert oscillation_metrics(t, undamped, 0.0).decay_per_cycle == pytest.approx(1.0, abs=1e-6)
    growing = ringdown(t, f_hz=2.0, decay_per_cycle=0.9)
    assert oscillation_metrics(t, growing, 0.0).decay_per_cycle < 1.0


def test_metrics_survive_a_weaker_superposed_mode():
    t = np.arange(0.0, 6.0, 1e-3)
    y = ringdown(t, f_hz=3.0, decay_per_cycle=1.25) \
        + 0.3 * ringdown(t, f_hz=7.31, decay_per_cycle=1.4, phase=1.1)
    m = oscillation_metrics(t, y, t_start=0.0, min_amplitude_frac=0.25)
    assert m.frequency_hz == pytest.approx(3.0, rel=0.1)
    assert m.decay_per_cycle == pytest.approx(1.25, rel=0.1)


def test_metrics_reject_degenerate_windows():
    t = np.arange(0.0, 1.0, 1e-3)
    with pytest.raises(TraceError, match="too short"):
        oscillation_metrics(t[:4], np.zeros(4), 0.0)
    with pytest.raises(TraceError, match="usable extrema"):
        oscillation_metrics(t, np.linspace(0, 1, t.size), 0.0)


@settings(deadline=None, max_examples=30)
@given(f=st.floats(min_value=0.5, max_value=8.0),
       decay=st.floats(min_value=1.05, max_value=1.8),
       amp=st.floats(min_value=0.1, max_value=10.0),
       offset=st.floats(min_value=-5.0, max_value=5.0))
def test_metrics_invert_the_ringdown_family(f, decay, amp, offset):
    horizon = 8.0 / f                        # eight cycles regardless of rate
    t = np.linspace(0.0, horizon, 4000)
    y = ringdown(t, f_hz=f, decay_per_cycle=decay, amp=amp, offset=offset)
    m = oscillation_metrics(t, y, t_start=0.0)
    assert m.frequency_hz == pytest.approx(f, rel=0.05)
    assert m.decay_per_cycle == pytest.approx(decay, rel=0.05)


# -- bench --------------------------------------------------------------------------


def test_bench_requires_three_repetitions():
    with pytest.raises(ValueError):
        bench_scaling([build_monolithic(t_end=0.01)], repetitions=2)


def test_bench_rows_and_timing_purity():
    # a short fault makes every exchanged signal move, under both schemes
    fault = FaultEvent(bus=6, start=0.02, duration=0.01)
    for scheme in (Scheme.SERIAL, Scheme.PARALLEL):
        sc = build_small_scale(t_end=0.05, fault=fault, scheme=scheme)
        rows = bench_scaling([sc], repetitions=3)
        assert len(rows) == 1
        row = rows[0]
        assert row.scenario == "small_scale"
        assert row.components == 3
        assert row.steps == 50
        assert row.min_wall_s <= row.median_wall_s <= row.max_wall_s
        # timing a run must not perturb it
        direct, _ = run_scenario(sc)
        assert np.ptp(direct["grid.v_pcc"]) > 0.1, "the fault must show in the trace"
        for name in direct.names():
            assert np.array_equal(row.trace[name], direct[name]), (scheme, name)


def test_bench_table_format():
    rows = bench_scaling([build_monolithic(t_end=0.02, fault=None)], repetitions=3)
    text = format_bench_table(rows)
    assert "scenario" in text and "steps/s" in text
    assert "monolithic" in text


# -- command line -------------------------------------------------------------------


@pytest.fixture()
def small_file(tmp_path):
    path = tmp_path / "small.scn"
    write_scenario(build_small_scale(t_end=0.05, fault=None), path)
    return path


def test_cli_run_writes_outputs(small_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(small_file), "--out", str(out)]) == 0
    assert (out / "trace.csv").exists()
    trace = read_csv(out / "trace.csv")
    assert len(trace.time) == 51
    meta = json.loads((out / "meta.json").read_text())
    assert meta["scenario"] == "small_scale"
    assert meta["components"] == 3
    assert meta["steps"] == 50
    assert meta["scheme"] == "serial"
    gp = (out / "plots.gp").read_text()
    assert "trace.csv" in gp and "grid_v_pcc.png" in gp
    assert "wrote 51 samples" in capsys.readouterr().out


def test_cli_run_applies_overrides(small_file, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(small_file), "--out", str(out),
                 "--scheme", "parallel", "--macro-step", "0.005",
                 "--t-end", "0.02"]) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["scheme"] == "parallel"
    assert meta["macro_step"] == 0.005
    assert meta["steps"] == 4


def test_cli_compare_exit_codes(tmp_path):
    base = np.linspace(0.0, 1.0, 50)
    a = make_trace({"x": base})
    b = make_trace({"x": base + 0.02})
    write_csv(a, tmp_path / "a.csv")
    write_csv(b, tmp_path / "b.csv")
    ok = main(["compare", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
               "--tol", "0.05"])
    assert ok == 0
    bad = main(["compare", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
                "--tol", "0.01", "--out", str(tmp_path / "report.txt")])
    assert bad == 3
    assert "FAIL" in (tmp_path / "report.txt").read_text()


def test_cli_compare_discovers_events_from_metadata(tmp_path):
    n = 100
    clean = np.zeros(n)
    spiked = clean.copy()
    spiked[50] = 1.0                        # artifact at t = 0.05
    write_csv(make_trace({"x": clean}), tmp_path / "a.csv")
    write_csv(make_trace({"x": spiked}), tmp_path / "b.csv")
    (tmp_path / "meta.json").write_text(json.dumps(
        {"events": [{"start": 0.05, "duration": 0.0}]}))
    args = ["compare", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
            "--tol", "0.1"]
    assert main(args) == 0                  # meta.json beside --a masks the spike
    assert main(args + ["--events", ""]) == 3


def test_cli_envelope(tmp_path):
    t = np.arange(0.0, 3.2, 1e-3)
    good = make_trace({"grid.v_pcc": np.full(t.size, 1.0)})
    write_csv(good, tmp_path / "good.csv")
    assert main(["envelope", "--trace", str(tmp_path / "good.csv"),
                 "--onset", "1.0"]) == 0

    dipped = np.full(t.size, 1.0)
    dipped[(t >= 1.0) & (t <= 2.9)] = 0.05
    write_csv(make_trace({"grid.v_pcc": dipped}), tmp_path / "bad.csv")
    assert main(["envelope", "--trace", str(tmp_path / "bad.csv"),
                 "--onset", "1.0"]) == 3

    # a permissive custom floor admits the same dip
    custom = tmp_path / "env.txt"
    custom.write_text("# permissive floor\n0.0 0.0\n2.0 0.01\n")
    assert main(["envelope", "--trace", str(tmp_path / "bad.csv"),
                 "--onset", "1.0", "--envelope", str(custom)]) == 0

    broken = tmp_path / "broken.txt"
    broken.write_text("0.0 0.0 extra\n")
    assert main(["envelope", "--trace", str(tmp_path / "good.csv"),
                 "--onset", "1.0", "--envelope", str(broken)]) == 1


def test_cli_bench(small_file, tmp_path, capsys):
    out = tmp_path / "bench.txt"
    assert main(["bench", "--scenarios", str(small_file), "--reps", "3",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert "small_scale" in text
    assert "small_scale" in capsys.readouterr().out


def test_cli_usage_and_input_errors(tmp_path, capsys):
    assert main(["frobnicate"]) == 1
    assert main(["run", "--scenario", "missing.scn", "--out", str(tmp_path)]) == 1
    assert main(["compare", "--a", "nope.csv", "--b", "nope.csv"]) == 1
    capsys.readouterr()
    text = serialize_scenario(build_small_scale(t_end=0.02, fault=None))
    bad = tmp_path / "bad.scn"
    for old, new in (("macro_step = 0.001", "macro_step = nan"), ("t_end = 0.02", "t_end = inf")):
        bad.write_text(text.replace(old, new))
        assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "finite" in capsys.readouterr().err
    bad.write_text(text.replace("sgen wpp 3 ", "sgen wpp 77 "))
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "unknown bus 77" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("old, new", [
    ("export_bus_v = 6", "export_bus_v = 0"),
    ("pcc_bus = 3", "pcc_bus = 3\npcc_branch = 3 99"),
    ("pcc_bus = 3", "pcc_bus = 3\npcc_branch = 4 5"),
    ("t_end = 0.02", "t_end = 1e300"),
    ("base_mva = 100.0", "base_mva = 0"),
    ("frequency_hz = 60.0", "frequency_hz = -1"),
    ("rating_mva = 85.0", "rating_mva = nan"),
    ("i_max=1.1", "i_max=inf"),
    ("kp_d=0.1", "kp_d=-1"),
    ("h=23.64", "h=inf"),
    ("xd_p=0.0608 d=6.0", "xd_p=0.0608 d=-1"),
    ("deglitch=0.02", "deglitch=nan"),
    ("ramp_rate=1.0", "ramp_rate=inf"),
    ("branch 4 5 r=0.01", "branch 4 5 r=inf"),
    ("branch 4 5 r=0.01 x=0.085", "branch 4 5 r=0.01 x=-inf"),
    ("branch 4 5 r=0.01", "branch 4 5 r=-1"),
    ("bus 4 230.0 pq", "bus 4 nan pq"),
    ("[events]\n", "[events]\nfault bus=6 start=0.01 duration=0.005 admittance=0\n"),
    ("[events]\n", "[events]\nfault bus=6 start=0.01 duration=0.005 admittance=-1\n"),
    ("[events]\n", "[events]\nfault bus=6 start=0.01 duration=0.005 admittance=nan\n"),
    # wiring that only the built components can check
    ("connect grid.v_wpp frt_wpp.v_meas",
     "connect grid.v_wpp frt_wpp.v_meas\nconnect grid.v_pcc frt_wpp.v_meas"),
    ("connect grid.q_wpp conv_wpp.q_meas", "connect grid.nope conv_wpp.q_meas"),
    ("connect frt_wpp.mode conv_wpp.frt_mode", "connect grid.v_pcc conv_wpp.frt_mode"),
    ("connect grid.q_wpp conv_wpp.q_meas", "connect conv_wpp.v_meas conv_wpp.q_meas"),
    ("record = grid.v_pcc", "record = grid.nope grid.v_pcc"),
])
def test_cli_rejects_out_of_domain_inputs_with_exit_1(tmp_path, capsys, old, new):
    text = serialize_scenario(build_small_scale(t_end=0.02, fault=None))
    assert old in text
    bad = tmp_path / "bad.scn"
    bad.write_text(text.replace(old, new))
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_run_failure_exit_code(tmp_path, capsys):
    # dispatch beyond the converter limit parses fine but cannot equilibrate
    sc = build_small_scale(t_end=0.02, plant_mw=102.0, fault=None)
    path = tmp_path / "hot.scn"
    write_scenario(sc, path)
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "run failed" in capsys.readouterr().err


def test_cli_fails_a_diverging_machine_as_a_study(tmp_path, capsys):
    # an absurd damping makes the explicit RK4 blow up to an infinite machine
    # angle: a run failure that names the grid and the time, not an input error
    path = Path(__file__).resolve().parents[1] / "scenarios" / "small_scale.scn"
    text = path.read_text()
    assert "xd_p=0.0608 d=6.0" in text
    bad = tmp_path / "bad.scn"
    bad.write_text(text.replace("xd_p=0.0608 d=6.0", "xd_p=0.0608 d=1e7", 1))
    assert main(["run", "--scenario", str(bad), "--t-end", "0.05", "--out",
                 str(tmp_path / "o")]) == 2
    assert "run failed: component 'grid' at t=0.02" in capsys.readouterr().err


def test_cli_rejects_an_override_past_the_micro_step_cap(tmp_path, capsys):
    path = Path(__file__).resolve().parents[1] / "scenarios" / "small_scale.scn"
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(path), "--t-end", "1e4", "--out", str(out)]) == 1
    assert "above the cap" in capsys.readouterr().err
    assert not out.exists()


# -- scripts ----------------------------------------------------------------------


def test_setup_scaling_script_times_a_small_plant(monkeypatch):
    # the script pins OPENBLAS_NUM_THREADS on import; monkeypatch restores it afterwards
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    path = Path(__file__).resolve().parents[1] / "scripts" / "setup_scaling.py"
    spec = importlib.util.spec_from_file_location("setup_scaling", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    row = script.time_setup(8)
    assert set(row) == {"instantiate", "initialize", "setup", "power_flow", "steps", "buses"}
    assert all(np.isfinite(value) for value in row.values())
    assert row["buses"] == 18
    assert row["steps"] > 0.0            # script.STEPS macro steps after initialize
