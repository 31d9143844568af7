"""Scenario text format: roundtrips, shipped files, parse diagnostics."""

import re
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from windcosim.converter import QMode
from windcosim.cosim import MAX_MACRO_STEPS, MasterConfig, Scheme
from windcosim.errors import (CosimError, ScenarioError, ScenarioParseError,
                              ScenarioValidationError, TopologyError)
from windcosim.network import NetworkData
from windcosim.scenario import (Scenario, build_large_scale, build_monolithic,
                                build_small_scale, run_scenario)
from windcosim.scenario_io import (_RECORDS, _SCALARS, parse_scenario, parse_scenario_text,
                                   serialize_scenario, write_scenario)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
FORMAT_DOC = Path(__file__).resolve().parent.parent / "docs" / "scenario_format.md"

BASE = """\
[network]
name = mini
base_mva = 100.0
frequency_hz = 60.0
bus 1 110.0 slack v_set=1.0
bus 2 110.0 pq
branch 1 2 r=0.01 x=0.1
machine 1 h=5.0 xd_p=0.1 d=2.0
sgen w 2 mva=50.0

[wtg]
rating_mva = 50.0
pcc_bus = 2
wtg w p_ref=0.8 q_ref=0.0

[master]
name = mini
mode = monolithic
scheme = serial
macro_step = 0.001
micro_step = 0.0005
t_end = 0.01
record = grid.v_pcc
"""


def reject(text: str, fragment: str, line_no: int | None = None):
    with pytest.raises(ScenarioParseError, match=fragment) as exc:
        parse_scenario_text(text)
    if line_no is not None:
        assert exc.value.line_no == line_no


# -- roundtrips ------------------------------------------------------------------


@pytest.mark.parametrize("build", [build_monolithic, build_small_scale,
                                   build_large_scale])
def test_serialize_parse_roundtrip(build):
    sc = build()
    text = serialize_scenario(sc)
    again = serialize_scenario(parse_scenario_text(text))
    assert again == text


@pytest.mark.parametrize("name,build", [("monolithic", build_monolithic),
                                        ("small_scale", build_small_scale),
                                        ("large_scale", build_large_scale)])
def test_shipped_files_match_builders(name, build):
    path = SCENARIO_DIR / f"{name}.scn"
    assert path.read_text(encoding="utf-8") == serialize_scenario(build())
    parsed = parse_scenario(path)
    assert serialize_scenario(parsed) == serialize_scenario(build())


def test_write_then_parse(tmp_path):
    sc = build_small_scale(t_end=0.5, macro_step=2e-3)
    path = tmp_path / "case.scn"
    write_scenario(sc, path)
    back = parse_scenario(path)
    assert back.master.macro_step == 2e-3
    assert back.master.t_end == 0.5
    assert serialize_scenario(back) == serialize_scenario(sc)


def test_comments_and_blank_lines_are_ignored():
    noisy = "# study case\n\n" + BASE.replace(
        "branch 1 2 r=0.01 x=0.1",
        "branch 1 2 r=0.01 x=0.1   # feeder")
    a = serialize_scenario(parse_scenario_text(noisy))
    b = serialize_scenario(parse_scenario_text(BASE))
    assert a == b


def test_controller_override_roundtrip():
    sc = build_small_scale()
    custom = replace(sc.wtgs[0].converter, ki_q=45.0)
    sc.wtgs = [replace(sc.wtgs[0], converter=custom)]
    # the first wtg defines the default line, so add a second turbine with
    # stock parameters to force an explicit override record
    text = serialize_scenario(build_large_scale())
    sc2 = parse_scenario_text(text)
    custom2 = replace(sc2.wtgs[3].converter, ki_q=45.0)
    sc2.wtgs[3] = replace(sc2.wtgs[3], converter=custom2)
    text2 = serialize_scenario(sc2)
    assert "converter wtg04" in text2
    back = parse_scenario_text(text2)
    assert back.wtgs[3].converter.ki_q == 45.0
    assert back.wtgs[2].converter.ki_q == sc2.wtgs[2].converter.ki_q


def test_float_precision_survives():
    sc = build_small_scale(macro_step=1.0 / 3.0)
    back = parse_scenario_text(serialize_scenario(sc))
    assert back.master.macro_step == 1.0 / 3.0


# -- parse diagnostics -------------------------------------------------------------


def test_rejects_malformed_section_header():
    reject("[network\n", "malformed", line_no=1)


def test_rejects_unknown_section():
    reject("[grid]\n", "unknown section", line_no=1)


def test_rejects_duplicate_section():
    reject(BASE + "\n[network]\n", "duplicate section")


def test_rejects_content_before_sections():
    reject("base_mva = 100\n", "before any section", line_no=1)


def test_rejects_unknown_directive():
    reject(BASE.replace("sgen w 2 mva=50.0", "generator w 2"),
           "unrecognized directive", line_no=9)


def test_rejects_unknown_scalar_key():
    reject(BASE.replace("t_end = 0.01", "t_stop = 0.01"), "unknown key")


def test_rejects_bad_number():
    reject(BASE.replace("base_mva = 100.0", "base_mva = ten"), "expected a number",
           line_no=3)


def test_rejects_dangling_record_token():
    reject(BASE.replace("bus 1 110.0 slack v_set=1.0", "bus 1 110.0 slack v_set"),
           "expected key=value")


def test_rejects_unknown_record_key():
    reject(BASE.replace("bus 2 110.0 pq", "bus 2 110.0 pq vmax=1.1"), "unknown key")


def test_rejects_duplicate_record_key():
    reject(BASE.replace("branch 1 2 r=0.01 x=0.1", "branch 1 2 r=0.01 r=0.02 x=0.1"),
           "duplicate key")


def test_rejects_branch_without_impedance():
    reject(BASE.replace("branch 1 2 r=0.01 x=0.1", "branch 1 2 r=0.01"),
           "branch needs x=")


def test_rejects_machine_without_inertia():
    reject(BASE.replace("machine 1 h=5.0 xd_p=0.1 d=2.0", "machine 1 xd_p=0.1"),
           "machine needs h=")


def test_rejects_sgen_without_rating():
    reject(BASE.replace("sgen w 2 mva=50.0", "sgen w 2"), "sgen needs mva=")
    reject(BASE.replace("sgen w 2 mva=50.0", "sgen w"), "usage: sgen")


def test_rejects_incomplete_fault():
    bad = BASE.replace("[master]", "[events]\nfault bus=2 start=1.0\n\n[master]")
    reject(bad, "fault needs duration=")


def test_rejects_missing_required_section():
    bad = BASE[:BASE.index("[master]")]
    reject(bad, "missing required section", line_no=0)


def test_rejects_master_without_mode():
    reject(BASE.replace("mode = monolithic\n", ""), "missing 'mode'")


def test_rejects_wtg_without_rating():
    reject(BASE.replace("rating_mva = 50.0\n", ""), "rating_mva")


def test_rejects_empty_turbine_list():
    reject(BASE.replace("wtg w p_ref=0.8 q_ref=0.0\n", ""), "no turbines")


def test_rejects_duplicate_controller_default():
    bad = BASE.replace("[master]",
                       "[controller]\nconverter default ki_d=50.0\n"
                       "converter default ki_d=60.0\n\n[master]")
    reject(bad, "duplicate 'converter default'")


def test_rejects_override_for_unknown_turbine():
    bad = BASE.replace("[master]",
                       "[controller]\nfrt ghost deglitch=0.01\n\n[master]")
    reject(bad, "unknown wtg 'ghost'")


def test_wraps_invalid_controller_parameters():
    bad = BASE.replace("[master]",
                       "[controller]\nconverter default i_max=0.0\n\n[master]")
    with pytest.raises(ScenarioValidationError, match="i_max"):
        parse_scenario_text(bad)
    bad = BASE.replace("[master]",
                       "[controller]\nfrt default v_enter=0.95 v_exit=0.9\n\n[master]")
    with pytest.raises(ScenarioValidationError, match="v_enter"):
        parse_scenario_text(bad)
    bad = BASE.replace("[master]",
                       "[controller]\nconverter default q_mode=volts\n\n[master]")
    with pytest.raises(ScenarioParseError):
        parse_scenario_text(bad)


def test_semantic_errors_surface_as_validation_errors():
    bad = BASE.replace("rating_mva = 50.0", "rating_mva = 60.0")
    with pytest.raises(ScenarioValidationError):
        parse_scenario_text(bad)


@pytest.mark.parametrize("record, fragment", [
    ("converter default q_mode=reactive", "'reactive' is not a valid QMode"),
    ("converter default q_mode=volts", "'volts' is not a valid QMode"),
    ("frt default ramp_enabled=maybe", "expected a boolean, got 'maybe'"),
    ("frt wpp ramp_enabled=2", "expected a boolean, got '2'"),
])
def test_bad_controller_value_reports_its_line(record, fragment):
    bad = BASE.replace("[master]", f"[controller]\nfrt default deglitch=0.01\n{record}\n\n[master]")
    reject(bad, fragment, line_no=bad.splitlines().index(record) + 1)


def test_reactive_power_q_mode_parses():
    ok = BASE.replace("[master]", "[controller]\nconverter default q_mode=reactive_power\n\n[master]")
    assert parse_scenario_text(ok).wtgs[0].converter.q_mode is QMode.REACTIVE_POWER


@pytest.mark.parametrize("old, new", [
    ("macro_step = 0.001", "macro_step = nan"),
    ("micro_step = 0.0005", "micro_step = nan"),
    ("t_end = 0.01", "t_end = inf"),
])
def test_rejects_non_finite_step_settings(old, new):
    with pytest.raises(ScenarioValidationError, match="finite"):
        parse_scenario_text(BASE.replace(old, new))


@pytest.mark.parametrize("macro_step, t_end", [
    ("0.001", "1e300"),
    ("0.001", "100000.0"),
    ("1e-12", "0.01"),
    ("5e-324", "0.01"),
])
def test_rejects_runs_longer_than_the_step_cap(macro_step, t_end):
    text = (BASE.replace("macro_step = 0.001", f"macro_step = {macro_step}")
            .replace("t_end = 0.01", f"t_end = {t_end}"))
    with pytest.raises(ScenarioValidationError, match="macro steps, above the cap"):
        parse_scenario_text(text)


@pytest.mark.parametrize("micro_step, t_end", [
    ("1e-12", "0.01"),
    ("5e-324", "0.01"),
    ("1e-9", "0.1"),
])
def test_rejects_runs_with_more_micro_steps_than_the_step_cap(micro_step, t_end):
    text = (BASE.replace("micro_step = 0.0005", f"micro_step = {micro_step}")
            .replace("t_end = 0.01", f"t_end = {t_end}"))
    with pytest.raises(ScenarioValidationError, match="micro steps, above the cap"):
        parse_scenario_text(text)


def test_step_cap_admits_a_run_of_exactly_the_cap():
    MasterConfig(macro_step=1.0, t_end=float(MAX_MACRO_STEPS))
    with pytest.raises(ValueError, match="above the cap"):
        MasterConfig(macro_step=1.0, t_end=float(MAX_MACRO_STEPS + 1))


@pytest.mark.parametrize("fault", [
    "fault bus=2 start=0.005 duration=-0.18",
    "fault bus=2 start=0.005 duration=nan",
    "fault bus=2 start=nan duration=0.002",
    "fault bus=2 start=0.005 duration=0.002 admittance=0",
    "fault bus=2 start=0.005 duration=0.002 admittance=-1",
    "fault bus=2 start=0.005 duration=0.002 admittance=nan",
    "fault bus=2 start=0.005 duration=0.002 admittance=inf",
])
def test_rejects_fault_without_finite_window(fault):
    ok = BASE.replace("[master]", "[events]\nfault bus=2 start=0.005 duration=0.002\n\n[master]")
    assert len(parse_scenario_text(ok).events) == 1
    with pytest.raises(ScenarioValidationError, match="fault at bus 2"):
        parse_scenario_text(BASE.replace("[master]", f"[events]\n{fault}\n\n[master]"))


# -- invalid networks ------------------------------------------------------------

SMALL_SCALE = (SCENARIO_DIR / "small_scale.scn").read_text()


@pytest.mark.parametrize("old, new, fragment", [
    ("branch 4 5 r=", "branch 4 99 r=", "references unknown bus"),
    ("sgen wpp 3 ", "sgen wpp 77 ", "at unknown bus 77"),
    ("bus 9 230.0 pq", "bus 8 230.0 pq", "duplicate bus ids"),
    ("bus 4 230.0 pq", "bus 4 230.0 inf", "unknown type 'inf'"),
], ids=["branch-to-unknown-bus", "sgen-at-unknown-bus", "duplicate-bus", "bus-type-inf"])
def test_invalid_network_surfaces_as_validation_error(old, new, fragment):
    assert old in SMALL_SCALE
    with pytest.raises(ScenarioValidationError, match=fragment) as exc:
        parse_scenario_text(SMALL_SCALE.replace(old, new, 1))
    assert isinstance(exc.value.__cause__, TopologyError)


@pytest.mark.parametrize("old, new", [
    ("base_mva = 100.0", "base_mva = 0"),
    ("base_mva = 100.0", "base_mva = nan"),
    ("base_mva = 100.0", "base_mva = -inf"),
    ("frequency_hz = 60.0", "frequency_hz = 0"),
    ("frequency_hz = 60.0", "frequency_hz = -1"),
    ("frequency_hz = 60.0", "frequency_hz = inf"),
])
def test_rejects_a_network_base_or_frequency_that_is_not_finite_and_positive(old, new):
    assert old in SMALL_SCALE
    with pytest.raises(ScenarioValidationError, match="must be finite and positive") as exc:
        parse_scenario_text(SMALL_SCALE.replace(old, new, 1))
    assert isinstance(exc.value.__cause__, TopologyError)


@pytest.mark.parametrize("rating", ["nan", "inf", "-inf"])
def test_rejects_a_plant_rating_that_is_not_finite(rating):
    with pytest.raises(ScenarioValidationError, match="plant is rated"):
        parse_scenario_text(SMALL_SCALE.replace("rating_mva = 85.0", f"rating_mva = {rating}"))


@pytest.mark.parametrize("old, new", [
    ("i_max=1.1", "i_max=nan"),
    ("i_max=1.1", "i_max=inf"),
    ("kp_d=0.1", "kp_d=-1"),
    ("ki_d=60.0", "ki_d=nan"),
    ("kp_q=0.1", "kp_q=-inf"),
    ("ki_q=120.0", "ki_q=inf"),
    ("p_ref=1.0", "p_ref=nan"),
])
def test_rejects_converter_gains_and_limit_out_of_domain(old, new):
    assert old in SMALL_SCALE
    with pytest.raises(ScenarioValidationError, match=new.partition("=")[0] + " must be finite"):
        parse_scenario_text(SMALL_SCALE.replace(old, new, 1))


@pytest.mark.parametrize("old, new", [
    ("h=23.64", "h=inf"),
    ("h=23.64", "h=nan"),
    ("xd_p=0.0608", "xd_p=inf"),
    ("xd_p=0.0608", "xd_p=nan"),
    ("xd_p=0.0608 d=6.0", "xd_p=0.0608 d=-1"),
    ("xd_p=0.0608 d=6.0", "xd_p=0.0608 d=inf"),
    ("xd_p=0.0608 d=6.0", "xd_p=0.0608 d=nan"),
])
def test_rejects_machine_parameters_out_of_domain(old, new):
    assert old in SMALL_SCALE
    with pytest.raises(ScenarioValidationError, match="machine at bus 1") as exc:
        parse_scenario_text(SMALL_SCALE.replace(old, new, 1))
    assert isinstance(exc.value.__cause__, TopologyError)


@pytest.mark.parametrize("old, new", [
    ("deglitch=0.02", "deglitch=nan"),
    ("deglitch=0.02", "deglitch=inf"),
    ("k_boost=2.0", "k_boost=nan"),
    ("k_boost=2.0", "k_boost=inf"),
    ("ramp_rate=1.0", "ramp_rate=nan"),
    ("ramp_rate=1.0", "ramp_rate=inf"),
])
def test_rejects_frt_timing_and_gains_that_are_not_finite(old, new):
    assert old in SMALL_SCALE
    with pytest.raises(ScenarioValidationError, match="must be finite"):
        parse_scenario_text(SMALL_SCALE.replace(old, new, 1))


LARGE_SCALE = (SCENARIO_DIR / "large_scale.scn").read_text()


@pytest.mark.parametrize("text, old, new, fragment", [
    (SMALL_SCALE, "export_bus_v = 6", "export_bus_v = 0", "export_bus_v: bus 0 not in network"),
    (SMALL_SCALE, "export_bus_v = 6", "export_bus_v = 6 77", "bus 77 not in network"),
    (LARGE_SCALE, "pcc_branch = 3 10", "pcc_branch = 3 99", "pcc branch 3-99 not in network"),
    (LARGE_SCALE, "pcc_branch = 3 10", "pcc_branch = 3 11", "pcc branch 3-11 not in network"),
    (LARGE_SCALE, "pcc_branch = 3 10", "pcc_branch = 4 5",
     "pcc branch 4-5 does not touch pcc bus 3"),
], ids=["export-bus-0", "export-bus-77", "pcc-branch-to-unknown-bus", "pcc-branch-not-a-branch",
        "pcc-branch-off-the-pcc-bus"])
def test_rejects_pcc_branch_and_export_bus_outside_the_network(text, old, new, fragment):
    assert old in text
    with pytest.raises(ScenarioValidationError, match=fragment):
        parse_scenario_text(text.replace(old, new, 1))


@pytest.mark.parametrize("transform", ["gain=nan", "gain=inf", "offset=inf"])
def test_rejects_a_connection_transform_that_is_not_finite(transform):
    edge = "connect grid.v_wpp conv_wpp.v_meas"
    assert edge in SMALL_SCALE
    with pytest.raises(ScenarioValidationError,
                       match=f"{edge}: {transform.split('=')[0]} must be finite, got"):
        parse_scenario_text(SMALL_SCALE.replace(edge, f"{edge} {transform}", 1))


def test_pcc_branch_may_name_its_ends_in_either_order():
    reverse = parse_scenario_text(LARGE_SCALE.replace("pcc_branch = 3 10", "pcc_branch = 10 3"))
    assert reverse.pcc_branch == (10, 3)
    # the flow is measured at the pcc_bus end of the branch, whichever way round it is written
    a, _ = run_scenario(parse_scenario_text(LARGE_SCALE), t_end=0.002)
    b, _ = run_scenario(reverse, t_end=0.002)
    for name in ("grid.p_wpp_mw", "grid.q_wpp_mvar"):
        assert a[name].tobytes() == b[name].tobytes(), name
    assert a["grid.p_wpp_mw"][-1] > 80.0


# -- the grammar table against the format document ----------------------------------


def test_format_doc_names_every_keyword_key_and_value():
    doc = FORMAT_DOC.read_text(encoding="utf-8")
    parts = re.split(r"^## `\[(\w+)\]`$", doc, flags=re.M)
    sections = dict(zip(parts[1::2], parts[2::2]))
    assert set(sections) == set(_SCALARS)
    missing = []
    for section, scalars in _SCALARS.items():
        missing += [f"[{section}] {key}" for key in scalars
                    if f"`{key}`" not in sections[section]]
    for keyword, rec in _RECORDS.items():
        body = sections[rec.section]
        if not re.search(rf"(?<![\w.]){keyword}(?!\w)", body):
            missing.append(f"[{rec.section}] {keyword}")
        missing += [f"{keyword} {key}=" for key in rec.keys if f"{key}=" not in body]
    missing += [f"`{m.value}`" for m in (*QMode, *Scheme) if f"`{m.value}`" not in doc]
    assert missing == []


def test_format_doc_domain_table_matches_the_declared_domains():
    def domain(cls, name):          # the domain as messages state it, or None
        meta = next((f.metadata for f in fields(cls) if f.name == name), {})
        return meta.get("domain", (None,) * 3)[2]

    owners = {"": Scenario, "network": NetworkData, "master": MasterConfig}
    declared = set()
    for section, scalars in _SCALARS.items():
        for key, (_, path) in scalars.items():
            owner, _, attr = path.rpartition(".")
            declared.add((f"[{section}]", key, domain(owners[owner], attr)))
    for keyword, rec in _RECORDS.items():
        declared |= {(keyword, key, domain(rec.cls, key)) for key in rec.positional + rec.keys}
    table = set()
    doc = FORMAT_DOC.read_text(encoding="utf-8")
    for where, names, text in re.findall(r"^\| `([^`]+)` \| (.+) \| (.+) \|$", doc, flags=re.M):
        table |= {(where, name.strip("`"), text) for name in names.split(", ")}
    assert table == {row for row in declared if row[2] is not None}


_LINES = SMALL_SCALE.splitlines()
_TOKENS = sorted({tok for line in _LINES for tok in line.split()} | {"99", "-1", "0", "nan", "inf"})


def _mutate(lines: list[str], op: str, i: int, j: int, new: str) -> list[str]:
    """Drop or copy line ``i``, or replace, drop or re-value its token ``j``
    (``key=value`` gets a new value, a bare token gets ``new`` appended)."""
    lines = list(lines)
    i %= len(lines)
    toks = lines[i].split()
    if op == "drop_line":
        del lines[i]
    elif op == "copy_line":
        lines.insert(j % (len(lines) + 1), lines[i])
    elif toks:
        j %= len(toks)
        key, eq, _ = toks[j].partition("=")
        if op == "token":
            toks[j] = new
        elif op == "value":
            toks[j] = key + eq + new
        else:
            del toks[j]
        lines[i] = " ".join(toks)
    return lines


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["drop_line", "copy_line", "token", "value", "drop_token"]),
                          st.integers(0, 10_000), st.integers(0, 10_000),
                          st.sampled_from(_TOKENS)),
                min_size=1, max_size=3))
def test_mutated_scenario_parses_or_raises_scenario_error(mutations):
    lines = _LINES
    for mutation in mutations:
        lines = _mutate(lines, *mutation)
    try:
        parse_scenario_text("\n".join(lines) + "\n")
    except ScenarioError:
        pass


_NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:e[-+]?\d+)?(?![\w.])")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_every_number_of_a_shipped_scenario_rejects_a_non_finite_value(value):
    # parse only: each of the 103 numbers in turn, none may reach a run
    spans = [m.span() for m in _NUMBER.finditer(SMALL_SCALE)]
    assert len(spans) == 103
    accepted = []
    for a, b in spans:
        text = SMALL_SCALE[:a] + value + SMALL_SCALE[b:]
        try:
            parse_scenario_text(text)
        except ScenarioError:
            continue
        accepted.append(text.splitlines()[SMALL_SCALE.count("\n", 0, a)])
    assert accepted == []


@pytest.mark.filterwarnings("error::RuntimeWarning")     # an overflow is a study failure
def test_every_number_of_a_shipped_scenario_set_to_a_finite_extreme_parses_runs_or_fails_as_a_study():
    # each of the 103 numbers in turn set to 0, -1 and 1e300, on a 30 ms run with
    # the fault at 10 ms: rejected at parse, run to the end, or failed as a study
    short = (SMALL_SCALE.replace("t_end = 2.0", "t_end = 0.03")
             .replace("start=1.0 ", "start=0.01 "))
    assert "t_end = 0.03" in short and "start=0.01 " in short
    spans = [m.span() for m in _NUMBER.finditer(short)]
    assert len(spans) == 103
    outcomes = {"rejected": 0, "ran": 0, "failed": 0}
    for value in ("0", "-1", "1e300"):
        for a, b in spans:
            try:
                scenario = parse_scenario_text(short[:a] + value + short[b:])
            except ScenarioError:
                outcomes["rejected"] += 1
                continue
            try:
                run_scenario(scenario)
            except CosimError as exc:
                assert not isinstance(exc, ScenarioError), short[a - 20:b + 20]
                # an overflowing Newton step is a divergence, not a singular Jacobian
                assert "Jacobian is singular" not in str(exc), short[a - 20:b + 20]
                outcomes["failed"] += 1
                continue
            outcomes["ran"] += 1
    assert all(outcomes.values()), outcomes
