"""Text form of a scenario: flat sections of assignments and records.

The format is line oriented.  ``#`` starts a comment, blank lines are
ignored.  A ``[section]`` header opens one of exactly six sections:
``network``, ``wtg``, ``controller``, ``connections``, ``events``,
``master`` (any order, no duplicates, unknown sections are errors).
Inside a section a line is either a scalar assignment ``key = value``
or a keyword record such as ``bus 5 230.0 pq p_load=1.25 q_load=0.5``;
unknown keys and keywords are rejected with the offending line number.

``parse_scenario(serialize_scenario(s))`` compares equal to ``s``:
floats are written with ``repr`` so the text holds full precision.
The exact grammar lives in ``docs/scenario_format.md``.
"""

from __future__ import annotations

import os
from dataclasses import fields

from .converter import ConverterParams
from .cosim import MasterConfig
from .errors import ScenarioParseError, ScenarioValidationError, TopologyError
from .frt import FrtParams
from .network import Branch, Bus, FaultEvent, NetworkData, StaticGenerator, SynchronousMachine
from .scenario import ConnectionSpec, Scenario, WtgSpec

_SECTIONS = ("network", "wtg", "controller", "connections", "events", "master")

# per section: allowed scalar assignment keys and record keywords
_SCALARS = {
    "master": {"name", "mode", "scheme", "macro_step", "micro_step", "t_end", "record"},
    "network": {"name", "base_mva", "frequency_hz"},
    "wtg": {"rating_mva", "pcc_bus", "pcc_branch", "export_bus_v"},
    "controller": set(),
    "connections": set(),
    "events": set(),
}
_RECORDS = {
    "network": {"bus", "branch", "machine", "sgen"},
    "wtg": {"wtg"},
    "controller": {"converter", "frt"},
    "connections": {"connect"},
    "events": {"fault"},
    "master": set(),
}

_BUS_KEYS = {"v_set", "p_gen", "p_load", "q_load"}
_BRANCH_KEYS = {"r", "x", "b", "tap"}
_MACHINE_KEYS = {"h", "xd_p", "d"}
_CONVERTER_KEYS = {f.name for f in fields(ConverterParams)}
_FRT_KEYS = {f.name for f in fields(FrtParams)}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if hasattr(value, "value"):            # enums serialize by value
        return str(value.value)
    return str(value)


def _parse_bool(text: str, line_no: int) -> bool:
    low = text.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ScenarioParseError(line_no, f"expected a boolean, got '{text}'")


def _parse_float(text: str, line_no: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ScenarioParseError(line_no, f"expected a number, got '{text}'") from None


def _parse_int(text: str, line_no: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ScenarioParseError(line_no, f"expected an integer, got '{text}'") from None


def _kv_pairs(tokens: list[str], allowed: set[str], line_no: int) -> dict[str, str]:
    out: dict[str, str] = {}
    for tok in tokens:
        key, sep, value = tok.partition("=")
        if not sep or not key or not value:
            raise ScenarioParseError(line_no, f"expected key=value, got '{tok}'")
        if key not in allowed:
            raise ScenarioParseError(line_no, f"unknown key '{key}'")
        if key in out:
            raise ScenarioParseError(line_no, f"duplicate key '{key}'")
        out[key] = value
    return out


def _floats(kv: dict[str, str], line_no: int) -> dict[str, float]:
    return {k: _parse_float(v, line_no) for k, v in kv.items()}


class _Collector:
    """Raw parse product of one file, assembled into a Scenario at the end."""

    def __init__(self):
        self.master: dict[str, object] = {}
        self.network = NetworkData()
        self.wtg_meta: dict[str, object] = {}
        self.wtg_rows: list[tuple[str, float, float]] = []
        self.conv_default: dict[str, object] = {}
        self.frt_default: dict[str, object] = {}
        self.conv_over: dict[str, dict[str, object]] = {}
        self.frt_over: dict[str, dict[str, object]] = {}
        self.connections: list[ConnectionSpec] = []
        self.events: list[FaultEvent] = []
        self.seen: set[str] = set()


def _controller_kwargs(kv: dict[str, str], line_no: int) -> dict[str, object]:
    out: dict[str, object] = {}
    for key, raw in kv.items():
        if key == "ramp_enabled":
            out[key] = _parse_bool(raw, line_no)
        elif key == "q_mode":
            out[key] = raw
        else:
            out[key] = _parse_float(raw, line_no)
    return out


def _handle_assignment(col: _Collector, section: str, key: str, value: str,
                       line_no: int) -> None:
    if key not in _SCALARS[section]:
        raise ScenarioParseError(line_no, f"unknown key '{key}' in [{section}]")
    if section == "master":
        if key in ("macro_step", "micro_step", "t_end"):
            col.master[key] = _parse_float(value, line_no)
        elif key == "record":
            col.master[key] = value.split()
        else:
            col.master[key] = value
    elif section == "network":
        if key == "name":
            col.network.name = value
        elif key == "base_mva":
            col.network.base_mva = _parse_float(value, line_no)
        else:
            col.network.frequency_hz = _parse_float(value, line_no)
    else:                                   # [wtg] scalars
        if key == "rating_mva":
            col.wtg_meta[key] = _parse_float(value, line_no)
        elif key == "pcc_bus":
            col.wtg_meta[key] = _parse_int(value, line_no)
        elif key == "pcc_branch":
            parts = value.split()
            if len(parts) != 2:
                raise ScenarioParseError(line_no, "pcc_branch takes two bus ids")
            col.wtg_meta[key] = (_parse_int(parts[0], line_no), _parse_int(parts[1], line_no))
        else:
            col.wtg_meta[key] = tuple(_parse_int(p, line_no) for p in value.split())


def _handle_record(col: _Collector, section: str, tokens: list[str], line_no: int) -> None:
    keyword, rest = tokens[0], tokens[1:]

    def need(n: int, usage: str) -> None:
        if len(rest) < n:
            raise ScenarioParseError(line_no, f"usage: {usage}")

    if keyword == "bus":
        need(3, "bus <id> <base_kv> <type> [v_set=|p_gen=|p_load=|q_load=]")
        kv = _floats(_kv_pairs(rest[3:], _BUS_KEYS, line_no), line_no)
        col.network.buses.append(Bus(
            id=_parse_int(rest[0], line_no), base_kv=_parse_float(rest[1], line_no),
            btype=rest[2], **kv))
    elif keyword == "branch":
        need(2, "branch <from> <to> r= x= [b=] [tap=]")
        kv = _floats(_kv_pairs(rest[2:], _BRANCH_KEYS, line_no), line_no)
        for required in ("r", "x"):
            if required not in kv:
                raise ScenarioParseError(line_no, f"branch needs {required}=")
        col.network.branches.append(Branch(
            from_bus=_parse_int(rest[0], line_no), to_bus=_parse_int(rest[1], line_no), **kv))
    elif keyword == "machine":
        need(1, "machine <bus> h= xd_p= [d=]")
        kv = _floats(_kv_pairs(rest[1:], _MACHINE_KEYS, line_no), line_no)
        for required in ("h", "xd_p"):
            if required not in kv:
                raise ScenarioParseError(line_no, f"machine needs {required}=")
        kv.setdefault("d", 0.0)
        col.network.machines.append(SynchronousMachine(bus=_parse_int(rest[0], line_no), **kv))
    elif keyword == "sgen":
        need(2, "sgen <id> <bus> mva=")
        kv = _floats(_kv_pairs(rest[2:], {"mva"}, line_no), line_no)
        if "mva" not in kv:
            raise ScenarioParseError(line_no, "sgen needs mva=")
        col.network.sgens.append(StaticGenerator(
            id=rest[0], bus=_parse_int(rest[1], line_no), mva=kv["mva"]))
    elif keyword == "wtg":
        need(1, "wtg <id> p_ref= q_ref=")
        kv = _floats(_kv_pairs(rest[1:], {"p_ref", "q_ref"}, line_no), line_no)
        col.wtg_rows.append((rest[0], kv.get("p_ref", 0.0), kv.get("q_ref", 0.0)))
    elif keyword in ("converter", "frt"):
        need(1, f"{keyword} <wtg_id>|default key=value ...")
        allowed = _CONVERTER_KEYS if keyword == "converter" else _FRT_KEYS
        kwargs = _controller_kwargs(_kv_pairs(rest[1:], allowed, line_no), line_no)
        target = rest[0]
        if target == "default":
            store = col.conv_default if keyword == "converter" else col.frt_default
            if store:
                raise ScenarioParseError(line_no, f"duplicate '{keyword} default' record")
            store.update(kwargs)
        else:
            over = col.conv_over if keyword == "converter" else col.frt_over
            over.setdefault(target, {}).update(kwargs)
    elif keyword == "connect":
        need(2, "connect <source> <sink> [gain=] [offset=]")
        kv = _floats(_kv_pairs(rest[2:], {"gain", "offset"}, line_no), line_no)
        col.connections.append(ConnectionSpec(
            source=rest[0], sink=rest[1],
            gain=kv.get("gain", 1.0), offset=kv.get("offset", 0.0)))
    else:                                   # fault
        kv = _kv_pairs(rest, {"bus", "start", "duration", "admittance"}, line_no)
        for required in ("bus", "start", "duration"):
            if required not in kv:
                raise ScenarioParseError(line_no, f"fault needs {required}=")
        col.events.append(FaultEvent(
            bus=_parse_int(kv["bus"], line_no),
            start=_parse_float(kv["start"], line_no),
            duration=_parse_float(kv["duration"], line_no),
            admittance=_parse_float(kv.get("admittance", "1e6"), line_no)))


def parse_scenario_text(text: str) -> Scenario:
    col = _Collector()
    section: str | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioParseError(line_no, f"malformed section header '{line}'")
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ScenarioParseError(line_no, f"unknown section '[{name}]'")
            if name in col.seen:
                raise ScenarioParseError(line_no, f"duplicate section '[{name}]'")
            col.seen.add(name)
            section = name
            continue
        if section is None:
            raise ScenarioParseError(line_no, "content before any section header")
        tokens = line.split()
        if tokens[0] in _RECORDS[section]:
            _handle_record(col, section, tokens, line_no)
        elif "=" in line:
            key, _, value = line.partition("=")
            _handle_assignment(col, section, key.strip(), value.strip(), line_no)
        else:
            raise ScenarioParseError(
                line_no, f"unrecognized directive '{tokens[0]}' in [{section}]")

    for required in ("master", "network", "wtg"):
        if required not in col.seen:
            raise ScenarioParseError(0, f"missing required section [{required}]")
    for key in ("name", "mode"):
        if key not in col.master:
            raise ScenarioParseError(0, f"[master] is missing '{key}'")
    if "rating_mva" not in col.wtg_meta or "pcc_bus" not in col.wtg_meta:
        raise ScenarioParseError(0, "[wtg] needs rating_mva and pcc_bus")
    if not col.wtg_rows:
        raise ScenarioParseError(0, "[wtg] declares no turbines")

    try:
        conv_default = ConverterParams(**col.conv_default)
        frt_default = FrtParams(**col.frt_default)
        wtgs = []
        for wid, p_ref, q_ref in col.wtg_rows:
            conv = (ConverterParams(**{**col.conv_default, **col.conv_over[wid]})
                    if wid in col.conv_over else conv_default)
            frt = (FrtParams(**{**col.frt_default, **col.frt_over[wid]})
                   if wid in col.frt_over else frt_default)
            wtgs.append(WtgSpec(id=wid, p_ref=p_ref, q_ref=q_ref, converter=conv, frt=frt))
    except ValueError as exc:
        raise ScenarioParseError(0, str(exc)) from exc
    try:
        master = MasterConfig(
            macro_step=col.master.get("macro_step", 1e-3),
            t_end=col.master.get("t_end", 2.0),
            scheme=col.master.get("scheme", "serial"),
            record=col.master.get("record", []))
    except ValueError as exc:
        raise ScenarioValidationError(str(exc)) from exc

    for wid in list(col.conv_over) + list(col.frt_over):
        if wid not in {w.id for w in wtgs}:
            raise ScenarioParseError(0, f"controller override for unknown wtg '{wid}'")

    scenario = Scenario(
        name=str(col.master["name"]),
        mode=str(col.master["mode"]),
        network=col.network,
        wtgs=wtgs,
        wpp_rating_mva=float(col.wtg_meta["rating_mva"]),
        pcc_bus=int(col.wtg_meta["pcc_bus"]),
        master=master,
        micro_step=float(col.master.get("micro_step", 5e-4)),
        pcc_branch=col.wtg_meta.get("pcc_branch"),
        events=col.events,
        connections=col.connections,
        export_bus_v=col.wtg_meta.get("export_bus_v", ()))
    try:
        scenario.validate()
    except TopologyError as exc:
        raise ScenarioValidationError(f"network: {exc}") from exc
    return scenario


def parse_scenario(path: str | os.PathLike) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario_text(fh.read())


def _controller_line(keyword: str, target: str, params) -> str:
    parts = [keyword, target]
    for f in fields(params):
        parts.append(f"{f.name}={_fmt(getattr(params, f.name))}")
    return " ".join(parts)


def serialize_scenario(scenario: Scenario) -> str:
    net = scenario.network
    out: list[str] = []

    out.append("[network]")
    out.append(f"name = {net.name}")
    out.append(f"base_mva = {_fmt(net.base_mva)}")
    out.append(f"frequency_hz = {_fmt(net.frequency_hz)}")
    for b in net.buses:
        line = f"bus {b.id} {_fmt(b.base_kv)} {b.btype}"
        for key in ("v_set", "p_gen", "p_load", "q_load"):
            value = getattr(b, key)
            if value != getattr(Bus, key):
                line += f" {key}={_fmt(value)}"
        out.append(line)
    for br in net.branches:
        line = f"branch {br.from_bus} {br.to_bus} r={_fmt(br.r)} x={_fmt(br.x)}"
        if br.b != 0.0:
            line += f" b={_fmt(br.b)}"
        if br.tap != 1.0:
            line += f" tap={_fmt(br.tap)}"
        out.append(line)
    for m in net.machines:
        out.append(f"machine {m.bus} h={_fmt(m.h)} xd_p={_fmt(m.xd_p)} d={_fmt(m.d)}")
    for sg in net.sgens:
        out.append(f"sgen {sg.id} {sg.bus} mva={_fmt(sg.mva)}")

    out.append("")
    out.append("[wtg]")
    out.append(f"rating_mva = {_fmt(scenario.wpp_rating_mva)}")
    out.append(f"pcc_bus = {scenario.pcc_bus}")
    if scenario.pcc_branch is not None:
        out.append(f"pcc_branch = {scenario.pcc_branch[0]} {scenario.pcc_branch[1]}")
    if scenario.export_bus_v:
        out.append("export_bus_v = " + " ".join(str(i) for i in scenario.export_bus_v))
    for w in scenario.wtgs:
        out.append(f"wtg {w.id} p_ref={_fmt(w.p_ref)} q_ref={_fmt(w.q_ref)}")

    out.append("")
    out.append("[controller]")
    conv_default = scenario.wtgs[0].converter
    frt_default = scenario.wtgs[0].frt
    out.append(_controller_line("converter", "default", conv_default))
    out.append(_controller_line("frt", "default", frt_default))
    for w in scenario.wtgs:
        if w.converter != conv_default:
            out.append(_controller_line("converter", w.id, w.converter))
        if w.frt != frt_default:
            out.append(_controller_line("frt", w.id, w.frt))

    out.append("")
    out.append("[connections]")
    for c in scenario.connections:
        line = f"connect {c.source} {c.sink}"
        if c.gain != 1.0:
            line += f" gain={_fmt(c.gain)}"
        if c.offset != 0.0:
            line += f" offset={_fmt(c.offset)}"
        out.append(line)

    out.append("")
    out.append("[events]")
    for ev in scenario.events:
        out.append(f"fault bus={ev.bus} start={_fmt(ev.start)} "
                   f"duration={_fmt(ev.duration)} admittance={_fmt(ev.admittance)}")

    out.append("")
    out.append("[master]")
    out.append(f"name = {scenario.name}")
    out.append(f"mode = {scenario.mode}")
    out.append(f"scheme = {scenario.master.scheme.value}")
    out.append(f"macro_step = {_fmt(scenario.master.macro_step)}")
    out.append(f"micro_step = {_fmt(scenario.micro_step)}")
    out.append(f"t_end = {_fmt(scenario.master.t_end)}")
    if scenario.master.record:
        out.append("record = " + " ".join(scenario.master.record))
    return "\n".join(out) + "\n"


def write_scenario(scenario: Scenario, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_scenario(scenario))
