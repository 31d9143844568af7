"""Text form of a scenario: flat sections of assignments and records.

The format is line oriented.  ``#`` starts a comment, blank lines are
ignored.  A ``[section]`` header opens one of exactly six sections:
``network``, ``wtg``, ``controller``, ``connections``, ``events``,
``master`` (any order, no duplicates, unknown sections are errors).
Inside a section a line is either a scalar assignment ``key = value``
or a keyword record such as ``bus 5 230.0 pq p_load=1.25 q_load=0.5``;
unknown keys and keywords are rejected with the offending line number.

One grammar table (``_SCALARS`` and ``_RECORDS``) drives both the parser
and the serializer; a value's domain is the one its field declares.
``parse_scenario(serialize_scenario(s))`` equals ``s``: floats are written
with ``repr``.  The exact grammar lives in ``docs/scenario_format.md``.
"""

from __future__ import annotations

import enum
import os
import typing
from dataclasses import MISSING, fields
from operator import attrgetter

from .converter import ConverterParams
from .cosim import MasterConfig
from .errors import ScenarioParseError, ScenarioValidationError, TopologyError
from .frt import FrtParams
from .network import Branch, Bus, FaultEvent, NetworkData, StaticGenerator, SynchronousMachine
from .scenario import ConnectionSpec, Scenario, WtgSpec


def _number(convert, what: str):
    def parse(text: str):
        try:
            return convert(text)
        except ValueError:
            raise ValueError(f"expected {what}, got '{text}'") from None
    return parse


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got '{text}'")


_int, _float = _number(int, "an integer"), _number(float, "a number")
_PARSERS = {int: _int, float: _float, str: str, bool: _parse_bool}


def _bus_pair(text: str) -> tuple[int, int]:
    parts = text.split()
    if len(parts) != 2:
        raise ValueError("pcc_branch takes two bus ids")
    return _int(parts[0]), _int(parts[1])


# sections, and their scalar keys, in file order: key -> (parser, attribute
# path on Scenario).  ``scheme`` stays a string: MasterConfig converts it, so
# a bad one is a ScenarioValidationError like every other master setting.
_SCALARS = {
    "network": {"name": (str, "network.name"),
                "base_mva": (_float, "network.base_mva"),
                "frequency_hz": (_float, "network.frequency_hz")},
    "wtg": {"rating_mva": (_float, "wpp_rating_mva"),
            "pcc_bus": (_int, "pcc_bus"),
            "pcc_branch": (_bus_pair, "pcc_branch"),
            "export_bus_v": (lambda text: tuple(_int(p) for p in text.split()), "export_bus_v")},
    "controller": {},
    "connections": {},
    "events": {},
    "master": {"name": (str, "name"),
               "mode": (str, "mode"),
               "scheme": (str, "master.scheme"),
               "macro_step": (_float, "master.macro_step"),
               "micro_step": (_float, "micro_step"),
               "t_end": (_float, "master.t_end"),
               "record": (str.split, "master.record")},
}


class _Record:
    """One record keyword: ``keyword <positional>... key=value ...``.

    Each value is parsed by the type its ``cls`` field declares; positional
    fields that are not fields of ``cls`` are strings.  ``path`` locates the
    record's list on ``Scenario`` (controller records have none: they
    attach to the turbines).  ``sparse`` writes a key only when it differs
    from the field default; ``defaults`` fills keys that ``cls`` requires
    but the file may omit.
    """

    def __init__(self, section: str, cls: type, positional: tuple[str, ...],
                 keys: tuple[str, ...], path: str | None = None, sparse: bool = False,
                 defaults: dict | None = None):
        self.section, self.cls, self.positional, self.keys = section, cls, positional, keys
        self.path, self.sparse, self.defaults = path, sparse, defaults or {}
        self.owner, _, self.attr = (path or "").rpartition(".")
        hints = typing.get_type_hints(cls)
        parse = {}
        for name in positional + keys:
            tp = hints.get(name, str)
            parse[name] = _PARSERS.get(tp, tp)            # an enum parses its value
        self.head = [(name, parse[name]) for name in positional]
        self.key_parse = {key: parse[key] for key in keys}
        self.field_defaults = {f.name: f.default for f in fields(cls)
                               if f.default is not MISSING}
        self.required = [k for k in keys
                         if k not in self.field_defaults and k not in self.defaults]
        self.usage = " ".join([*(f"<{p}>" for p in positional),
                               *(f"{k}=" if k in self.required else f"[{k}=]" for k in keys)])


def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


# record keyword -> grammar, in file order within each section
_RECORDS = {
    "bus": _Record("network", Bus, ("id", "base_kv", "btype"),
                   ("v_set", "p_gen", "p_load", "q_load"), "network.buses", sparse=True),
    "branch": _Record("network", Branch, ("from_bus", "to_bus"), ("r", "x", "b", "tap"),
                      "network.branches", sparse=True),
    "machine": _Record("network", SynchronousMachine, ("bus",), ("h", "xd_p", "d"),
                       "network.machines", defaults={"d": 0.0}),
    "sgen": _Record("network", StaticGenerator, ("id", "bus"), ("mva",), "network.sgens"),
    "wtg": _Record("wtg", WtgSpec, ("id",), ("p_ref", "q_ref"), "wtgs",
                   defaults={"p_ref": 0.0, "q_ref": 0.0}),
    "converter": _Record("controller", ConverterParams, ("target",),
                         _field_names(ConverterParams)),
    "frt": _Record("controller", FrtParams, ("target",), _field_names(FrtParams)),
    "connect": _Record("connections", ConnectionSpec, ("source", "sink"), (), "connections"),
    "fault": _Record("events", FaultEvent, (), ("bus", "start", "duration", "admittance"),
                     "events"),
}
_CONTROLLERS = ("converter", "frt")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, enum.Enum):
        return str(value.value)
    if isinstance(value, tuple):
        return " ".join(_fmt(v) for v in value)
    return str(value)


def _record_kwargs(keyword: str, rec: _Record, tokens: list[str], line_no: int) -> dict:
    """Typed field values of one record line, parse defaults filled in."""
    if len(tokens) < len(rec.positional):
        raise ScenarioParseError(line_no, f"usage: {keyword} {rec.usage}")
    try:
        kw = {name: parse(tok) for (name, parse), tok in zip(rec.head, tokens)}
        for tok in tokens[len(rec.positional):]:
            key, sep, value = tok.partition("=")
            if not sep or not key or not value:
                raise ScenarioParseError(line_no, f"expected key=value, got '{tok}'")
            parse = rec.key_parse.get(key)
            if parse is None:
                raise ScenarioParseError(line_no, f"unknown key '{key}'")
            if key in kw:
                raise ScenarioParseError(line_no, f"duplicate key '{key}'")
            kw[key] = parse(value)
    except ValueError as exc:
        raise ScenarioParseError(line_no, str(exc)) from None
    for key in rec.required:
        if key not in kw:
            raise ScenarioParseError(line_no, f"{keyword} needs {key}=")
    return {**rec.defaults, **kw} if rec.defaults else kw


def parse_scenario_text(text: str) -> Scenario:
    # parsed values by the object that holds them: "" the Scenario itself
    attrs: dict[str, dict[str, object]] = {"": {}, "network": {}, "master": {}}
    for rec in _RECORDS.values():
        if rec.path is not None:
            attrs[rec.owner][rec.attr] = []
    # controller keyword -> ['default' kwargs or None, per-wtg override kwargs]
    controllers = {kw: [None, {}] for kw in _CONTROLLERS}
    seen: set[str] = set()
    section: str | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioParseError(line_no, f"malformed section header '{line}'")
            name = line[1:-1].strip()
            if name not in _SCALARS:
                raise ScenarioParseError(line_no, f"unknown section '[{name}]'")
            if name in seen:
                raise ScenarioParseError(line_no, f"duplicate section '[{name}]'")
            seen.add(name)
            section = name
            continue
        if section is None:
            raise ScenarioParseError(line_no, "content before any section header")
        tokens = line.split()
        keyword = tokens[0]
        rec = _RECORDS.get(keyword)
        if rec is not None and rec.section == section:
            kwargs = _record_kwargs(keyword, rec, tokens[1:], line_no)
            if rec.path is not None:        # wtg rows get their controllers at the end
                attrs[rec.owner][rec.attr].append(
                    kwargs if rec.cls is WtgSpec else rec.cls(**kwargs))
                continue
            target, store = kwargs.pop("target"), controllers[keyword]
            if target != "default":
                store[1].setdefault(target, {}).update(kwargs)
            elif store[0] is not None:
                raise ScenarioParseError(line_no, f"duplicate '{keyword} default' record")
            else:
                store[0] = kwargs
        elif "=" in line:
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _SCALARS[section]:
                raise ScenarioParseError(line_no, f"unknown key '{key}' in [{section}]")
            parse, path = _SCALARS[section][key]
            owner, _, attr = path.rpartition(".")
            try:
                attrs[owner][attr] = parse(value.strip())
            except ValueError as exc:
                raise ScenarioParseError(line_no, str(exc)) from None
        else:
            raise ScenarioParseError(line_no, f"unrecognized directive '{keyword}' in [{section}]")

    for required in ("master", "network", "wtg"):
        if required not in seen:
            raise ScenarioParseError(0, f"missing required section [{required}]")
    top = attrs[""]
    for key in ("name", "mode"):
        if key not in top:
            raise ScenarioParseError(0, f"[master] is missing '{key}'")
    if "wpp_rating_mva" not in top or "pcc_bus" not in top:
        raise ScenarioParseError(0, "[wtg] needs rating_mva and pcc_bus")

    wtg_ids = {row["id"] for row in top["wtgs"]}
    params = {}                             # controller keyword -> wtg id -> params
    try:
        for keyword, (default, over) in controllers.items():
            for wid in over:
                if wid not in wtg_ids:
                    raise ScenarioParseError(0, f"controller override for unknown wtg '{wid}'")
            cls, default = _RECORDS[keyword].cls, default or {}
            shared = cls(**default)
            params[keyword] = {wid: cls(**{**default, **over[wid]}) if wid in over else shared
                               for wid in wtg_ids}
        master = MasterConfig(**attrs["master"])
    except ValueError as exc:               # a controller or master setting out of its domain
        raise ScenarioValidationError(str(exc)) from exc
    top["wtgs"] = [WtgSpec(**row, **{kw: params[kw][row["id"]] for kw in _CONTROLLERS})
                   for row in top["wtgs"]]
    try:
        network = NetworkData(**attrs["network"])
    except TopologyError as exc:
        raise ScenarioValidationError(f"network: {exc}") from exc
    return Scenario(**top, network=network, master=master)


def parse_scenario(path: str | os.PathLike) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario_text(fh.read())


def _record_line(keyword: str, obj, *head) -> str:
    """One record line; ``head`` stands for positional fields ``obj`` does not hold."""
    rec = _RECORDS[keyword]
    parts = [keyword, *map(_fmt, head or [getattr(obj, p) for p in rec.positional])]
    for key in rec.keys:
        value = getattr(obj, key)
        if not rec.sparse or rec.field_defaults.get(key, MISSING) != value:
            parts.append(f"{key}={_fmt(value)}")
    return " ".join(parts)


def serialize_scenario(scenario: Scenario) -> str:
    out: list[str] = []
    for section, scalars in _SCALARS.items():
        out += [""] if out else []
        out.append(f"[{section}]")
        for key, (_, path) in scalars.items():
            value = attrgetter(path)(scenario)
            if value not in (None, ()):
                out.append(f"{key} = {_fmt(value)}")
        if section == "controller":         # defaults from the first turbine, then overrides
            shared = {kw: getattr(scenario.wtgs[0], kw) for kw in _CONTROLLERS}
            out += [_record_line(kw, shared[kw], "default") for kw in _CONTROLLERS]
            out += [_record_line(kw, getattr(w, kw), w.id) for w in scenario.wtgs
                    for kw in _CONTROLLERS if getattr(w, kw) != shared[kw]]
        for keyword, rec in _RECORDS.items():
            if rec.section == section and rec.path is not None:
                out += [_record_line(keyword, obj) for obj in attrgetter(rec.path)(scenario)]
    return "\n".join(out) + "\n"


def write_scenario(scenario: Scenario, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_scenario(scenario))
