"""Declarative run configuration: INI file with nested sections + overrides.

Every report embeds the fully resolved configuration, and identical
(config, seed) pairs produce byte-identical outputs.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields, replace
from math import inf

from .domains import BALL, INTERVAL, SIMPLEX, DomainSpec
from .errors import ParameterError

SCHEMA_VERSION = 6


def _parse_floats(text):
    return tuple(float(v) for v in str(text).replace(",", " ").split())


def _parse_deltas(text):
    """[grids] deltas: finite positive scales, which the localization and
    finite-speed suites divide by."""
    deltas = _parse_floats(text)
    for d in deltas:
        if not 0 < d < inf:
            raise ParameterError(f"[grids] deltas = {d:g} is not a finite positive number")
    return deltas


def _at_least(section, key, least):
    """The parser of an integer key that refuses a value below ``least``."""
    def parse(text):
        value = int(text)
        if value < least:
            raise ParameterError(f"[{section}] {key} = {value} is below {least}")
        return value
    return parse


def _output(text):
    if not text.strip():
        raise ParameterError("[run] output is empty, so validate would write no report")
    return text.strip()


# (section, key, RunConfig field, parser) of every key outside [domain], in
# the order of the INI file, the JSON object and the reading of the keys
SETTINGS = (
    ("basis", "max_degree", "max_degree", _at_least("basis", "max_degree", 0)),
    ("kernel", "t_min", "t_min", float),
    ("grids", "points", "points", int),
    ("grids", "times", "times", _parse_floats),
    ("grids", "radii", "radii", _parse_floats),
    ("grids", "epsilons", "epsilons", _parse_floats),
    ("grids", "deltas", "deltas", _parse_deltas),
    ("mc", "samples", "mc_samples", _at_least("mc", "samples", 1)),
    ("run", "seed", "seed", int),
    ("run", "output", "output", _output),
)


@dataclass(frozen=True)
class RunConfig:
    spec: DomainSpec
    max_degree: int = 20
    t_min: float | None = None
    points: int = 10
    times: tuple = (0.05, 0.2, 1.0)
    radii: tuple = (0.1, 0.3, 0.7)
    epsilons: tuple = (0.2, 0.1, 0.05, 0.02, 0.01)
    deltas: tuple = (0.05, 0.1)
    mc_samples: int = 1_000_000
    seed: int = 12345
    output: str = "reports"

    def to_json_obj(self):
        obj = {"schema_version": SCHEMA_VERSION, "domain": self.spec.to_json_obj()}
        for section, key, field, _ in SETTINGS:
            value = getattr(self, field)
            if isinstance(value, tuple):
                value = list(value)
            obj.setdefault(section, {})[key] = value
        return obj

    def to_ini(self):
        spec = self.spec
        lines = ["[domain]", f"kind = {spec.kind}", f"n = {spec.n}"]
        if spec.kind == INTERVAL:
            lines += [f"alpha = {spec.alpha}", f"beta = {spec.beta}"]
        elif spec.kind == BALL:
            lines += [f"gamma = {spec.gamma}"]
        else:
            lines += ["kappa = " + ", ".join(str(k) for k in spec.kappa)]
        last = "domain"
        for section, key, field, _ in SETTINGS:
            value = getattr(self, field)
            if value is None:  # an unset t_min leaves out [kernel]
                continue
            if section != last:
                lines += ["", f"[{section}]"]
                last = section
            text = ", ".join(map(str, value)) if isinstance(value, (tuple, list)) else value
            lines.append(f"{key} = {text}")
        return "\n".join(lines) + "\n"


def default_config():
    return RunConfig(spec=DomainSpec.interval(-0.5, -0.5))


# Every key the INI file may set, by section.
KNOWN_KEYS = {"domain": ("kind", "n", "alpha", "beta", "gamma", "kappa"),
              **{s: tuple(k for t, k, _, _ in SETTINGS if t == s) for s, _, _, _ in SETTINGS}}
_KINDS = {float: "a number", _parse_floats: "a list of numbers",
          _parse_deltas: "a list of numbers"}


def _read(parser, section, key, conv, default):
    """``conv`` of the key's text, or ``default`` when the key is absent."""
    raw = parser.get(section, key, fallback=None)
    if raw is None:
        return default
    try:
        return conv(raw)
    except ParameterError:
        raise
    except ValueError:
        raise ParameterError(f"[{section}] {key} = {raw!r} is not "
                             f"{_KINDS.get(conv, 'an integer')}") from None


def _spec(parser):
    kind = parser.get("domain", "kind", fallback=INTERVAL).strip().lower()
    if kind not in (INTERVAL, BALL, SIMPLEX):
        raise ParameterError(f"[domain] kind = {kind!r} is not one of interval|ball|simplex")
    if kind == INTERVAL:
        return DomainSpec.interval(_read(parser, "domain", "alpha", float, -0.5),
                                   _read(parser, "domain", "beta", float, -0.5))
    n = _read(parser, "domain", "n", int, 2)
    if kind == BALL:
        return DomainSpec.ball(n, _read(parser, "domain", "gamma", float, 0.5))
    return DomainSpec.simplex(n, _read(parser, "domain", "kappa", _parse_floats, [0.5] * (n + 1)))


def _check_keys(parser):
    if parser.defaults():
        raise ParameterError("unknown config section [DEFAULT]")
    for name in parser.sections():
        if name not in KNOWN_KEYS:
            raise ParameterError(f"unknown config section [{name}]")
        for key in parser.options(name):
            if key not in KNOWN_KEYS[name]:
                raise ParameterError(f"unknown config key [{name}] {key}")


def load_config(path=None, **overrides):
    """Load the INI file (optional) and apply keyword overrides.  A key the
    file leaves out or lists empty, and an override of None, keep the value
    before them."""
    cfg = default_config()
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            found = parser.read(path)
        except configparser.Error as e:
            raise ParameterError(f"config file {path!r}: {' '.join(str(e).split())}") from None
        if not found:
            raise ParameterError(f"config file {path!r} not found or unreadable")
        _check_keys(parser)
        spec = _spec(parser)
        read = {field: _read(parser, section, key, parse, ())
                for section, key, field, parse in SETTINGS}
        cfg = replace(cfg, spec=spec, **{k: v for k, v in read.items() if v != ()})
    bad = set(overrides) - {f.name for f in fields(RunConfig)}
    if bad:
        raise ParameterError(f"unknown config overrides: {sorted(bad)}")
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
