"""Declarative run configuration: INI file with nested sections + overrides.

Every report embeds the fully resolved configuration, and identical
(config, seed) pairs produce byte-identical outputs.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace

from .domains import BALL, INTERVAL, SIMPLEX, DomainSpec
from .errors import ParameterError
from .volumes import RADIAL_STRATA

SCHEMA_VERSION = 6


def _parse_floats(text):
    return [float(v) for v in str(text).replace(",", " ").split()]


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
        return {
            "schema_version": SCHEMA_VERSION,
            "domain": self.spec.to_json_obj(),
            "basis": {"max_degree": self.max_degree},
            "kernel": {"t_min": self.t_min},
            "grids": {
                "points": self.points,
                "times": list(self.times),
                "radii": list(self.radii),
                "epsilons": list(self.epsilons),
                "deltas": list(self.deltas),
            },
            "mc": {"samples": self.mc_samples},
            "run": {"seed": self.seed, "output": self.output},
        }

    def to_ini(self):
        spec = self.spec
        lines = ["[domain]", f"kind = {spec.kind}", f"n = {spec.n}"]
        if spec.kind == INTERVAL:
            lines += [f"alpha = {spec.alpha}", f"beta = {spec.beta}"]
        elif spec.kind == BALL:
            lines += [f"gamma = {spec.gamma}"]
        else:
            lines += ["kappa = " + ", ".join(str(k) for k in spec.kappa)]
        lines += [
            "",
            "[basis]",
            f"max_degree = {self.max_degree}",
        ]
        if self.t_min is not None:
            lines += ["", "[kernel]", f"t_min = {self.t_min}"]
        lines += [
            "",
            "[grids]",
            f"points = {self.points}",
            "times = " + ", ".join(str(t) for t in self.times),
            "radii = " + ", ".join(str(r) for r in self.radii),
            "epsilons = " + ", ".join(str(e) for e in self.epsilons),
            "deltas = " + ", ".join(str(d) for d in self.deltas),
            "",
            "[mc]",
            f"samples = {self.mc_samples}",
            "",
            "[run]",
            f"seed = {self.seed}",
            f"output = {self.output}",
        ]
        return "\n".join(lines) + "\n"


def default_config():
    return RunConfig(spec=DomainSpec.interval(-0.5, -0.5))


# Every key the INI file may set, by section.
KNOWN_KEYS = {
    "domain": ("kind", "n", "alpha", "beta", "gamma", "kappa"),
    "basis": ("max_degree",),
    "kernel": ("t_min",),
    "grids": ("points", "times", "radii", "epsilons", "deltas"),
    "mc": ("samples",),
    "run": ("seed", "output"),
}
_KINDS = {int: "an integer", float: "a number", _parse_floats: "a list of numbers"}


def _read(sec, key, conv, default):
    """``conv(sec[key])``, or ``default`` when the key is absent."""
    raw = sec.get(key)
    if raw is None:
        return default
    try:
        return conv(raw)
    except ValueError:
        raise ParameterError(f"[{sec.name}] {key} = {raw!r} is not {_KINDS[conv]}") from None


def _spec_from_section(sec):
    kind = sec.get("kind", INTERVAL).strip().lower()
    if kind not in (INTERVAL, BALL, SIMPLEX):
        raise ParameterError(f"[domain] kind = {kind!r} is not one of interval|ball|simplex")
    if kind == INTERVAL:
        return DomainSpec.interval(_read(sec, "alpha", float, -0.5), _read(sec, "beta", float, -0.5))
    n = _read(sec, "n", int, 2)
    if kind == BALL:
        return DomainSpec.ball(n, _read(sec, "gamma", float, 0.5))
    return DomainSpec.simplex(n, _read(sec, "kappa", _parse_floats, [0.5] * (n + 1)))


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
    """Load the INI file (optional) and apply keyword overrides."""
    cfg = default_config()
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            read = parser.read(path)
        except configparser.Error as e:
            raise ParameterError(f"config file {path!r}: {' '.join(str(e).split())}") from None
        if not read:
            raise ParameterError(f"config file {path!r} not found or unreadable")
        _check_keys(parser)
        if parser.has_section("domain"):
            cfg = replace(cfg, spec=_spec_from_section(parser["domain"]))
        if parser.has_section("basis"):
            cfg = replace(cfg, max_degree=_read(parser["basis"], "max_degree", int,
                                                cfg.max_degree))
        if parser.has_section("kernel"):
            cfg = replace(cfg, t_min=_read(parser["kernel"], "t_min", float, cfg.t_min))
        if parser.has_section("grids"):
            sec = parser["grids"]
            cfg = replace(
                cfg,
                points=_read(sec, "points", int, cfg.points),
                times=tuple(_read(sec, "times", _parse_floats, ())) or cfg.times,
                radii=tuple(_read(sec, "radii", _parse_floats, ())) or cfg.radii,
                epsilons=tuple(_read(sec, "epsilons", _parse_floats, ())) or cfg.epsilons,
                deltas=tuple(_read(sec, "deltas", _parse_floats, ())) or cfg.deltas,
            )
        if parser.has_section("mc"):
            cfg = replace(cfg, mc_samples=_read(parser["mc"], "samples", int, cfg.mc_samples))
            if cfg.mc_samples < RADIAL_STRATA:
                raise ParameterError(f"[mc] samples = {cfg.mc_samples} is below "
                                     f"{RADIAL_STRATA}, the number of radial strata")
        if parser.has_section("run"):
            sec = parser["run"]
            cfg = replace(
                cfg,
                seed=_read(sec, "seed", int, cfg.seed),
                output=sec.get("output", cfg.output).strip(),
            )
    known = {f.name for f in cfg.__dataclass_fields__.values()}
    bad = set(overrides) - known
    if bad:
        raise ParameterError(f"unknown config overrides: {sorted(bad)}")
    supplied = {k: v for k, v in overrides.items() if v is not None}
    return replace(cfg, **supplied)
