"""Scenario configuration: INI text in, validated ScenarioConfig (or, for
a grid file, a list of them) out.

All constraint violations in a document are collected and reported
together with their section.key path, so a bad file needs only one fix
round.
"""

from __future__ import annotations

import configparser
import itertools
import math
from dataclasses import dataclass, fields, replace
from typing import Optional

from regsim.protocols import ALGORITHMS, EXTRA_ALGORITHMS
from regsim.quorum import QuorumSystem, build_majority, build_matrix, surviving_quorum_exists

SWMR_ALGORITHMS = frozenset(
    name for name, alg in ALGORITHMS.items() if not alg.mw
)

CrashList = tuple[tuple[int, float], ...]


class ConfigError(ValueError):
    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass(frozen=True)
class ScenarioConfig:
    algorithm: str = "erato"
    topology: str = "star"
    n_servers: int = 9
    quorums: str = "majority"
    n_readers: int = 10
    n_writers: int = 1
    scheme: str = "fixed"
    read_interval: float = 2.0
    write_interval: float = 2.0
    ops_per_client: int = 25
    reads_per_client: Optional[int] = None  # overrides ops_per_client for readers
    writes_per_client: Optional[int] = None  # likewise for writers
    seed: int = 0
    jitter_max: float = 0.001
    cap_seconds: float = 300.0
    value_size: int = 64  # octets of write payload
    crash_servers: CrashList = ()
    crash_readers: CrashList = ()
    crash_writers: CrashList = ()

    def describe(self) -> dict[str, str]:
        """Flat config echo for trace headers, stable key order."""
        out: dict[str, str] = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None or v == ():
                continue
            if f.name.startswith("crash_"):
                v = ",".join("%d@%r" % (i, t) for i, t in v)
            out[f.name] = str(v)
        return out


_SCHEMA: dict[str, dict[str, str]] = {
    "scenario": {
        "algorithm": "str", "topology": "str", "n_servers": "int", "quorums": "str",
        "n_readers": "int", "n_writers": "int", "seed": "int",
    },
    "workload": {
        "scheme": "str", "read_interval": "float", "write_interval": "float",
        "ops_per_client": "int", "reads_per_client": "int", "writes_per_client": "int",
    },
    "network": {
        "jitter_max": "float", "cap_seconds": "float", "value_size": "int",
    },
    "crashes": {
        "servers": "crashes", "readers": "crashes", "writers": "crashes",
    },
}

_KEY_TYPE = {key: typ for keys in _SCHEMA.values() for key, typ in keys.items()}

_KEY_TO_FIELD = {
    ("crashes", "servers"): "crash_servers",
    ("crashes", "readers"): "crash_readers",
    ("crashes", "writers"): "crash_writers",
}


def _parse_crash_list(text: str) -> CrashList:
    """Comma list of index@time, e.g. '0@0.5, 2@1'."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        idx, _, at = part.partition("@")
        out.append((int(idx), float(at)))
    return tuple(out)


# One converter per schema type; each raises ValueError on a bad value.
_CONVERT = {"int": int, "float": float, "crashes": _parse_crash_list, "str": str.strip}


def _read_ini(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(["not parseable: %s" % exc]) from exc
    return parser


def parse_fields(text: str, ignore_sections: tuple[str, ...] = ()) -> dict:
    """Parse INI text into a ScenarioConfig field dict, without validating
    inter-field constraints."""
    parser = _read_ini(text)
    errors: list[str] = []
    values: dict = {}
    for section in parser.sections():
        if section in ignore_sections:
            continue
        known = _SCHEMA.get(section)
        if known is None:
            errors.append("%s: unknown section" % section)
            continue
        for key, raw in parser.items(section):
            path = "%s.%s" % (section, key)
            typ = known.get(key)
            if typ is None:
                errors.append("%s: unknown key" % path)
                continue
            field_name = _KEY_TO_FIELD.get((section, key), key)
            try:
                values[field_name] = _CONVERT[typ](raw)
            except ValueError:
                errors.append("%s: expected %s, got %r" % (path, typ, raw))
    if errors:
        raise ConfigError(errors)
    return values


def parse_config(text: str) -> ScenarioConfig:
    return validate(ScenarioConfig(**parse_fields(text)))


def parse_grid(text: str) -> list[ScenarioConfig]:
    """A grid file is a scenario file plus a [grid] section whose keys hold
    comma-separated alternatives; `seeds = N` (N >= 1) expands to seeds 0..N-1.
    Returns the cross product in file order, seeds innermost.  Constraint
    validation happens per expanded cell, since the base alone may be
    incomplete (e.g. the algorithm axis lives in [grid])."""
    parser = _read_ini(text)
    if not parser.has_section("grid"):
        raise ConfigError(["grid: missing section"])
    base = ScenarioConfig(**parse_fields(text, ignore_sections=("grid",)))

    seeds = list(range(10))
    axes: list[tuple[str, list]] = []
    errors: list[str] = []
    for key, raw in parser.items("grid"):
        typ = "int" if key == "seeds" else _KEY_TYPE.get(key)
        if typ is None:
            errors.append("grid.%s: unknown key" % key)
            continue
        if typ == "crashes":
            # The comma separating grid alternatives also separates the
            # crashes of one schedule, so a schedule cannot be an axis.
            errors.append("grid.%s: crash schedules go in [crashes], not [grid]" % key)
            continue
        try:
            if key == "seeds":
                seeds = list(range(int(raw)))
                if not seeds:
                    errors.append("grid.seeds: expected a positive count, got %r" % raw)
            else:
                axes.append((key, [_CONVERT[typ](part.strip()) for part in raw.split(",")]))
        except ValueError:
            errors.append("grid.%s: expected %s, got %r" % (key, typ, raw))
    if errors:
        raise ConfigError(errors)

    configs = []
    for combo in itertools.product(*(vals for _, vals in axes)):
        assigned = dict(zip((k for k, _ in axes), combo))
        for s in seeds:
            try:
                configs.append(validate(replace(base, seed=s, **assigned)))
            except ConfigError as exc:
                cell = ", ".join("%s=%s" % kv for kv in assigned.items())
                errors.append("cell (%s): %s" % (cell, exc))
                break  # every seed of this cell fails identically
    if errors:
        raise ConfigError(errors)
    return configs


def validate(config: ScenarioConfig) -> ScenarioConfig:
    """Return the config unchanged, or raise ConfigError listing everything wrong."""
    errors: list[str] = []
    known = set(ALGORITHMS) | set(EXTRA_ALGORITHMS)
    if config.algorithm not in known:
        errors.append("scenario.algorithm: unknown %r (choose from %s)"
                      % (config.algorithm, ", ".join(sorted(ALGORITHMS))))
    if config.topology not in ("series", "star"):
        errors.append("scenario.topology: must be series or star")
    if config.quorums not in ("majority", "matrix"):
        errors.append("scenario.quorums: must be majority or matrix")
    if config.n_servers < 1:
        errors.append("scenario.n_servers: need at least one server")
    elif config.quorums == "matrix" and math.isqrt(config.n_servers) ** 2 != config.n_servers:
        errors.append("scenario.n_servers: square required for matrix quorums")
    if config.n_readers < 0:
        errors.append("scenario.n_readers: negative")
    if config.n_writers < 0:
        errors.append("scenario.n_writers: negative")
    if config.algorithm in SWMR_ALGORITHMS or config.algorithm in EXTRA_ALGORITHMS:
        if config.n_writers != 1:
            errors.append("scenario.n_writers: SWMR requires one writer")
    if config.scheme not in ("fixed", "stochastic"):
        errors.append("workload.scheme: must be fixed or stochastic")
    # Each range test is written so that nan fails it too.
    for name in ("read_interval", "write_interval"):
        v = getattr(config, name)
        if not 0 < v < math.inf:
            errors.append("workload.%s: must be positive and finite, got %r" % (name, v))
    for name in ("ops_per_client", "reads_per_client", "writes_per_client"):
        v = getattr(config, name)
        if v is not None and v < 0:
            errors.append("workload.%s: negative" % name)
    if not 0 <= config.jitter_max < math.inf:
        errors.append("network.jitter_max: must be non-negative and finite, got %r" % config.jitter_max)
    if not 0 < config.cap_seconds < math.inf:
        errors.append("network.cap_seconds: must be positive and finite, got %r" % config.cap_seconds)
    if config.value_size < 1:
        errors.append("network.value_size: must be at least one octet")

    for label, crashes, count in (
        ("servers", config.crash_servers, config.n_servers),
        ("readers", config.crash_readers, config.n_readers),
        ("writers", config.crash_writers, config.n_writers),
    ):
        for idx, at in crashes:
            if not 0 <= idx < count:
                errors.append("crashes.%s: index %d out of range" % (label, idx))
            if not 0 <= at < math.inf:
                errors.append("crashes.%s: crash time %r for %d must be non-negative and finite"
                              % (label, at, idx))
    if config.n_servers >= 1 and not errors:
        # Only meaningful once indices are in range.
        qs = build_quorum_system(config)
        crashed = [idx for idx, _ in config.crash_servers]
        if not surviving_quorum_exists(qs, crashed):
            errors.append("crashes.servers: no quorum survives the schedule")
    if errors:
        raise ConfigError(errors)
    return config


def build_quorum_system(config: ScenarioConfig) -> QuorumSystem:
    if config.quorums == "majority":
        return build_majority(config.n_servers)
    side = math.isqrt(config.n_servers)
    return build_matrix(side, side)


def with_overrides(config: ScenarioConfig, **overrides) -> ScenarioConfig:
    """Replace fields (CLI flags) and re-validate."""
    cleaned = {k: v for k, v in overrides.items() if v is not None}
    return validate(replace(config, **cleaned)) if cleaned else config
