"""Scenario configuration: INI text in, validated ScenarioConfig (or, for
a grid file, a list of them) out.  The only module that knows how a
scenario is spelled in text: INI sections, [grid] axes and a trace's run
header (describe and parse_header) all convert their values through one
field-to-type table and one helper, and an operation CSV's scenario
columns are CSV_FIELDS.

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

from regsim.protocols import ALGORITHMS, get_algorithm
from regsim.quorum import QuorumSystem, build_majority, build_matrix, majority_survives, matrix_survives

CrashList = tuple[tuple[int, float], ...]

TOPOLOGIES = ("series", "star")
QUORUMS = ("majority", "matrix")
SCHEMES = ("fixed", "stochastic")
# The most servers, readers and writers together: Network.path_params
# builds a table of two floats per pair of nodes, about 36 MB at 512.  The
# quorums need no bound of their own: neither construction lists them, and
# no command tests them pairwise.
MAX_NODES = 512
# The most operations a scenario may list: build_workload lists them all
# before the run starts, and a run keeps every one in its trace.
MAX_OPERATIONS = 50_000
# The most octets write_payload pads each write's value to.
MAX_VALUE_SIZE = 1 << 16
# The scenario columns of an operation CSV, in column order.  A sweep's
# cell is all of them but the seed.
CSV_FIELDS = ("algorithm", "topology", "n_servers", "n_readers", "n_writers", "scheme", "seed")


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
        """The scenario as a trace's run header: algorithm and seed, then
        the other fields by name, each field at None or () left out.
        parse_header reads it back."""
        out: dict[str, str] = {}
        for name in _HEADER_ORDER:
            v = getattr(self, name)
            if v is None or v == ():
                continue
            if _FIELD_TYPE[name] == "crashes":
                v = ",".join("%d@%r" % (i, t) for i, t in v)
            out[name] = str(v)
        return out


# Section -> field -> text type.  An INI key is its field's name, except
# that [crashes] drops the "crash_" prefix.
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
        "crash_servers": "crashes", "crash_readers": "crashes", "crash_writers": "crashes",
    },
}

_FIELD_TYPE = {name: typ for section in _SCHEMA.values() for name, typ in section.items()}
_INI_FIELD = {name.removeprefix("crash_"): name for name in _FIELD_TYPE}

_BARE_HEADER = ("algorithm", "seed")
_HEADER_ORDER = _BARE_HEADER + tuple(sorted(set(_FIELD_TYPE) - set(_BARE_HEADER)))
# A scenario's header may leave out the fields describe() omits at None or ().
_REQUIRED = tuple(f.name for f in fields(ScenarioConfig) if f.default not in (None, ()))


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


def _convert(errors: list[str], path: str, typ: str, raw: str, axis: bool = False):
    """raw as typ, or as a list of typ for a grid axis of comma-separated
    alternatives; a bad value appends its error to errors, giving None."""
    convert = _CONVERT[typ]
    try:
        return [convert(part.strip()) for part in raw.split(",")] if axis else convert(raw)
    except ValueError:
        errors.append("%s: expected %s, got %r" % (path, typ, raw))
        return None


def _read_ini(text: str) -> configparser.ConfigParser:
    # No interpolation: every value is read as written, "%" included.  No header
    # can name the default section "", so [DEFAULT] is an ordinary, unknown one.
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None,
                                       default_section="")
    try:
        parser.read_string(text)
    except configparser.DuplicateOptionError as exc:
        fault = exc.lineno, "option %r in section %r already exists" % (exc.option, exc.section)
    except configparser.DuplicateSectionError as exc:
        fault = exc.lineno, "section %r already exists" % exc.section
    except configparser.MissingSectionHeaderError as exc:
        fault = exc.lineno, "%r comes before any section header" % exc.line.strip()
    except configparser.ParsingError as exc:
        lineno = exc.errors[0][0]  # read_string numbers the lines of text.split("\n")
        fault = lineno, "%r is neither a section header nor key = value" % text.split("\n")[lineno - 1].strip()
    else:
        return parser
    raise ConfigError(["not parseable: line %d: %s" % fault])


def parse_fields(parser: configparser.ConfigParser, ignore_sections: tuple[str, ...] = ()) -> dict:
    """Parsed INI sections as a ScenarioConfig field dict, without
    validating inter-field constraints."""
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
            name = _INI_FIELD.get(key)
            typ = known.get(name)
            if typ is None:
                errors.append("%s: unknown key" % path)
                continue
            values[name] = _convert(errors, path, typ, raw)
    if errors:
        raise ConfigError(errors)
    return values


def parse_config(text: str) -> ScenarioConfig:
    return validate(ScenarioConfig(**parse_fields(_read_ini(text))))


def parse_header(pairs: list[str]) -> tuple[str, int, Optional[ScenarioConfig]]:
    """Inverse of describe(): a run header's key=value tokens to
    (algorithm, seed, scenario), converted but not validated.  A header
    naming only algorithm and seed (a bare netsim.run trace) has no
    scenario.  An unknown or missing key or a bad value: ConfigError."""
    errors: list[str] = []
    values: dict = {}
    for pair in pairs:
        key, _, raw = pair.partition("=")
        if key in _FIELD_TYPE:
            values[key] = _convert(errors, key, _FIELD_TYPE[key], raw)
        else:
            errors.append("%s: unknown key" % key)
    scenario = not values.keys() <= set(_BARE_HEADER)
    errors += ["%s: missing key" % name for name in (_REQUIRED if scenario else _BARE_HEADER)
               if name not in values]
    if errors:
        raise ConfigError(errors)
    config = ScenarioConfig(**values) if scenario else None
    return values["algorithm"], values["seed"], config


def csv_int(row: dict[str, str], column: str) -> int:
    """An operation CSV row's int column, spelled as run writes it: a
    text that int() refuses, or one that is not str() of its value (" 3",
    "+3", "03", "1_0"), raises ValueError."""
    value = int(row[column])
    if str(value) != row[column]:
        raise ValueError("%s: expected an integer spelled as run writes it, got %r" % (column, row[column]))
    return value


def parse_csv_scenario(row: dict[str, str]) -> ScenarioConfig:
    """The validated scenario of an operation CSV row, read from its
    CSV_FIELDS columns: each int through csv_int, each str as written,
    and every other field at its default.  A bad number: ValueError; a
    scenario that validate refuses: ConfigError."""
    return validate(ScenarioConfig(**{name: csv_int(row, name) if _FIELD_TYPE[name] == "int" else row[name]
                                      for name in CSV_FIELDS}))


def parse_grid(text: str) -> list[ScenarioConfig]:
    """A grid file is a scenario file plus a [grid] section whose keys hold
    comma-separated alternatives; `seeds = N` (N >= 1) expands to seeds 0..N-1.
    Returns the cross product in file order, seeds innermost.  Constraint
    validation happens per expanded cell, since the base alone may be
    incomplete (e.g. the algorithm axis lives in [grid])."""
    parser = _read_ini(text)
    if not parser.has_section("grid"):
        raise ConfigError(["grid: missing section"])
    base = ScenarioConfig(**parse_fields(parser, ignore_sections=("grid",)))

    seeds = list(range(10))
    axes: list[tuple[str, list]] = []
    errors: list[str] = []
    for key, raw in parser.items("grid"):
        path = "grid.%s" % key
        if key == "seeds":
            count = _convert(errors, path, "int", raw)
            if count is not None:
                seeds = list(range(count))
                if not seeds:
                    errors.append("grid.seeds: expected a positive count, got %r" % raw)
            continue
        name = _INI_FIELD.get(key)
        typ = _FIELD_TYPE.get(name)
        if typ is None:
            errors.append("%s: unknown key" % path)
        elif name == "seed":
            errors.append("%s: not an axis, a sweep's seeds come from seeds = N" % path)
        elif typ == "crashes":
            # The comma separating grid alternatives also separates the
            # crashes of one schedule, so a schedule cannot be an axis.
            errors.append("%s: crash schedules go in [crashes], not [grid]" % path)
        else:
            axes.append((name, _convert(errors, path, typ, raw, axis=True)))
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
    try:
        swmr = not get_algorithm(config.algorithm).mw
    except KeyError:
        swmr = False
        errors.append("scenario.algorithm: unknown %r (choose from %s)"
                      % (config.algorithm, ", ".join(sorted(ALGORITHMS))))
    if config.topology not in TOPOLOGIES:
        errors.append("scenario.topology: must be %s" % " or ".join(TOPOLOGIES))
    if config.quorums not in QUORUMS:
        errors.append("scenario.quorums: must be %s" % " or ".join(QUORUMS))
    if config.n_servers < 1:
        errors.append("scenario.n_servers: need at least one server")
    elif config.quorums == "matrix" and math.isqrt(config.n_servers) ** 2 != config.n_servers:
        errors.append("scenario.n_servers: square required for matrix quorums")
    if config.n_readers < 0:
        errors.append("scenario.n_readers: negative")
    if config.n_writers < 0:
        errors.append("scenario.n_writers: negative")
    nodes = config.n_servers + config.n_readers + config.n_writers
    if nodes > MAX_NODES:
        errors.append("scenario: %d servers, readers and writers number more than %d"
                      % (nodes, MAX_NODES))
    if swmr and config.n_writers != 1:
        errors.append("scenario.n_writers: SWMR requires one writer")
    if config.scheme not in SCHEMES:
        errors.append("workload.scheme: must be %s" % " or ".join(SCHEMES))
    # Each range test is written so that nan fails it too.
    for name in ("read_interval", "write_interval"):
        v = getattr(config, name)
        if not 0 < v < math.inf:
            errors.append("workload.%s: must be positive and finite, got %r" % (name, v))
    for name in ("ops_per_client", "reads_per_client", "writes_per_client"):
        v = getattr(config, name)
        if v is not None and v < 0:
            errors.append("workload.%s: negative" % name)
    reads, writes = (config.ops_per_client if v is None else v
                     for v in (config.reads_per_client, config.writes_per_client))
    operations = max(config.n_readers, 0) * max(reads, 0) + max(config.n_writers, 0) * max(writes, 0)
    if operations > MAX_OPERATIONS:
        errors.append("workload: %d operations listed, more than %d" % (operations, MAX_OPERATIONS))
    if not 0 <= config.jitter_max < math.inf:
        errors.append("network.jitter_max: must be non-negative and finite, got %r" % config.jitter_max)
    if not 0 < config.cap_seconds < math.inf:
        errors.append("network.cap_seconds: must be positive and finite, got %r" % config.cap_seconds)
    if config.value_size < 1:
        errors.append("network.value_size: must be at least one octet")
    elif config.value_size > MAX_VALUE_SIZE:
        errors.append("network.value_size: more than %d octets" % MAX_VALUE_SIZE)

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
        # A node crashes once; netsim.run refuses a node scheduled twice.
        indices = [idx for idx, _ in crashes]
        for idx in sorted({i for i in indices if indices.count(i) > 1}):
            errors.append("crashes.%s: index %d listed twice" % (label, idx))
    if not errors:
        # Only meaningful once indices are in range; no quorum is listed.
        crashed = [idx for idx, _ in config.crash_servers]
        side = math.isqrt(config.n_servers)
        if not (majority_survives(config.n_servers, crashed) if config.quorums == "majority"
                else matrix_survives(side, side, crashed)):
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
