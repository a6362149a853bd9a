"""End-to-end CLI tests via main(argv), and one run under Python 3.10."""

import errno
import io
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

from regsim.checker import check_atomicity_tagged, extract_history
from regsim.cli import main
from regsim.config import ScenarioConfig, parse_config, validate, with_overrides
from regsim.harness import run_scenario
from regsim.protocols import ALGORITHMS
from regsim.quorum import build_majority
from regsim.trace import trace_to_text

CONFIG = """
[scenario]
algorithm = erato
topology = series
n_servers = 3
quorums = majority
n_readers = 1
n_writers = 1
[workload]
scheme = fixed
read_interval = 0.2
write_interval = 0.2
ops_per_client = 2
"""

GRID = """
[grid]
algorithm = erato, ohsam
seeds = 1
[scenario]
topology = series
n_servers = 3
quorums = majority
n_readers = 1
[workload]
read_interval = 0.2
write_interval = 0.2
ops_per_client = 1
"""


@pytest.fixture
def config_file(tmp_path):
    p = tmp_path / "scenario.ini"
    p.write_text(CONFIG)
    return p


def test_run_ok(config_file, tmp_path, capsys) -> None:
    code = main(["run", str(config_file), "--out-dir", str(tmp_path / "out"), "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "scenario: erato on series" in out
    assert "seed 3" in out
    assert "atomicity: ok" in out
    assert (tmp_path / "out" / "trace.log").exists()
    assert (tmp_path / "out" / "results.csv").exists()
    assert (tmp_path / "out" / "verdict.txt").exists()


def test_run_bad_config(tmp_path, capsys) -> None:
    p = tmp_path / "bad.ini"
    p.write_text(CONFIG.replace("n_writers = 1", "n_writers = 2"))
    code = main(["run", str(p)])
    assert code == 2
    assert "SWMR requires one writer" in capsys.readouterr().err


def test_run_liveness_cap(config_file, capsys) -> None:
    code = main(["run", str(config_file), "--cap-seconds", "0.01"])
    assert code == 4
    assert "liveness" in capsys.readouterr().err


def test_check_ok_and_violation(config_file, tmp_path, capsys) -> None:
    out = tmp_path / "out"
    assert main(["run", str(config_file), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert main(["check", str(out / "trace.log")]) == 0
    assert "atomicity: ok" in capsys.readouterr().out

    # Rewrite the last read response to return the initial tag: a write
    # has long completed by then, so the checker must object.
    lines = (out / "trace.log").read_text().splitlines()
    for i in range(len(lines) - 1, -1, -1):
        parts = lines[i].split("\t")
        if parts[0] == "res" and parts[2].startswith("r"):
            parts[5], parts[6], parts[7] = "0", "0", ""
            lines[i] = "\t".join(parts)
            break
    # The header holds the scenario, and re-running it gives the true
    # response.
    stale = tmp_path / "stale.log"
    stale.write_text("\n".join(lines) + "\n")
    assert main(["check", str(stale)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: %s: line %d: re-run gives " % (stale, i + 1))
    assert len(err.splitlines()) == 1
    # Under a bare header nothing is re-run.  The first read already
    # returned the write's tag, so the rewound response shows up as a
    # read-read inversion.
    stale.write_text("\n".join(["run\talgorithm=erato\tseed=0"] + lines[1:]) + "\n")
    assert main(["check", str(stale)]) == 3
    captured = capsys.readouterr()
    assert "VIOLATED (A1)" in captured.err
    assert captured.out == "re-run: skipped, the run header names no scenario\n"


def test_check_incomplete_trace(tmp_path, capsys) -> None:
    late_crashes = (CONFIG.replace("ops_per_client = 2", "ops_per_client = 1")
                    + "[crashes]\nreaders = 0@100\nwriters = 0@100\n")
    # In the second run both crashes fall after the cap, so the run never
    # reaches them: the clients stay live, with one operation each pending.
    for name, text, cap in [("capped", CONFIG, "0.01"), ("late_crashes", late_crashes, "0.205")]:
        config = tmp_path / (name + ".ini")
        config.write_text(text)
        out = tmp_path / name
        assert main(["run", str(config), "--cap-seconds", cap, "--out-dir", str(out)]) == 4
        assert (out / "trace.log").read_text().endswith("\nend\t%s\tincomplete\t0\t0\n" % cap)
        capsys.readouterr()
        assert main(["check", str(out / "trace.log")]) == 4
        assert "pending" in capsys.readouterr().err


def test_run_and_check_build_the_quorum_system_once_and_never_validate_it(tmp_path) -> None:
    # Each construction intersects by design, so no command tests its
    # quorums pairwise, and config.validate decides crash survival from
    # the construction: a run and a check each build the system once.
    config_file = tmp_path / "majority13.ini"
    config_file.write_text(CONFIG.replace("n_servers = 3", "n_servers = 13"))
    out = tmp_path / "out"
    for argv in (["run", str(config_file), "--out-dir", str(out)], ["check", str(out / "trace.log")]):
        with mock.patch("regsim.config.build_majority", wraps=build_majority) as build:
            assert main(argv) == 0
        assert build.call_count == 1, argv[0]


@pytest.mark.parametrize("quorums,n_servers", [("majority", 18), ("majority", 31), ("matrix", 49)],
                         ids=["18", "31", "matrix7x7"])
def test_run_and_check_a_large_majority(quorums, n_servers, tmp_path, capsys) -> None:
    # No quorum is listed, so majority(31) and a 7x7 grid run like majority(3).
    config_file = tmp_path / "large.ini"
    config_file.write_text(CONFIG.replace("n_servers = 3", "n_servers = %d" % n_servers)
                           .replace("quorums = majority", "quorums = " + quorums))
    out = tmp_path / "out"
    assert main(["run", str(config_file), "--out-dir", str(out)]) == 0
    assert main(["check", str(out / "trace.log")]) == 0
    assert "atomicity: ok" in capsys.readouterr().out


def count_checks(argv: list[str]) -> tuple[int, int]:
    """main(argv)'s exit code and how many times it ran the atomicity
    checker, in the re-run and in check itself."""
    counted = mock.Mock(wraps=check_atomicity_tagged)
    with mock.patch("regsim.harness.check_atomicity_tagged", counted), \
            mock.patch("regsim.cli.check_atomicity_tagged", counted):
        code = main(argv)
    return code, counted.call_count


def test_check_runs_the_checker_once_unless_strict(config_file, tmp_path, capsys) -> None:
    out = tmp_path / "out"
    assert main(["run", str(config_file), "--out-dir", str(out)]) == 0
    trace = out / "trace.log"
    bare = tmp_path / "bare.log"
    bare.write_text("\n".join(["run\talgorithm=erato\tseed=0"] + trace.read_text().splitlines()[1:]) + "\n")
    # A scenario trace takes its re-run's verdict; --strict judges again.
    assert count_checks(["check", str(trace)]) == (0, 1)
    assert count_checks(["check", str(bare)]) == (0, 1)
    assert count_checks(["check", "--strict", str(trace)]) == (0, 2)
    assert count_checks(["check", "--strict", str(bare)]) == (0, 1)


def test_check_reports_the_rerun_verdict_of_a_violating_scenario(tmp_path, capsys) -> None:
    # Seed 303 of the acceptance suite's adversarial erato_broken scenario
    # violates atomicity: check re-runs it and reports the checker's words.
    config = validate(ScenarioConfig(
        algorithm="erato_broken", topology="series", n_servers=3, quorums="majority",
        n_readers=12, scheme="stochastic", read_interval=0.08, write_interval=0.15,
        ops_per_client=10, writes_per_client=5, jitter_max=0.15, seed=303))
    result = run_scenario(config)
    v = check_atomicity_tagged(extract_history(result.trace))
    assert not v.ok
    path = tmp_path / "trace.log"
    path.write_text(trace_to_text(result.trace))
    assert count_checks(["check", str(path)]) == (3, 1)
    assert capsys.readouterr().err == "atomicity VIOLATED (%s): %s (witness %s)\n" % (
        v.violated, v.detail, list(v.witness))


def test_check_refuses_a_res_moved_off_its_step(tmp_path, capsys) -> None:
    # Seed 330 of the acceptance suite's adversarial erato_broken scenario
    # violates atomicity: read 18 precedes read 27 in real time, not in
    # tag order.  Read 18's res moved past read 27's inv would hide that,
    # but a res is an output of the step before it, at that step's time.
    config = validate(ScenarioConfig(
        algorithm="erato_broken", topology="series", n_servers=3, quorums="majority",
        n_readers=12, n_writers=1, scheme="stochastic", read_interval=0.08, write_interval=0.15,
        ops_per_client=10, writes_per_client=5, jitter_max=0.15, seed=330))
    lines = ["run\talgorithm=erato_broken\tseed=330"] + trace_to_text(run_scenario(config).trace).splitlines()[1:]
    path = tmp_path / "bare.log"
    path.write_text("\n".join(lines) + "\n")
    assert main(["check", str(path)]) == 3
    assert "VIOLATED (A1): read 18 " in capsys.readouterr().err
    assert lines[693].startswith("res\t0.3617690705580209\tr1\t18\t")
    lines[693] = lines[693].replace("0.3617690705580209", "0.37300099999999997")
    path.write_text("\n".join(lines) + "\n")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == (
        "input error: %s: line 694: res by r1 at 0.37300099999999997 is no output of the inv or dlv "
        "before it\n" % path)


# A row's text follows a bare run header, unless it starts with this.
HEADERLESS = "<no run header>"
# The run header of a majority(18) scenario, which lists no quorum: the
# header alone is re-run and refused at line 2.
MAJORITY18_HEADER = "\t".join(
    ["run"] + ["%s=%s" % pair for pair in replace(parse_config(CONFIG), n_servers=18).describe().items()])


def edited_run_row(row_id: str, kinds: tuple, index: int, old, new: str, message: str):
    """A check row: the records of a small erato run's trace with field
    index of each line of one of kinds set to new where it reads old (or
    whatever it reads, if old is None), refused with message at the
    first line changed."""
    config = with_overrides(parse_config(CONFIG), ops_per_client=1)
    rows = [line.split("\t") for line in trace_to_text(run_scenario(config).trace).splitlines()[1:]]
    changed = [n for n, parts in enumerate(rows) if parts[0] in kinds and old in (None, parts[index])]
    for n in changed:
        rows[n][index] = new
    text = "\n".join("\t".join(parts) for parts in rows)
    return pytest.param("check", text, "line %d: %s" % (changed[0] + 2, message), id=row_id)


@pytest.mark.parametrize(
    "command,text,message",
    [
        ("check", "bogus\t0.5", "line 2: bad trace record"),
        ("check", "inv\tnotafloat\tr0\t1\tread\t-", "line 2: could not convert string to float"),
        ("check", "res\t0.5\tr0\t1\t2\t0\t0\t", "line 2: res for op 1 with no earlier inv"),
        ("check", "inv\t0.1\tw0\t1\twrite\t76\ninv\t0.2\tr0\t1\tread\t-", "line 3: second inv for op 1"),
        ("check", "inv\t0.1\tr0\t1\tread\t-\nres\t0.2\tr0\t1\t2\t0\t0\t\nres\t0.3\tr0\t1\t2\t0\t0\t",
         "line 4: second res for op 1"),
        ("check", "inv\t0.1\tr0\t1\tread\t-\ninv\t0.2\tr0\t2\tread\t-\nend\t1.0\tcomplete\t0\t0",
         "line 3: inv for op 2 by r0 while its op 1 runs"),
        # netsim.run numbers operations in inv order; op 5 answered in its
        # own inv step would otherwise reach the checker as overlapping op 3.
        ("check", "inv\t0.1\tr0\t5\tread\t-\nres\t0.1\tr0\t5\t0\t0\t0\t\ninv\t0.1\tr0\t3\tread\t-\n"
         "end\t0.1\tincomplete\t0\t0", "line 4: inv for op 3 after the inv for op 5"),
        ("check", "inv\t2.0\tr0\t2\tread\t-\nres\t1.5\tr0\t2\t2\t0\t0\t",
         "line 3: res for op 2 at 1.5 precedes its inv at 2.0"),
        ("check", "inv\t0.1\tw0\t1\twrite\t76\nres\t0.2\tr5\t1\t2\t1\t0\t76",
         "line 3: res for op 1 from r5, but w0 invoked it"),
        ("check", "inv\t0.1\tr0\t1\tcas\t-", "line 2: inv for op 1: unknown operation kind 'cas'"),
        ("check", "inv\t0.1\tw0\t1\twrite\t76\nwtag\t0.15\tr3\t1\t1\t0",
         "line 3: wtag for op 1 from r3, but w0 invoked it"),
        ("check", "inv\t0.2\tw0\t1\twrite\t76\nwtag\t0.1\tw0\t1\t1\t0",
         "line 3: wtag for op 1 at 0.1 precedes its inv at 0.2"),
        ("check", "inv\t0.1\tr0\t1\tread\t-\nwtag\t0.15\tr0\t1\t1\t0", "line 3: wtag for op 1, which is a read"),
        ("check", "wtag\t0.1\tw0\t1\t1\t0", "line 2: wtag for op 1 with no earlier inv"),
        ("check", "end\t0.3\tbogus\t0\t0", "line 2: end status 'bogus' is neither complete nor incomplete"),
        ("check", "end\t0.3\tcomplete\t0\t0\nend\t0.4\tincomplete\t0\t0", "line 3: second end record"),
        ("check", "crs\t0.2\ts0\ncrs\t0.1\ts0\nend\t0.3\tcomplete\t0\t0", "line 3: second crs for s0"),
        ("check", "inv\t0.1\tr03\t1\tread\t-", "line 2: not a process id: 'r03'"),
        ("check", "inv\t0.1\tr\u0663\t1\tread\t-", "line 2: not a process id: 'r\u0663'"),
        # Each of the next ten inputs lacks its end record, which the
        # parser refuses at the last line before the wire replay looks
        # at the fault the input holds; the same faults in whole traces
        # follow them.
        ("check", "dlv\t0.5\ts0\tr0\treadRequest\tr0\t1", "line 2: trace has no end record"),
        ("check", "snd\t0.1\tr0\ts0\treadRequest\tr0\t1\t0.5\ndlv\t0.50\ts0\tr0\treadRequest\tr0\t1",
         "line 3: trace has no end record"),
        ("check", "snd\t0.1\tr0\ts0\treadRequest\tr0\t1\t0.3\ndlv\t0.3\ts0\tr0\treadRequest\tr0\t1\n"
         "dlv\t0.3\ts0\tr0\treadRequest\tr0\t1",
         "line 4: trace has no end record"),
        ("check", "crs\t0.2\ts0\nsnd\t0.1\tr0\ts0\treadRequest\tr0\t1\t0.3\ndlv\t0.3\ts0\tr0\treadRequest\tr0\t1",
         "line 4: trace has no end record"),
        ("check", "snd\t0.1\tr0\ts0\treadRequest\tr0\t1\t0.3\ndlv\t0.3\ts0\tr0\treadRequest\tr0\t1\ncrs\t0.3\ts0",
         "line 4: trace has no end record"),
        ("check", "crs\t0.2\ts0\nsnd\t0.3\ts0\tr0\treadAck\tr0\t1\t0.4",
         "line 3: trace has no end record"),
        ("check", "crs\t0.2\tr0\ninv\t0.5\tr0\t1\tread\t-",
         "line 3: trace has no end record"),
        ("check", "inv\t0.1\tr0\t1\tread\t-\ncrs\t0.2\tr0\nres\t0.2\tr0\t1\t2\t0\t0\t",
         "line 4: trace has no end record"),
        ("check", "inv\t0.1\tw0\t1\twrite\t76\nwtag\t0.3\tw0\t1\t1\t0\ncrs\t0.2\tw0",
         "line 4: trace has no end record"),
        ("check", "crs\t0.2\ts1\ntag\t0.25\ts1\t1\t0",
         "line 3: trace has no end record"),
        ("check", "dlv\t0.5\ts0\tr0\treadRequest\tr0\t1\nend\t1.0\tcomplete\t0\t0",
         "line 2: dlv of readRequest (client r0, op 1) from r0 to s0 at 0.5 matches no earlier snd"),
        # A dlv matches its snd's arrival by value; the spelling is the
        # canonical compare's.
        ("check", "inv\t0.1\tr0\t1\tread\t-\nsnd\t0.1\tr0\ts0\treadRequest\tr0\t1\t0.5\n"
         "dlv\t0.50\ts0\tr0\treadRequest\tr0\t1\nend\t1.0\tcomplete\t0\t0", "line 4: 'dlv\\t0.50\\ts0"),
        ("check", "inv\t0.1\tr0\t1\tread\t-\nsnd\t0.1\tr0\ts0\treadRequest\tr0\t1\t0.3\n"
         "dlv\t0.3\ts0\tr0\treadRequest\tr0\t1\ndlv\t0.3\ts0\tr0\treadRequest\tr0\t1\nend\t1.0\tcomplete\t0\t0",
         "line 5: dlv of readRequest (client r0, op 1) from r0 to s0 at 0.3 matches no earlier snd"),
        ("check", "inv\t0.1\tr0\t1\tread\t-\nsnd\t0.1\tr0\ts0\treadRequest\tr0\t1\t0.3\ncrs\t0.2\ts0\n"
         "dlv\t0.3\ts0\tr0\treadRequest\tr0\t1\nend\t1.0\tcomplete\t0\t0",
         "line 5: dlv to s0 at 0.3, at or after its crash at 0.2"),
        ("check", "inv\t0.1\tr0\t1\tread\t-\nsnd\t0.1\tr0\ts0\treadRequest\tr0\t1\t0.3\n"
         "dlv\t0.3\ts0\tr0\treadRequest\tr0\t1\ncrs\t0.3\ts0\nend\t1.0\tcomplete\t0\t0",
         "line 4: dlv to s0 at 0.3, at or after its crash at 0.3"),
        ("check", "crs\t0.2\ts0\nsnd\t0.3\ts0\tr0\treadAck\tr0\t1\t0.4\nend\t1.0\tcomplete\t0\t0",
         "line 3: snd by s0 at 0.3, at or after its crash at 0.2"),
        ("check", "crs\t0.2\tr0\ninv\t0.5\tr0\t1\tread\t-\nend\t1.0\tcomplete\t0\t0",
         "line 3: inv by r0 at 0.5, at or after its crash at 0.2"),
        ("check", "inv\t0.1\tr0\t1\tread\t-\ncrs\t0.2\tr0\nres\t0.2\tr0\t1\t2\t0\t0\t\nend\t1.0\tcomplete\t0\t0",
         "line 4: res by r0 at 0.2, at or after its crash at 0.2"),
        ("check", "inv\t0.1\tw0\t1\twrite\t76\nwtag\t0.3\tw0\t1\t1\t0\ncrs\t0.2\tw0\nend\t1.0\tcomplete\t0\t0",
         "line 3: wtag by w0 at 0.3, at or after its crash at 0.2"),
        ("check", "crs\t0.2\ts1\ntag\t0.25\ts1\t1\t0\nend\t1.0\tcomplete\t0\t0",
         "line 3: tag by s1 at 0.25, at or after its crash at 0.2"),
        # Every output follows the inv or dlv of its step, and no record
        # is timed before the one above it.
        ("check", "inv\t0.1\tr0\t1\tread\t-\nres\t0.2\tr0\t1\t0\t0\t0\t\nend\t1.0\tcomplete\t0\t0",
         "line 3: res by r0 at 0.2 is no output of the inv or dlv before it"),
        ("check", "inv\t0.25\tw0\t1\twrite\t76\ninv\t0.0\tr0\t2\tread\t-\nend\t1.0\tincomplete\t0\t0",
         "line 3: inv at 0.0 precedes the record before it, at 0.25"),
        ("check", "inv\t0.5\tr0\t1\tread\t-\nend\t0.25\tincomplete\t0\t0",
         "line 3: end at 0.25 precedes the record before it, at 0.5"),
        ("check", "inv\t0.5\ts0\t1\tread\t-", "line 2: inv for op 1 from server s0"),
        # A reader reads and a writer writes; a write carries a hex
        # value and a read "-".
        ("check", "inv\t0.1\tr0\t1\twrite\t76\nwtag\t0.15\tr0\t1\t1\t0\nres\t0.2\tr0\t1\t0\t1\t0\t76\n"
         "inv\t0.3\tw0\t2\tread\t-\nres\t0.4\tw0\t2\t0\t1\t0\t76\nend\t1.0\tcomplete\t0\t0",
         "line 2: inv for op 1: r0 runs reads, not writes"),
        ("check", "inv\t0.3\tw0\t1\tread\t-\nend\t1.0\tcomplete\t0\t0", "line 2: inv for op 1: w0 runs writes, not reads"),
        ("check", "inv\t0.1\tw0\t1\twrite\t-\nend\t1.0\tcomplete\t0\t0", "line 2: inv for op 1: a write's value must be hex, got '-'"),
        ("check", "inv\t0.1\tr0\t1\tread\t76\nend\t1.0\tcomplete\t0\t0", "line 2: inv for op 1: a read's value must be '-', got '76'"),
        ("check", "snd\t0.5\tr0\ts0\treadRequest\tr0\t1\t0.3\ndlv\t0.3\ts0\tr0\treadRequest\tr0\t1",
         "line 2: snd of readRequest (client r0, op 1) from r0 to s0 at 0.5 arrives at 0.3, not after its send"),
        ("check", "snd\t0.5\tr0\ts0\treadRequest\tr0\t1\t0.5",
         "line 2: snd of readRequest (client r0, op 1) from r0 to s0 at 0.5 arrives at 0.5, not after its send"),
        ("check", "inv\t0.1\tr0\t1\tread\t-\nsnd\t0.2\ts0\tr0\twriteAck\tr1\t7\t0.3\n"
         "res\t0.4\tr0\t1\t2\t0\t0\t\nend\t0.5\tcomplete\t0\t0",
         "send writeAck for client r1 op_seq 7 does not attribute to any operation"),
        ("check", "inv\t0.1\tr0\t1\tread\t-\nres\t0.2\tr0\t1\t2\t0\t0\t",
         "line 3: trace has no end record"),
        ("check", "inv\t0.1\tr0\t1\tread\t-\nrun\talgorithm=abd\tseed=3", "line 3: run header not on line 1"),
        ("check", HEADERLESS + "inv\t0.1\tr0\t1\tread\t-\nend\t1.0\tcomplete\t0\t0", "line 1: no run header"),
        ("check", HEADERLESS + "\nrun\talgorithm=erato\tseed=0\nend\t1.0\tcomplete\t0\t0", "line 1: no run header"),
        # The header read apart from the records is still line 1.
        ("check", HEADERLESS + "run\talgorithm=erato\tseed=0", "line 1: trace has no end record"),
        pytest.param("check", HEADERLESS + MAJORITY18_HEADER, "line 2: re-run gives 'inv\\t",
                     id="check-majority18-header-alone"),
        ("check", "end\t0.3\tcomplete\t0\t0\ncrs\t0.4\ts0", "line 3: crs record after the end record"),
        ("check", "inv\tnan\tr0\t1\tread\t-\nres\t0.2\tr0\t1\t2\t0\t0\t\nend\t1.0\tcomplete\t0\t0",
         "line 2: inv time nan is not finite"),
        ("check", "inv\t0.1\tr0\t1\tread\t-\nres\tnan\tr0\t1\t2\t0\t0\t\nend\t1.0\tcomplete\t0\t0",
         "line 3: res time nan is not finite"),
        ("check", "inv\t0.1\tr0\t1\tread\t-\nres\tinf\tr0\t1\t2\t0\t0\t\nend\t1.0\tcomplete\t0\t0",
         "line 3: res time inf is not finite"),
        ("check", "inv\t0.1\tw0\t1\twrite\t76\nwtag\tnan\tw0\t1\t1\t0\nend\t1.0\tcomplete\t0\t0",
         "line 3: wtag time nan is not finite"),
        ("check", "snd\t0.1\tr0\ts0\treadRequest\tr0\t1\tnan\nend\t1.0\tcomplete\t0\t0",
         "line 2: snd arrival nan is not finite"),
        ("check", "snd\t0.1\tr0\ts0\treadRequest\tr0\t1\tinf\nend\t1.0\tcomplete\t0\t0",
         "line 2: snd arrival inf is not finite"),
        ("check", "snd\tnan\tr0\ts0\treadRequest\tr0\t1\t0.5\nend\t1.0\tcomplete\t0\t0",
         "line 2: snd time nan is not finite"),
        ("check", "crs\tnan\ts0\nend\t1.0\tcomplete\t0\t0", "line 2: crs time nan is not finite"),
        ("check", "tag\t-inf\ts0\t1\t0\nend\t1.0\tcomplete\t0\t0", "line 2: tag time -inf is not finite"),
        ("check", "end\tnan\tcomplete\t0\t0", "line 2: end time nan is not finite"),
        edited_run_row("check-run-trace-with-readWhatever", ("snd", "dlv"), 4, "readRequest", "readWhatever",
                       "unknown message kind 'readWhatever'"),
        edited_run_row("check-run-trace-with-bogusKind", ("snd", "dlv"), 4, "readRequest", "bogusKind",
                       "unknown message kind 'bogusKind'"),
        # netsim.run writes none of these: only a server adopts a tag, op
        # ids start at 1 and no end count is negative.
        edited_run_row("check-run-trace-with-tag-by-r0", ("tag",), 2, None, "r0",
                       "tag by r0, which is not a server"),
        edited_run_row("check-run-trace-with-op-0", ("inv", "res", "wtag"), 3, "1", "0",
                       "inv for op 0: op ids start at 1"),
        edited_run_row("check-run-trace-with-op--5", ("inv", "res", "wtag"), 3, "1", "-5",
                       "inv for op -5: op ids start at 1"),
        edited_run_row("check-run-trace-with-end-skipping--3", ("end",), 4, None, "-3",
                       "end counts below 0: 0 stale drops, -3 skipped invocations"),
        # A config value is read as written: "%" starts no interpolation.
        ("run", HEADERLESS + "[scenario]\nalgorithm = 50%",
         "config error: scenario.algorithm: unknown '50%' (choose from "),
        # [DEFAULT] is an ordinary section: its keys reach no other one.
        ("run", HEADERLESS + "[DEFAULT]\nseed = 3\n[scenario]\nalgorithm = erato",
         "config error: DEFAULT: unknown section"),
        ("run", HEADERLESS + "[DEFAULT]\nbogus = 3", "config error: DEFAULT: unknown section"),
        ("run", None, "No such file"),
        ("sweep", None, "No such file"),
        ("check", None, "No such file"),
        ("report", None, "No such file"),
        # Every input is read as UTF-8.
        ("run", b"\xff", "input error: %s: 'utf-8' codec can't decode byte 0xff in position 0"),
        ("sweep", b"\xff", "input error: %s: 'utf-8' codec can't decode byte 0xff in position 0"),
        ("check", b"\xff", "input error: %s: 'utf-8' codec can't decode byte 0xff in position 0"),
        ("report", b"\xff", "input error: %s: 'utf-8' codec can't decode byte 0xff in position 0"),
    ],
)
def test_bad_input_exits_2_with_one_line(command, text, message, tmp_path, capsys) -> None:
    path = tmp_path / "input"
    if isinstance(text, bytes):
        path.write_bytes(text)
        message %= path
    elif text is not None:
        header = "" if text.startswith(HEADERLESS) else "run\talgorithm=erato\tseed=0\n"
        path.write_text(header + text.removeprefix(HEADERLESS) + "\n")
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "old,new,args,message",
    [
        ("read_interval = 0.2", "read_interval = nan", [], "workload.read_interval: must be positive and finite, got nan"),
        ("read_interval = 0.2", "read_interval = inf", [], "workload.read_interval: must be positive and finite, got inf"),
        ("write_interval = 0.2", "write_interval = -inf", [],
         "workload.write_interval: must be positive and finite, got -inf"),
        ("ops_per_client = 2", "ops_per_client = 2\n[network]\njitter_max = nan", [],
         "network.jitter_max: must be non-negative and finite, got nan"),
        ("ops_per_client = 2", "ops_per_client = 2\n[network]\ncap_seconds = nan", [],
         "network.cap_seconds: must be positive and finite, got nan"),
        ("ops_per_client = 2", "ops_per_client = 2\n[crashes]\nservers = 0@nan", [],
         "crashes.servers: crash time nan for 0 must be non-negative and finite"),
        ("ops_per_client = 2", "ops_per_client = 2\n[crashes]\nreaders = 0@inf", [],
         "crashes.readers: crash time inf for 0 must be non-negative and finite"),
        (None, None, ["--jitter-max", "nan"], "network.jitter_max: must be non-negative and finite, got nan"),
        (None, None, ["--cap-seconds", "inf"], "network.cap_seconds: must be positive and finite, got inf"),
        # A node crashes once.
        ("ops_per_client = 2", "ops_per_client = 2\n[crashes]\nservers = 0@0.5, 0@0.1", [],
         "crashes.servers: index 0 listed twice"),
        # Refused before the path table, the workload or a payload is built.
        ("n_servers = 3", "n_servers = 511", [], "scenario: 513 servers, readers and writers number more than 512"),
        ("n_readers = 1", "n_readers = 509", [], "scenario: 513 servers, readers and writers number more than 512"),
        ("ops_per_client = 2", "ops_per_client = 25001", [], "workload: 50002 operations listed, more than 50000"),
        ("ops_per_client = 2", "ops_per_client = 2\n[network]\nvalue_size = 65537", [],
         "network.value_size: more than 65536 octets"),
        ("quorums = majority", "quorums = grid", [], "scenario.quorums: must be majority or matrix"),
        ("n_servers = 3", "n_servers = 0", [], "scenario.n_servers: need at least one server"),
        ("n_readers = 1", "n_readers = -1", [], "scenario.n_readers: negative"),
        ("ops_per_client = 2", "ops_per_client = 2\nreads_per_client = -1", [], "workload.reads_per_client: negative"),
        # configparser's errors on one line each, with the line they name.
        ("n_servers = 3", "n_servers = 3\nn_servers = 4", [],
         "not parseable: line 6: option 'n_servers' in section 'scenario' already exists"),
        ("[scenario]\n", "", [], "not parseable: line 2: 'algorithm = erato' comes before any section header"),
        ("[workload]", "[scenario]", [], "not parseable: line 9: section 'scenario' already exists"),
        ("ops_per_client = 2", "ops_per_client = 2\nnot a setting", [],
         "not parseable: line 14: 'not a setting' is neither a section header nor key = value"),
        # [DEFAULT] is an ordinary section: its keys reach no other one.
        ("[workload]", "[DEFAULT]\nseed = 3\n[workload]", [], "DEFAULT: unknown section"),
    ],
)
def test_run_refuses_non_finite_numbers(old, new, args, message, tmp_path, capsys) -> None:
    p = tmp_path / "scenario.ini"
    p.write_text(CONFIG if old is None else CONFIG.replace(old, new))
    assert main(["run", str(p), *args]) == 2
    assert capsys.readouterr().err == "config error: %s\n" % message


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("algorithm = erato, ohsam", "jitter_max = 0.001, nan",
         "cell (jitter_max=nan): network.jitter_max: must be non-negative and finite, got nan"),
        ("algorithm = erato, ohsam", "read_interval = inf",
         "cell (read_interval=inf): workload.read_interval: must be positive and finite, got inf"),
        ("algorithm = erato, ohsam", "n_readers = 1, two", "grid.n_readers: expected int, got '1, two'"),
        ("seeds = 1", "seeds = many", "grid.seeds: expected int, got 'many'"),
        ("seeds = 1", "seeds = 0", "grid.seeds: expected a positive count, got '0'"),
        ("seeds = 1", "seeds = -3", "grid.seeds: expected a positive count, got '-3'"),
        ("seeds = 1", "seeds = 1\nservers = 0@0.5", "grid.servers: crash schedules go in [crashes], not [grid]"),
        ("seeds = 1", "seeds = 1\nwriters = 0@0.5, 0@0.7",
         "grid.writers: crash schedules go in [crashes], not [grid]"),
        ("seeds = 1", "seeds = 1\ncrash_readers = 0@0.5", "grid.crash_readers: unknown key"),
        ("seeds = 1", "seeds = 1\nseed = 1, 2", "grid.seed: not an axis, a sweep's seeds come from seeds = N"),
        ("seeds = 1", "seeds = 1\n[DEFAULT]\nseeds = 2", "DEFAULT: unknown section"),
        # quorums is no cell column, so both quorum systems would share
        # one cell's files; a repeated axis value would run each seed twice.
        ("algorithm = erato, ohsam\nseeds = 1", "quorums = majority, matrix\nn_servers = 9\nseeds = 2",
         "sweep: cell erato_series_s9_r1_w1_fixed.csv would pool runs that differ in quorums"),
        ("algorithm = erato, ohsam", "algorithm = erato, erato",
         "sweep: cell erato_series_s3_r1_w1_fixed.csv would pool seed 0 twice"),
    ],
)
def test_bad_grid_value_exits_2_with_one_line(old, new, message, tmp_path, capsys) -> None:
    grid = tmp_path / "grid.ini"
    grid.write_text(GRID.replace(old, new))
    assert main(["sweep", str(grid), "--out-dir", str(tmp_path / "sweep")]) == 2
    printed = capsys.readouterr()
    assert printed.err == "config error: %s\n" % message
    assert printed.out == ""
    assert not (tmp_path / "sweep").exists()


def test_sweep_reports_each_failed_run(tmp_path, capsys) -> None:
    grid = tmp_path / "grid.ini"
    grid.write_text(GRID + "[network]\ncap_seconds = 0.01\n")
    assert main(["sweep", str(grid), "--out-dir", str(tmp_path / "sweep")]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "failed: %s_series_s3_r1_w1_fixed seed 0: liveness cap hit with operations pending" % algorithm
        for algorithm in ("erato", "ohsam")
    ]


@pytest.mark.parametrize("parallelism", ["0", "-3"])
def test_sweep_parallelism_below_one_exits_2(parallelism, tmp_path, capsys) -> None:
    grid = tmp_path / "grid.ini"
    grid.write_text(GRID)
    out = tmp_path / "sweep"
    assert main(["sweep", str(grid), "--out-dir", str(out), "--parallelism", parallelism]) == 2
    printed = capsys.readouterr()
    assert printed.err == "config error: sweep: parallelism must be at least 1, got %s\n" % parallelism
    assert printed.out == ""
    assert not out.exists()


def edit_field(kind: str, index: int, edit):
    """An edit of a trace's lines: apply edit to field index of the first
    line of this record kind; gives that line's number."""
    def apply(lines: list[str]) -> int:
        i = next(i for i, line in enumerate(lines) if line.split("\t")[0] == kind)
        parts = lines[i].split("\t")
        parts[index] = edit(parts[index])
        lines[i] = "\t".join(parts)
        return i + 1
    return apply


def edit_header(old: str, new: str):
    def apply(lines: list[str]) -> int:
        assert old in lines[0]
        lines[0] = lines[0].replace(old, new)
        return 1
    return apply


def insert_blank_line(lines: list[str]) -> int:
    lines.insert(2, "")
    return 3


def reported_at(kind: str, nth: int, edit):
    """edit, with the error expected at the nth line of this record kind,
    where the re-run of the edited trace first differs from it."""
    def apply(lines: list[str]) -> int:
        edit(lines)
        return [i for i, line in enumerate(lines, start=1) if line.split("\t")[0] == kind][nth - 1]
    return apply


def zero_first_jitter(lines: list[str]) -> int:
    """Move the first snd's arrival, and its dlv's time, to where the
    message lands with no jitter: a draw within [0, jitter_max] that the
    run did not make.  The text stays canonical and the wire consistent."""
    smooth = run_scenario(with_overrides(parse_config(CONFIG), jitter_max=0.0)).trace
    first = next(rec for rec in smooth.records if rec[0] == "snd")
    i = next(i for i, line in enumerate(lines) if line.startswith("snd\t"))
    parts = lines[i].split("\t")
    assert parts[:7] == [str(field) for field in first[:7]] and parts[7] != repr(first[7])
    moved = repr(first[7])
    dlv = ["dlv", parts[7], parts[3], parts[2]] + parts[4:7]
    j = lines.index("\t".join(dlv))
    lines[i] = "\t".join(parts[:7] + [moved])
    lines[j] = "\t".join(["dlv", moved] + dlv[2:])
    return i + 1


# Edits that the re-run refuses at the edited line when the header holds
# the scenario.  A bare header names no scenario to re-run, and under one
# the canonical compare and the wire's recount refuse each edit at that
# line, with these messages.
RECOUNTED_EDITS = [
    # Numbers, lines and the header have one spelling each.
    pytest.param(edit_field("inv", 1, lambda t: t + "0"), "is not canonical", id="time_0.20"),
    pytest.param(edit_field("inv", 3, lambda op: "0_" + op), "is not canonical", id="op_0_1"),
    pytest.param(edit_field("inv", 3, lambda op: "\u0661"), "is not canonical", id="arabic_indic_digit"),
    pytest.param(insert_blank_line, "'\\n' is not canonical", id="blank_line"),
    pytest.param(edit_header("algorithm=erato\tseed=0", "seed=0\talgorithm=erato"), "is not canonical",
                 id="header_order"),
    # The wire's numbers are recounted.
    pytest.param(edit_field("res", 4, lambda n: "7"), "claims 7 exchanges, the wire shows 2", id="res_exchanges"),
    pytest.param(edit_field("end", 3, lambda n: "999"), "end claims 999 stale drops, the wire shows 0",
                 id="end_stale_drops"),
]

# The message of a RECOUNTED_EDITS row under its scenario header: the
# re-run's line and the edited line.
RERUN = None


def check_refuses(lines: list[str], lineno: int, message: str, tmp_path, capsys) -> None:
    edited = tmp_path / "edited.log"
    edited.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", str(edited)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and message in err
    assert err.startswith("input error: %s: line %d: " % (edited, lineno))


def run_trace_lines(config_file, tmp_path) -> list[str]:
    out = tmp_path / "out"
    assert main(["run", str(config_file), "--out-dir", str(out)]) == 0
    return (out / "trace.log").read_text().splitlines()


@pytest.mark.parametrize(
    "edit,message",
    [
        *[pytest.param(row.values[0], RERUN, id=row.id) for row in RECOUNTED_EDITS],
        # The header is a scenario that validates.
        pytest.param(edit_header("\tscheme=", "\tbogus=1\tscheme="), "bogus: unknown key", id="unknown_key"),
        pytest.param(edit_header("n_servers=3", "n_servers=x"), "n_servers: expected int, got 'x'", id="bad_int"),
        pytest.param(edit_header("algorithm=erato", "algorithm=nonsense"),
                     "scenario.algorithm: unknown 'nonsense'", id="unknown_algorithm"),
        pytest.param(edit_header("\ttopology=series", ""), "topology: missing key", id="missing_topology"),
        pytest.param(edit_header("n_readers=1\t", "n_readers=509\t"),
                     "scenario: 513 servers, readers and writers number more than 512", id="too_many_nodes"),
        pytest.param(edit_header("ops_per_client=2\t", "ops_per_client=25001\t"),
                     "workload: 50002 operations listed, more than 50000", id="too_many_operations"),
        pytest.param(edit_header("value_size=64\t", "value_size=65537\t"),
                     "network.value_size: more than 65536 octets", id="value_too_large"),
        # A bare header names an algorithm that exists.
        pytest.param(lambda lines: edit_header(lines[0], "run\talgorithm=paxos\tseed=0")(lines),
                     "unknown algorithm 'paxos'", id="bare_unknown_algorithm"),
        # The header's scenario is re-run.
        pytest.param(reported_at("inv", 2, edit_header("n_readers=1\tn_servers=3", "n_readers=5\tn_servers=7")),
                     "re-run gives 'snd\\t0.2\\tr0\\ts3\\t", id="more_readers_and_servers"),
        pytest.param(reported_at("snd", 1, edit_header("\tseed=0\t", "\tseed=1\t")),
                     "re-run gives 'snd\\t0.2\\tr0\\ts0\\t", id="seed"),
        pytest.param(zero_first_jitter, "re-run gives 'snd\\t0.2\\tr0\\ts0\\t", id="arrival"),
    ],
)
def test_check_refuses_an_edited_trace(edit, message, config_file, tmp_path, capsys) -> None:
    lines = run_trace_lines(config_file, tmp_path)
    rerun = list(lines)
    lineno = edit(lines)
    if message is RERUN:
        message = "re-run gives %r, trace has %r\n" % (rerun[lineno - 1] + "\n", lines[lineno - 1] + "\n")
    check_refuses(lines, lineno, message, tmp_path, capsys)


@pytest.mark.parametrize("edit,message", RECOUNTED_EDITS)
def test_check_refuses_an_edited_bare_trace(edit, message, config_file, tmp_path, capsys) -> None:
    lines = run_trace_lines(config_file, tmp_path)
    lines[0] = "run\talgorithm=erato\tseed=0"
    lineno = edit(lines)
    check_refuses(lines, lineno, message, tmp_path, capsys)


@pytest.mark.parametrize("brk", ["\r\n", "\r"])
def test_check_judges_the_files_own_line_breaks(brk, config_file, tmp_path, capsys) -> None:
    # Read with newline translation, either copy would be the re-run's
    # text; its bytes are not.
    lines = run_trace_lines(config_file, tmp_path)
    copy = tmp_path / "copy.log"
    copy.write_bytes("".join(line + brk for line in lines).encode())
    capsys.readouterr()
    assert main(["check", str(copy)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("input error: %s: line 1: re-run gives " % copy)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_check_accepts_every_simulated_crash_trace(algorithm, tmp_path, capsys) -> None:
    # The wire check must never refuse a trace the simulator wrote,
    # including deliveries to nodes that crash later in the run.
    config = tmp_path / "crash.ini"
    config.write_text(
        CONFIG.replace("algorithm = erato", "algorithm = %s" % algorithm)
        .replace("n_readers = 1", "n_readers = 2")
        .replace("n_writers = 1", "n_writers = %d" % (2 if ALGORITHMS[algorithm].mw else 1))
        + "[network]\njitter_max = 0.002\n[crashes]\nservers = 0@0.25\nreaders = 1@0.3\n"
    )
    out = tmp_path / "out"
    assert main(["run", str(config), "--out-dir", str(out)]) == 0
    lines = (out / "trace.log").read_text().splitlines()
    assert "crs\t0.25\ts0" in lines
    assert any(line.startswith("dlv\t") and line.split("\t")[2] == "s0" for line in lines)
    capsys.readouterr()
    assert main(["check", str(out / "trace.log")]) == 0
    assert "atomicity: ok" in capsys.readouterr().out


def test_sweep_and_report(tmp_path, capsys) -> None:
    grid = tmp_path / "grid.ini"
    grid.write_text(GRID)
    out = tmp_path / "sweep"
    assert main(["sweep", str(grid), "--out-dir", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "sweep: 2 runs" in printed
    assert (out / "aggregate.csv").exists()

    cell_csvs = sorted(str(p) for p in out.glob("*_series_*.csv"))
    assert len(cell_csvs) == 2
    assert main(["report", *cell_csvs]) == 0
    report = capsys.readouterr().out
    assert "erato" in report and "ohsam" in report
    assert "read" in report and "write" in report

    # The aggregate file has a different schema and must be refused, not
    # misparsed.
    assert main(["report", str(out / "aggregate.csv")]) == 2
    assert "not a per-operation csv" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row,message",
    [
        ("x,r0,read,0.1,0.2,2,10", "line 3: invalid literal for int() with base 10: 'x'"),
        ("1,r0,read", "line 3: expected 14 fields"),
        ("1,r0,read,0.1,0.2,2,10,extra", "line 3: expected 14 fields"),
        ("1,q7,read,0.1,0.2,2,10", "line 3: not a process id: 'q7'"),
        ("1,r03,read,0.1,0.2,2,10", "line 3: not a process id: 'r03'"),
        # Rows that `run` never writes.  A row of all 14 fields stands alone.
        ("erato,star,3,1,1,fixed,0,1,r0,read,0.1,nan,2,9",
         "line 3: latency_s: expected a finite value >= 0, got nan"),
        ("1,r0,read,inf,0.2,2,10", "line 3: invoked_at: expected a finite value >= 0, got inf"),
        ("1,r0,read,0.1,inf,2,10", "line 3: latency_s: expected a finite value >= 0, got inf"),
        ("1,r0,read,0.1,-5,2,10", "line 3: latency_s: expected a finite value >= 0, got -5"),
        ("1,r0,read,0.1,0.2,-2,10", "line 3: exchanges: expected a finite value >= 0, got -2"),
        ("1,r0,read,0.1,0.2,2,-9", "line 3: messages: expected a finite value >= 0, got -9"),
        ("0,r0,read,0.1,0.2,2,10", "line 3: op_id: expected a finite value >= 1, got 0"),
        ("1,r0,bogus,0.1,0.2,2,10", "line 3: op_kind: r0 runs reads, got 'bogus'"),
        ("1,r0,write,0.1,0.2,2,10", "line 3: op_kind: r0 runs reads, got 'write'"),
        ("1,s0,read,0.1,0.2,2,10", "line 3: process s0 is not a client"),
        ("1,r1,read,0.1,0.2,2,10", "line 3: process r1: n_readers is 1"),
        ("erato,nowhere,3,1,1,fixed,0,1,r0,read,0.1,0.2,2,10",
         "line 3: scenario.topology: must be series or star"),
        ("erato,series,abc,1,1,fixed,0,1,r0,read,0.1,0.2,2,10",
         "line 3: invalid literal for int() with base 10: 'abc'"),
        ("erato,series,0,1,1,fixed,0,1,r0,read,0.1,0.2,2,10",
         "line 3: scenario.n_servers: need at least one server"),
        ("erato,series,3,1,1,often,0,1,r0,read,0.1,0.2,2,10",
         "line 3: workload.scheme: must be fixed or stochastic"),
        ("erato,series,3,1,1,fixed,zero,1,r0,read,0.1,0.2,2,10",
         "line 3: invalid literal for int() with base 10: 'zero'"),
        ("paxos,series,3,1,1,fixed,0,1,r0,read,0.1,0.2,2,10",
         "line 3: scenario.algorithm: unknown 'paxos' (choose from abd, abd_mw, erato, erato_mw, ohmam, ohsam)"),
        # A row's scenario columns are held to config.validate, as a config is.
        ("erato,series,3,1,2,fixed,0,1,r0,read,0.1,0.2,2,10", "line 3: scenario.n_writers: SWMR requires one writer"),
        ("abd,series,600,1,1,fixed,0,1,r0,read,0.1,0.2,2,10",
         "line 3: scenario: 602 servers, readers and writers number more than 512"),
        (" erato,series,3,1,1,fixed,0,1,r0,read,0.1,0.2,2,10",
         "line 3: scenario.algorithm: unknown ' erato' (choose from abd, abd_mw, erato, erato_mw, ohmam, ohsam)"),
        # An int column is spelled as run writes it.
        ("erato,series,1_0,1,1,fixed,0,1,r0,read,0.1,0.2,2,10",
         "line 3: n_servers: expected an integer spelled as run writes it, got '1_0'"),
        ("erato,series, 3,1,1,fixed,0,1,r0,read,0.1,0.2,2,10",
         "line 3: n_servers: expected an integer spelled as run writes it, got ' 3'"),
        ("erato,series,3,1,1,fixed,+3,1,r0,read,0.1,0.2,2,10",
         "line 3: seed: expected an integer spelled as run writes it, got '+3'"),
        ("03,r0,read,0.1,0.2,2,10", "line 3: op_id: expected an integer spelled as run writes it, got '03'"),
    ],
)
def test_report_bad_row_exits_2_with_one_line(row, message, tmp_path, capsys) -> None:
    from regsim.harness import CSV_HEADER

    prefix = "erato,series,3,1,1,fixed,0,"
    line = row if row.count(",") == 13 else prefix + row
    p = tmp_path / "ops.csv"
    p.write_text("%s\n%s1,w0,write,0.1,0.2,2,10\n%s\n" % (CSV_HEADER, prefix, line))
    assert main(["report", str(p)]) == 2
    assert capsys.readouterr().err == "%s: %s\n" % (p, message)


def test_report_empty(tmp_path, capsys) -> None:
    p = tmp_path / "empty.csv"
    from regsim.harness import CSV_HEADER

    p.write_text(CSV_HEADER + "\n")
    assert main(["report", str(p)]) == 0
    assert "no operations" in capsys.readouterr().err


class ClosedStdout(io.TextIOBase):
    """A stdout whose reader has gone: every write raises EPIPE."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


def test_a_closed_stdout_ends_the_command_quietly(config_file, capsys, monkeypatch) -> None:
    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    assert main(["run", str(config_file)]) == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_closed_stdout_pipe_leaves_no_line_at_exit(unbuffered, config_file) -> None:
    # A buffered stdout still holds the run's lines at the flush at exit.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
               PYTHONUNBUFFERED=unbuffered)
    try:
        done = subprocess.run([sys.executable, "-m", "regsim.cli", "run", str(config_file)],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_an_unwritable_out_dir_is_an_output_error(command, config_file, tmp_path, capsys) -> None:
    inputs = {"run": config_file, "sweep": tmp_path / "grid.ini"}
    inputs["sweep"].write_text(GRID)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main([command, str(inputs[command]), "--out-dir", str(blocker / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("output error: [Errno %d] " % errno.ENOTDIR) and len(err.splitlines()) == 1


def python310():
    """A runnable Python 3.10 interpreter, or None: `python3.10` on the
    PATH, then any pyenv 3.10 build; each must run and report 3.10."""
    candidates = [shutil.which("python3.10")]
    candidates += sorted(map(str, Path.home().glob(".pyenv/versions/3.10.*/bin/python3.10")))
    for exe in filter(None, candidates):
        try:
            got = subprocess.run([exe, "-c", "import sys; print(sys.version_info[:2])"],
                                 capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if got.returncode == 0 and got.stdout.strip() == "(3, 10)":
            return exe
    return None


def test_run_and_check_on_python_3_10_match_this_interpreter(tmp_path) -> None:
    # pyproject.toml declares requires-python >= 3.10, so the oldest
    # supported interpreter must import, run and check with the same bytes.
    exe = python310()
    if exe is None:
        pytest.skip("no runnable Python 3.10 interpreter")
    config = tmp_path / "mw.ini"
    config.write_text(
        CONFIG.replace("algorithm = erato", "algorithm = erato_mw")
        .replace("n_servers = 3", "n_servers = 5")
        .replace("n_writers = 1", "n_writers = 2")
        + "[crashes]\nservers = 1@0.3\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    outputs = []
    for i, python in enumerate((exe, sys.executable)):
        out = tmp_path / ("out%d" % i)
        for args in (["run", str(config), "--out-dir", str(out)], ["check", str(out / "trace.log")]):
            done = subprocess.run([python, "-m", "regsim.cli", *args], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, (python, args, done.stderr)
        outputs.append(((out / "trace.log").read_bytes(), (out / "results.csv").read_bytes()))
    assert outputs[0] == outputs[1]
