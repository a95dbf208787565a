import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hypca
from hypca import automaton, ca1d, cli
from hypca import region as reg
from hypca import symmetry as sym

import symmetry_reference as ref

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*argv):
    return cli.main(list(argv))


def test_transform_all_aliases(tmp_path, capsys):
    for method, grid in [("t1", "pentagrid"), ("extra", "heptagrid"),
                         ("t1", "dodecagrid"), ("t3", "pentagrid"),
                         ("t4", "heptagrid"), ("compact", "dodecagrid")]:
        out = tmp_path / f"{method}_{grid}.json"
        assert run_cli("transform", "--rule", "elementary:110",
                       "--grid", grid, "--method", method,
                       "-o", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["grid"] == grid
    capsys.readouterr()


def test_transform_writes_the_automatons_own_keys(tmp_path, capsys):
    """An automaton file holds what the automaton holds; what its kind
    and action fix is not stored."""
    out = tmp_path / "auto.json"
    for method in ("extra", "compact"):
        for grid in ("pentagrid", "heptagrid", "dodecagrid"):
            assert run_cli("transform", "--rule", "elementary:110", "--grid",
                           grid, "--method", method, "-o", str(out)) == 0
            assert list(json.loads(out.read_text())) == [
                "grid", "kind", "name", "action", "patterns",
                "padding_state"]
    capsys.readouterr()


@pytest.mark.parametrize("grid", ["pentagrid", "heptagrid", "dodecagrid"])
@pytest.mark.parametrize("method", ["extra", "compact"])
def test_transform_matches_the_rule_110_goldens(tmp_path, capsys, grid,
                                                method):
    """`transform` writes rule 110's six automaton files byte for byte as
    `tests/golden/transform_110` holds them."""
    out = tmp_path / "auto.json"
    assert run_cli("transform", "--rule", "elementary:110", "--grid", grid,
                   "--method", method, "-o", str(out)) == 0
    assert out.read_bytes() \
        == (GOLDEN / "transform_110" / f"{grid}_{method}.json").read_bytes()
    capsys.readouterr()


def test_malformed_rule_specs_and_names_exit_2(tmp_path, capsys):
    """An elementary spec that is not decimal digits in 0..255 names its
    option and the form; a `name` that is no JSON string, in a rule file
    or an automaton file, names the key."""
    for spec in ("elementary:abc", "elementary: 30", "elementary:3_0"):
        assert run_cli("transform", "--rule", spec, "--grid",
                       "pentagrid") == 2
        assert capsys.readouterr() == ("", f"error: --rule {spec}: give "
                                       "elementary:N with N in 0..255, or "
                                       "a rule file\n")
    rule = tmp_path / "rule.json"
    rule.write_text(json.dumps({"n": 2, "table": [0, 1, 1, 1, 0, 1, 1, 0],
                                "name": {"x": 1}}))
    assert run_cli("transform", "--rule", str(rule), "--grid",
                   "pentagrid") == 2
    assert capsys.readouterr() == ("", "error: rule key 'name' has the "
                                   "wrong form\n")
    auto = tmp_path / "auto.json"
    assert run_cli("transform", "--rule", "elementary:110", "--grid",
                   "pentagrid", "-o", str(auto)) == 0
    assert run_cli("simulate", "--automaton", str(auto), "--steps", "1",
                   "--check-oracle", "elementary:x") == 2
    assert capsys.readouterr().err.startswith(
        "error: --check-oracle elementary:x: give elementary:N")
    auto.write_text(json.dumps(dict(json.loads(auto.read_text()),
                                    name=[1, 2])))
    assert run_cli("verify", "--automaton", str(auto)) == 2
    assert capsys.readouterr() == ("", "error: automaton key 'name' has "
                                   "the wrong form\n")


def test_pipeline_pentagrid(tmp_path, capsys):
    # malformed rule files
    rule_file = tmp_path / "rule.json"
    # and table entries that are no JSON int: a float, a boolean, a string
    odd = [{"n": 2, "table": [0] * 7 + [entry]} for entry in (1.7, True, "1")]
    for doc, says in (({"table": [0] * 8}, "'n'"), ({"n": 2.0}, "'n'"),
                      ({"n": 2, "table": None}, "'table'"),
                      ({"n": 2, "table": [0] * 3}, "expected 8 table"),
                      *((doc, "'table'") for doc in odd)):
        rule_file.write_text(json.dumps(doc))
        assert run_cli("transform", "--rule", str(rule_file),
                       "--grid", "pentagrid") == 2
        assert says in capsys.readouterr().err
    auto = tmp_path / "auto.json"
    run_cli("transform", "--rule", "elementary:110", "--grid", "pentagrid",
            "--method", "t3", "-o", str(auto))
    # an automaton file reads its action through the same reader
    good = json.loads(auto.read_text())
    for doc in odd:
        auto.write_text(json.dumps(dict(
            good, action=dict(good["action"], table=doc["table"]))))
        assert run_cli("verify", "--automaton", str(auto)) == 2
        err = capsys.readouterr().err
        assert "'action'" in err and "'table'" in err
    auto.write_text(json.dumps(good))
    assert run_cli("verify", "--automaton", str(auto),
                   "--radius", "3", "--halfwidth", "2",
                   "--horizon", "4") == 0
    assert "0 conflict groups" in capsys.readouterr().out

    trace = tmp_path / "trace.txt"
    snap = tmp_path / "snap.json"
    regf = tmp_path / "region.json"
    assert run_cli("simulate", "--automaton", str(auto), "--word", "1",
                   "--steps", "3", "--check-oracle",
                   "--save-region", str(regf), "--snapshot-out", str(snap),
                   "-o", str(trace)) == 0
    err = capsys.readouterr().err
    assert "matches the 1D run" in err
    assert trace.read_text() == (GOLDEN / "trace_110_pentagrid.txt").read_text()

    svg = tmp_path / "shot.svg"
    assert run_cli("render", "--region", str(regf), "--snapshot", str(snap),
                   "--automaton", str(auto), "-o", str(svg)) == 0
    assert svg.read_text().startswith("<svg ")


def test_pipeline_dodecagrid(tmp_path, capsys):
    auto = tmp_path / "auto.json"
    run_cli("transform", "--rule", "elementary:110", "--grid", "dodecagrid",
            "--method", "t4", "-o", str(auto))
    assert run_cli("simulate", "--automaton", str(auto), "--word", "1,1,0",
                   "--steps", "2", "--halfwidth", "1",
                   "--check-oracle", "elementary:110") == 0
    out = capsys.readouterr()
    assert "matches the 1D run" in out.err
    assert out.out.splitlines()[0].startswith("0\t")
    capsys.readouterr()


def test_simulate_svg_dir(tmp_path, capsys):
    auto = tmp_path / "auto.json"
    run_cli("transform", "--rule", "elementary:110", "--grid", "pentagrid",
            "--method", "t1", "-o", str(auto))
    shots = tmp_path / "shots"
    assert run_cli("simulate", "--automaton", str(auto), "--word", "1",
                   "--steps", "2", "--svg-dir", str(shots)) == 0
    capsys.readouterr()
    names = sorted(p.name for p in shots.iterdir())
    assert names == ["step_000.svg", "step_001.svg", "step_002.svg"]


def test_verify_flags_bad_automaton(tmp_path, capsys):
    """Two broken patterns on the dodecagrid: the extra-state one with the
    reflected-row slot pinned, and the compact one with faces 3 and 9
    left free, whose tape cells read both ways.  `verify` lays the pinned
    row blue, where tape cells read both ways too; laid by hand with
    letters on that row, the tape cells have no reading.  Every violation
    line spells out what the reference matcher finds in that cell's
    context at that time."""
    import dataclasses
    from hypca import ca1d, embed, engine, region
    rule = ca1d.elementary(110)
    extra = embed.embed_extra_state(rule, "dodecagrid")
    compact = embed.embed_compact(rule, "dodecagrid")
    slots = list(extra.pattern.slots)
    slots[0] = embed.fixed(extra.blue)
    unrepaired = dataclasses.replace(
        extra, pattern=embed.ContextPattern(tuple(slots)))
    slots = list(compact.pattern.slots)
    slots[3] = slots[9] = embed.FREE_LETTER
    loose = dataclasses.replace(
        compact, pattern=embed.ContextPattern(tuple(slots)))
    r = region.build_region("dodecagrid", 3, 1)
    cases = []
    for bad in (unrepaired, loose):
        path = tmp_path / "bad.json"
        path.write_text(embed.automaton_to_json(bad))
        assert run_cli("verify", "--automaton", str(path), "--radius", "3",
                       "--halfwidth", "1", "--horizon", "2") == 1
        init = engine.init_configuration(r, bad, [1])
        cases.append((bad, init, capsys.readouterr().out))
    gl = r.guideline
    m = gl.mirror_ids >= 0
    init = engine.init_configuration(r, unrepaired, [1])
    assert (init.states[gl.mirror_ids[m]] == unrepaired.blue).all()
    init.states[gl.mirror_ids[m]] = init.states[gl.cell_ids[m]]
    report = embed.verify_unique_applicability(unrepaired, r, init, 2)
    cases.append((unrepaired, init, report.text()))
    kinds = set()
    for bad, init, out in cases:
        run = ref.frozen_rim_run(bad, r, init.states, 2)
        lines = out[out.index("\nviolations: "):].splitlines()[2:]
        assert lines
        for ln in lines:
            kind, t, c = ln.split(":")[0].split()
            t, c = int(t[2:]), int(c[5:])
            states = run[t]
            readings, outs = ref.reading_outcomes(
                bad, int(states[c]), tuple(states[r.adjacency[c]].tolist()))
            detail = {
                "ambiguous": f"readings {readings} give states {outs}",
                "line-unmatched": "no admissible reading",
                "off-line-changed": f"reading would move state to {outs}",
            }[kind]
            assert ln == f"  {kind} t={t} cell={c}: {detail}"
            assert (len(outs) > 1) == (kind == "ambiguous")
            assert (not readings) == (kind == "line-unmatched")
            kinds.add(kind)
    assert kinds == {"ambiguous", "line-unmatched"}


def test_marker_sides_follow_the_pattern(tmp_path, capsys):
    """Compact files whose patterns pin markers on other sides than the
    paper's are laid out by their patterns: the heptagrid with rule 110
    and markers on sides (2, 5, 6), and the pentagrid with rule 30, which
    is not fixable, and markers on (2, 4).  Each verifies with no
    violation and follows its 1D run."""
    from hypca import ca1d
    auto = tmp_path / "auto.json"
    for grid, rule, markers in (("heptagrid", 110, (2, 5, 6)),
                                ("pentagrid", 30, (2, 4))):
        run_cli("transform", "--rule", "elementary:110", "--grid", grid,
                "--method", "compact", "-o", str(auto))
        doc = json.loads(auto.read_text())
        doc["action"] = json.loads(ca1d.rule_to_json(ca1d.elementary(rule)))
        for i, slot in enumerate(doc["patterns"][0]):
            if slot["kind"] == "fixed":
                slot["state"] = int(i in markers)
        auto.write_text(json.dumps(doc))
        assert run_cli("verify", "--automaton", str(auto)) == 0, grid
        assert "\nviolations: 0\n" in capsys.readouterr().out
        assert run_cli("simulate", "--automaton", str(auto), "--word",
                       "1011", "--steps", "4", "--check-oracle") == 0, grid
        err = capsys.readouterr().err
        assert "tape trace: matches the 1D run" in err
        assert "off-line cells: stable" in err


def test_verify_110_matches_golden(tmp_path, capsys):
    """`hypca verify` of rule 110 on all six (grid, method) pairs at the
    command's defaults, byte for byte: the counts and the context rows.
    Each pair's output follows a line naming it and the exit code."""
    parts = []
    for grid in ("pentagrid", "heptagrid", "dodecagrid"):
        for method in ("extra", "compact"):
            auto = tmp_path / f"{grid}_{method}.json"
            out = tmp_path / f"{grid}_{method}.txt"
            run_cli("transform", "--rule", "elementary:110", "--grid", grid,
                    "--method", method, "-o", str(auto))
            code = run_cli("verify", "--automaton", str(auto),
                           "-o", str(out))
            parts.append(f"== {grid} {method}: exit {code}\n"
                         + out.read_text())
    assert "".join(parts) == (GOLDEN / "verify_110.txt").read_text()
    capsys.readouterr()


def test_verify_states_invariance_by_construction(tmp_path, capsys,
                                                  monkeypatch):
    """Every construction is rotation invariant by design, so `verify`
    states it with a cell's rotation count and runs no check: with
    `check_invariance` made to raise, rule 110's automata on the three
    grids still verify clean."""
    from hypca import embed

    def check_invariance(automaton):
        raise AssertionError("verify ran the invariance check")

    monkeypatch.setattr(embed, "check_invariance", check_invariance)
    auto = tmp_path / "auto.json"
    for grid, rotations in (("pentagrid", 5), ("heptagrid", 7),
                            ("dodecagrid", 60)):
        for method in ("extra", "compact"):
            run_cli("transform", "--rule", "elementary:110", "--grid", grid,
                    "--method", method, "-o", str(auto))
            capsys.readouterr()
            assert run_cli("verify", "--automaton", str(auto)) == 0
            assert capsys.readouterr().out.startswith(
                "rotation invariance: 0 conflict groups, by construction "
                f"over a cell's {rotations} rotations\ncells scanned: ")


def test_deeply_nested_input_file_exits_2(tmp_path, capsys):
    """A file nested past the JSON parser's recursion limit is refused
    with one error line naming the file, whichever command reads it."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    for argv, what in (
            (("transform", "--rule", str(deep), "--grid", "pentagrid"),
             "rule"),
            (("verify", "--automaton", str(deep)), "automaton")):
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == (
            f"error: the {what} file nests its JSON too deeply to read\n")


def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    """A region too large for the memory left is refused with exit 2 and
    one error line, numpy's message or else "out of memory".
    `build_region` is made to raise as numpy does, so nothing large is
    allocated."""
    auto = tmp_path / "auto.json"
    run_cli("transform", "--rule", "elementary:110", "--grid", "dodecagrid",
            "-o", str(auto))
    says = ("Unable to allocate 1.49 GiB for an array with shape "
            "(200000007,) and data type int64")
    for error, line in ((MemoryError(says), says),
                        (MemoryError(), "out of memory")):
        def build_region(grid, radius, halfwidth):
            raise error

        monkeypatch.setattr(reg, "build_region", build_region)
        for command in ("verify", "simulate"):
            assert run_cli(command, "--automaton", str(auto),
                           "--halfwidth", "100000000") == 2
            assert capsys.readouterr().err == f"error: {line}\n"


def test_verify_prints_multi_reading_cells(tmp_path, capsys):
    auto = tmp_path / "auto.json"
    run_cli("transform", "--rule", "elementary:110", "--grid", "heptagrid",
            "--method", "extra", "-o", str(auto))
    capsys.readouterr()
    assert run_cli("verify", "--automaton", str(auto), "--radius", "3",
                   "--halfwidth", "2", "--horizon", "3") == 0
    out = capsys.readouterr().out
    assert "\nmulti-reading cells: 0\nviolations: 0\n" in out


def test_oracle_divergence_exit_code(tmp_path, capsys):
    import dataclasses
    from hypca import ca1d, embed
    b = embed.embed_compact(ca1d.elementary(110), "pentagrid")
    table = b.action.table.copy()
    table[0, 0, 1] = 0
    bad = dataclasses.replace(b, action=ca1d.Rule1D(2, table))
    path = tmp_path / "bad.json"
    path.write_text(embed.automaton_to_json(bad))
    assert run_cli("simulate", "--automaton", str(path), "--word", "1",
                   "--steps", "2", "--check-oracle", "elementary:110") == 1
    assert "divergence" in capsys.readouterr().err


def test_oracle_of_fewer_states_than_the_word_exits_2(tmp_path):
    """A 3-state rule's automaton checked against the 2-state rule 110: the
    word's state 2 is no state of the oracle's rule, so the check is
    refused with exit 2 and one error line, not a traceback."""
    rule, auto = tmp_path / "r3.json", tmp_path / "r3_auto.json"
    rule.write_text(json.dumps({"n": 3, "table": [i // 3 % 3
                                                  for i in range(27)]}))
    assert run_cli("transform", "--rule", str(rule), "--grid", "pentagrid",
                   "-o", str(auto)) == 0
    src = str(Path(hypca.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "hypca.cli", "simulate", "--automaton",
         str(auto), "--word", "12", "--steps", "2", "--check-oracle",
         "elementary:110"], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 2
    assert done.stderr == ("error: tape position 0 holds state 2, outside "
                           "the rule's states 0..1\n")


def test_transform_refuses_codes_past_the_limit(tmp_path, capsys):
    """A 28-state rule's extra automaton on the dodecagrid has 29 states,
    whose context codes overflow int64, so no command could compile it:
    `transform` exits 2 naming the limit and writes nothing.  Its compact
    automaton keeps 28 states, which fit, and is written."""
    rule, auto = tmp_path / "r28.json", tmp_path / "r28_auto.json"
    rule.write_text(json.dumps({"n": 28, "table": [i % 28
                                                   for i in range(28 ** 3)]}))
    assert run_cli("transform", "--rule", str(rule), "--grid", "dodecagrid",
                   "-o", str(auto)) == 2
    assert capsys.readouterr().err == (
        "error: context codes overflow int64: 29 states at arity 12 need "
        "29**13 codes, more than the limit n_states**(arity + 1) <= 2**63\n")
    assert not auto.exists()
    assert run_cli("transform", "--rule", str(rule), "--grid", "dodecagrid",
                   "--method", "compact", "-o", str(auto)) == 0
    assert automaton.automaton_from_json(auto.read_text()).n_states == 28


@pytest.mark.parametrize("grid", ["pentagrid", "heptagrid", "dodecagrid"])
def test_rule_without_a_quiescent_state_runs_padded_with_0(tmp_path, capsys,
                                                           grid):
    """Rule 1 has no quiescent state, so the extra construction pads its
    tape with 0.  `verify` passes it, and `simulate` runs it: the trace
    matches a 1D run with frozen ends on a window wide enough that the
    ends do not reach the trusted positions.  The oracle needs a
    quiescent padding, so `--check-oracle` is refused, naming the
    equality that fails."""
    auto, trace = tmp_path / "rule1.json", tmp_path / "trace.txt"
    assert run_cli("transform", "--rule", "elementary:1", "--grid", grid,
                   "-o", str(auto)) == 0
    assert json.loads(auto.read_text())["padding_state"] == 0
    assert run_cli("verify", "--automaton", str(auto)) == 0
    steps, m = 3, 20
    assert run_cli("simulate", "--automaton", str(auto), "--word", "1011",
                   "--steps", str(steps), "-o", str(trace)) == 0
    table = ca1d.elementary(1).table
    row = ca1d.word_tape([1, 0, 1, 1]).window(-m, m + 1)
    lines = trace.read_text().splitlines()
    assert len(lines) == steps + 1
    for t, line in enumerate(lines):
        time, start, letters = line.split("\t")
        got = [int(v) for v in letters.split()]
        assert int(time) == t and len(got) > 4
        assert got == row[int(start) + m:][:len(got)].tolist(), t
        row = np.r_[row[0], table[row[:-2], row[1:-1], row[2:]], row[-1]]
    capsys.readouterr()
    assert run_cli("simulate", "--automaton", str(auto), "--steps", "2",
                   "--check-oracle") == 2
    assert capsys.readouterr().err == (
        "error: padding state 0 is not quiescent for this rule: "
        "A(0,0,0) = 1\n")


def test_failure_exit_codes(tmp_path, capsys):
    # not fixable on the pentagrid
    assert run_cli("transform", "--rule", "elementary:30",
                   "--grid", "pentagrid", "--method", "t3") == 2
    # unknown elementary number
    assert run_cli("transform", "--rule", "elementary:999",
                   "--grid", "pentagrid") == 2
    auto = tmp_path / "auto.json"
    run_cli("transform", "--rule", "elementary:110", "--grid", "pentagrid",
            "--method", "t1", "-o", str(auto))
    # more steps than the region can certify
    assert run_cli("simulate", "--automaton", str(auto), "--word", "1",
                   "--steps", "5", "--radius", "3") == 2
    assert "exceed the remaining validity 3" in capsys.readouterr().err
    # words that do not parse name the option
    for word in ("x", "-1"):
        assert run_cli("simulate", "--automaton", str(auto), "--word", word,
                       "--steps", "1") == 2
        assert capsys.readouterr().err == (
            f"error: --word {word!r}: give digits, or integers separated "
            "by commas\n")
    # negative counts, and a region of no radius or a negative halfwidth,
    # are refused before anything is built or printed, naming the option
    for argv, says in ((("simulate", "--steps", "-2", "--check-oracle"),
                        "--steps must be at least 0, not -2"),
                       (("verify", "--horizon", "-2"),
                        "--horizon must be at least 0, not -2"),
                       (("verify", "--radius", "0"),
                        "--radius must be at least 1, not 0"),
                       (("verify", "--halfwidth", "-1"),
                        "--halfwidth must be at least 0, not -1"),
                       (("simulate", "--radius", "0", "--check-oracle"),
                        "--radius must be at least 1, not 0"),
                       (("simulate", "--halfwidth", "-1"),
                        "--halfwidth must be at least 0, not -1"),
                       (("render", "--grid", "pentagrid", "--radius", "0"),
                        "--radius must be at least 1, not 0"),
                       (("render", "--grid", "dodecagrid", "--halfwidth",
                         "-3"), "--halfwidth must be at least 0, not -3")):
        assert run_cli(argv[0], "--automaton", str(auto), *argv[1:]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {says}\n")
    # malformed automaton files: a missing key, an unknown grid
    doc = json.loads(auto.read_text())
    for key, value, says in (("padding_state", None, "'padding_state'"),
                             ("grid", "hexgrid", "unknown grid 'hexgrid'")):
        bad = dict(doc, **{key: value})
        if value is None:
            del bad[key]
        auto.write_text(json.dumps(bad))
        assert run_cli("simulate", "--automaton", str(auto), "--word", "1",
                       "--steps", "1") == 2
        assert says in capsys.readouterr().err
    # keys present with values of the wrong form, and keys that disagree:
    # a padding outside the source states, an unknown kind, pattern slots
    # with no state, a string state, an unknown kind, and a state on a
    # left slot, and a pattern cut to four slots that keeps its left and
    # right slots
    slots = doc["patterns"][0]
    assert [s["kind"] for s in slots[:2]] == ["left", "fixed"]
    assert [s["kind"] for s in slots].index("right") < 4

    def pattern_with(i, **changed):
        return [slots[:i] + [dict(slots[i], **changed)] + slots[i + 1:]]

    for key, value in (("patterns", 5), ("patterns", [[1, 2, 3, 4, 5]]),
                       ("action", 5),
                       ("padding_state", 7), ("padding_state", "x"),
                       ("padding_state", None), ("kind", "weird"),
                       ("patterns", pattern_with(1, state=None)),
                       ("patterns", pattern_with(1, state="2")),
                       ("patterns", pattern_with(1, kind="bogus")),
                       ("patterns", pattern_with(0, state=2)),
                       ("patterns", [slots[:4]])):
        auto.write_text(json.dumps(dict(doc, **{key: value})))
        assert run_cli("verify", "--automaton", str(auto)) == 2
        assert f"'{key}'" in capsys.readouterr().err
    # a compact pattern that pins no marker state, rendered
    run_cli("transform", "--rule", "elementary:110", "--grid", "heptagrid",
            "--method", "compact", "-o", str(auto))
    doc = json.loads(auto.read_text())
    doc["patterns"] = [[dict(s, state=0) if s["kind"] == "fixed" else s
                        for s in doc["patterns"][0]]]
    auto.write_text(json.dumps(doc))
    assert run_cli("render", "--grid", "heptagrid", "--automaton",
                   str(auto), "-o", str(tmp_path / "flat.svg")) == 2
    assert "'patterns'" in capsys.readouterr().err
    # valid JSON that is not an object
    auto.write_text("[]")
    assert run_cli("simulate", "--automaton", str(auto), "--word", "1",
                   "--steps", "1") == 2
    assert "one JSON object" in capsys.readouterr().err
    # malformed snapshot files: not an object, no keys, no states, each
    # key present with the wrong type, and a snapshot that does not fit
    # the radius 4 region `render --grid` builds: a time it does not
    # certify, or a valid_radius other than its remaining validity
    snap = tmp_path / "snap.json"
    good = {"grid": "pentagrid", "time": 0, "valid_radius": 4,
            "states": [0] * reg.build_region("pentagrid", 4, 2).n_cells}
    wrong = (("time", None), ("time", "3"), ("valid_radius", None),
             ("valid_radius", 1.5), ("grid", 5), ("states", None),
             ("states", {"0": 1}), ("states", [None] * len(good["states"])),
             ("states", [1.5] * len(good["states"])),
             ("states", [True] * len(good["states"])),
             ("valid_radius", 99), ("time", 40), ("time", -5))
    for text, says in (
            ("[]", "one JSON object"), ("{}", "'grid'"),
            (json.dumps({"grid": "pentagrid", "time": 0,
                         "valid_radius": 2}), "'states'"),
            *((json.dumps(dict(good, **{key: value})), f"'{key}'")
              for key, value in wrong)):
        snap.write_text(text)
        assert run_cli("render", "--grid", "pentagrid", "--snapshot",
                       str(snap)) == 2
        assert says in capsys.readouterr().err
    snap.write_text(json.dumps(good))
    assert run_cli("render", "--grid", "pentagrid", "--snapshot", str(snap),
                   "-o", str(tmp_path / "snap.svg")) == 0
    # malformed render spec and region files
    spec = tmp_path / "spec.json"
    good_spec = {"grid": "pentagrid", "colors": {"0": "#fff", "1": "#000"}}
    for doc, says in (([], "one JSON object"), ({"colors": {}}, "'grid'"),
                      ({"grid": "pentagrid"}, "'colors'"),
                      (dict(good_spec, colors=[1]), "'colors'"),
                      (dict(good_spec, size=None), "'size'"),
                      (dict(good_spec, size=True), "'size'"),
                      (dict(good_spec, size=0), "'size'"),
                      (dict(good_spec, samples_per_edge=0),
                       "'samples_per_edge': must be at least 1, not 0"),
                      (dict(good_spec, samples_per_edge=-3),
                       "'samples_per_edge'"),
                      (dict(good_spec, samples_per_edge=2.7),
                       "'samples_per_edge'"),
                      (dict(good_spec, depth="2"), "'depth'"),
                      (dict(good_spec, stroke_width=True), "'stroke_width'"),
                      (dict(good_spec, stroke_width="0.5"), "'stroke_width'"),
                      (dict(good_spec, stroke=None), "'stroke'"),
                      (dict(good_spec, background=5), "'background'"),
                      (dict(good_spec, colors={"0": "#fff", "1": 0}),
                       "'colors'")):
        spec.write_text(json.dumps(doc))
        assert run_cli("render", "--grid", "pentagrid", "--render-spec",
                       str(spec)) == 2
        assert says in capsys.readouterr().err
    region_file = tmp_path / "region.json"
    good_region = json.loads(reg.region_to_json(
        reg.build_region("pentagrid", 2, 1)))
    for key, value in (("radius", None), ("halfwidth", "1"),
                       ("radius", 2.5), ("grid", [1])):
        region_file.write_text(json.dumps(dict(good_region, **{key: value})))
        assert run_cli("render", "--region", str(region_file)) == 2
        assert f"'{key}'" in capsys.readouterr().err
    spec.write_text(json.dumps(good_spec))
    region_file.write_text(json.dumps(good_region))
    assert run_cli("render", "--region", str(region_file), "--render-spec",
                   str(spec), "-o", str(tmp_path / "spec.svg")) == 0
    with pytest.raises(SystemExit):
        run_cli()


def test_render_past_the_placement_bound_exits_2(capsys):
    assert run_cli("render", "--grid", "pentagrid", "--radius", "2",
                   "--halfwidth", "30") == 2
    err = capsys.readouterr().err
    assert "placement bound" in err and "Traceback" not in err


def test_placement_bound_is_checked_before_the_build(tmp_path, capsys,
                                                     monkeypatch):
    """`render --grid`, `render --region` and `simulate --svg-dir` past
    the placement bound exit 2 before they build a cell, and `simulate`
    writes nothing."""
    auto, big = tmp_path / "auto.json", tmp_path / "big.json"
    run_cli("transform", "--rule", "elementary:110", "--grid", "pentagrid",
            "-o", str(auto))
    big.write_text(json.dumps({"format": reg.REGION_FORMAT,
                               "grid": "pentagrid", "radius": 2,
                               "halfwidth": 20000}))

    def no_build(*args):
        raise AssertionError("build_region called past the bound")

    monkeypatch.setattr(reg, "build_region", no_build)
    trace, svgs = tmp_path / "trace.txt", tmp_path / "svg"
    for argv in (("render", "--grid", "pentagrid", "--radius", "2",
                  "--halfwidth", "200000"),
                 ("render", "--region", str(big)),
                 ("simulate", "--automaton", str(auto), "--halfwidth", "30",
                  "--svg-dir", str(svgs), "-o", str(trace))):
        assert run_cli(*argv) == 2
        assert "placement bound PLACEMENT_EXTENT = 18" in \
            capsys.readouterr().err
    assert not trace.exists() and not svgs.exists()


def test_long_word_checks_against_the_oracle(tmp_path, capsys):
    """A 41-letter word sets halfwidth 20, past the placement bound; the
    oracle check places no cell, so it runs."""
    auto = tmp_path / "auto.json"
    run_cli("transform", "--rule", "elementary:110", "--grid", "pentagrid",
            "--method", "compact", "-o", str(auto))
    word = "10110011100011110000101101110010011010111"
    assert len(word) == 41
    assert run_cli("simulate", "--automaton", str(auto), "--word", word,
                   "--check-oracle", "-o", str(tmp_path / "trace.txt")) == 0
    assert "matches the 1D run" in capsys.readouterr().err


def test_motions_output(capsys):
    assert run_cli("motions") == 0
    out = capsys.readouterr().out
    assert out == sym.motions_table_text()
    assert out == (GOLDEN / "motions.txt").read_text()


def test_render_blank_matches_golden(capsys):
    assert run_cli("render", "--grid", "pentagrid", "--radius", "2",
                   "--halfwidth", "1") == 0
    assert capsys.readouterr().out == \
        (GOLDEN / "blank_pentagrid_r2.svg").read_text()


def test_simulate_oracle_check_keeps_outputs(tmp_path, capsys, monkeypatch):
    from hypca import engine
    auto = tmp_path / "auto.json"
    run_cli("transform", "--rule", "elementary:110", "--grid", "heptagrid",
            "--method", "t3", "-o", str(auto))
    runs = []
    real_run = engine.run_hca

    def counted(*args, **kwargs):
        runs.append(1)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(engine, "run_hca", counted)
    outs = {}
    for flags in ([], ["--check-oracle"]):
        runs.clear()
        trace = tmp_path / f"trace{len(flags)}.txt"
        snap = tmp_path / f"snap{len(flags)}.json"
        assert run_cli("simulate", "--automaton", str(auto), "--word", "101",
                       "--steps", "3", "--snapshot-out", str(snap),
                       "-o", str(trace), *flags) == 0
        assert len(runs) == 1        # the oracle check reuses its run
        outs[len(flags)] = (trace.read_bytes(), snap.read_bytes())
    assert "matches the 1D run" in capsys.readouterr().err
    assert outs[0] == outs[1]


@pytest.mark.parametrize("grid,method", [("pentagrid", "compact"),
                                         ("dodecagrid", "extra")])
def test_simulate_oracle_check_of_radius_steps(tmp_path, capsys, grid,
                                               method):
    """A check of as many steps as the region's radius is accepted and
    prints the trace the run alone prints; one step more exits 2 with the
    run's refusal."""
    auto = tmp_path / "auto.json"
    run_cli("transform", "--rule", "elementary:110", "--grid", grid,
            "--method", method, "-o", str(auto))
    capsys.readouterr()
    simulate = ("simulate", "--automaton", str(auto), "--radius", "3")
    outs = []
    for flags in ([], ["--check-oracle"]):
        assert run_cli(*simulate, "--steps", "3", *flags) == 0
        outs.append(capsys.readouterr())
    assert outs[0].out == outs[1].out
    assert outs[0].err == ""
    assert outs[1].err.startswith("steps: 3\n")
    assert "matches the 1D run" in outs[1].err
    assert run_cli(*simulate, "--steps", "4", "--check-oracle") == 2
    assert capsys.readouterr().err == \
        "error: 4 step(s) from time 0 exceed the remaining validity 3\n"


def _simulate_and_save(tmp_path, grid, method):
    auto = tmp_path / "auto.json"
    run_cli("transform", "--rule", "elementary:110", "--grid", grid,
            "--method", method, "-o", str(auto))
    regf, snap = tmp_path / "region.json", tmp_path / "snap.json"
    assert run_cli("simulate", "--automaton", str(auto), "--word", "1",
                   "--steps", "2", "--radius", "3", "--halfwidth", "1",
                   "--save-region", str(regf), "--snapshot-out", str(snap),
                   "-o", str(tmp_path / "trace.txt")) == 0
    return auto, regf, snap


def test_simulate_default_radius_is_the_step_count(tmp_path, capsys):
    """With no --radius, `simulate --steps 3` builds the region of radius
    3, the least that certifies 3 steps: the same trace as --radius 3,
    and the saved region records radius 3."""
    auto = tmp_path / "auto.json"
    run_cli("transform", "--rule", "elementary:110", "--grid", "heptagrid",
            "-o", str(auto))
    outs = []
    for flags in ([], ["--radius", "3"]):
        trace, regf = tmp_path / "trace.txt", tmp_path / "region.json"
        assert run_cli("simulate", "--automaton", str(auto), "--word", "11",
                       "--steps", "3", "--check-oracle", *flags,
                       "--save-region", str(regf), "-o", str(trace)) == 0
        outs.append(trace.read_text())
        assert reg.region_from_json(regf.read_text()).radius == 3
    assert outs[0] == outs[1]
    assert "matches the 1D run" in capsys.readouterr().err


@pytest.mark.parametrize("grid,method", [("heptagrid", "t3"),
                                         ("dodecagrid", "t1")])
def test_saved_region_renders_as_in_process(tmp_path, capsys, region_of,
                                            grid, method):
    from hypca import embed, engine, render
    auto, regf, snap = _simulate_and_save(tmp_path, grid, method)
    svg = tmp_path / "shot.svg"
    assert run_cli("render", "--region", str(regf), "--snapshot", str(snap),
                   "--automaton", str(auto), "-o", str(svg)) == 0
    r = region_of(grid, 3, 1)
    b = embed.automaton_from_json(auto.read_text())
    cfg = engine.config_from_json(snap.read_text(), r)
    assert svg.read_text() == render.render_svg(
        r, render.default_render_spec(b), cfg.states)
    capsys.readouterr()


def test_region_file_without_format_is_refused(tmp_path, capsys,
                                               monkeypatch):
    """A region file without the version key, such as the files that
    stored every array before it existed, is refused before any build:
    `render --region` exits 2 and `region_from_json` raises, both naming
    the key."""
    regf = tmp_path / "region.json"
    regf.write_text(json.dumps({"grid": "pentagrid", "radius": 2,
                                "halfwidth": 1}))

    def no_build(*args):
        raise AssertionError("build_region called for an unversioned file")

    monkeypatch.setattr(reg, "build_region", no_build)
    says = "region file lacks the 'format' key"
    assert run_cli("render", "--region", str(regf)) == 2
    assert capsys.readouterr() == ("", f"error: {says}\n")
    with pytest.raises(ValueError, match=says):
        reg.region_from_json(regf.read_text())


def test_unknown_region_format_exits_2(tmp_path, capsys):
    regf = tmp_path / "region.json"
    regf.write_text(json.dumps({"format": 99, "grid": "pentagrid",
                                "radius": 2, "halfwidth": 1}))
    assert run_cli("render", "--region", str(regf)) == 2
    assert "format 99" in capsys.readouterr().err


def test_cli_does_not_import_numpy_ma(tmp_path):
    """numpy.ma costs about 15 ms to import and no command needs it; the
    first np.unique call of a process pulls it in."""
    script = """
import sys
from hypca import cli
for grid, method in (("pentagrid", "compact"), ("heptagrid", "extra"),
                     ("dodecagrid", "compact")):
    for argv in (
            ["transform", "--rule", "elementary:110", "--grid", grid,
             "--method", method, "-o", "a.json"],
            ["verify", "--automaton", "a.json", "--radius", "2",
             "--halfwidth", "1", "--horizon", "2", "-o", "v.txt"],
            ["simulate", "--automaton", "a.json", "--steps", "1",
             "--save-region", "r.json", "--snapshot-out", "s.json",
             "-o", "t.txt"],
            ["render", "--region", "r.json", "--snapshot", "s.json",
             "--automaton", "a.json", "-o", "x.svg"]):
        assert cli.main(argv) == 0, argv
assert "numpy.ma" not in sys.modules
"""
    src = str(Path(hypca.__file__).parents[1])
    subprocess.run([sys.executable, "-c", script], cwd=tmp_path, check=True,
                   env=dict(os.environ, PYTHONPATH=src))


# a fresh interpreter that imports the command and, given arguments, runs
# it once, then prints the exit code and every module it holds
_FRESH = """
import json, sys
from hypca import cli
code = None
if sys.argv[1:]:
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as e:
        code = e.code
print(json.dumps([code, sorted(sys.modules)]))
"""


def _fresh_run(cwd, *argv) -> tuple[int | None, set[str]]:
    src = str(Path(hypca.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", _FRESH, *argv], cwd=cwd,
                          check=True, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, set(modules)


def test_cli_import_help_and_refusals_load_no_numpy(tmp_path):
    """Importing the command, its help and a refused option load no
    module of the package but the command, and no numpy: the option
    checks run before a command imports what it runs."""
    for argv, want in (
            ((), None),
            (("--help",), 0),
            (("verify", "--automaton", "a.json", "--radius", "0"), 2),
            (("render", "--grid", "pentagrid", "--radius", "0"), 2)):
        code, modules = _fresh_run(tmp_path, *argv)
        assert code == want, argv
        assert "numpy" not in modules, argv
        assert {m for m in modules if m.startswith("hypca")} \
            == {"hypca", "hypca.cli"}, argv


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    """`transform` builds no table or region, so it loads no numpy and
    no embed, region, engine, geometry or renderer; `verify` and
    `simulate` load no renderer, and `simulate --svg-dir` does."""
    (tmp_path / "rule.json").write_text(
        ca1d.rule_to_json(ca1d.elementary(30)))
    # the last file written, rule 110's extra automaton, is the one the
    # other commands run
    for rule, method in (("rule.json", "extra"), ("rule.json", "compact"),
                         ("elementary:110", "compact"),
                         ("elementary:110", "extra")):
        code, modules = _fresh_run(tmp_path, "transform", "--rule", rule,
                                   "--grid", "dodecagrid", "--method",
                                   method, "-o", "a.json")
        assert code == 0, (rule, method)
        assert "numpy" not in modules, (rule, method)
        assert {m for m in modules if m.startswith("hypca")} == {
            "hypca", *(f"hypca.{m}" for m in (
                "cli", "automaton", "ca1d", "symmetry", "jsonfile"))}, \
            (rule, method)
    runs = ["--automaton", "a.json", "--radius", "2", "--halfwidth", "1"]
    for argv, renders in (
            (["verify", *runs, "--horizon", "2", "-o", "v.txt"], False),
            (["simulate", *runs, "--steps", "1", "--check-oracle",
              "-o", "t.txt"], False),
            (["simulate", *runs, "--steps", "1", "--svg-dir", "svg",
              "-o", "t.txt"], True)):
        code, modules = _fresh_run(tmp_path, *argv)
        assert code == 0, argv
        assert "hypca.engine" in modules, argv
        assert ("hypca.render" in modules) == renders, argv
    assert sorted(p.name for p in (tmp_path / "svg").iterdir()) \
        == ["step_000.svg", "step_001.svg"]


def test_readme_library_import_line_runs():
    """The README's library example imports its names from the package,
    which loads each name's module on first use."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    line = re.search(r"^from hypca import \([^)]*\)", readme, re.M)[0]
    src = str(Path(hypca.__file__).parents[1])
    subprocess.run([sys.executable, "-c", line], check=True,
                   env=dict(os.environ, PYTHONPATH=src))


def test_package_names_are_their_modules_own():
    """Every name the package lists is its module's own object, and a
    name it does not list is an AttributeError."""
    from importlib import import_module

    assert len(hypca.__all__) == 19
    for name in hypca.__all__:
        module = import_module(getattr(hypca, name).__module__)
        assert getattr(module, name) is getattr(hypca, name), name
    assert set(hypca.__all__) <= set(dir(hypca))
    with pytest.raises(AttributeError, match="no_such_name"):
        hypca.no_such_name
