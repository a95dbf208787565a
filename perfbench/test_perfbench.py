"""Tests of the benchmark itself; run with `python -m pytest perfbench`.

They use the tiny case sizes, so the whole file takes well under a minute.
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def elementary_table(number: int) -> np.ndarray:
    bits = [(number >> i) & 1 for i in range(8)]
    return np.array(bits).reshape(2, 2, 2)


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace)]
    assert run.main(argv, sizes=run.TINY) == 0
    result = last_json_line(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 3 and result["failed"] == 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        # one expansion per invariance check, spanned inside it: the
        # program's own call, not a second one made by the benchmark
        doc = json.loads((run.OUT / f"trace-{workload}-seed3.json")
                         .read_text())
        spans = {sp["id"]: sp for sp in doc["spans"]}
        expand = [sp for sp in spans.values() if sp["name"] == "embed.expand"]
        checks_ = [sp for sp in spans.values()
                   if sp["name"] == "symmetry.invariance"]
        assert expand and len(expand) == len(checks_)
        for sp in expand:
            parent = spans[sp["parent"]]
            assert parent["name"] == "symmetry.invariance"
            assert parent["counts"]["rules"] == sp["counts"]["rules"]


def test_same_seed_same_cases():
    a = run.make_cases("certify", 5, run.FULL, 10)
    b = run.make_cases("certify", 5, run.FULL, 10)
    c = run.make_cases("certify", 6, run.FULL, 10)
    assert [(x.grid, x.word, x.table.tolist()) for x in a] == \
        [(x.grid, x.word, x.table.tolist()) for x in b]
    assert [x.table.tolist() for x in a] != [x.table.tolist() for x in c]


def test_certify_keys_never_repeat():
    keys = [(c.grid, c.radius, c.halfwidth)
            for c in run.make_cases("certify", 1, run.FULL, 10)]
    assert len(keys) == len(set(keys)) == 30


def test_reference_run_matches_rule_110():
    ref = checks.reference_run(elementary_table(110), [1], 0, 3, 4)
    assert ref[:, 4].tolist() == [1, 1, 1, 1]
    assert ref[3].tolist() == [0, 1, 1, 0, 1, 0, 0, 0, 0]
    assert ref[0].sum() == 1


def test_trace_check_rejects_another_rule():
    from hypca import ca1d, embed, engine, region

    rule = ca1d.elementary(110)
    auto = embed.embed_compact(rule, "heptagrid")
    reg = region.build_region("heptagrid", 4, 1)
    cfgs = engine.run_hca(auto, reg,
                          engine.init_configuration(reg, auto, [1]), 3)
    rows = engine.yellow_trace(auto, reg, cfgs)
    half = reg.halfwidth + reg.radius
    good = checks.reference_run(elementary_table(110), [1], 0, 3, half)
    bad = checks.reference_run(elementary_table(30), [1], 0, 3, half)
    assert checks.check_trace(rows, good) is None
    assert "differs from the 1D run" in checks.check_trace(rows, bad)
    # a narrower window than the construction trusts is not enough
    narrow = [(t, start + 1, letters[1:-1]) for t, start, letters in rows]
    assert "expected the trusted window" in checks.check_trace(narrow, good)


def test_wrong_reference_counts_every_case_failed(monkeypatch, capsys):
    """A reference run of another rule (every output shifted by one state)
    must reject every case: each is counted failed, and the run is marked
    incorrect."""
    honest = checks.reference_run

    def shifted(table, *args):
        return honest((table + 1) % table.shape[0], *args)

    monkeypatch.setattr(checks, "reference_run", shifted)
    result = run.run_workload("certify", 3, 1, False, run.TINY)
    capsys.readouterr()
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 3


@pytest.mark.parametrize("stderr, wrong", [
    ("error: 1 violation", True),
    ("Traceback (most recent call last):\n  ...\nKeyError: 3", False),
])
def test_pipeline_judges_exit_codes(monkeypatch, capsys, stderr, wrong):
    """`hypca verify` exits 1 when it finds the automaton wrong: the case
    is rejected and the run marked incorrect.  An exit 1 with a traceback
    is a crash: the case is failed, and `correct` speaks only of the
    cases that did not fail."""
    real = run.python_child

    def child(args):
        proc = real(args)
        if args[:3] == ["-m", "hypca.cli", "verify"]:
            proc.returncode, proc.stderr = 1, stderr
        return proc

    monkeypatch.setattr(run, "python_child", child)
    result = run.run_workload("pipeline", 3, 1, False, run.TINY)
    capsys.readouterr()
    assert result["correct"] is not wrong
    assert result["failed"] == result["attempted"] == 6


def test_region_check_rejects_broken_adjacency():
    adj = np.array([[1, 2], [0, -1], [0, -1]])
    dist = np.array([0, 1, 1])
    assert checks.check_region(adj, dist, 1) is None
    one_way = adj.copy()
    one_way[1, 1] = 2
    assert "does not point back" in checks.check_region(one_way, dist, 1)
    assert "lacks a neighbour" in checks.check_region(adj, dist, 2)


def test_still_check_and_svg_check():
    init = np.array([2, 2, 0, 1])
    line = np.array([False, False, True, True])
    assert checks.check_still(init, [init, np.array([2, 2, 1, 0])],
                              line) is None
    assert "changed by t=1" in checks.check_still(
        init, [init, np.array([2, 0, 1, 0])], line)
    svg = '<svg xmlns="http://www.w3.org/2000/svg"><path d="M 0 0 Z"/></svg>'
    assert checks.check_svg(svg, 1, 1) is None
    assert "expected 2..2" in checks.check_svg(svg, 2, 2)
    assert "does not parse" in checks.check_svg(svg[:-3], 1, 1)


def test_rule_count_formula():
    assert checks.expected_rule_count("pentagrid", 2, 2) == 40
    assert checks.expected_rule_count("dodecagrid", 3, 3) == 4860
