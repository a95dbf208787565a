#!/usr/bin/env python3
"""The hypca benchmark.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Three workloads, described in perfbench/README.md:

- certify:  per case, build a fresh ball region sized to the horizon and
            run `engine.equivalence_check` over it (the cost behind
            `simulate --check-oracle`);
- scan:     regions built once in set-up; per case, the invariance check,
            the unique-applicability scan and the oracle check of a seeded
            random rule;
- pipeline: per case, `transform -> verify -> simulate -> render` through
            the `hypca` command, each step in a fresh interpreter.

A case is one (grid, method, rule, word).  Cases are generated from
--seed and interleaved round-robin across the grids.  A run is a fixed
number of whole rounds: as many as fit --seconds at the round's nominal
duration on the reference host, so that every run of a workload executes
the same case list.  The untimed checks in perfbench/checks.py judge each
case's outputs.  With --trace 0 the last line of standard output is one
JSON object holding the end-to-end metrics, with --trace 1 the per-layer
metrics of perfbench/tracing.py.  Results and spans are also written under
perfbench/out/.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

GRIDS = ("pentagrid", "heptagrid", "dodecagrid")
METHODS = ("extra", "compact")
WORKLOADS = ("certify", "scan", "pipeline")
PADDING = 0             # every generated rule keeps state 0 quiescent
CHILD_TIMEOUT_S = 170
# duration of one calibration slice on the reference host, and the share
# of each timed section's duration spent calibrating after it (see README)
CALIBRATION_SLICE_S = 0.0146
CALIBRATION_SHARE = 0.15


@dataclass(frozen=True)
class Sizes:
    # certify: one (radius, halfwidth) per grid and round; no key repeats,
    # so a region cache inside the program finds nothing to reuse
    certify_keys: tuple[dict, ...]
    # scan: the shared region of each grid, as (radius, halfwidth)
    scan_regions: dict
    # scan: source state count by round, cycled
    scan_states: tuple[int, ...]
    verify_horizon: int
    # pipeline: simulate steps per grid; the verify region
    pipeline_steps: dict
    pipeline_verify: tuple[int, int]
    # nominal seconds per round on the reference host
    round_seconds: dict
    setup_repeats: int


FULL = Sizes(
    certify_keys=tuple(
        dict(zip(GRIDS, keys)) for keys in (
            ((7, 1), (6, 1), (3, 1)),
            ((6, 4), (6, 2), (2, 2)),
            ((7, 2), (6, 3), (3, 2)),
            ((6, 5), (6, 4), (2, 3)),
            ((6, 6), (7, 1), (3, 3)),
            ((7, 3), (6, 5), (2, 4)),
            ((6, 7), (5, 6), (3, 4)),
            ((6, 3), (6, 6), (2, 5)),
            ((6, 8), (5, 8), (3, 5)),
            ((5, 9), (7, 2), (2, 6)),
        )),
    scan_regions={"pentagrid": (7, 2), "heptagrid": (6, 3),
                  "dodecagrid": (3, 2)},
    scan_states=(2, 3),
    verify_horizon=10,
    pipeline_steps={"pentagrid": 4, "heptagrid": 4, "dodecagrid": 3},
    pipeline_verify=(3, 2),
    round_seconds={"certify": 3.0, "scan": 5.5, "pipeline": 26.0},
    setup_repeats=3,
)

TINY = Sizes(
    certify_keys=(
        {"pentagrid": (3, 1), "heptagrid": (3, 1), "dodecagrid": (2, 1)},
    ),
    scan_regions={"pentagrid": (3, 1), "heptagrid": (3, 1),
                  "dodecagrid": (2, 1)},
    scan_states=(2,),
    verify_horizon=3,
    pipeline_steps={"pentagrid": 2, "heptagrid": 2, "dodecagrid": 1},
    pipeline_verify=(2, 1),
    round_seconds={"certify": 60.0, "scan": 60.0, "pipeline": 60.0},
    setup_repeats=1,
)


@dataclass
class Case:
    index: int
    grid: str
    method: str
    n: int
    table: np.ndarray
    word: tuple[int, ...]
    steps: int
    radius: int
    halfwidth: int


def rounds_for(workload: str, seconds: int, sizes: Sizes) -> int:
    rounds = max(1, round(seconds / sizes.round_seconds[workload]))
    if workload == "certify":
        rounds = min(rounds, len(sizes.certify_keys))
    return rounds


def make_cases(workload: str, seed: int, sizes: Sizes,
               rounds: int) -> list[Case]:
    """The run's case list.  The seed picks rule tables and words; sizes,
    state counts and the order of grids and methods are fixed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    cases: list[Case] = []
    for r in range(rounds):
        if workload == "certify":
            pairs = [(g, METHODS[(r + i) % 2]) for i, g in enumerate(GRIDS)]
        else:
            pairs = [(g, m) for m in METHODS for g in GRIDS]
        for grid, method in pairs:
            if workload == "certify":
                n = 2 + r % 2
                radius, halfwidth = sizes.certify_keys[r][grid]
                steps = radius - 1
                length = 2 * halfwidth + int(rng.integers(0, 2))
            elif workload == "scan":
                n = sizes.scan_states[r % len(sizes.scan_states)]
                radius, halfwidth = sizes.scan_regions[grid]
                steps = radius - 1
                length = int(rng.integers(1, 2 * halfwidth + 2))
            else:
                n = 2
                steps = sizes.pipeline_steps[grid]
                radius, halfwidth = steps + 1, 1
                length = 3
            table = rng.integers(0, n, size=(n, n, n))
            table[0, 0, 0] = PADDING
            if grid == "pentagrid" and method == "compact":
                # fixable with witness (q, u) = (0, 1)
                table[1, 0, 0], table[0, 1, 0] = 0, 1
            word = rng.integers(0, n, size=length)
            if not word.any():
                word[length // 2] = 1
            cases.append(Case(len(cases), grid, method, n, table,
                              tuple(int(a) for a in word), steps, radius,
                              halfwidth))
    return cases


def calibration_slice() -> int:
    """A fixed mix of interpreter work (integer arithmetic, dict lookups)
    and small numpy calls, the kinds of work hypca spends its time on.
    It allocates no objects the garbage collector tracks, so its duration
    does not depend on how much the run holds in memory, only on the
    host's speed.  It is the benchmark's own code: no change to the
    program moves it."""
    table: dict = {}
    acc = 0
    vec = np.arange(12.0)
    for i in range(20_000):
        k = i * 7919 % 1021
        table[k] = table.get(k, 0) + 1
        acc = (acc + 31 * k + (i & 15)) % 1_000_003
        if i % 40 == 0:
            acc += int(np.floor(vec * 0.5 + i).astype(np.int64).sum() & 1)
    return acc


def load_hypca() -> SimpleNamespace:
    names = ("ca1d", "embed", "engine", "region", "render")
    return SimpleNamespace(**{n: importlib.import_module(f"hypca.{n}")
                              for n in names})


class CaseFailed(Exception):
    """The program refused or crashed on a case."""


@dataclass
class Run:
    hy: SimpleNamespace
    sizes: Sizes
    tracer: Tracer
    work: Path
    timed: dict = field(default_factory=lambda: dict.fromkeys(GRIDS, 0.0))
    done: dict = field(default_factory=lambda: dict.fromkeys(GRIDS, 0))
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    largest: tuple = (0, None)          # (cells, (grid, radius, halfwidth))
    shared: dict = field(default_factory=dict)
    # per grid, and "setup": [seconds, slices] of calibration
    calibration: dict = field(default_factory=dict)

    @contextmanager
    def timing(self, grid: str):
        """Time a section of a grid's work, then sample the host's speed."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            self.timed[grid] += elapsed
            self.calibrate(grid, elapsed)

    def rate(self, grid: str) -> float:
        """Completed cases per second of timed work, scaled to the
        reference host's speed."""
        if not self.timed[grid]:
            return 0.0
        return self.done[grid] * self.slowdown(grid) / self.timed[grid]

    def calibrate(self, key: str, seconds: float) -> None:
        """Sample the host's speed right after a timed section, for a
        fixed share of its duration."""
        slices = max(1, round(CALIBRATION_SHARE * seconds
                              / CALIBRATION_SLICE_S))
        t0 = time.perf_counter()
        for _ in range(slices):
            calibration_slice()
        got = self.calibration.setdefault(key, [0.0, 0])
        got[0] += time.perf_counter() - t0
        got[1] += slices

    def slowdown(self, key: str) -> float:
        """How much slower the host ran than the reference host, as sampled
        after the key's timed sections."""
        seconds, slices = self.calibration.get(key, (CALIBRATION_SLICE_S, 1))
        return seconds / slices / CALIBRATION_SLICE_S

    def note_region(self, region) -> None:
        if region.n_cells > self.largest[0]:
            self.largest = (region.n_cells,
                            (region.grid, region.radius, region.halfwidth))

    def rule(self, case: Case):
        return self.hy.ca1d.Rule1D(case.n, case.table,
                                   name=f"case{case.index}")

    def automaton(self, case: Case, rule):
        if case.method == "extra":
            return self.hy.embed.embed_extra_state(rule, case.grid)
        return self.hy.embed.embed_compact(rule, case.grid)


def attempt(run: Run, case: Case, body) -> None:
    """Run one case; an exception or a rejected output counts it failed."""
    run.attempted += 1
    try:
        reason = body(run, case)
    except Exception:           # the run goes on; the case is reported
        run.failed += 1
        sys.stderr.write(f"case {case.index} ({case.grid} {case.method}) "
                         f"failed:\n{traceback.format_exc()}")
        return
    if reason is not None:
        run.failed += 1
        run.wrong += 1
        sys.stderr.write(f"case {case.index} ({case.grid} {case.method}) "
                         f"rejected: {reason}\n")
        return
    run.done[case.grid] += 1


# ---------------------------------------------------------------- checks

def check_simulation(run: Run, case: Case, rule, auto, region,
                     report) -> str | None:
    """Judge an oracle-checked simulation with the benchmark's own checks:
    the region's shape, the tape against an independent 1D run, and
    off-line stillness."""
    hy, tr = run.hy, run.tracer
    if not report.ok:
        return "equivalence_check: " + report.text().replace("\n", "; ")
    reason = checks.check_region(region.adjacency, region.dist, region.radius)
    if reason:
        return reason
    with tr.span("engine.init"):
        init = hy.engine.init_configuration(region, auto, case.word)
    with tr.span("engine.run") as sp:
        cfgs = hy.engine.run_hca(auto, region, init, case.steps)
    if tr.on:
        sp.count(steps=case.steps, changed=changed_cells(cfgs))
        with tr.span("ca1d.oracle"):
            hy.ca1d.run_1d(rule, hy.ca1d.word_tape(list(case.word), PADDING),
                           case.steps)
    reference = checks.reference_run(case.table, case.word, PADDING,
                                     case.steps,
                                     region.halfwidth + region.radius)
    reason = checks.check_trace(hy.engine.yellow_trace(auto, region, cfgs),
                                reference)
    if reason:
        return reason
    return checks.check_still(init.states, [c.states for c in cfgs],
                              may_change(region, auto))


def changed_cells(cfgs) -> int:
    """Cell updates that changed a state, summed over the run's steps."""
    return sum(int((a.states != b.states).sum())
               for a, b in zip(cfgs, cfgs[1:]))


def may_change(region, auto) -> np.ndarray:
    """Tape cells, plus the reflected row of the dodecagrid extra
    construction, which carries letters by design."""
    mask = np.zeros(region.n_cells, dtype=bool)
    gl = region.guideline
    mask[gl.cell_ids] = True
    if auto.kind == "extra" and region.grid == "dodecagrid":
        mask[gl.mirror_ids[gl.mirror_ids >= 0]] = True
    return mask


class SpannedExpansion:
    """Stands in for `embed.expanded_rules` during a run: each call gets an
    `embed.expand` span, and its rule list is kept in `last`."""

    def __init__(self, inner, tracer: Tracer):
        self.inner, self.tracer, self.last = inner, tracer, None

    def __call__(self, automaton):
        with self.tracer.span("embed.expand") as sp:
            rules = self.inner(automaton)
        sp.count(rules=len(rules))
        self.last = rules
        return rules


@contextmanager
def watch_expansion(run: Run):
    """`embed.check_invariance` looks `expanded_rules` up as a module
    global, so with the stand-in in place the benchmark times the
    program's own call path, and gets the rule list for the count check
    without expanding twice."""
    embed = run.hy.embed
    inner = embed.expanded_rules
    embed.expanded_rules = SpannedExpansion(inner, run.tracer)
    try:
        yield
    finally:
        embed.expanded_rules = inner


def check_invariance(run: Run, auto):
    """`embed.check_invariance` in a span, and the expanded rule list.
    Should the program stop expanding the rule list to check invariance,
    the list is expanded here, unspanned, for the count check."""
    expand = run.hy.embed.expanded_rules
    expand.last = None
    with run.tracer.span("symmetry.invariance") as sp:
        conflicts = run.hy.embed.check_invariance(auto)
    rules = expand.last if expand.last is not None else expand.inner(auto)
    sp.count(rules=len(rules))
    return conflicts, rules


def check_rules(case: Case, auto, rules) -> str | None:
    k = sum(1 for s in auto.pattern.slots if s.kind != "fixed")
    want = checks.expected_rule_count(case.grid, case.n, k)
    if len(rules) != want:
        return f"{len(rules)} expanded rules, expected {want}"
    return None


# ---------------------------------------------------------------- certify

def certify_case(run: Run, case: Case) -> str | None:
    hy, tr = run.hy, run.tracer
    rule = run.rule(case)
    auto = run.automaton(case, rule)
    with run.timing(case.grid):
        with tr.span("region.build") as sp:
            region = hy.region.build_region(case.grid, case.radius,
                                            case.halfwidth)
        with tr.span("engine.check"):
            report = hy.engine.equivalence_check(rule, auto, region,
                                                 case.word, case.steps)
    sp.count(cells=region.n_cells)
    run.note_region(region)
    return check_simulation(run, case, rule, auto, region, report)


# ---------------------------------------------------------------- scan

def scan_setup(run: Run) -> None:
    for grid in GRIDS:
        with run.tracer.span("region.build") as sp:
            region = run.hy.region.build_region(
                grid, *run.sizes.scan_regions[grid])
        sp.count(cells=region.n_cells)
        run.shared[grid] = region
        run.note_region(region)


def scan_case(run: Run, case: Case) -> str | None:
    hy, tr = run.hy, run.tracer
    rule = run.rule(case)
    auto = run.automaton(case, rule)
    region = run.shared[case.grid]
    with run.timing(case.grid):
        conflicts, rules = check_invariance(run, auto)
        with tr.span("engine.init"):
            init = hy.engine.init_configuration(region, auto, case.word)
        with tr.span("verify.scan") as sp_verify:
            verdict = hy.embed.verify_unique_applicability(
                auto, region, init, run.sizes.verify_horizon)
        with tr.span("engine.check"):
            report = hy.engine.equivalence_check(rule, auto, region,
                                                 case.word, case.steps)
    sp_verify.count(scans=verdict.scanned_cells,
                    matched=verdict.matched_cells,
                    multi_reading=verdict.multi_reading_cells)
    if conflicts:
        return f"check_invariance found {len(conflicts)} conflict groups"
    reason = check_rules(case, auto, rules)
    if reason:
        return reason
    if verdict.violations:
        return f"verify found {len(verdict.violations)} violations"
    return check_simulation(run, case, rule, auto, region, report)


# ---------------------------------------------------------------- pipeline

def python_child(args: list[str]) -> subprocess.CompletedProcess:
    """A fresh interpreter with the repository's sources on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)


def rule_file(case: Case, work: Path) -> Path:
    path = work / f"rule{case.index}.json"
    path.write_text(json.dumps({
        "n": case.n, "name": f"case{case.index}",
        "table": [int(v) for v in case.table.reshape(-1)]}))
    return path


def judge_exit(name: str, proc: subprocess.CompletedProcess) -> str | None:
    """`hypca verify` exits 1 when it finds conflicts or violations, and
    `simulate --check-oracle` when the tape leaves the 1D run: a rejected
    output.  Any other non-zero exit, or a traceback, is a crash."""
    if proc.returncode == 0:
        return None
    if (proc.returncode == 1 and name in ("verify", "simulate")
            and "Traceback (most recent call last)" not in proc.stderr):
        return f"hypca {name} exited 1: " + "; ".join(
            proc.stderr.strip().splitlines()[-4:])
    raise CaseFailed(f"hypca {name} exited {proc.returncode}: "
                     f"{proc.stderr.strip()}")


def pipeline_case(run: Run, case: Case) -> str | None:
    tr = run.tracer
    d = run.work / f"case{case.index}-{tr.source}"
    d.mkdir(parents=True, exist_ok=True)
    auto, region, snap = d / "auto.json", d / "region.json", d / "snap.json"
    trace, report, svg = d / "trace.txt", d / "verify.txt", d / "shot.svg"
    word = ",".join(str(a) for a in case.word)
    vr, vhw = run.sizes.pipeline_verify
    steps = (
        ("transform", ["--rule", str(rule_file(case, run.work)),
                       "--grid", case.grid, "--method", case.method,
                       "-o", str(auto)]),
        ("verify", ["--automaton", str(auto), "--word", word,
                    "--radius", str(vr), "--halfwidth", str(vhw),
                    "--horizon", str(run.sizes.verify_horizon),
                    "-o", str(report)]),
        ("simulate", ["--automaton", str(auto), "--word", word,
                      "--steps", str(case.steps), "--check-oracle",
                      "--save-region", str(region),
                      "--snapshot-out", str(snap), "-o", str(trace)]),
        ("render", ["--region", str(region), "--snapshot", str(snap),
                    "--automaton", str(auto), "-o", str(svg)]),
    )
    # a rejecting exit still leaves the step's files, so the chain goes
    # on and the benchmark's own checks judge them too
    reasons = []
    for name, argv in steps:
        with run.timing(case.grid), tr.span(f"cli.{name}"):
            proc = python_child(["-m", "hypca.cli", name, *argv])
        reasons.append(judge_exit(name, proc))
    reasons.append(check_pipeline_outputs(run, case, d))
    if tr.on:
        replay(run, case, d)
    return "; ".join(r for r in reasons if r) or None


def check_pipeline_outputs(run: Run, case: Case, d: Path) -> str | None:
    hy = run.hy
    text = (d / "verify.txt").read_text()
    if "rotation invariance: 0 conflict groups" not in text:
        return "verify reports rotation-invariance conflicts"
    if "\nviolations: 0\n" not in text:
        return "verify reports unique-applicability violations"
    region = hy.region.region_from_json((d / "region.json").read_text())
    reason = checks.check_region(region.adjacency, region.dist, region.radius)
    if reason:
        return reason
    reference = checks.reference_run(case.table, case.word, PADDING,
                                     case.steps,
                                     region.halfwidth + region.radius)
    reason = checks.check_trace(
        checks.parse_trace_text((d / "trace.txt").read_text()), reference)
    if reason:
        return reason
    auto = hy.embed.automaton_from_json((d / "auto.json").read_text())
    init = hy.engine.init_configuration(region, auto, case.word)
    final = hy.engine.config_from_json((d / "snap.json").read_text(), region)
    reason = checks.check_still(init.states, [final.states],
                                may_change(region, auto))
    if reason:
        return reason
    if case.grid == "dodecagrid":
        # one pentagon per cell with a face in the trace plane, every tape
        # cell among them
        lo, hi = len(region.guideline.cell_ids), region.n_cells
    else:
        lo = hi = region.n_cells
    return checks.check_svg((d / "shot.svg").read_text(), lo, hi)


def replay(run: Run, case: Case, d: Path) -> None:
    """The library calls each subcommand makes, in process and at the same
    sizes, with spans around each; traced runs only."""
    hy, tr = run.hy, run.tracer
    rule = run.rule(case)
    auto = run.automaton(case, rule)
    vr, vhw = run.sizes.pipeline_verify
    with tr.span("replay.verify"):
        with tr.span("region.build") as sp_build:
            region = hy.region.build_region(case.grid, vr, vhw)
        check_invariance(run, auto)
        with tr.span("engine.init"):
            init = hy.engine.init_configuration(region, auto, case.word)
        with tr.span("verify.scan") as sp_verify:
            verdict = hy.embed.verify_unique_applicability(
                auto, region, init, run.sizes.verify_horizon)
    sp_build.count(cells=region.n_cells)
    run.note_region(region)
    sp_verify.count(scans=verdict.scanned_cells,
                    matched=verdict.matched_cells,
                    multi_reading=verdict.multi_reading_cells)

    path = d / "replay-region.json"
    with tr.span("replay.simulate"):
        with tr.span("region.build") as sp_build:
            region = hy.region.build_region(case.grid, case.radius,
                                            case.halfwidth)
        with tr.span("region.json_write") as sp_json:
            text = hy.region.region_to_json(region)
            path.write_text(text)
        with tr.span("engine.check"):
            hy.engine.equivalence_check(rule, auto, region, case.word,
                                        case.steps)
        with tr.span("engine.init"):
            init = hy.engine.init_configuration(region, auto, case.word)
        with tr.span("engine.run") as sp_run:
            cfgs = hy.engine.run_hca(auto, region, init, case.steps)
        with tr.span("ca1d.oracle"):
            hy.ca1d.run_1d(rule, hy.ca1d.word_tape(list(case.word), PADDING),
                           case.steps)
        hy.engine.trace_to_text(hy.engine.yellow_trace(auto, region, cfgs))
        snap = hy.engine.config_to_json(region, cfgs[-1])
    sp_build.count(cells=region.n_cells)
    run.note_region(region)
    sp_json.count(mb=len(text) / 1e6)
    sp_run.count(steps=case.steps, changed=changed_cells(cfgs))

    with tr.span("replay.render"):
        with tr.span("region.json_read"):
            region = hy.region.region_from_json(path.read_text())
        cfg = hy.engine.config_from_json(snap, region)
        with tr.span("render.svg") as sp_render:
            svg = hy.render.render_svg(
                region, hy.render.default_render_spec(auto), cfg.states)
    sp_render.count(paths=svg.count("<path"), mb=len(svg) / 1e6)


# ---------------------------------------------------------------- runs

BODIES = {"certify": certify_case, "scan": scan_case,
          "pipeline": pipeline_case}


def setup(run: Run, workload: str, seed: int, rounds: int):
    """Import in a fresh interpreter, case generation and, for scan, the
    shared regions; repeated, and timed as the median."""
    times, cases = [], []
    for _ in range(run.sizes.setup_repeats):
        t0 = time.perf_counter()
        with run.tracer.span("cli.import"):
            proc = python_child(["-c", "import hypca.cli"])
        if proc.returncode != 0:
            raise RuntimeError(f"importing hypca failed: {proc.stderr}")
        cases = make_cases(workload, seed, run.sizes, rounds)
        if workload == "scan":
            scan_setup(run)
        times.append(time.perf_counter() - t0)
        run.calibrate("setup", times[-1])
    return statistics.median(times) / run.slowdown("setup"), cases


def probe(run: Run, seed: int) -> None:
    """One traced pipeline case on the pentagrid, for the layers that the
    certify and scan workloads never call (JSON, render, the command).
    It is attempted and judged like any case, on a run of its own, so its
    time and its regions stay out of the workload's figures."""
    case = next(c for c in make_cases("pipeline", seed, run.sizes, 1)
                if c.grid == "pentagrid" and c.method == "compact")
    side = Run(run.hy, run.sizes, run.tracer, run.work)
    run.tracer.source = "probe"
    try:
        attempt(side, case, pipeline_case)
    finally:
        run.tracer.source = "case"
    run.attempted += side.attempted
    run.failed += side.failed
    run.wrong += side.wrong


def alloc_peak_mb(run: Run) -> float:
    """tracemalloc peak of the workload's largest region build, taken in
    a pass of its own."""
    tracemalloc.start()
    try:
        run.hy.region.build_region(*run.largest[1])
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 sizes: Sizes = FULL) -> dict:
    hy = load_hypca()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    work.mkdir()
    run = Run(hy, sizes, Tracer(trace), work)
    # one core for the run and its children, so that the calibration
    # samples the core the work ran on
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    try:
        with watch_expansion(run):
            rounds = rounds_for(workload, seconds, sizes)
            setup_s, cases = setup(run, workload, seed, rounds)
            for case in cases:
                attempt(run, case, BODIES[workload])
            end_to_end = {"setup_s": (setup_s, "s")}
            raw = {"slowdown.setup": run.slowdown("setup")}
            for grid in GRIDS:
                end_to_end[f"cases_per_s.{grid}"] = (run.rate(grid), "1/s")
                raw[f"slowdown.{grid}"] = run.slowdown(grid)
                raw[f"cases_per_s.{grid}"] = \
                    end_to_end[f"cases_per_s.{grid}"][0] / run.slowdown(grid)
            who = (resource.RUSAGE_CHILDREN if workload == "pipeline"
                   else resource.RUSAGE_SELF)
            end_to_end["peak_rss_mb"] = (
                resource.getrusage(who).ru_maxrss / 1024, "MB")
            if trace:
                if workload != "pipeline":
                    probe(run, seed)
                peak = alloc_peak_mb(run)
                metrics = layer_metrics(
                    run.tracer.spans, {"region.alloc_peak_mb": (peak, "MB")})
                run.tracer.write(
                    OUT / f"trace-{workload}-seed{seed}.json",
                    {"workload": workload, "seed": seed, "rounds": rounds,
                     "end_to_end": end_to_end, "raw": raw, "layers": metrics})
            else:
                metrics = {k: {"value": v, "unit": u}
                           for k, (v, u) in end_to_end.items()}
    finally:
        os.sched_setaffinity(0, cores)
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": run.wrong == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(dict(result, raw=raw), indent=1))
    return result


def main(argv=None, sizes: Sizes = FULL) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "hypca" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no hypca sources under {SRC}; run it "
                         "from a checkout of the repository\n")
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), sizes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
