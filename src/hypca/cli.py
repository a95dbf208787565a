"""Command-line interface.

Subcommands cover the pipeline end to end: `transform` produces a tiling
automaton from a 1D rule, `simulate` runs it on a bounded region with an
optional oracle comparison, `verify` scans unique applicability and
states rotation invariance, which every construction has by design, with
a cell's rotation count, `render` draws regions and snapshots, and
`motions` dumps the rotation table.  Exit codes: 0 clean, 1 a
verification found violations, 2 bad usage, a failed precondition or
too little memory.

Each command imports the modules it runs, and only after its option
checks, so a process loads no more of the package than its subcommand
needs: `--help` and a refused option none; `transform` only `ca1d`,
`automaton`, `symmetry` and `jsonfile`, and no numpy; and only `render`
and `simulate --svg-dir` the renderer.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

_METHODS = {
    "extra": "extra", "t1": "extra",
    "compact": "compact", "t3": "compact", "t4": "compact",
}


def _parse_word(text: str) -> list[int]:
    try:
        if "," in text:
            return [int(t) for t in text.split(",") if t != ""]
        return [int(ch) for ch in text]
    except ValueError:
        raise ValueError(f"--word {text!r}: give digits, or integers "
                         "separated by commas") from None


def _require_count(option: str, value: int | None, least: int = 0) -> None:
    """Refuse an option's value below `least`; None, an unset option,
    passes."""
    if value is not None and value < least:
        raise ValueError(f"{option} must be at least {least}, not {value}")


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _load_automaton(path: str):
    from .automaton import automaton_from_json

    return automaton_from_json(Path(path).read_text())


def cmd_transform(args) -> int:
    from . import automaton, ca1d

    rule = ca1d.parse_rule_spec(args.rule)
    method = _METHODS[args.method]
    if method == "extra":
        b = automaton.embed_extra_state(rule, args.grid)
    else:
        b = automaton.embed_compact(rule, args.grid)
    _write(args.output, automaton.automaton_to_json(b) + "\n")
    return 0


def cmd_simulate(args) -> int:
    _require_count("--steps", args.steps)
    _require_count("--radius", args.radius, 1)
    _require_count("--halfwidth", args.halfwidth)
    from . import ca1d, engine, region as reg

    b = _load_automaton(args.automaton)
    word = _parse_word(args.word)
    radius = args.radius if args.radius is not None else max(args.steps, 1)
    halfwidth = args.halfwidth if args.halfwidth is not None \
        else max(1, len(word) // 2)
    if args.svg_dir:
        reg.require_placeable(b.grid, radius, halfwidth)
    region = reg.build_region(b.grid, radius, halfwidth)
    if args.save_region:
        Path(args.save_region).write_text(reg.region_to_json(region))

    status = 0
    if args.check_oracle is not None:
        rule = b.action if args.check_oracle == "" \
            else ca1d.parse_rule_spec(args.check_oracle, "--check-oracle")
        report = engine.equivalence_check(rule, b, region, word, args.steps)
        sys.stderr.write(report.text())
        if not report.ok:
            status = 1
        cfgs = report.configurations
    else:
        cfgs = engine.run_hca(b, region,
                              engine.init_configuration(region, b, word),
                              args.steps)
    trace = engine.yellow_trace(b, region, cfgs)
    _write(args.output, engine.trace_to_text(trace))
    if args.snapshot_out:
        Path(args.snapshot_out).write_text(
            engine.config_to_json(region, cfgs[-1]))
    if args.svg_dir:
        from . import render

        out = Path(args.svg_dir)
        out.mkdir(parents=True, exist_ok=True)
        spec = render.default_render_spec(b)
        for cfg in cfgs:
            svg = render.render_svg(region, spec, cfg.states)
            (out / f"step_{cfg.time:03d}.svg").write_text(svg)
    return status


def cmd_verify(args) -> int:
    _require_count("--horizon", args.horizon)
    _require_count("--radius", args.radius, 1)
    _require_count("--halfwidth", args.halfwidth)
    from . import embed, engine, region as reg, symmetry as sym

    b = _load_automaton(args.automaton)
    word = _parse_word(args.word)
    region = reg.build_region(b.grid, args.radius, args.halfwidth)
    init = engine.init_configuration(region, b, word)
    report = embed.verify_unique_applicability(b, region, init, args.horizon)
    rotations = len(sym.rotation_indices(len(b.pattern.slots)))
    _write(args.output, "rotation invariance: 0 conflict groups, by "
           f"construction over a cell's {rotations} rotations\n"
           + report.text())
    return 0 if report.ok else 1


def cmd_render(args) -> int:
    if not args.region:
        if args.grid is None:
            raise ValueError("render needs --region or --grid")
        _require_count("--radius", args.radius, 1)
        _require_count("--halfwidth", args.halfwidth)
    from . import region as reg, render

    if args.region:
        params = reg.read_region_file(Path(args.region).read_text())
    else:
        params = (args.grid, args.radius, args.halfwidth)
    reg.require_placeable(*params)
    # the colours are read, and their grid checked, before any cell is built
    if args.render_spec:
        spec = render.spec_from_json(Path(args.render_spec).read_text())
        source = f"render spec {args.render_spec}"
    elif args.automaton:
        spec = render.default_render_spec(_load_automaton(args.automaton))
        source = f"automaton {args.automaton}"
    else:
        spec, source = render.blank_render_spec(params[0]), None
    if spec.grid != params[0]:
        raise ValueError(f"the {source} is for {spec.grid}, the region is "
                         f"{params[0]}")
    region = reg.build_region(*params)
    states = None
    if args.snapshot:
        from . import engine

        cfg = engine.config_from_json(Path(args.snapshot).read_text(), region)
        states = cfg.states
    try:
        svg = render.render_svg(region, spec, states)
    except render.NoColour as e:
        if source:
            raise
        raise ValueError(f"{e}: a bare region's colours are for states 0 "
                         "and 1; --automaton or --render-spec supplies the "
                         "colours") from None
    _write(args.output, svg)
    return 0


def cmd_motions(args) -> int:
    from . import symmetry as sym

    _write(args.output, sym.motions_table_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hypca",
        description="1D cellular automata embedded in hyperbolic tilings")
    sub = ap.add_subparsers(dest="command", required=True)

    t = sub.add_parser("transform",
                       help="turn a 1D rule into a tiling automaton")
    t.add_argument("--rule", required=True,
                   help="elementary:N, N in 0..255, or a rule file")
    t.add_argument("--grid", required=True,
                   choices=("pentagrid", "heptagrid", "dodecagrid"))
    t.add_argument("--method", default="extra", choices=sorted(_METHODS),
                   help="extra (alias t1) or compact (aliases t3, t4)")
    t.add_argument("-o", "--output", default="-")
    t.set_defaults(func=cmd_transform)

    s = sub.add_parser("simulate", help="run an automaton and dump the tape")
    s.add_argument("--automaton", required=True)
    s.add_argument("--word", default="1")
    s.add_argument("--steps", type=int, default=4)
    s.add_argument("--radius", type=int, default=None)
    s.add_argument("--halfwidth", type=int, default=None)
    s.add_argument("--check-oracle", nargs="?", const="", default=None,
                   metavar="RULE",
                   help="compare against a 1D run (default: own action)")
    s.add_argument("--save-region", default=None)
    s.add_argument("--snapshot-out", default=None)
    s.add_argument("--svg-dir", default=None)
    s.add_argument("-o", "--output", default="-")
    s.set_defaults(func=cmd_simulate)

    v = sub.add_parser("verify",
                       help="unique applicability, and rotation "
                       "invariance by construction")
    v.add_argument("--automaton", required=True)
    v.add_argument("--word", default="1")
    v.add_argument("--radius", type=int, default=3)
    v.add_argument("--halfwidth", type=int, default=2)
    v.add_argument("--horizon", type=int, default=10)
    v.add_argument("-o", "--output", default="-")
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser("render", help="draw a region or a snapshot as SVG")
    r.add_argument("--region", default=None)
    r.add_argument("--grid", default=None,
                   choices=("pentagrid", "heptagrid", "dodecagrid"))
    r.add_argument("--radius", type=int, default=4)
    r.add_argument("--halfwidth", type=int, default=2)
    r.add_argument("--snapshot", default=None)
    r.add_argument("--automaton", default=None)
    r.add_argument("--render-spec", default=None)
    r.add_argument("-o", "--output", default="-")
    r.set_defaults(func=cmd_render)

    m = sub.add_parser("motions", help="dump the 60 rotations")
    m.add_argument("-o", "--output", default="-")
    m.set_defaults(func=cmd_motions)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except MemoryError as e:
        sys.stderr.write(f"error: {str(e) or 'out of memory'}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
