"""Command-line interface.

Subcommands: ``gen`` (stream canonical level sequences), ``count``
(enumerated vs formula tree counts), ``solve`` (one tree -> one
certificate line), ``sweep`` (checkpointed range run writing a
certificate file), ``verify`` (cold re-verification of a certificate
file).

Exit codes: 0 complete success, 1 domain-level failure (solver failed /
a certificate does not verify / count mismatch), 2 usage, format or I/O
error.  All formats are line-oriented and append-safe.
"""

import argparse
import json
import sys
from dataclasses import fields, replace

from .config import PIPELINE_TAGS, SolverConfig
from .generate import count_free_trees_enumerated, free_trees, oracle_count_otter
from .hybrid import (DEFAULT_BLOCK_SIZE, CheckpointError, make_certificate,
                     solve_hybrid, sweep)
from .labelling import Certificate, CertificateError, verify_certificate
from .native import KernelBuildError
from .trees import (LevelSequenceError, Tree, canonicalize,
                    format_level_sequence, parse_level_sequence)

_CONFIG_KEYS = [f.name for f in fields(SolverConfig)]


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "solver parameters (SolverConfig keys; a flag parses like a --config line)")
    group.add_argument("--config", metavar="FILE",
                       help="key=value file setting solver parameters in bulk")
    for name in _CONFIG_KEYS:
        flag = "--seed" if name == "global_seed" else "--" + name.replace("_", "-")
        group.add_argument(flag, dest=name, metavar="VALUE")


def _config_from_args(args) -> SolverConfig:
    """A flag wins over the --config file, which wins over the default."""
    cfg = SolverConfig.from_file(args.config) if args.config else SolverConfig()
    return cfg.with_overrides({name: getattr(args, name) for name in _CONFIG_KEYS
                               if getattr(args, name) is not None})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeharmony",
        description="Enumerate free trees, search harmonious labellings, "
                    "and verify the resulting certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="stream canonical level sequences")
    p_gen.add_argument("--nodes", type=int, required=True)
    p_gen.add_argument("--count-only", action="store_true",
                       help="print only the number of trees")

    p_count = sub.add_parser(
        "count", help="enumerated and formula-based free-tree counts")
    p_count.add_argument("--nodes", type=int, required=True)

    p_solve = sub.add_parser("solve", help="find a harmonious labelling for one tree")
    p_solve.add_argument("--levels", required=True,
                         help="comma-separated depths, e.g. 0,1,2,1 "
                              "(canonicalized before solving)")
    p_solve.add_argument("--solver", default="hybrid",
                         choices=["hybrid", *PIPELINE_TAGS],
                         help="a solver tag runs the one-solver pipeline (tag,)")
    _add_solver_flags(p_solve)

    p_sweep = sub.add_parser(
        "sweep", help="solve every tree in a node-count range, with checkpointing")
    p_sweep.add_argument("--min", type=int, required=True)
    p_sweep.add_argument("--max", type=int, required=True)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--out", required=True, help="certificate JSON-lines file")
    p_sweep.add_argument("--checkpoint", required=True)
    p_sweep.add_argument("--report", default=None,
                         help="append one SweepReport JSON object per n "
                              "(default: <out>.report.jsonl)")
    p_sweep.add_argument("--fresh", action="store_true",
                         help="delete an existing checkpoint, then restart")
    p_sweep.add_argument("--block-size", type=int, default=DEFAULT_BLOCK_SIZE,
                         help="trees per work unit (default: %(default)s); the "
                              "costly trees of each n come last, so small "
                              "blocks keep the workers equally busy")
    _add_solver_flags(p_sweep)

    p_verify = sub.add_parser("verify", help="re-verify a certificate file cold")
    p_verify.add_argument("path")

    return parser


def _cmd_gen(args) -> int:
    if args.count_only:
        print(count_free_trees_enumerated(args.nodes))
        return 0
    for seq in free_trees(args.nodes):
        print(format_level_sequence(seq))
    return 0


def _cmd_count(args) -> int:
    enumerated = count_free_trees_enumerated(args.nodes)
    formula = oracle_count_otter(args.nodes)
    print(f"enumerated={enumerated} formula={formula}")
    if enumerated != formula:
        print("count: enumeration disagrees with the formula", file=sys.stderr)
        return 1
    return 0


def _cmd_solve(args) -> int:
    try:
        seq = parse_level_sequence(args.levels)
    except LevelSequenceError as exc:
        print(f"solve: invalid level sequence: {exc}", file=sys.stderr)
        return 2
    cfg = _config_from_args(args)
    if args.solver != "hybrid":
        cfg = replace(cfg, pipeline=(args.solver,))
    levels = canonicalize(Tree.from_level_sequence(seq))
    tree = Tree.from_level_sequence(levels)
    seed = cfg.global_seed
    outcome = solve_hybrid(tree, cfg, seed)
    if outcome.success:
        print(make_certificate(tree, outcome, seed).to_json_line())
        return 0
    print(json.dumps({
        "n": tree.n,
        "levels": list(levels),
        "failed": True,
        "seed": seed,
        "stats": outcome.stats,
    }, separators=(",", ":")))
    return 1


def _cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    report_path = args.report if args.report else args.out + ".report.jsonl"
    try:
        reports = sweep(args.min, args.max, cfg, workers=args.jobs,
                        out_path=args.out, checkpoint_path=args.checkpoint,
                        report_path=report_path, fresh=args.fresh,
                        block_size=args.block_size)
    except CheckpointError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"sweep: I/O error: {exc}", file=sys.stderr)
        return 2
    failed = 0
    for report in reports:
        print(f"n={report.n} total={report.trees_total} "
              f"solved={report.trees_solved} failures={len(report.failures)}",
              file=sys.stderr)
        for seq_text in report.failures:
            failed += 1
            print(f"candidate counterexample: {seq_text}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_verify(args) -> int:
    try:
        with open(args.path, encoding="utf-8") as fh:
            return _verify_lines(fh)
    except OSError as exc:
        print(f"verify: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2


def _verify_lines(lines) -> int:
    """Check certificate *lines* one at a time, so a file is never held
    in memory whole."""
    count = 0
    # Sweeps emit the trees of each n in strictly decreasing level-sequence
    # order, and a resumed sweep appends in that same order, so a sequence
    # not below the previous one of its n is a repeat or out of place.
    previous: dict[int, tuple[int, ...]] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            cert = Certificate.from_json_line(line)
        except CertificateError as exc:
            print(f"verify: line {lineno}: malformed record: {exc}", file=sys.stderr)
            return 2
        reason = verify_certificate(cert)
        if reason is None and cert.n in previous and cert.levels >= previous[cert.n]:
            reason = (f"level sequence not below the previous n={cert.n} one "
                      "(repeated or out of order)")
        previous[cert.n] = cert.levels
        if reason is not None:
            print(f"verify: line {lineno}: {reason}", file=sys.stderr)
            return 1
        count += 1
    if count == 0:
        print("verify: warning: no certificate records found", file=sys.stderr)
    else:
        print(f"verify: {count} certificates ok", file=sys.stderr)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "count": _cmd_count,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KernelBuildError) as exc:
        # a bad setting, flag or config file (e.g. a bad pipeline tag), an
        # argument the library refuses (e.g. --nodes 0), a tree too large
        # for the search kernel, or no way to build it
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
