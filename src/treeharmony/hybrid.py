"""Hybrid solver pipeline and the parallel, checkpointed range sweep.

Trees are filtered through the sub-algorithms in configured order
(default: two-stage constraint solving, backtracking, then tabu search);
only trees failing the current solver are sent to the next.  A tree that
fails every solver is reported as a candidate counterexample, never as
an error.

Sweeps are reproducible by construction: each tree's RNG seed derives
from (global seed, n, enumeration index) alone, certificates are written
in enumeration order through a single writer regardless of worker count,
and the checkpoint records enough (seed, generator version, config
fingerprint, output size) for a resumed run to produce byte-identical
remaining output.  Each checkpoint line is the persisted form of one n's
SweepReport, counts and times, so a resumed run reports what an
uninterrupted one would.
"""

import json
import math
import os
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

from . import native
from .backtracking import solve_backtracking
from .config import PIPELINE_TAGS, SOLVER_VERSION, SolveOutcome, SolverConfig
from .generate import GENERATOR_VERSION, free_trees, oracle_count_otter
from .labelling import Certificate, normalize_labelling
from .tabu import solve_tabu
from .trees import Tree, format_level_sequence, parse_level_sequence
from .twostage import solve_twostage

SOLVERS = {
    "twostage": solve_twostage,
    "backtrack": solve_backtracking,
    "tabu": solve_tabu,
}

# Fixed per-solver salts so one work-unit seed yields independent,
# scheduling-invariant RNG streams per solver: the first four ASCII bytes
# of the tag, so "twostage" salts with 0x74776F73.
_SOLVER_SALT = {tag: int.from_bytes(tag.encode()[:4], "big") for tag in SOLVERS}

_MASK64 = (1 << 64) - 1

# Trees per sweep block.  Enumeration puts the costly trees of each n
# last, so large blocks leave the worker holding the final block busy
# while the others idle; small blocks keep every worker equally busy.
DEFAULT_BLOCK_SIZE = 64


def _mix64(x: int) -> int:
    """splitmix64 finalizer: a declared, stable 64-bit avalanche."""
    x &= _MASK64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


def derive_seed(global_seed: int, n: int, tree_index: int) -> int:
    """Work-unit seed for one tree: deterministic mixing of the triple,
    stable across runs and worker counts."""
    h = _mix64((global_seed & _MASK64) + 0x9E3779B97F4A7C15)
    h = _mix64(h ^ (n & _MASK64))
    h = _mix64(h ^ (tree_index & _MASK64))
    return h


def _solver_rng_seed(seed: int, tag: str) -> int:
    return _mix64(seed ^ _SOLVER_SALT[tag])


def solve_hybrid(tree: Tree, cfg: SolverConfig, seed: int) -> SolveOutcome:
    """Run the pipeline until one solver succeeds.  The outcome records
    which solver produced the labelling; failure means all failed.  Each
    solver gets its own seed, derived from *seed* and its tag, and opens
    its own generator on it.

    A single node is harmonious by convention and returns its trivial
    labelling immediately, attributed to the first configured solver.
    """
    if tree.n == 1:
        return SolveOutcome(True, (0,), cfg.pipeline[0], {"trivial": True})
    attempts = []
    for tag in cfg.pipeline:
        outcome = SOLVERS[tag](tree, cfg, _solver_rng_seed(seed, tag))
        attempts.append({"solver": tag, **outcome.stats})
        if outcome.success:
            outcome.stats = {"attempts": attempts}
            return outcome
    return SolveOutcome(False, None, "", {"attempts": attempts})


def make_certificate(tree: Tree, outcome: SolveOutcome, seed: int) -> Certificate:
    """The one check between a solver and a certificate: normalize_labelling
    raises ValueError unless the outcome's labels are harmonious."""
    labels = normalize_labelling(tree, outcome.labels)
    return Certificate(tree.n, tree.levels, labels, outcome.solver, seed)


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

class CheckpointError(RuntimeError):
    """Unreadable, corrupt, or mismatched checkpoint; resuming refused."""


# How a mismatch message ends; the CLI names its --fresh flag instead.
RESTART_HINT = "pass fresh=True to restart"


@dataclass
class SweepReport:
    """Per-n summary: totals, per-solver attribution, the level
    sequences (if any) that failed every solver, and wall and CPU time.
    Every field covers every tree of n done so far, in this run and the
    runs it resumes."""

    n: int
    trees_total: int = 0
    trees_solved: int = 0
    solver_counts: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    wall_time: float = 0.0
    cpu_time: float = 0.0

    def to_json(self) -> str:
        return json.dumps({**asdict(self), "wall_time": round(self.wall_time, 6),
                           "cpu_time": round(self.cpu_time, 6)}, separators=(",", ":"))


class Checkpoint(NamedTuple):
    """A checkpoint as read back: one report per line, covering the
    enumeration prefix of its n done so far (``completed=``, ``cpu=``,
    ``wall=``, ``solved=`` and ``failed=``).  ``cfg`` and ``out`` are
    None for a line written without them (the older form); a line
    without ``cpu=`` or ``wall=`` reads that time as 0.0, and one
    without ``solved=`` counts its trees that did not fail as solved, by
    no named solver."""

    reports: dict[int, SweepReport]
    seed: int
    gen: str                    # GENERATOR_VERSION
    cfg: str | None             # SolverConfig.fingerprint()
    out: int | None             # output bytes once those trees were written


_CHECKPOINT_KEYS = ("n", "completed", "seed", "gen", "cfg", "out", "cpu", "wall",
                    "solved", "failed")


def _read_checkpoint(path) -> Checkpoint:
    reports: dict[int, SweepReport] = {}
    header = None
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            parts = {}
            for item in line.split():
                key, sep, value = item.partition("=")
                if not sep or key not in _CHECKPOINT_KEYS:
                    raise ValueError(f"unknown token {item!r}")
                if key in parts:
                    raise ValueError(f"{key}= twice")
                parts[key] = value
            n, done = int(parts["n"]), int(parts["completed"])
            out = int(parts["out"]) if "out" in parts else None
            if n < 1 or done < 0 or (out is not None and out < 0):
                raise ValueError("n below 1, or a negative count or size")
            # n >= 4 nodes have at least 2**(n-4) trees (the caterpillars),
            # so only a count that large needs the Otter count, which
            # recurses n deep
            if done >> max(n - 4, 0) and done > oracle_count_otter(n):
                raise ValueError(f"completed={done} is more than the "
                                 f"{oracle_count_otter(n)} trees of {n} nodes")
            cpu, wall = float(parts.get("cpu", 0)), float(parts.get("wall", 0))
            if not all(math.isfinite(t) and t >= 0 for t in (cpu, wall)):
                raise ValueError("cpu= and wall= must be finite and at least 0")
            if n in reports:
                raise ValueError(f"n={n} on two lines")
            failures = [parse_level_sequence(seq)
                        for seq in parts.get("failed", "").split(";") if seq]
            if len(failures) > done or any(len(seq) != n for seq in failures):
                raise ValueError(f"failed= must name at most {done} trees of {n} nodes")
            report = reports[n] = SweepReport(
                n, done, done - len(failures),
                failures=[format_level_sequence(seq) for seq in failures],
                wall_time=wall, cpu_time=cpu)
            counts = report.solver_counts
            for item in filter(None, parts.get("solved", "").split(",")):
                tag, count = item.split(":")
                if tag not in PIPELINE_TAGS or tag in counts or int(count) < 0:
                    raise ValueError(f"solved= entry {item!r}")
                counts[tag] = int(count)
            if "solved" in parts and sum(counts.values()) != report.trees_solved:
                raise ValueError("solved= and failed= do not add up to completed=")
            line_header = (int(parts["seed"]), parts["gen"], parts.get("cfg"), out)
        except (KeyError, ValueError) as exc:
            raise CheckpointError(
                f"corrupt checkpoint {path} line {lineno}: {exc}") from None
        if header is None:
            header = line_header
        elif line_header != header:
            raise CheckpointError(f"inconsistent checkpoint {path} line {lineno}")
    if header is None:
        raise CheckpointError(f"empty checkpoint {path}")
    return Checkpoint(reports, *header)


def _write_checkpoint(path, reports: dict[int, SweepReport], seed: int, gen: str,
                      cfg: str, out: int) -> None:
    # write-temp-then-rename so a crash can never leave a torn file
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        for n, report in sorted(reports.items()):
            line = (f"n={n} completed={report.trees_total} seed={seed} gen={gen} "
                    f"cfg={cfg} out={out} cpu={report.cpu_time:.6f} "
                    f"wall={report.wall_time:.6f}")
            # an n resumed from a line without solved= has no tags for its
            # earlier trees, so its lines go on without the token
            if sum(report.solver_counts.values()) == report.trees_solved:
                line += " solved=" + ",".join(
                    f"{tag}:{count}" for tag, count in report.solver_counts.items())
            if report.failures:
                line += " failed=" + ";".join(report.failures)
            fh.write(line + "\n")
    os.replace(tmp, path)


def _solve_block(n: int, start_index: int, seqs: list, cfg: SolverConfig):
    """Worker task: solve a contiguous block of trees.  Returns per-tree
    result tuples plus the block's CPU time."""
    cpu0 = time.process_time()
    out = []
    for offset, seq in enumerate(seqs):
        index = start_index + offset
        seed = derive_seed(cfg.global_seed, n, index)
        tree = Tree.from_level_sequence(seq)
        outcome = solve_hybrid(tree, cfg, seed)
        if outcome.success:
            cert = make_certificate(tree, outcome, seed)
            out.append((index, cert.to_json_line(), outcome.solver))
        else:
            out.append((index, None, format_level_sequence(seq)))
    return out, time.process_time() - cpu0


def _blocks(stream, block_size: int):
    """(first index, level sequences) of each block of up to *block_size*
    trees of *stream*, in enumeration order.  Reads the stream only
    through ``index`` and ``next()``: the stream that perfbench's layer
    trace hands in has no other way to be read."""
    while True:
        start = stream.index
        seqs = []
        while len(seqs) < block_size:
            seq = stream.next()
            if seq is None:
                break
            seqs.append(seq)
        if not seqs:
            return
        yield start, seqs


def _pool(workers: int):
    """Context giving a pool of *workers* forked processes, or None for one
    worker.  Forked workers inherit the loaded kernel and the module
    globals as the parent holds them; Python 3.14 starts workers with
    forkserver on Linux unless told otherwise.  The pool modules are
    imported here, so a serial run or a bare import never loads them."""
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=workers,
                                   mp_context=multiprocessing.get_context("fork"))
    return nullcontext()


def _load_kernel(pipeline) -> None:
    """Load the search kernel (built first on an empty cache) when a
    solver of *pipeline* runs on it, so that it is loaded once, before
    any file is touched or clock started, and a pool's workers inherit
    it."""
    if {"twostage", "backtrack"} & set(pipeline):
        native.kernel()


def _in_order(pool, window: int, fn, calls):
    """Yield ``fn(*args)`` for each *args* of *calls*, in order: inline
    without a pool, else with at most *window* calls in flight, so results
    come back in submission order whichever worker finishes first."""
    if pool is None:
        for args in calls:
            yield fn(*args)
        return
    pending = deque()
    for args in calls:
        pending.append(pool.submit(fn, *args))
        if len(pending) >= window:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def sweep(n_min: int, n_max: int, cfg: SolverConfig, workers: int = 1, *,
          out_path, checkpoint_path, report_path=None, fresh: bool = False,
          block_size: int = DEFAULT_BLOCK_SIZE, progress=None) -> list[SweepReport]:
    """Solve every free tree with n_min..n_max nodes, streaming one
    certificate per solved tree (in enumeration order) to *out_path*.

    The checkpoint is updated atomically after each completed block; an
    existing checkpoint resumes the sweep (skipping completed prefixes,
    and cutting the output back to the size it records) and is refused
    if its seed, generator version or config fingerprint disagrees, if
    the output is shorter than it records, or if it is corrupt - pass
    ``fresh=True`` to delete it and start over.
    Failures never abort the sweep; they are accumulated per n in the
    checkpoint and the returned reports (and appended to *report_path*
    when given, once this call finishes n; a call that reads no
    checkpoint truncates *report_path* along with the output).  Each n's
    report resumes from its checkpoint line, so every field, counts and
    times, covers every tree of n done so far: a stopped call's time is
    in the checkpoint up to its last block, and an n it holds complete
    is not enumerated again.
    ``progress(n, completed)`` runs after each block's checkpoint is
    written; an exception it raises stops the sweep at that point, and a
    later call resumes from there.
    """
    if not 1 <= n_min <= n_max:
        raise ValueError("need 1 <= n_min <= n_max")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if block_size < 1:
        raise ValueError("block_size must be at least 1")

    _load_kernel(cfg.pipeline)
    fingerprint = cfg.fingerprint()
    if fresh and os.path.exists(checkpoint_path):
        os.remove(checkpoint_path)  # before the output it names is truncated
    if not os.path.exists(checkpoint_path):
        reports: dict[int, SweepReport] = {}
        out_mode = "w"
        if report_path is not None:
            # the report starts anew with the output: an old n's last
            # line would otherwise outlast this run's lines for it
            open(report_path, "w", encoding="utf-8").close()
    else:
        ck = _read_checkpoint(checkpoint_path)
        reports = ck.reports
        if ck.seed != cfg.global_seed:
            raise CheckpointError(
                f"checkpoint seed {ck.seed} != configured seed {cfg.global_seed}; "
                f"{RESTART_HINT}")
        if ck.gen != GENERATOR_VERSION:
            raise CheckpointError(
                f"checkpoint generator {ck.gen!r} != {GENERATOR_VERSION!r}; "
                f"{RESTART_HINT}")
        if ck.cfg is not None and ck.cfg != fingerprint:
            raise CheckpointError(
                f"checkpoint config cfg={ck.cfg} != configured cfg={fingerprint} "
                f"(solver version {SOLVER_VERSION} and every setting but the seed); "
                f"{RESTART_HINT}")
        if not os.path.exists(out_path):
            raise CheckpointError(
                f"checkpoint exists but output {out_path} does not; {RESTART_HINT}")
        if ck.out is not None:
            size = os.path.getsize(out_path)
            if size < ck.out:
                raise CheckpointError(
                    f"output {out_path} has {size} bytes, fewer than the "
                    f"{ck.out} the checkpoint records; {RESTART_HINT}")
            # drop lines written after the checkpoint's last block
            os.truncate(out_path, ck.out)
        out_mode = "a"

    with open(out_path, out_mode, encoding="utf-8") as sink, _pool(workers) as pool:
        for n in range(n_min, n_max + 1):
            report = reports.setdefault(n, SweepReport(n))
            # n's clock goes on from the wall time its checkpoint records
            wall0 = time.perf_counter() - report.wall_time
            done = report.trees_total
            # an n that the checkpoint holds complete opens no stream
            blocks = (() if done == oracle_count_otter(n)
                      else _blocks(free_trees(n).skip(done), block_size))
            calls = ((n, start, seqs, cfg) for start, seqs in blocks)
            for results, cpu in _in_order(pool, 2 * workers, _solve_block, calls):
                report.cpu_time += cpu
                for _, cert_line, info in results:
                    report.trees_total += 1
                    if cert_line is not None:
                        sink.write(cert_line + "\n")
                        report.trees_solved += 1
                        report.solver_counts[info] = report.solver_counts.get(info, 0) + 1
                    else:
                        report.failures.append(info)
                sink.flush()
                report.wall_time = time.perf_counter() - wall0
                # The checkpoint names the output size, so a resume after a
                # stop between the flush and the rename cuts the block's
                # lines away and writes them again.
                _write_checkpoint(checkpoint_path, reports, cfg.global_seed,
                                  GENERATOR_VERSION, fingerprint,
                                  os.fstat(sink.fileno()).st_size)
                if progress is not None:
                    progress(n, report.trees_total)
            if report_path is not None:
                with open(report_path, "a", encoding="utf-8") as rf:
                    rf.write(report.to_json() + "\n")
    return [reports[n] for n in range(n_min, n_max + 1)]


# ---------------------------------------------------------------------------
# Per-solver benchmark (pipeline-order trend report)
# ---------------------------------------------------------------------------

def benchmark_solvers(n: int, cfg: SolverConfig, workers: int = 1) -> dict:
    """Run each solver alone, as the one-solver pipeline ``(tag,)``, on
    every free tree with n nodes, in the blocks a sweep solves, and
    report per-solver success rate and mean CPU time per tree.  The
    pipeline-order trend (earlier solvers faster, later solvers likelier
    to succeed) is read off the report by eye, not asserted by machine."""
    solvers = {}
    _load_kernel(PIPELINE_TAGS)
    with _pool(workers) as pool:
        for tag in PIPELINE_TAGS:
            one = replace(cfg, pipeline=(tag,))
            calls = ((n, start, seqs, one) for start, seqs in
                     _blocks(free_trees(n), DEFAULT_BLOCK_SIZE))
            trees = successes = 0
            cpu_time = 0.0
            for results, cpu in _in_order(pool, 2 * workers, _solve_block, calls):
                trees += len(results)
                successes += sum(cert_line is not None for _, cert_line, _ in results)
                cpu_time += cpu
            solvers[tag] = {
                "success_rate": round(successes / trees, 6),
                "mean_time": round(cpu_time / trees, 9),
                "successes": successes,
            }
    return {"n": n, "trees": trees, "solvers": solvers}
