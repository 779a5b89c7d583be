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
fingerprint, completed counts, output size) for a resumed run to produce
byte-identical remaining output.
"""

import json
import os
import random
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

from .backtracking import solve_backtracking
from .config import PIPELINE_TAGS, SOLVER_VERSION, SolveOutcome, SolverConfig
from .generate import GENERATOR_VERSION, free_trees
from .labelling import Certificate, normalize_labelling
from .tabu import solve_tabu
from .trees import Tree, format_level_sequence
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
    which solver produced the labelling; failure means all failed.

    A single node is harmonious by convention and returns its trivial
    labelling immediately, attributed to the first configured solver.
    """
    if tree.n == 1:
        return SolveOutcome(True, (0,), cfg.pipeline[0], {"trivial": True})
    attempts = []
    for tag in cfg.pipeline:
        rng = random.Random(_solver_rng_seed(seed, tag))
        outcome = SOLVERS[tag](tree, cfg, rng)
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


@dataclass
class SweepReport:
    """Per-n summary: totals, per-solver attribution, and the level
    sequences (if any) that failed every solver."""

    n: int
    trees_total: int = 0
    trees_solved: int = 0
    solver_counts: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    wall_time: float = 0.0
    cpu_time: float = 0.0
    resumed_from: int = 0

    def to_json(self) -> str:
        return json.dumps({**asdict(self), "wall_time": round(self.wall_time, 6),
                           "cpu_time": round(self.cpu_time, 6)}, separators=(",", ":"))


class Checkpoint(NamedTuple):
    """A checkpoint as read back.  ``cfg`` and ``out`` are None for a
    line written without them (the older form)."""

    completed: dict[int, int]   # trees done per n, an enumeration prefix
    seed: int
    gen: str                    # GENERATOR_VERSION
    cfg: str | None             # SolverConfig.fingerprint()
    out: int | None             # output bytes once those trees were written


def _read_checkpoint(path) -> Checkpoint:
    completed: dict[int, int] = {}
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
            parts = dict(item.split("=", 1) for item in line.split())
            n = int(parts["n"])
            completed[n] = int(parts["completed"])
            out = parts.get("out")
            line_header = (int(parts["seed"]), parts["gen"], parts.get("cfg"),
                           None if out is None else int(out))
        except (KeyError, ValueError) as exc:
            raise CheckpointError(
                f"corrupt checkpoint {path} line {lineno}: {exc}") from None
        if header is None:
            header = line_header
        elif line_header != header:
            raise CheckpointError(f"inconsistent checkpoint {path} line {lineno}")
    if header is None:
        raise CheckpointError(f"empty checkpoint {path}")
    return Checkpoint(completed, *header)


def _write_checkpoint(path, completed: dict[int, int], seed: int, gen: str,
                      cfg: str, out: int) -> None:
    # write-temp-then-rename so a crash can never leave a torn file
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        for n in sorted(completed):
            fh.write(f"n={n} completed={completed[n]} seed={seed} gen={gen} "
                     f"cfg={cfg} out={out}\n")
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
    """Context giving a pool of *workers* processes, or None for one worker."""
    return ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()


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
    returned reports (and appended to *report_path* when given).
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

    fingerprint = cfg.fingerprint()
    if fresh and os.path.exists(checkpoint_path):
        os.remove(checkpoint_path)  # before the output it names is truncated
    if not os.path.exists(checkpoint_path):
        completed: dict[int, int] = {}
        out_mode = "w"
    else:
        ck = _read_checkpoint(checkpoint_path)
        completed = ck.completed
        if ck.seed != cfg.global_seed:
            raise CheckpointError(
                f"checkpoint seed {ck.seed} != configured seed {cfg.global_seed}; "
                "pass fresh=True to restart")
        if ck.gen != GENERATOR_VERSION:
            raise CheckpointError(
                f"checkpoint generator {ck.gen!r} != {GENERATOR_VERSION!r}; "
                "pass fresh=True to restart")
        if ck.cfg is not None and ck.cfg != fingerprint:
            raise CheckpointError(
                f"checkpoint config cfg={ck.cfg} != configured cfg={fingerprint} "
                f"(solver version {SOLVER_VERSION} and every setting but the seed); "
                "pass fresh=True to restart")
        if not os.path.exists(out_path):
            raise CheckpointError(
                f"checkpoint exists but output {out_path} does not; "
                "pass fresh=True to restart")
        if ck.out is not None:
            size = os.path.getsize(out_path)
            if size < ck.out:
                raise CheckpointError(
                    f"output {out_path} has {size} bytes, fewer than the "
                    f"{ck.out} the checkpoint records; pass fresh=True to restart")
            # drop lines written after the checkpoint's last block
            os.truncate(out_path, ck.out)
        out_mode = "a"

    reports = []
    with open(out_path, out_mode, encoding="utf-8") as sink, _pool(workers) as pool:
        for n in range(n_min, n_max + 1):
            wall0 = time.perf_counter()
            report = SweepReport(n, resumed_from=completed.get(n, 0))
            calls = ((n, start, seqs, cfg) for start, seqs in
                     _blocks(free_trees(n).skip(report.resumed_from), block_size))
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
                completed[n] = report.resumed_from + report.trees_total
                # The checkpoint names the output size, so a resume after a
                # stop between the flush and the rename cuts the block's
                # lines away and writes them again.
                _write_checkpoint(checkpoint_path, completed, cfg.global_seed,
                                  GENERATOR_VERSION, fingerprint,
                                  os.fstat(sink.fileno()).st_size)
                if progress is not None:
                    progress(n, completed[n])
            report.wall_time = time.perf_counter() - wall0
            reports.append(report)
            if report_path is not None:
                with open(report_path, "a", encoding="utf-8") as rf:
                    rf.write(report.to_json() + "\n")
    return reports


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
