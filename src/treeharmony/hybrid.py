"""Hybrid solver pipeline and the parallel, checkpointed range sweep.

Trees are filtered through the sub-algorithms in configured order
(default: two-stage constraint solving, backtracking, then tabu search);
only trees failing the current solver are sent to the next.  A tree that
fails every solver is reported as a candidate counterexample, never as
an error.

Sweeps are reproducible by construction: each tree's RNG seed derives
from (global seed, n, enumeration index) alone, certificates are written
in enumeration order through a single writer regardless of worker count,
and the checkpoint records enough (seed, generator version, completed
counts) for a resumed run to produce byte-identical remaining output.
"""

import json
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .backtracking import solve_backtracking
from .config import SolveOutcome, SolverConfig
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
# scheduling-invariant RNG streams per solver.
_SOLVER_SALT = {
    "twostage": 0x74776F73,
    "backtrack": 0x6261636B,
    "tabu": 0x74616275,
}

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


def make_certificate(tree: Tree, levels, outcome: SolveOutcome, seed: int) -> Certificate:
    labels = normalize_labelling(tree, outcome.labels)
    return Certificate(tree.n, tuple(levels), labels, outcome.solver, seed)


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
        return json.dumps({
            "n": self.n,
            "trees_total": self.trees_total,
            "trees_solved": self.trees_solved,
            "solver_counts": self.solver_counts,
            "failures": self.failures,
            "wall_time": round(self.wall_time, 6),
            "cpu_time": round(self.cpu_time, 6),
            "resumed_from": self.resumed_from,
        }, separators=(",", ":"))


def _read_checkpoint(path) -> tuple[dict[int, int], int, str]:
    completed: dict[int, int] = {}
    seed = None
    gen = None
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
            line_seed = int(parts["seed"])
            line_gen = parts["gen"]
        except (KeyError, ValueError) as exc:
            raise CheckpointError(
                f"corrupt checkpoint {path} line {lineno}: {exc}") from None
        if seed is None:
            seed, gen = line_seed, line_gen
        elif (line_seed, line_gen) != (seed, gen):
            raise CheckpointError(f"inconsistent checkpoint {path} line {lineno}")
    if seed is None:
        raise CheckpointError(f"empty checkpoint {path}")
    return completed, seed, gen


def _write_checkpoint(path, completed: dict[int, int], seed: int, gen: str) -> None:
    # write-temp-then-rename so a crash can never leave a torn file
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        for n in sorted(completed):
            fh.write(f"n={n} completed={completed[n]} seed={seed} gen={gen}\n")
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
            cert = make_certificate(tree, seq, outcome, seed)
            out.append((index, cert.to_json_line(), outcome.solver))
        else:
            out.append((index, None, format_level_sequence(seq)))
    return out, time.process_time() - cpu0


class _Sweeper:
    """One sweep invocation: owns the writer, the checkpoint state, and
    the (optional) worker pool."""

    def __init__(self, cfg, workers, sink, checkpoint_path, completed,
                 block_size, progress):
        self.cfg = cfg
        self.workers = workers
        self.sink = sink
        self.checkpoint_path = checkpoint_path
        self.completed = completed
        self.block_size = block_size
        self.progress = progress
        self.pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None

    def close(self):
        if self.pool is not None:
            self.pool.shutdown()

    def run_n(self, n: int) -> SweepReport:
        wall0 = time.perf_counter()
        resumed_from = self.completed.get(n, 0)
        stream = free_trees(n).skip(resumed_from)
        report = SweepReport(n, resumed_from=resumed_from)

        def read_block():
            start = stream.index
            seqs = []
            while len(seqs) < self.block_size:
                seq = stream.next()
                if seq is None:
                    break
                seqs.append(seq)
            return start, seqs

        if self.pool is None:
            while True:
                start, seqs = read_block()
                if not seqs:
                    break
                self._finish_block(n, report, *_solve_block(n, start, seqs, self.cfg))
        else:
            # Bounded, ordered window of in-flight blocks: results are
            # consumed in submission order, so certificates land in
            # enumeration order no matter which worker finishes first.
            window: list = []
            exhausted = False
            while not exhausted or window:
                while not exhausted and len(window) < 2 * self.workers:
                    start, seqs = read_block()
                    if not seqs:
                        exhausted = True
                        break
                    window.append(
                        self.pool.submit(_solve_block, n, start, seqs, self.cfg))
                if window:
                    results, cpu = window.pop(0).result()
                    self._finish_block(n, report, results, cpu)

        report.wall_time = time.perf_counter() - wall0
        return report

    def _finish_block(self, n, report, results, cpu):
        report.cpu_time += cpu
        last_index = 0
        for index, cert_line, info in results:
            report.trees_total += 1
            last_index = index
            if cert_line is not None:
                self.sink.write(cert_line + "\n")
                report.trees_solved += 1
                report.solver_counts[info] = report.solver_counts.get(info, 0) + 1
            else:
                report.failures.append(info)
        self.sink.flush()
        self.completed[n] = last_index + 1
        _write_checkpoint(self.checkpoint_path, self.completed,
                          self.cfg.global_seed, GENERATOR_VERSION)
        if self.progress is not None:
            self.progress(n, self.completed[n])


def sweep(n_min: int, n_max: int, cfg: SolverConfig, workers: int = 1, *,
          out_path, checkpoint_path, report_path=None, fresh: bool = False,
          block_size: int = DEFAULT_BLOCK_SIZE, progress=None) -> list[SweepReport]:
    """Solve every free tree with n_min..n_max nodes, streaming one
    certificate per solved tree (in enumeration order) to *out_path*.

    The checkpoint is updated atomically after each completed block; an
    existing checkpoint resumes the sweep (skipping completed prefixes)
    and is refused if its seed or generator version disagrees, or if it
    is corrupt - pass ``fresh=True`` to discard it and start over.
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

    if fresh or not os.path.exists(checkpoint_path):
        completed: dict[int, int] = {}
        out_mode = "w"
    else:
        completed, ck_seed, ck_gen = _read_checkpoint(checkpoint_path)
        if ck_seed != cfg.global_seed:
            raise CheckpointError(
                f"checkpoint seed {ck_seed} != configured seed {cfg.global_seed}; "
                "pass fresh=True to restart")
        if ck_gen != GENERATOR_VERSION:
            raise CheckpointError(
                f"checkpoint generator {ck_gen!r} != {GENERATOR_VERSION!r}; "
                "pass fresh=True to restart")
        if not os.path.exists(out_path):
            raise CheckpointError(
                f"checkpoint exists but output {out_path} does not; "
                "pass fresh=True to restart")
        out_mode = "a"

    reports = []
    with open(out_path, out_mode, encoding="utf-8") as sink:
        sweeper = _Sweeper(cfg, workers, sink, checkpoint_path, completed,
                           block_size, progress)
        try:
            for n in range(n_min, n_max + 1):
                report = sweeper.run_n(n)
                reports.append(report)
                if report_path is not None:
                    with open(report_path, "a", encoding="utf-8") as rf:
                        rf.write(report.to_json() + "\n")
        finally:
            sweeper.close()
    return reports


# ---------------------------------------------------------------------------
# Per-solver benchmark (pipeline-order trend report)
# ---------------------------------------------------------------------------

def _bench_tree(n, index, seq, cfg):
    tree = Tree.from_level_sequence(seq)
    seed = derive_seed(cfg.global_seed, n, index)
    row = {}
    for tag in SOLVERS:
        rng = random.Random(_solver_rng_seed(seed, tag))
        t0 = time.perf_counter()
        outcome = SOLVERS[tag](tree, cfg, rng)
        row[tag] = (outcome.success, time.perf_counter() - t0)
    return row


def benchmark_solvers(n: int, cfg: SolverConfig, workers: int = 1) -> dict:
    """Run each solver independently on every free tree with n nodes and
    report per-solver mean time and success rate.  The pipeline-order
    trend (earlier solvers faster, later solvers likelier to succeed) is
    read off the report by eye, not asserted by machine."""
    seqs = list(free_trees(n))
    per_solver = {tag: {"successes": 0, "total_time": 0.0} for tag in SOLVERS}

    def absorb(row):
        for tag, (success, elapsed) in row.items():
            per_solver[tag]["successes"] += int(success)
            per_solver[tag]["total_time"] += elapsed

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_bench_tree, n, i, seq, cfg)
                       for i, seq in enumerate(seqs)]
            for fut in futures:
                absorb(fut.result())
    else:
        for i, seq in enumerate(seqs):
            absorb(_bench_tree(n, i, seq, cfg))

    total = len(seqs)
    return {
        "n": n,
        "trees": total,
        "solvers": {
            tag: {
                "success_rate": round(per_solver[tag]["successes"] / total, 6),
                "mean_time": round(per_solver[tag]["total_time"] / total, 9),
                "successes": per_solver[tag]["successes"],
            }
            for tag in SOLVERS
        },
    }
