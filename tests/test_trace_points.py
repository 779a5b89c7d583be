"""The benchmark's layer trace (``perfbench/tracing.py``) wraps package
globals that it names: a renamed or removed one must fail here, in the
suite, and not only in a benchmark run."""

import importlib.util
from dataclasses import replace
from pathlib import Path

from treeharmony import hybrid, twostage
from treeharmony.config import SolverConfig
from treeharmony.generate import free_trees

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracer():
    """A Tracer of perfbench/tracing.py, imported as it stands."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_the_benchmark_trace_sees_every_solver_call(tmp_path):
    # a serial sweep of n = 2..9 and a block of the 47 trees on 9 nodes
    # under the pipeline that falls back to tabu and backtracking: every
    # tree is one traced hybrid solve, each solver is seen, and
    # uninstalling puts back every global the trace replaced
    before = (dict(vars(hybrid)), dict(vars(twostage)), dict(hybrid.SOLVERS))
    tracer = _tracer()
    tracer.install()
    try:
        reports = hybrid.sweep(2, 9, SolverConfig(), out_path=tmp_path / "c.jsonl",
                               checkpoint_path=tmp_path / "c.ck")
        seqs = list(free_trees(9))
        fallback = replace(SolverConfig(), pipeline=("tabu", "backtrack"))
        hybrid._solve_block(9, 0, seqs, fallback)
    finally:
        tracer.uninstall()
    metrics = {name: metric["value"] for name, metric in tracer.metrics().items()}
    trees = sum(report.trees_total for report in reports) + len(seqs)
    assert metrics["hybrid.trees"] == trees == 94 + 47
    assert metrics["twostage.runs"] > 0, metrics
    assert metrics["backtracking.calls"] > 0 and metrics["tabu.calls"] > 0, metrics
    assert (dict(vars(hybrid)), dict(vars(twostage)), dict(hybrid.SOLVERS)) == before
