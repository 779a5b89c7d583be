"""The benchmark's round as ``perfbench/run.py`` runs it: the benchmark
reads ``hybrid.sweep``'s reports, ``_solve_block``'s result tuples and
checkpoints of the older form, so a change to any of them fails here, in
the suite, and not only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

from treeharmony import DEFAULT_SEED

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_a_benchmark_round_passes_its_own_checks(tmp_path, monkeypatch):
    # run.py as it stands, with its output directory moved to tmp_path:
    # round 0 of each workload finds no problem, and a serial piece of
    # n=13 resumed from a checkpoint line without cfg= and out= (trees
    # 64..127) writes that slice of the 2-worker round's file
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(run)
        monkeypatch.setattr(run, "OUT", tmp_path)
        rounds = {}
        for name in ("sweep_n13_jobs2", "fallback_n9"):
            workload = run.Workload(name, DEFAULT_SEED)
            rounds[name] = workload.run(0)
            assert run.check_outputs(workload, [rounds[name]]) == [], name
        workload = run.Workload("sweep_n13_jobs2", DEFAULT_SEED)
        piece = tmp_path / "piece.jsonl"
        run.serial_part(13, workload.config(0), piece, 64, run.SERIAL_PIECE)
        lines = rounds["sweep_n13_jobs2"][2].read_text(encoding="utf-8").splitlines(True)
        assert run.SERIAL_PIECE == 64 and len(lines) == 1301
        assert piece.read_text(encoding="utf-8") == "".join(lines[64:128])
    finally:
        # run.py imports its helpers as top-level modules
        for name in ("checks", "tracing"):
            sys.modules.pop(name, None)
