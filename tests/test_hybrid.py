"""Hybrid pipeline, seed derivation, and the checkpointed sweep."""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from treeharmony import hybrid, labelling
from treeharmony.cli import main as cli_main
from treeharmony.config import (PIPELINE_TAGS, SOLVER_VERSION, SolveOutcome,
                                SolverConfig)
from treeharmony.generate import (GENERATOR_VERSION, FreeTreeStream, free_trees,
                                  oracle_count_otter)
from treeharmony.hybrid import (CheckpointError, _read_checkpoint, _solve_block,
                                derive_seed, make_certificate, solve_hybrid, sweep)
from treeharmony.labelling import (SOLVER_TAGS, Certificate, is_harmonious,
                                   verify_certificate)
from treeharmony.trees import Tree

CFG = SolverConfig()

SABOTAGE = SolverConfig(
    backtrack_limit=0, backtrack_restarts=0,
    tabu_sample_pairs=0, tabu_tenure=0, tabu_max_iters=0,
    twostage_runs=0, stage1_budget=0, stage2_budget=0)


# ------------------------------------------------------------------ #
# derive_seed                                                         #
# ------------------------------------------------------------------ #

def test_derive_seed_deterministic():
    assert derive_seed(7, 5, 3) == derive_seed(7, 5, 3)


def test_derive_seed_pinned_vectors():
    # frozen at implementation time; a change here means old sweeps
    # can no longer be reproduced
    assert derive_seed(0, 2, 0) == 10551757083557637702
    assert derive_seed(1000003, 12, 37) == 17182737273218997284
    assert derive_seed(2 ** 64 - 1, 31, 10 ** 6) == 18018420830531862839


def test_derive_seed_no_trivial_collisions():
    seen = set()
    for s in (0, 1, 1000003):
        for n in range(2, 20):
            for i in range(0, 2000, 7):
                seen.add(derive_seed(s, n, i))
    assert len(seen) == 3 * 18 * len(range(0, 2000, 7))


# ------------------------------------------------------------------ #
# solve_hybrid                                                        #
# ------------------------------------------------------------------ #

def test_star_attributed_to_twostage():
    star = Tree.from_level_sequence((0, 1, 1, 1))
    out = solve_hybrid(star, CFG, seed=42)
    assert out.success and out.solver == "twostage"
    assert is_harmonious(star, out.labels)


def test_pipeline_order_respected():
    p4 = Tree.from_level_sequence((0, 1, 2, 1))
    cfg = SolverConfig(pipeline=("tabu", "backtrack", "twostage"))
    out = solve_hybrid(p4, cfg, seed=42)
    assert out.success and out.solver == "tabu"


def test_sabotage_fails_listing_all_attempts():
    p4 = Tree.from_level_sequence((0, 1, 2, 1))
    out = solve_hybrid(p4, SABOTAGE, seed=1)
    assert not out.success
    assert [a["solver"] for a in out.stats["attempts"]] == \
        ["twostage", "backtrack", "tabu"]


def test_single_node_trivial_certificate():
    one = Tree.from_level_sequence((0,))
    out = solve_hybrid(one, SABOTAGE, seed=1)
    assert out.success and out.labels == (0,)
    assert out.solver == SABOTAGE.pipeline[0]
    cert = make_certificate(one, out, seed=1)
    assert verify_certificate(cert) is None


def test_solver_tags_are_defined_once():
    assert tuple(hybrid.SOLVERS) == PIPELINE_TAGS
    assert SOLVER_TAGS == PIPELINE_TAGS + ("exhaustive",)


def test_solver_salts_are_pinned_and_distinct():
    # a salt feeds every seed a solver draws from, so a changed salt
    # changes certificates; distinct salts give distinct solver seeds
    # because _mix64 is a bijection
    assert hybrid._SOLVER_SALT == {
        "twostage": 0x74776F73, "backtrack": 0x6261636B, "tabu": 0x74616275}
    assert len({hybrid._SOLVER_SALT[tag] for tag in hybrid.SOLVERS}) == len(hybrid.SOLVERS)


def test_benchmark_runs_each_solver_on_its_salted_seed():
    # each tag's row is that solver alone, drawing from the stream the
    # pipeline would give it
    report = hybrid.benchmark_solvers(8, CFG)
    for tag in PIPELINE_TAGS:
        successes = 0
        for index, seq in enumerate(free_trees(8)):
            seed = derive_seed(CFG.global_seed, 8, index)
            successes += hybrid.SOLVERS[tag](Tree.from_level_sequence(seq), CFG,
                                             hybrid._solver_rng_seed(seed, tag)).success
        assert report["solvers"][tag]["successes"] == successes
    assert report["trees"] == 23
    assert [report["solvers"][tag]["successes"] for tag in PIPELINE_TAGS] == [23, 20, 11]


def test_hybrid_deterministic():
    tree = Tree.from_level_sequence((0, 1, 2, 3, 2, 1, 2))
    a = solve_hybrid(tree, CFG, seed=77)
    b = solve_hybrid(tree, CFG, seed=77)
    assert (a.success, a.labels, a.solver) == (b.success, b.labels, b.solver)


def test_certificates_normalized():
    rng = random.Random(6)
    for n in (3, 5, 8):
        for seq in list(free_trees(n))[:3]:
            tree = Tree.from_level_sequence(seq)
            out = solve_hybrid(tree, CFG, seed=rng.randrange(1 << 40))
            cert = make_certificate(tree, out, seed=0)
            assert verify_certificate(cert) is None
            if n >= 3:
                assert sorted(cert.labels).count(0) == 2


def test_certificate_line_is_its_json_dumps():
    # every certificate of a default-seed sweep of n <= 12, then seeds
    # at and above 2**63
    certs = []
    for n in range(1, 13):
        for index, seq in enumerate(free_trees(n)):
            seed = derive_seed(CFG.global_seed, n, index)
            tree = Tree.from_level_sequence(seq)
            certs.append(make_certificate(tree, solve_hybrid(tree, CFG, seed), seed))
    assert len(certs) == 987
    certs += [replace(certs[-1], seed=seed) for seed in (2**63, 2**64 - 1)]
    for cert in certs:
        assert cert.to_json_line() == json.dumps(
            {"n": cert.n, "levels": list(cert.levels), "labels": list(cert.labels),
             "solver": cert.solver, "seed": cert.seed}, separators=(",", ":"))


# ------------------------------------------------------------------ #
# sweep                                                               #
# ------------------------------------------------------------------ #

def _read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_sweep_small_range(tmp_path):
    out = tmp_path / "r.jsonl"
    ck = tmp_path / "c.txt"
    rep = tmp_path / "rep.jsonl"
    reports = sweep(2, 8, CFG, workers=1, out_path=out, checkpoint_path=ck,
                    report_path=rep)
    assert [r.n for r in reports] == list(range(2, 9))
    assert sum(r.trees_total for r in reports) == 1 + 1 + 2 + 3 + 6 + 11 + 23
    for r in reports:
        assert r.trees_solved + len(r.failures) == r.trees_total
        assert sum(r.solver_counts.values()) == r.trees_solved
        assert not r.failures
    lines = _read_lines(out).splitlines()
    assert len(lines) == 47
    for ln in lines:
        assert verify_certificate(Certificate.from_json_line(ln)) is None
    assert len(_read_lines(rep).splitlines()) == 7
    # checkpoint reflects completion
    checkpoint = _read_checkpoint(ck)
    assert checkpoint.reports[8].trees_total == 23 and checkpoint.seed == CFG.global_seed


def test_sweep_report_json_is_pinned():
    # the report file's bytes: key order, compact separators, and times
    # rounded to the microsecond
    report = hybrid.SweepReport(
        7, trees_total=11, trees_solved=10, solver_counts={"twostage": 9, "tabu": 1},
        failures=["0,1,2,3,2,1,1"], wall_time=1.23456789, cpu_time=2.5e-7)
    assert report.to_json() == (
        '{"n":7,"trees_total":11,"trees_solved":10,'
        '"solver_counts":{"twostage":9,"tabu":1},"failures":["0,1,2,3,2,1,1"],'
        '"wall_time":1.234568,"cpu_time":0.0}')


# SHA-256 of the certificate file of sweep(2, 10, ...) under solver
# version 4, frozen: a change here means old sweeps no longer replay byte
# for byte, and must come with a new SOLVER_VERSION.  The second config
# runs backtracking first, which certifies 180 of the 200 trees;
# two-stage certifies the other 20.
REPLAY_SOLVER_VERSION = 4
REPLAY_DIGESTS = [
    (CFG, "eeda2d3429de85d75a3b3abd1fa5c4e2ad50e29360ea3972e770e1390a8350c5"),
    (SolverConfig(pipeline=("backtrack", "twostage"), backtrack_limit=2000,
                  backtrack_restarts=3),
     "0ef98df19a3c0290faecc03c4fd9f7fdd45a641d5c8ed91512d03362d4f0d53e"),
]


@pytest.mark.parametrize("cfg, digest", REPLAY_DIGESTS,
                         ids=["default", "backtrack_first"])
def test_sweep_certificates_replay_byte_identical(tmp_path, cfg, digest):
    out = tmp_path / "r.jsonl"
    sweep(2, 10, cfg, out_path=out, checkpoint_path=tmp_path / "c.txt")
    assert SOLVER_VERSION == REPLAY_SOLVER_VERSION
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# SHA-256 of the certificate file of sweep(11, 11, ...) at the default
# config, frozen like REPLAY_DIGESTS: the pool and the block size must
# not move a byte.
N11_DIGEST = "6b6d281515d3a568be13c23797bb6a38a49261a08634393cfb8f4b89da0c6788"


@pytest.mark.parametrize("workers, blocks",
                         [(2, {}), (1, {"block_size": 7})],
                         ids=["pool_default_blocks", "serial_blocks_of_7"])
def test_sweep_n11_replay_byte_identical(tmp_path, workers, blocks):
    out = tmp_path / "r.jsonl"
    sweep(11, 11, SolverConfig(), workers, out_path=out,
          checkpoint_path=tmp_path / "c.txt", **blocks)
    assert SOLVER_VERSION == REPLAY_SOLVER_VERSION
    assert hashlib.sha256(out.read_bytes()).hexdigest() == N11_DIGEST


# SHA-256 of the default-seed certificate file of sweep(13, 13, ...) at
# the default config: the replay anchor of the benchmark's n, serial and
# with the pool.
N13_DIGEST = "70af841258a01202ad5b79002a9e33c1e31d26d6bdcded6d7fff796a3629ece1"


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
def test_sweep_n13_replay_byte_identical(tmp_path, workers):
    out = tmp_path / "r.jsonl"
    sweep(13, 13, SolverConfig(), workers, out_path=out,
          checkpoint_path=tmp_path / "c.txt")
    assert SOLVER_VERSION == REPLAY_SOLVER_VERSION
    assert hashlib.sha256(out.read_bytes()).hexdigest() == N13_DIGEST


# SHA-256 of the default-seed serial certificate file of sweep(16, 16,
# ...) at the default config: 19,320 certificates, 2,847,699 bytes.
N16_DIGEST = "cb8ad8c18a40f3ffeefc117f92f6baba1828a039b4c6787eed58157577ecc961"


def test_sweep_n16_replay_byte_identical(tmp_path):
    out = tmp_path / "r.jsonl"
    sweep(16, 16, SolverConfig(), out_path=out, checkpoint_path=tmp_path / "c.txt")
    assert SOLVER_VERSION == REPLAY_SOLVER_VERSION
    data = out.read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (2847699, N16_DIGEST)


def test_sweep_deterministic_across_worker_counts(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    sweep(2, 8, CFG, workers=1, out_path=a, checkpoint_path=tmp_path / "a.ck")
    sweep(2, 8, CFG, workers=3, out_path=b, checkpoint_path=tmp_path / "b.ck",
          block_size=4)
    assert _read_lines(a) == _read_lines(b)


class _NarrowStream:
    """A tree stream with only the members a sweep may use: the
    benchmark's layer trace hands the sweep such a stream."""

    def __init__(self, stream):
        self._stream = stream

    @property
    def index(self):
        return self._stream.index

    def skip(self, k):
        self._stream.skip(k)
        return self

    def next(self):
        return self._stream.next()


def test_sweep_calls_its_helpers_as_module_globals(tmp_path, monkeypatch):
    # the benchmark's layer trace wraps these names in place
    ref = tmp_path / "ref.jsonl"
    sweep(8, 9, CFG, out_path=ref, checkpoint_path=tmp_path / "ref.ck",
          block_size=10)
    calls = {"block": 0, "trees": 0, "certify": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    free_trees = hybrid.free_trees
    monkeypatch.setattr(hybrid, "_solve_block",
                        counting("block", hybrid._solve_block))
    monkeypatch.setattr(hybrid, "free_trees",
                        counting("trees", lambda n: _NarrowStream(free_trees(n))))
    monkeypatch.setattr(hybrid, "make_certificate",
                        counting("certify", hybrid.make_certificate))
    out = tmp_path / "r.jsonl"
    sweep(8, 9, CFG, out_path=out, checkpoint_path=tmp_path / "c.ck",
          block_size=10)
    # 23 trees on 8 nodes and 47 on 9, in blocks of at most 10
    assert calls == {"block": 3 + 5, "trees": 2, "certify": 23 + 47}
    assert out.read_bytes() == ref.read_bytes()


class _Stop(Exception):
    pass


def stop_after_blocks(k):
    """A sweep progress callback that stops the sweep after k blocks."""
    done = []

    def progress(n, completed):
        done.append(n)
        if len(done) >= k:
            raise _Stop

    return progress


def test_sweep_interrupt_and_resume_matches_uninterrupted(tmp_path):
    ref = tmp_path / "ref.jsonl"
    sweep(2, 8, CFG, workers=1, out_path=ref, checkpoint_path=tmp_path / "ref.ck")
    out = tmp_path / "cut.jsonl"
    ck = tmp_path / "cut.ck"
    with pytest.raises(_Stop):
        sweep(2, 8, CFG, workers=1, out_path=out, checkpoint_path=ck,
              block_size=5, progress=stop_after_blocks(3))
    assert 0 < len(_read_lines(out).splitlines()) < 47
    sweep(2, 8, CFG, workers=1, out_path=out, checkpoint_path=ck, block_size=5)
    assert _read_lines(out) == _read_lines(ref)


# The one tree on 7 nodes that fails below, index 3 of 11: sweeps of
# n=5..8 in blocks of 3 solve it in the block that ends at completed=6.
_FAILING_TREE = "0,1,2,2,2,2,1"


def _fail_tree(monkeypatch):
    """Make every solver fail _FAILING_TREE; the pool's workers fork
    after the patch, so they fail it too."""
    for tag, solve in hybrid.SOLVERS.items():
        def failing(tree, cfg, seed, solve=solve):
            if ",".join(map(str, tree.levels)) == _FAILING_TREE:
                return SolveOutcome(False, None, "", {})
            return solve(tree, cfg, seed)
        monkeypatch.setitem(hybrid.SOLVERS, tag, failing)


@pytest.mark.parametrize("workers", [1, 2], ids=lambda w: f"workers{w}")
@pytest.mark.parametrize("stop_at", [(7, 6), (7, 11), (8, 3)],
                         ids=["failing-block", "last-block-of-n", "later-n"])
def test_sweep_resume_keeps_candidate_counterexamples(tmp_path, monkeypatch,
                                                      capsys, stop_at, workers):
    # the checkpoint counts a failed tree as completed, so it must also
    # name it: a resumed sweep does not solve that tree again
    _fail_tree(monkeypatch)
    ref = tmp_path / "ref.jsonl"
    reports = sweep(5, 8, CFG, workers, out_path=ref,
                    checkpoint_path=tmp_path / "ref.ck", block_size=3)
    expected = [(r.n, r.failures) for r in reports if r.failures]
    assert expected == [(7, [_FAILING_TREE])]

    out = tmp_path / "cut.jsonl"
    ck = tmp_path / "cut.ck"

    def stop(n, completed):
        if (n, completed) == stop_at:
            raise _Stop

    with pytest.raises(_Stop):
        sweep(5, 8, CFG, workers, out_path=out, checkpoint_path=ck,
              block_size=3, progress=stop)
    reports = sweep(5, 8, CFG, workers, out_path=out, checkpoint_path=ck,
                    block_size=3)
    assert [(r.n, r.failures) for r in reports if r.failures] == expected
    assert out.read_bytes() == ref.read_bytes()
    # a finished sweep run again still reports the tree, and exits 1
    argv = ["sweep", "--min", "5", "--max", "8", "--jobs", str(workers),
            "--block-size", "3", "--out", str(out), "--checkpoint", str(ck)]
    capsys.readouterr()
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert "n=7 total=11 solved=10 failures=1" in err
    assert f"candidate counterexample: {_FAILING_TREE}" in err
    assert out.read_bytes() == ref.read_bytes()


def _one_cpu_second(n, start_index, seqs, cfg):
    """_solve_block with a CPU time of exactly 1 s per block, so a sweep's
    CPU times count its blocks; module-level, so a pool can take it."""
    results, _ = _solve_block(n, start_index, seqs, cfg)
    return results, 1.0


# every field of a report but the wall time, which is not reproducible
_RECORD = ["n", "trees_total", "trees_solved", "solver_counts", "failures",
           "cpu_time"]


def _last_report_per_n(path):
    last = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        last[record["n"]] = record
    return list(last.values())


@pytest.mark.parametrize("workers", [1, 2], ids=lambda w: f"workers{w}")
def test_resumed_reports_equal_uninterrupted(tmp_path, monkeypatch, workers):
    # every field of a report covers every tree of its n done so far, and
    # the checkpoint holds a stopped call's times, so a sweep stopped at
    # any block and resumed reports what an unstopped one does
    _fail_tree(monkeypatch)
    monkeypatch.setattr(hybrid, "_solve_block", _one_cpu_second)

    def run(name, **kwargs):
        return sweep(5, 8, CFG, workers, out_path=tmp_path / f"{name}.jsonl",
                     checkpoint_path=tmp_path / f"{name}.ck",
                     report_path=tmp_path / f"{name}.rep.jsonl", block_size=3,
                     **kwargs)

    reports = run("ref")
    for r in reports:
        assert r.trees_total == oracle_count_otter(r.n)
        assert r.trees_solved + len(r.failures) == r.trees_total
        assert sum(r.solver_counts.values()) == r.trees_solved
    assert [r.failures for r in reports] == [[], [], [_FAILING_TREE], []]
    # blocks of 3 over n=5..8: 1 + 2 + 4 + 8
    assert [r.cpu_time for r in reports] == [1.0, 2.0, 4.0, 8.0]
    ref = [[getattr(r, key) for key in _RECORD] for r in reports]
    for k in range(1, 16):
        with pytest.raises(_Stop):
            run(f"cut{k}", progress=stop_after_blocks(k))
        stopped = _read_checkpoint(tmp_path / f"cut{k}.ck").reports
        assert sum(r.cpu_time for r in stopped.values()) == k
        assert all(r.wall_time > 0 for r in stopped.values())
        reports = run(f"cut{k}")
        assert [[getattr(r, key) for key in _RECORD] for r in reports] == ref
        records = _last_report_per_n(tmp_path / f"cut{k}.rep.jsonl")
        assert [[record[key] for key in _RECORD] for record in records] == ref
        for report, record in zip(reports, records):
            if report.n in stopped:
                assert report.wall_time >= stopped[report.n].wall_time
                assert record["wall_time"] >= stopped[report.n].wall_time
        assert (tmp_path / f"cut{k}.jsonl").read_bytes() == \
            (tmp_path / "ref.jsonl").read_bytes()


def test_sweep_resumes_checkpoint_without_solved_token(tmp_path, monkeypatch):
    # a line without solved=, as sweeps wrote before the token existed:
    # its trees count as solved but name no solver, so the n's later
    # lines go on without the token, and the certificates do not change
    _fail_tree(monkeypatch)
    monkeypatch.setattr(hybrid, "_solve_block", _one_cpu_second)
    ref = tmp_path / "ref.jsonl"
    sweep(7, 7, CFG, out_path=ref, checkpoint_path=tmp_path / "ref.ck", block_size=3)
    out = tmp_path / "r.jsonl"
    ck = tmp_path / "c.ck"
    with pytest.raises(_Stop):
        sweep(7, 7, CFG, out_path=out, checkpoint_path=ck, block_size=3,
              progress=stop_after_blocks(2))
    head = (f"n=7 completed=6 seed={CFG.global_seed} gen={GENERATOR_VERSION} "
            f"cfg={CFG.fingerprint()} out={out.stat().st_size}")
    assert re.fullmatch(rf"{head} cpu=2\.000000 wall=[0-9]+\.[0-9]{{6}} "
                        f"solved=twostage:5 failed={_FAILING_TREE}\n", ck.read_text())
    ck.write_text(f"{head} failed={_FAILING_TREE}\n")
    with pytest.raises(_Stop):
        sweep(7, 7, CFG, out_path=out, checkpoint_path=ck, block_size=3,
              progress=stop_after_blocks(1))
    assert re.fullmatch(f"n=7 completed=9 .* out=[0-9]+ cpu=1.000000 wall=[0-9.]+ "
                        f"failed={_FAILING_TREE}\n", ck.read_text())
    [report] = sweep(7, 7, CFG, out_path=out, checkpoint_path=ck, block_size=3)
    assert out.read_bytes() == ref.read_bytes()
    assert (report.trees_total, report.trees_solved, report.failures) == \
        (11, 10, [_FAILING_TREE])
    # only the trees solved since the last resume name their solver, and
    # only the blocks run since then have a recorded time
    assert report.solver_counts == {"twostage": 2}
    assert report.cpu_time == 2.0


def test_sweep_resumes_checkpoint_without_times(tmp_path, monkeypatch):
    # a line without cpu= and wall=, as sweeps wrote before the tokens
    # existed: its times read as 0.0, and the certificates do not change
    monkeypatch.setattr(hybrid, "_solve_block", _one_cpu_second)
    ref = tmp_path / "ref.jsonl"
    sweep(8, 8, CFG, out_path=ref, checkpoint_path=tmp_path / "ref.ck", block_size=5)
    out = tmp_path / "r.jsonl"
    ck = tmp_path / "c.ck"
    with pytest.raises(_Stop):
        sweep(8, 8, CFG, out_path=out, checkpoint_path=ck, block_size=5,
              progress=stop_after_blocks(2))
    line = re.sub(r" cpu=\S+ wall=\S+", "", ck.read_text())
    assert line == (f"n=8 completed=10 seed={CFG.global_seed} gen={GENERATOR_VERSION} "
                    f"cfg={CFG.fingerprint()} out={out.stat().st_size} "
                    "solved=twostage:10\n")
    ck.write_text(line)
    [report] = sweep(8, 8, CFG, out_path=out, checkpoint_path=ck, block_size=5)
    assert out.read_bytes() == ref.read_bytes()
    # 23 trees in blocks of 5: the 3 blocks after the line's 10 trees
    assert (report.trees_total, report.cpu_time) == (23, 3.0)
    assert " cpu=3.000000 wall=" in ck.read_text()


def test_sweep_refuses_mismatched_seed(tmp_path):
    out = tmp_path / "r.jsonl"
    ck = tmp_path / "c.txt"
    sweep(2, 4, CFG, out_path=out, checkpoint_path=ck)
    other = SolverConfig(global_seed=55)
    with pytest.raises(CheckpointError):
        sweep(2, 4, other, out_path=out, checkpoint_path=ck)
    # fresh=True restarts from nothing
    reports = sweep(2, 4, other, out_path=out, checkpoint_path=ck, fresh=True)
    assert sum(r.trees_total for r in reports) == 4


@pytest.mark.parametrize("change", [{"stage2_budget": 151},
                                    {"pipeline": ("backtrack", "twostage", "tabu")}],
                         ids=["stage2_budget", "pipeline"])
def test_sweep_refuses_resume_under_changed_config(tmp_path, change):
    out = tmp_path / "r.jsonl"
    ck = tmp_path / "c.txt"
    with pytest.raises(_Stop):
        sweep(2, 8, CFG, out_path=out, checkpoint_path=ck, block_size=5,
              progress=stop_after_blocks(3))
    other = CFG.with_overrides(change)
    with pytest.raises(CheckpointError) as refused:
        sweep(2, 8, other, out_path=out, checkpoint_path=ck, block_size=5)
    message = str(refused.value)
    assert f"cfg={CFG.fingerprint()}" in message
    assert f"cfg={other.fingerprint()}" in message
    reports = sweep(2, 8, other, out_path=out, checkpoint_path=ck, fresh=True)
    assert sum(r.trees_total for r in reports) == 47


def test_config_fingerprint_ignores_only_the_seed():
    assert CFG.fingerprint() == SolverConfig(global_seed=5).fingerprint()
    assert CFG.fingerprint() != SolverConfig(stage2_budget=151).fingerprint()
    assert CFG.fingerprint() != SolverConfig(tabu_max_iters=7).fingerprint()
    assert len(CFG.fingerprint()) == 16
    int(CFG.fingerprint(), 16)


def test_sweep_resumes_old_form_checkpoint_byte_identically(tmp_path):
    # a checkpoint line without cfg= and out=, as older sweeps and
    # hand-made resume points write it, still resumes
    ref = tmp_path / "ref.jsonl"
    sweep(8, 8, CFG, out_path=ref, checkpoint_path=tmp_path / "ref.ck")
    out = tmp_path / "r.jsonl"
    ck = tmp_path / "c.txt"
    out.write_text("", encoding="utf-8")
    ck.write_text(f"n=8 completed=10 seed={CFG.global_seed} "
                  f"gen={GENERATOR_VERSION}\n", encoding="utf-8")
    sweep(8, 8, CFG, out_path=out, checkpoint_path=ck)
    tail = "".join(ref.read_text().splitlines(keepends=True)[10:])
    assert out.read_text() == tail


# blocks of 40 over n=9..10: 40 + 7 trees on 9 nodes, 40 + 40 + 26 on 10
_LINES_AFTER_WRITE = [40, 47, 87, 127, 153]


@pytest.mark.parametrize("workers", [1, 2], ids=lambda w: f"workers{w}")
@pytest.mark.parametrize("stop_at", range(1, 6), ids=lambda k: f"write{k}")
def test_sweep_resume_after_stop_before_checkpoint_rename(tmp_path, monkeypatch,
                                                          capsys, stop_at, workers):
    # A stop after a block's lines are flushed but before its checkpoint
    # is written: the resume cuts those lines and writes them once.
    ref = tmp_path / "ref.jsonl"
    sweep(9, 10, CFG, out_path=ref, checkpoint_path=tmp_path / "ref.ck",
          block_size=40)
    out = tmp_path / "cut.jsonl"
    ck = tmp_path / "cut.ck"
    write_checkpoint = hybrid._write_checkpoint
    calls = []

    def stop_on_write(*args):
        calls.append(args)
        if len(calls) == stop_at:
            raise _Stop
        write_checkpoint(*args)

    monkeypatch.setattr(hybrid, "_write_checkpoint", stop_on_write)
    with pytest.raises(_Stop):
        sweep(9, 10, CFG, workers, out_path=out, checkpoint_path=ck, block_size=40)
    monkeypatch.undo()
    assert len(_read_lines(out).splitlines()) == _LINES_AFTER_WRITE[stop_at - 1]
    sweep(9, 10, CFG, workers, out_path=out, checkpoint_path=ck, block_size=40)
    assert out.read_bytes() == ref.read_bytes()
    assert cli_main(["verify", str(out)]) == 0
    assert "153 certificates ok" in capsys.readouterr().err


def test_fresh_sweep_stopped_before_its_first_checkpoint_resumes_cleanly(
        tmp_path, monkeypatch, capsys):
    # fresh=True truncates the output, so the checkpoint of the run it
    # replaces must not outlive it: here that checkpoint matches the
    # config of the re-run and names a size the fresh run has overwritten.
    ref = tmp_path / "ref.jsonl"
    sweep(2, 6, CFG, out_path=ref, checkpoint_path=tmp_path / "ref.ck")
    out = tmp_path / "r.jsonl"
    ck = tmp_path / "c.ck"
    with pytest.raises(_Stop):
        sweep(2, 6, CFG, out_path=out, checkpoint_path=ck,
              progress=stop_after_blocks(1))
    assert _read_checkpoint(ck).out == len(_read_lines(out))

    def stop(*args):
        raise _Stop

    monkeypatch.setattr(hybrid, "_write_checkpoint", stop)
    with pytest.raises(_Stop):
        sweep(2, 6, replace(CFG, pipeline=("backtrack",)), out_path=out,
              checkpoint_path=ck, fresh=True)
    monkeypatch.undo()
    sweep(2, 6, CFG, out_path=out, checkpoint_path=ck)
    assert out.read_bytes() == ref.read_bytes()
    assert cli_main(["verify", str(out)]) == 0
    assert "13 certificates ok" in capsys.readouterr().err


def test_a_resumed_sweep_opens_no_stream_for_a_finished_n(tmp_path, monkeypatch):
    # the checkpoint holds n = 2..9 complete, so resuming the range draws
    # no tree from the enumeration and appends the report lines of the
    # run that finished them
    out, ck, rep = tmp_path / "c.jsonl", tmp_path / "c.ck", tmp_path / "r.jsonl"
    sweep(2, 9, CFG, out_path=out, checkpoint_path=ck, report_path=rep)
    lines, certs = rep.read_text(encoding="utf-8"), out.read_bytes()
    drawn = []
    draw = FreeTreeStream.next
    monkeypatch.setattr(FreeTreeStream, "next",
                        lambda stream: drawn.append(stream.n) or draw(stream))
    sweep(2, 9, CFG, out_path=out, checkpoint_path=ck, report_path=rep)
    assert drawn == []
    assert rep.read_text(encoding="utf-8") == lines * 2
    assert out.read_bytes() == certs


def test_a_sweep_that_reads_no_checkpoint_starts_its_report_anew(tmp_path):
    # a fresh run truncates the report along with the output, so the
    # finished run it replaces leaves no line behind, and the last line
    # of each n holds the totals of the new run
    out, ck, rep = tmp_path / "c.jsonl", tmp_path / "c.ck", tmp_path / "r.jsonl"
    sweep(2, 9, CFG, out_path=out, checkpoint_path=ck, report_path=rep)

    def stop_in_n9(n, completed):
        if n == 9:
            raise _Stop

    with pytest.raises(_Stop):
        sweep(2, 9, CFG, out_path=out, checkpoint_path=ck, report_path=rep, fresh=True,
              block_size=16, progress=stop_in_n9)
    assert _read_checkpoint(ck).reports[9].trees_total == 16
    records = [json.loads(line) for line in rep.read_text(encoding="utf-8").splitlines()]
    assert [(r["n"], r["trees_total"]) for r in records] == \
        [(n, oracle_count_otter(n)) for n in range(2, 9)]
    certs = out.read_text(encoding="utf-8").splitlines()
    assert len(certs) == sum(oracle_count_otter(n) for n in range(2, 9)) + 16
    # with no checkpoint at all, too
    ck.unlink()
    sweep(2, 3, CFG, out_path=out, checkpoint_path=ck, report_path=rep)
    assert [json.loads(line)["n"]
            for line in rep.read_text(encoding="utf-8").splitlines()] == [2, 3]


def _twostage_returns_all_zero(tree, cfg, seed):
    return SolveOutcome(True, (0,) * tree.n, "twostage", {})


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_refuses_a_bad_labelling(tmp_path, monkeypatch, workers):
    # make_certificate is the one check between a solver and the file; the
    # pool's workers fork after the patch, so they solve with it too
    monkeypatch.setitem(hybrid.SOLVERS, "twostage", _twostage_returns_all_zero)
    out = tmp_path / "r.jsonl"
    with pytest.raises(ValueError, match="cannot normalize"):
        sweep(3, 5, CFG, workers, out_path=out, checkpoint_path=tmp_path / "c.ck",
              block_size=2)
    assert out.read_bytes() == b""


def test_sweep_checks_each_labelling_once(tmp_path, monkeypatch):
    calls = []
    check = labelling.check_labelling

    def counting(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(labelling, "check_labelling", counting)
    sweep(8, 9, CFG, out_path=tmp_path / "r.jsonl", checkpoint_path=tmp_path / "c.ck")
    # 23 trees on 8 nodes and 47 on 9, each certified
    assert len(calls) == 23 + 47


def test_sweep_refuses_output_shorter_than_checkpoint(tmp_path):
    out = tmp_path / "r.jsonl"
    ck = tmp_path / "c.txt"
    with pytest.raises(_Stop):
        sweep(2, 8, CFG, out_path=out, checkpoint_path=ck, block_size=5,
              progress=stop_after_blocks(3))
    data = out.read_bytes()
    out.write_bytes(data[:-1])
    with pytest.raises(CheckpointError):
        sweep(2, 8, CFG, out_path=out, checkpoint_path=ck, block_size=5)


@pytest.mark.parametrize("fields", [
    "n=notanint completed=0", "n=0 completed=0", "n=3 completed=-2",
    "n=3 completed=0 out=-1",
    "n=3 completed=1 failed=abc", "n=3 completed=1 failed=0,2,1",
    "n=7 completed=0 failed=0,1,2", "n=3 completed=0 failed=0,1,1",
    "n=3 completed=1 solved=twostage:1\nn=3 completed=0 solved=",
    "n=3 completed=1 solved=exhaustive:1", "n=3 completed=1 solved=twostage:-1",
    "n=3 completed=1 solved=twostage:x", "n=3 completed=1 solved=twostage",
    "n=3 completed=1 solved=twostage:1,twostage:0",
    "n=3 completed=1 solved=twostage:2", "n=3 completed=1 solved=",
    "n=4 completed=2 solved=twostage:1 failed=0,1,2,1;0,1,1,1",
    "n=3 completed=0 cpu=-1", "n=3 completed=0 cpu=nan", "n=3 completed=0 cpu=inf",
    "n=3 completed=0 cpu=1s", "n=3 completed=0 wall=-0.5",
    "n=3 completed=0 wall=NaN", "n=3 completed=0 wall=-inf",
    "n=5 completed=3 completed=2 solved=twostage:2", "n=3 completed=0 out=0 out=10",
    "n=3 completed=1 faild=0,1,1", "n=3 completed=0 solved",
], ids=["n-not-an-int", "n-0", "completed-negative", "out-negative",
        "failed-not-a-sequence", "failed-depth-jump", "failed-wrong-n",
        "failed-beyond-completed", "n-on-two-lines", "solved-unknown-tag",
        "solved-negative", "solved-not-an-int", "solved-no-count", "solved-tag-twice",
        "solved-too-many", "solved-too-few", "solved-and-failed-too-many",
        "cpu-negative", "cpu-nan", "cpu-inf", "cpu-not-a-number", "wall-negative",
        "wall-nan", "wall-minus-inf", "completed-twice", "out-twice",
        "unknown-token", "token-without-value"])
def test_sweep_refuses_corrupt_checkpoint(tmp_path, fields):
    out = tmp_path / "r.jsonl"
    ck = tmp_path / "c.txt"
    out.write_text("")
    # each line of *fields* gains the valid seed=, gen=, cfg= and out=0
    # that it does not set itself; the last of its lines is the corrupt one
    valid = {"seed": CFG.global_seed, "gen": GENERATOR_VERSION,
             "cfg": CFG.fingerprint(), "out": 0}
    lines = fields.split("\n")
    ck.write_text("".join(
        " ".join([line] + [f"{key}={value}" for key, value in valid.items()
                           if f"{key}=" not in line]) + "\n"
        for line in lines))
    with pytest.raises(CheckpointError, match=f"corrupt checkpoint .* line {len(lines)}:"):
        sweep(2, 4, CFG, out_path=out, checkpoint_path=ck)


def test_sweep_refuses_checkpoint_without_output(tmp_path):
    out = tmp_path / "r.jsonl"
    ck = tmp_path / "c.txt"
    sweep(2, 4, CFG, out_path=out, checkpoint_path=ck)
    out.unlink()
    with pytest.raises(CheckpointError):
        sweep(2, 4, CFG, out_path=out, checkpoint_path=ck)


def _unreadable(ck):
    ck.unlink()
    ck.mkdir()


def _empty(ck):
    ck.write_text("\n\n")


def _inconsistent(key, other):
    def spoil(ck):
        first, second, *rest = ck.read_text().splitlines()
        second = re.sub(rf"\b{key}=\S+", f"{key}={other}", second)
        ck.write_text("\n".join([first, second, *rest]) + "\n")
    return spoil


def _other_generator(ck):
    ck.write_text(re.sub(r"\bgen=\S+", "gen=other", ck.read_text()))


@pytest.mark.parametrize("spoil, message", [
    (_unreadable, "cannot read checkpoint"),
    (_inconsistent("seed", 55), "inconsistent checkpoint .* line 2"),
    (_inconsistent("gen", "other"), "inconsistent checkpoint .* line 2"),
    (_inconsistent("cfg", "0" * 16), "inconsistent checkpoint .* line 2"),
    (_inconsistent("out", 1), "inconsistent checkpoint .* line 2"),
    (_empty, "empty checkpoint"),
    (_other_generator, "checkpoint generator 'other' != "),
], ids=["unreadable", "inconsistent-seed", "inconsistent-gen", "inconsistent-cfg",
        "inconsistent-out", "empty", "other-generator"])
def test_sweep_refuses_a_checkpoint_and_leaves_the_output(tmp_path, spoil, message):
    out = tmp_path / "r.jsonl"
    ck = tmp_path / "c.txt"
    with pytest.raises(_Stop):
        sweep(2, 8, CFG, out_path=out, checkpoint_path=ck, block_size=5,
              progress=stop_after_blocks(3))
    data = out.read_bytes()
    spoil(ck)
    with pytest.raises(CheckpointError, match=message):
        sweep(2, 8, CFG, out_path=out, checkpoint_path=ck, block_size=5)
    assert out.read_bytes() == data


def test_sweep_refuses_a_checkpoint_claiming_more_trees_than_exist(tmp_path):
    # 5 nodes have 3 trees; a line that claims 100 of them, solved= and
    # all, is corrupt, and the output is left as it was
    out = tmp_path / "r.jsonl"
    ck = tmp_path / "c.txt"
    sweep(5, 5, CFG, out_path=out, checkpoint_path=ck)
    data = out.read_bytes()
    line = ck.read_text()
    assert " completed=3 " in line and " solved=twostage:3" in line
    ck.write_text(line.replace(" completed=3 ", " completed=100 ")
                  .replace(" solved=twostage:3", " solved=twostage:100"))
    with pytest.raises(CheckpointError, match="corrupt checkpoint .* line 1: "
                       "completed=100 is more than the 3 trees of 5 nodes"):
        sweep(5, 6, CFG, out_path=out, checkpoint_path=ck)
    assert out.read_bytes() == data
    # one more than the count is refused as well; the count itself resumes
    for n, count in ((1, 1), (4, 2), (13, 1301)):
        assert oracle_count_otter(n) == count
        ck.write_text(f"n={n} completed={count + 1} seed=1 gen=g\n")
        with pytest.raises(CheckpointError, match=f"more than the {count} trees"):
            _read_checkpoint(ck)
        ck.write_text(f"n={n} completed={count} seed=1 gen=g\n")
        assert _read_checkpoint(ck).reports[n].trees_total == count


def test_a_checkpoint_line_of_many_nodes_is_read_without_the_otter_count(tmp_path):
    # 900 nodes are too many for the Otter count's recursion, but any
    # count below 2**896 is below their number of caterpillars alone
    ck = tmp_path / "c.txt"
    ck.write_text("n=900 completed=5000 seed=1 gen=g\n")
    assert _read_checkpoint(ck).reports[900].trees_total == 5000


def test_sweep_sabotage_collects_failures(tmp_path):
    reports = sweep(2, 6, SABOTAGE, workers=1,
                    out_path=tmp_path / "r.jsonl",
                    checkpoint_path=tmp_path / "c.txt")
    for r in reports:
        assert r.trees_solved == 0
        assert len(r.failures) == r.trees_total
    assert sum(len(r.failures) for r in reports) == 1 + 1 + 2 + 3 + 6


def test_sweep_failures_are_resolvable_by_raising_limits():
    # spot-check: a sabotaged failure is solvable with real limits
    seq = (0, 1, 2, 1)
    tree = Tree.from_level_sequence(seq)
    assert not solve_hybrid(tree, SABOTAGE, seed=3).success
    assert solve_hybrid(tree, CFG, seed=3).success


def test_sweep_rejects_bad_arguments(tmp_path):
    with pytest.raises(ValueError):
        sweep(0, 4, CFG, out_path=tmp_path / "r", checkpoint_path=tmp_path / "c")
    with pytest.raises(ValueError):
        sweep(4, 2, CFG, out_path=tmp_path / "r", checkpoint_path=tmp_path / "c")
    with pytest.raises(ValueError):
        sweep(2, 4, CFG, workers=0, out_path=tmp_path / "r",
              checkpoint_path=tmp_path / "c")


def test_certificate_check_survives_python_O(tmp_path):
    # make_certificate checks with a raise, not an assert, so python -O
    # still refuses a bad labelling and writes the same certificates
    ref = tmp_path / "ref.jsonl"
    sweep(2, 9, CFG, out_path=ref, checkpoint_path=tmp_path / "ref.ck")
    code = (
        "import sys\n"
        "from treeharmony.config import SolveOutcome, SolverConfig\n"
        "from treeharmony.hybrid import make_certificate, sweep\n"
        "from treeharmony.trees import Tree\n"
        "if __debug__:\n"
        "    sys.exit('asserts are on')\n"
        "p4 = Tree.from_level_sequence((0, 1, 2, 1))\n"
        "try:\n"
        "    make_certificate(p4, SolveOutcome(True, (0, 0, 0, 0), 'twostage', {}), 1)\n"
        "except ValueError as exc:\n"
        "    print('refused:', exc)\n"
        "else:\n"
        "    sys.exit('a bad labelling became a certificate')\n"
        "sweep(2, 9, SolverConfig(), out_path=sys.argv[1], checkpoint_path=sys.argv[2])\n")
    out = tmp_path / "o.jsonl"
    src = Path(hybrid.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code, str(out), str(tmp_path / "o.ck")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("refused: ")
    assert out.read_bytes() == ref.read_bytes()


def test_importing_the_package_loads_no_pool_module():
    # only a pool of two or more workers needs multiprocessing and
    # concurrent.futures, so neither the package nor its CLI imports them
    code = (
        "import sys\n"
        "pool = ('multiprocessing', 'concurrent.futures')\n"
        "import treeharmony\n"
        "print([m for m in pool if m in sys.modules])\n"
        "import treeharmony.cli\n"
        "print([m for m in pool if m in sys.modules])\n")
    src = Path(hybrid.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", "[]", ""]


def test_workers_fork_where_forkserver_is_the_default(tmp_path):
    # Python 3.14 makes forkserver the default on Linux.  The pool forks
    # its workers anyway, so they see the parent's module globals: here a
    # two-stage solver patched to fail every tree
    code = (
        "import json, multiprocessing, sys\n"
        "from treeharmony import hybrid\n"
        "from treeharmony.config import SolveOutcome, SolverConfig\n"
        "multiprocessing.set_start_method('forkserver')\n"
        "hybrid.SOLVERS['twostage'] = lambda tree, cfg, seed: "
        "SolveOutcome(False, None, '', {})\n"
        "reports = hybrid.sweep(5, 6, SolverConfig(), 2, out_path=sys.argv[1],\n"
        "                       checkpoint_path=sys.argv[2])\n"
        "print(json.dumps([[r.trees_total, r.solver_counts] for r in reports]))\n")
    src = Path(hybrid.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "o.jsonl"), str(tmp_path / "o.ck")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    reports = json.loads(proc.stdout)
    # 3 trees on 5 nodes and 6 on 6, none of them solved by two-stage
    assert [total for total, _ in reports] == [3, 6], reports
    assert all(counts and "twostage" not in counts for _, counts in reports), reports
