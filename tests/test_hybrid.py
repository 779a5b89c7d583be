"""Hybrid pipeline, seed derivation, and the checkpointed sweep."""

import hashlib
import random
from dataclasses import replace

import pytest

from treeharmony import hybrid, labelling
from treeharmony.cli import main as cli_main
from treeharmony.config import (PIPELINE_TAGS, SOLVER_VERSION, SolveOutcome,
                                SolverConfig)
from treeharmony.generate import GENERATOR_VERSION, free_trees
from treeharmony.hybrid import (CheckpointError, _read_checkpoint, derive_seed,
                                make_certificate, solve_hybrid, sweep)
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
            rng = random.Random(hybrid._solver_rng_seed(seed, tag))
            successes += hybrid.SOLVERS[tag](Tree.from_level_sequence(seq), CFG, rng).success
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
    assert checkpoint.completed[8] == 23 and checkpoint.seed == CFG.global_seed


def test_sweep_report_json_is_pinned():
    # the report file's bytes: key order, compact separators, and times
    # rounded to the microsecond
    report = hybrid.SweepReport(
        7, trees_total=11, trees_solved=10, solver_counts={"twostage": 9, "tabu": 1},
        failures=["0,1,2,3,2,1,1"], wall_time=1.23456789, cpu_time=2.5e-7,
        resumed_from=4)
    assert report.to_json() == (
        '{"n":7,"trees_total":11,"trees_solved":10,'
        '"solver_counts":{"twostage":9,"tabu":1},"failures":["0,1,2,3,2,1,1"],'
        '"wall_time":1.234568,"cpu_time":0.0,"resumed_from":4}')


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


def _twostage_returns_all_zero(tree, cfg, rng):
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


def test_sweep_refuses_corrupt_checkpoint(tmp_path):
    out = tmp_path / "r.jsonl"
    ck = tmp_path / "c.txt"
    ck.write_text("n=notanint completed=0\n")
    with pytest.raises(CheckpointError):
        sweep(2, 4, CFG, out_path=out, checkpoint_path=ck)


def test_sweep_refuses_checkpoint_without_output(tmp_path):
    out = tmp_path / "r.jsonl"
    ck = tmp_path / "c.txt"
    sweep(2, 4, CFG, out_path=out, checkpoint_path=ck)
    out.unlink()
    with pytest.raises(CheckpointError):
        sweep(2, 4, CFG, out_path=out, checkpoint_path=ck)


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
