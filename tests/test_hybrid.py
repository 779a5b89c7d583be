"""Hybrid pipeline, seed derivation, and the checkpointed sweep."""

import hashlib
import random

import pytest

from treeharmony.config import SolverConfig
from treeharmony.generate import free_trees
from treeharmony.hybrid import (CheckpointError, _read_checkpoint, derive_seed,
                                make_certificate, solve_hybrid, sweep)
from treeharmony.labelling import Certificate, is_harmonious, verify_certificate
from treeharmony.trees import Tree

CFG = SolverConfig()

SABOTAGE = SolverConfig(
    backtrack_limit=0, backtrack_restarts=0, perturb_rate=0.0,
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
    cert = make_certificate(one, (0,), out, seed=1)
    assert verify_certificate(cert) is None


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
            cert = make_certificate(tree, seq, out, seed=0)
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
    completed, seed, gen = _read_checkpoint(ck)
    assert completed[8] == 23 and seed == CFG.global_seed


# SHA-256 of the certificate file of sweep(2, 10, ...), frozen: a change
# here means old sweeps no longer replay byte for byte.  The second
# config runs backtracking first, which certifies 178 of the 200 trees.
REPLAY_DIGESTS = [
    (CFG, "fc7edcbdab2f0070c73ed8963622744c3096b24d973acb75b618848940af4b26"),
    (SolverConfig(pipeline=("backtrack", "twostage"), backtrack_limit=2000,
                  backtrack_restarts=3, perturb_rate=0.05),
     "3432a1d21deddde21c05da06d1871022c14f4958e7213a86fd9319c7eda62041"),
]


@pytest.mark.parametrize("cfg, digest", REPLAY_DIGESTS,
                         ids=["default", "backtrack_first"])
def test_sweep_certificates_replay_byte_identical(tmp_path, cfg, digest):
    out = tmp_path / "r.jsonl"
    sweep(2, 10, cfg, out_path=out, checkpoint_path=tmp_path / "c.txt")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# SHA-256 of the certificate file of sweep(11, 11, ...) at the default
# config, frozen like REPLAY_DIGESTS: the pool and the block size must
# not move a byte.
N11_DIGEST = "caf34c25498f569545524235f1668f03a281ca23ed218ce219bd3062a13f1349"


@pytest.mark.parametrize("workers, blocks",
                         [(2, {}), (1, {"block_size": 7})],
                         ids=["pool_default_blocks", "serial_blocks_of_7"])
def test_sweep_n11_replay_byte_identical(tmp_path, workers, blocks):
    out = tmp_path / "r.jsonl"
    sweep(11, 11, SolverConfig(), workers, out_path=out,
          checkpoint_path=tmp_path / "c.txt", **blocks)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == N11_DIGEST


def test_sweep_deterministic_across_worker_counts(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    sweep(2, 8, CFG, workers=1, out_path=a, checkpoint_path=tmp_path / "a.ck")
    sweep(2, 8, CFG, workers=3, out_path=b, checkpoint_path=tmp_path / "b.ck",
          block_size=4)
    assert _read_lines(a) == _read_lines(b)


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
