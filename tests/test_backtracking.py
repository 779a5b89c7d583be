"""Probabilistic backtracking solver."""

import random

import pytest

from completions import harmonious_completions
import search_reference
from search_reference import _pick
from treeharmony.backtracking import solve_backtracking
from treeharmony.config import SolverConfig
from treeharmony.generate import free_trees
from treeharmony.labelling import is_harmonious, normalize_labelling
from treeharmony.trees import Tree

P3 = Tree.from_level_sequence((0, 1, 1))
P4 = Tree.from_level_sequence((0, 1, 2, 1))
STAR4 = Tree.from_level_sequence((0, 1, 1, 1))
CFG = SolverConfig()
# a budget no search spends: above long long, so the kernel clamps it
UNBOUNDED = 2**63


# ------------------------------------------------------------------ #
# label_dfs                                                           #
# ------------------------------------------------------------------ #

@pytest.fixture
def ascending(monkeypatch):
    """Makes the reference label_dfs (``search_reference``, which the
    compiled kernel matches draw for draw) try the largest untried
    candidate first, and records the candidates of each pick, in
    ascending order."""
    candidates = []

    def record(mask, getrandbits):
        candidates.append([v for v in range(mask.bit_length()) if mask >> v & 1])
        return mask.bit_length() - 1

    monkeypatch.setattr(search_reference, "_pick", record)
    return candidates


def test_pick_draws_like_randbelow():
    rng = random.Random(11)
    for _ in range(500):
        mask = rng.getrandbits(rng.randrange(1, 40)) or 1
        seed = rng.getrandbits(32)
        ref_rng, new_rng = random.Random(seed), random.Random(seed)
        values = [v for v in range(mask.bit_length()) if mask >> v & 1]
        want = values[ref_rng._randbelow(len(values))] if len(values) > 1 \
            else values[0]
        assert _pick(mask, new_rng.getrandbits) == want
        assert new_rng.getstate() == ref_rng.getstate()


def test_pick_single_candidate_draws_nothing():
    for value in (0, 1, 7, 39):
        rng = random.Random(value)
        state = rng.getstate()
        assert _pick(1 << value, rng.getrandbits) == value
        assert rng.getstate() == state


def test_valid_labels_fresh_node_gets_all(ascending):
    # the preset root label is not reserved: node1 may take every value
    labels = [1, -1, -1, -1]
    assert search_reference.label_dfs(range(1, 4), P4.parents[1:], labels, 3,
                                      UNBOUNDED, random.Random(0))[0]
    assert set(ascending[0]) == {0, 1, 2}
    assert is_harmonious(P4, labels)


def test_valid_labels_p4_walkthrough(ascending):
    # root=2 is preset, so node1 may take all of {0,1,2}; it takes 2 (the
    # allowed root duplicate, edge sum 1); node2's candidates must avoid
    # value 2 and sum 1, and node3 (sums 1,0 used) is left with 0
    labels = [2, -1, -1, -1]
    assert search_reference.label_dfs(range(1, 4), P4.parents[1:], labels, 3, 0,
                                      random.Random(0)) == (True, 0)
    assert ascending == [[0, 1, 2], [0, 1], [0]]
    assert labels == [2, 2, 1, 0]
    assert is_harmonious(P4, labels)


def test_label_dfs_star_third_leaf_forced(ascending):
    labels = [0, -1, -1, -1]
    assert search_reference.label_dfs(range(1, 4), STAR4.parents[1:], labels, 3,
                                      0, random.Random(0)) == (True, 0)
    assert ascending[2] == [0]  # sums 2,1 used; 0 gives sum 0
    assert labels == [0, 2, 1, 0]


def test_label_dfs_unbounded_succeeds_iff_root_dup_witness_exists():
    # an unbounded search is exhaustive: it must find a labelling exactly
    # when one with the duplicate on the root exists, which needs every
    # released edge sum to be free again after a backtrack.  The
    # reference search runs under root label 0; the kernel's solver, in
    # one restart with no limit, runs under the root label it draws,
    # which a shift of every label carries to 0
    rng = random.Random(5)
    one_run = SolverConfig(backtrack_limit=UNBOUNDED, backtrack_restarts=1)
    for n in range(2, 9):
        for seq in free_trees(n):
            tree = Tree.from_level_sequence(seq)
            witness = bool(harmonious_completions(tree, {0: 0}))
            labels = [0] + [-1] * (n - 1)
            ok, _ = search_reference.label_dfs(range(1, n), tree.parents[1:], labels, n - 1,
                                               UNBOUNDED, random.Random(rng.getrandbits(32)))
            assert ok == witness, seq
            if ok:
                assert labels[0] == 0 and is_harmonious(tree, labels)
            out = solve_backtracking(tree, one_run, rng.getrandbits(64))
            assert out.success == witness, seq
            if out.success:
                assert out.labels.count(out.labels[0]) == 2
                assert is_harmonious(tree, out.labels)


# ------------------------------------------------------------------ #
# solve                                                               #
# ------------------------------------------------------------------ #

def test_solves_small_trees():
    for tree in (P3, P4, STAR4):
        out = solve_backtracking(tree, CFG, 7)
        assert out.success
        assert is_harmonious(tree, out.labels)


def test_p4_known_certificate_shape():
    # one valid certificate is (2,2,0,1), which normalizes to (0,0,1,2);
    # any solver output must normalize to a duplicate-0 labelling
    assert is_harmonious(P4, (2, 2, 0, 1))
    assert normalize_labelling(P4, (2, 2, 0, 1)) == (0, 0, 1, 2)
    out = solve_backtracking(P4, CFG, 3)
    norm = normalize_labelling(P4, out.labels)
    assert sorted(norm).count(0) == 2


def test_duplicate_value_sits_on_root():
    rng = random.Random(100)
    for n in range(3, 11):
        for seq in list(free_trees(n))[:5]:
            tree = Tree.from_level_sequence(seq)
            out = solve_backtracking(tree, CFG, rng.randrange(1 << 30))
            if not out.success:
                # some trees admit no root-duplicate labelling at all;
                # see test_root_duplicate_restriction below
                assert seq in NO_ROOT_DUP_TREES
                continue
            dup = [v for v in range(n - 1) if list(out.labels).count(v) == 2]
            assert dup and out.labels[0] == dup[0]


def test_limit_zero_unlucky_seed_fails_with_zero_backtracks():
    cfg = SolverConfig(backtrack_limit=0, backtrack_restarts=1)
    failures = 0
    for seed in range(30):
        out = solve_backtracking(P4, cfg, seed)
        if not out.success:
            failures += 1
            assert out.stats["backtracks"] == 0
    assert failures > 0  # seeds 1,3,4,... dead-end on the first descent


def test_zero_restarts_fail_immediately():
    out = solve_backtracking(P4, SolverConfig(backtrack_restarts=0), 1)
    assert not out.success
    assert out.stats == {"backtracks": 0, "restarts_used": 0}


def test_deterministic_under_seed():
    a = solve_backtracking(P4, CFG, 12345)
    b = solve_backtracking(P4, CFG, 12345)
    assert (a.success, a.labels, a.stats) == (b.success, b.labels, b.stats)


def test_solve_backtracking_matches_the_reference_loop():
    # every tree on 1..9 nodes under five configs: the default, no
    # restarts, limits 0 and 1 over several restarts, and a small limit.
    # The kernel (one call on its own generator) and the reference loop
    # (on random.Random(seed)) give the same success, labels and stats;
    # seeds of one 32-bit word and of two alternate
    rng = random.Random(0xBAC)
    configs = (CFG, SolverConfig(backtrack_restarts=0),
               SolverConfig(backtrack_limit=0, backtrack_restarts=8),
               SolverConfig(backtrack_limit=1, backtrack_restarts=8),
               SolverConfig(backtrack_limit=20, backtrack_restarts=4))
    solves = multi_restart = most_draws = 0
    for n in range(1, 10):
        for seq in free_trees(n):
            tree = Tree.from_level_sequence(seq)
            for cfg in configs:
                seed = rng.getrandbits(32 if solves % 2 else 64)
                solves += 1
                draws = search_reference.CountingRandom(seed)
                got = solve_backtracking(tree, cfg, seed)
                want = search_reference.solve_backtracking(tree, cfg, draws)
                assert (got.success, got.labels, got.solver, list(got.stats.items())) == \
                    (want.success, want.labels, want.solver, list(want.stats.items())), \
                    (seq, cfg, seed)
                multi_restart += want.stats["restarts_used"] > 1
                most_draws = max(most_draws, draws.draws)
    assert solves == 95 * len(configs)
    assert multi_restart > 200, multi_restart
    # some solve ran the generator through its 624-word state twice
    assert most_draws > 2 * 624, most_draws


def test_trivial_sizes_inside_restart_loop():
    one = Tree.from_level_sequence((0,))
    two = Tree.from_level_sequence((0, 1))
    assert solve_backtracking(one, CFG, 0).labels == (0,)
    assert solve_backtracking(two, CFG, 0).labels == (0, 0)
    assert not solve_backtracking(one, SolverConfig(backtrack_restarts=0), 0).success


def test_two_trees_solve_on_twenty_seeds():
    cfg = SolverConfig()
    for seed in range(20):
        for seq in ((0, 1, 2, 1, 2, 1), (0, 1, 2, 3, 2, 1, 1)):
            tree = Tree.from_level_sequence(seq)
            out = solve_backtracking(tree, cfg, seed)
            assert out.success and is_harmonious(tree, out.labels)


# ------------------------------------------------------------------ #
# The root-duplicate restriction: exact cost at small n               #
# ------------------------------------------------------------------ #

# Center-rooted trees with NO harmonious labelling whose duplicated
# value sits on the root (exhaustive check below).  The 5-path is one!
# Backtracking alone can never label these; the hybrid's other solvers
# carry them.  By shift invariance the root label can be 0, and the
# bijective completions of {0: 0} are exactly these labellings: the node
# given n-1 reduces to the duplicate 0 with every sum mod n-1 kept.
NO_ROOT_DUP_TREES = {
    (0, 1, 2, 1, 2),
    (0, 1, 2, 2, 1, 2),
    (0, 1, 2, 2, 2, 2, 1, 2),
    (0, 1, 2, 2, 2, 1, 2, 2),
    (0, 1, 2, 2, 2, 1, 2, 1),
}


def test_root_duplicate_restriction():
    missing = set()
    for n in range(2, 9):
        for seq in free_trees(n):
            if not harmonious_completions(Tree.from_level_sequence(seq), {0: 0}):
                missing.add(seq)
    assert missing == NO_ROOT_DUP_TREES


def test_backtracking_fails_where_no_witness_exists_but_hybrid_recovers():
    from treeharmony.hybrid import solve_hybrid
    from treeharmony.labelling import exhaustive_search

    p5 = Tree.from_level_sequence((0, 1, 2, 1, 2))
    assert exhaustive_search(p5).exists  # the tree itself is harmonious
    out = solve_backtracking(p5, SolverConfig(backtrack_restarts=3), 1)
    assert not out.success
    hybrid = solve_hybrid(p5, CFG, seed=1)
    assert hybrid.success and hybrid.solver == "twostage"
