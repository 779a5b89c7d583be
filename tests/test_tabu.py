"""Tabu search: incremental Eval maintenance and the solve loop."""

import random

from treeharmony import tabu
from treeharmony.config import SolverConfig
from treeharmony.generate import free_trees, prufer_decode
from treeharmony.labelling import (eval_labelling, is_harmonious,
                                   random_onto_labelling)
from treeharmony.tabu import TabuState, solve_tabu
from treeharmony.trees import Tree, canonical_from_edges

P3 = Tree.from_level_sequence((0, 1, 1))
P4 = Tree.from_level_sequence((0, 1, 2, 1))
N2 = Tree.from_level_sequence((0, 1))
CFG = SolverConfig()


def random_tree(n, rng) -> Tree:
    if n <= 2:
        return Tree.from_level_sequence(tuple(range(n)))
    code = [rng.randrange(n) for _ in range(n - 2)]
    return Tree.from_level_sequence(canonical_from_edges(n, prufer_decode(n, code)))


# ------------------------------------------------------------------ #
# delta_eval                                                          #
# ------------------------------------------------------------------ #

def test_delta_examples():
    # swapping equal labels changes nothing
    state = TabuState(P4, (1, 0, 2, 0))
    assert state.delta_eval(1, 3) == 0
    # (1,0,2,0) -> swap nodes 0,2 -> (2,0,1,0): both have eval 1
    assert eval_labelling(P4, (1, 0, 2, 0)) == 1
    assert eval_labelling(P4, (2, 0, 1, 0)) == 1
    assert state.delta_eval(0, 2) == 0
    # (1,0,2,0) -> swap nodes 2,3 -> (1,0,0,2): sums 1,0,0 - still eval 1
    assert eval_labelling(P4, (1, 0, 0, 2)) == 1
    assert state.delta_eval(2, 3) == 0
    # (1,0,2,0) -> swap nodes 1,2 -> (1,2,0,0): sums 0,2,1 - eval 0
    assert eval_labelling(P4, (1, 2, 0, 0)) == 0
    assert state.delta_eval(1, 2) == -1


def test_cached_eval_matches_recomputation():
    rng = random.Random(333)
    for _ in range(200):
        n = rng.randrange(2, 12)
        tree = random_tree(n, rng)
        state = TabuState(tree, random_onto_labelling(n, rng))
        assert state.eval == eval_labelling(tree, state.labels)
        for _ in range(8):
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v:
                continue
            state.apply_swap(u, v)
            assert state.eval == eval_labelling(tree, state.labels)


def test_delta_matches_full_recomputation():
    rng = random.Random(777)
    for _ in range(400):
        n = rng.randrange(3, 12)
        tree = random_tree(n, rng)
        labels = random_onto_labelling(n, rng)
        state = TabuState(tree, labels)
        u = rng.randrange(n)
        v = (u + 1 + rng.randrange(n - 1)) % n
        before = eval_labelling(tree, labels)
        swapped = list(labels)
        swapped[u], swapped[v] = swapped[v], swapped[u]
        assert state.delta_eval(u, v) == eval_labelling(tree, swapped) - before


def test_swaps_preserve_surjectivity():
    rng = random.Random(42)
    tree = random_tree(9, rng)
    state = TabuState(tree, random_onto_labelling(9, rng))
    for _ in range(100):
        u, v = rng.randrange(9), rng.randrange(9)
        if u != v:
            state.apply_swap(u, v)
    assert set(state.labels) == set(range(8))


# ------------------------------------------------------------------ #
# solve                                                               #
# ------------------------------------------------------------------ #

def test_solves_p3():
    out = solve_tabu(P3, CFG, random.Random(5))
    assert out.success and is_harmonious(P3, out.labels)
    assert out.stats["iterations"] <= 10


def test_already_harmonious_start_succeeds_at_iteration_zero():
    # n=2 labellings are always harmonious
    out = solve_tabu(N2, CFG, random.Random(0))
    assert out.success
    assert out.stats == {"iterations": 0, "swaps": 0}


def test_zero_iterations_fail_even_when_start_is_harmonious():
    out = solve_tabu(N2, SolverConfig(tabu_max_iters=0), random.Random(0))
    assert not out.success


def test_failure_reports_positive_eval():
    out = solve_tabu(P4, SolverConfig(tabu_max_iters=0), random.Random(9))
    assert not out.success
    assert out.stats["iterations"] == 0 or out.stats["final_eval"] >= 0


def test_accepted_swaps_strictly_decrease_eval():
    # drive the state directly: any delta<0 swap must lower eval exactly
    rng = random.Random(31)
    accepted = 0
    while accepted < 300:
        n = rng.randrange(4, 12)
        tree = random_tree(n, rng)
        state = TabuState(tree, random_onto_labelling(n, rng))
        for _ in range(30):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            d = state.delta_eval(u, v)
            if d < 0:
                before = state.eval
                state.apply_swap(u, v)
                assert state.eval == before + d < before
                accepted += 1


def test_tabu_marking_and_expiry():
    state = TabuState(P4, (1, 0, 2, 0))
    state.mark_tabu(2, 0, tenure=3)
    assert state.is_tabu(0, 2) and state.is_tabu(2, 0)
    state.iter += 3
    assert not state.is_tabu(0, 2)  # expiry <= iter counts as absent
    state.mark_tabu(1, 3, tenure=0)
    assert not state.is_tabu(1, 3)


def test_deterministic_under_seed():
    a = solve_tabu(P4, CFG, random.Random(999))
    b = solve_tabu(P4, CFG, random.Random(999))
    assert (a.success, a.labels, a.stats) == (b.success, b.labels, b.stats)


def test_stall_fast_forward_reports_full_iteration_budget():
    # hunt a seed that stalls; the reported iteration count must equal the
    # configured limit even though the loop exits early
    cfg = SolverConfig()
    tree = Tree.from_level_sequence(list(free_trees(9))[0])
    for seed in range(40):
        out = solve_tabu(tree, cfg, random.Random(seed))
        if not out.success and out.stats.get("stalled"):
            assert out.stats["iterations"] == cfg.tabu_iteration_limit(9)
            assert out.stats["best_eval"] > 0
            return
    raise AssertionError("no stalled run found in 40 seeds")


# ------------------------------------------------------------------ #
# stop rule                                                           #
# ------------------------------------------------------------------ #

def test_stuck_exit_matches_running_out_the_limit(monkeypatch):
    # the early exit must give what running every iteration gives; with
    # the stuck-state scan forced to report an improving swap, a run
    # never leaves before its limit
    cfg = SolverConfig(tabu_max_iters=200)
    real = []
    for n in range(2, 8):
        for seq in free_trees(n):
            tree = Tree.from_level_sequence(seq)
            for seed in range(3):
                real.append((tree, seed, solve_tabu(tree, cfg, random.Random(seed))))
    monkeypatch.setattr(tabu, "_any_improving_swap", lambda state: True)

    def strip(stats):
        return {k: v for k, v in stats.items() if k != "stalled"}

    early = 0
    for tree, seed, out in real:
        full = solve_tabu(tree, cfg, random.Random(seed))
        assert (out.success, out.labels) == (full.success, full.labels), tree
        assert strip(out.stats) == strip(full.stats), tree
        assert not full.stats.get("stalled"), tree
        early += bool(out.stats.get("stalled"))
    assert early > 0


def test_stuck_start_stops_after_one_iteration(monkeypatch):
    # a random start with no improving swap anywhere is found stuck by
    # the scan after the first swapless iteration
    tree = Tree.from_level_sequence(list(free_trees(9))[0])
    for seed in range(200):
        start = TabuState(tree, random_onto_labelling(9, random.Random(seed)))
        if start.eval > 0 and not tabu._any_improving_swap(start):
            break
    else:
        raise AssertionError("no stuck random start in 200 seeds")
    calls = []
    sample = tabu._sample_pairs
    monkeypatch.setattr(tabu, "_sample_pairs",
                        lambda *args: calls.append(1) or sample(*args))
    out = solve_tabu(tree, CFG, random.Random(seed))
    assert not out.success and out.stats["stalled"]
    assert out.stats["swaps"] == 0
    assert out.stats["best_eval"] == start.eval
    assert len(calls) == 1
