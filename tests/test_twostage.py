"""Two-stage constraint solving: stage-1 sampling, the leaf CSP with
forward checking, and the retry loop."""

import random
from itertools import permutations

from treeharmony.config import SolverConfig
from treeharmony.generate import free_trees, prufer_decode
from treeharmony.labelling import is_harmonious
from treeharmony.trees import Tree, canonical_from_edges, internal_nodes
from treeharmony.twostage import (build_leaf_csp, solve_leaf_csp,
                                  solve_twostage, stage1_internal)

P4 = Tree.from_level_sequence((0, 1, 2, 1))
STAR4 = Tree.from_level_sequence((0, 1, 1, 1))
N2 = Tree.from_level_sequence((0, 1))
CFG = SolverConfig()


# ------------------------------------------------------------------ #
# Stage 1                                                             #
# ------------------------------------------------------------------ #

def test_stage1_star_single_internal():
    partial = stage1_internal(STAR4, CFG, random.Random(1))
    assert set(partial) == {0}
    assert 0 <= partial[0] <= 3


def test_stage1_p4_distinct_pair():
    for seed in range(10):
        partial = stage1_internal(P4, CFG, random.Random(seed))
        assert set(partial) == {0, 1}
        assert partial[0] != partial[1]
        assert all(0 <= v <= 3 for v in partial.values())


def test_stage1_no_internal_nodes():
    assert stage1_internal(N2, CFG, random.Random(0)) == {}


def test_stage1_respects_internal_sum_distinctness():
    rng = random.Random(17)
    for n in (8, 10, 12):
        for seq in list(free_trees(n))[:6]:
            tree = Tree.from_level_sequence(seq)
            partial = stage1_internal(tree, CFG, rng)
            assert partial is not None
            m = n - 1
            internal = internal_nodes(tree)
            assert set(partial) == internal
            values = list(partial.values())
            assert len(set(values)) == len(values)
            sums = [(partial[u] + partial[v]) % m
                    for u in internal for v in tree.adjacency[u]
                    if v in internal and u < v]
            assert len(set(sums)) == len(sums)


# ------------------------------------------------------------------ #
# Leaf CSP construction                                               #
# ------------------------------------------------------------------ #

def test_build_leaf_csp_star_all_open():
    csp = build_leaf_csp(STAR4, {0: 3})
    assert csp.leaves == (1, 2, 3)
    assert csp.used_sums == frozenset()
    assert csp.domains == (frozenset({0, 1, 2}),) * 3


def test_build_leaf_csp_p4_hand_construction():
    # internal labels f0=0, f1=1, internal edge sum G={1}
    csp = build_leaf_csp(P4, {0: 0, 1: 1})
    assert csp.leaves == (2, 3)
    assert csp.used_sums == frozenset({1})
    # leaf 2 hangs under node 1 (label 1): {2,3} minus w with (w+1)%3=1
    assert csp.domains[0] == frozenset({2})
    # leaf 3 hangs under node 0 (label 0): {2,3} minus w with w%3=1
    assert csp.domains[1] == frozenset({2, 3})


def test_build_leaf_csp_empty_domain_is_failure_not_error():
    # internal pair (0,1) exhausts nothing, but a crafted partial can:
    # on the 5-star, give the hub 0 and pretend 1..4 are used up
    star5 = Tree.from_level_sequence((0, 1, 1, 1, 1))
    csp = build_leaf_csp(star5, {0: 0})
    assert not csp.has_empty_domain
    # stage-2 failure shows up as None from the solver, not an exception
    bad = build_leaf_csp(P4, {0: 0, 1: 1})
    assert solve_leaf_csp(bad, random.Random(0), budget=100) is None


def test_leaf_csp_star_solves():
    csp = build_leaf_csp(STAR4, {0: 3})
    got = solve_leaf_csp(csp, random.Random(4))
    assert got is not None and set(got) == {1, 2, 3}
    assert sorted(got.values()) == [0, 1, 2]


def test_leaf_csp_p4_dead_partial_fails_good_partial_extends():
    # (0,1) admits no extension (hand propagation); (0,3) does
    assert solve_leaf_csp(build_leaf_csp(P4, {0: 0, 1: 1}), random.Random(0)) is None
    got = solve_leaf_csp(build_leaf_csp(P4, {0: 0, 1: 3}), random.Random(0))
    assert got is not None
    full = {0: 0, 1: 3, **got}
    labels = tuple(full[i] for i in range(4))
    assert is_harmonious(P4, labels, model="bijective")


def test_leaf_csp_singleton_domains_assigned_without_branching():
    csp = build_leaf_csp(P4, {0: 0, 1: 3})
    got = solve_leaf_csp(csp, random.Random(1), budget=0)
    assert got is not None  # no backtracking needed anywhere


# ------------------------------------------------------------------ #
# Stage 2 against the set-based reference                             #
# ------------------------------------------------------------------ #

def _reference_solve_leaf_csp(csp, rng, budget=5000, on_prune=None):
    """The set-and-trail leaf search that the bitmask solver replaced,
    body unchanged, kept as a test-only oracle: the bitmask solver must
    match its variable order, value order, budget accounting and RNG
    draws."""
    k = len(csp.leaves)
    if k == 0:
        return {}
    if csp.has_empty_domain:
        return None
    m = csp.n - 1
    domains = [set(d) for d in csp.domains]
    parent_labels = csp.parent_labels
    assigned: dict[int, int] = {}
    done = [False] * k
    trail: list[list[tuple[int, int]]] = []
    stacks: list = []
    chosen: list[int] = []
    backtracks = 0

    def pick_variable():
        best = -1
        best_size = None
        for i in range(k):
            if done[i]:
                continue
            size = len(domains[i])
            if best_size is None or size < best_size:
                best, best_size = i, size
        return best

    def forward_check(i, value) -> bool:
        removed = trail[-1]
        s = (value + parent_labels[i]) % m
        wipeout = False
        for j in range(k):
            if done[j] or j == i:
                continue
            dom = domains[j]
            if value in dom:
                dom.discard(value)
                removed.append((j, value))
                if on_prune is not None:
                    on_prune(csp.leaves[j], value, dict(assigned))
            # values w with (w + parent_label_j) % m == s; labels run over
            # {0..m}, so only c and (when c == 0) c + m can hit
            c = (s - parent_labels[j]) % m
            for w in ((c, m) if c == 0 else (c,)):
                if w in dom:
                    dom.discard(w)
                    removed.append((j, w))
                    if on_prune is not None:
                        on_prune(csp.leaves[j], w, dict(assigned))
            if not dom:
                wipeout = True
        return not wipeout

    def undo():
        for j, w in trail.pop():
            domains[j].add(w)

    i = pick_variable()
    values = sorted(domains[i])
    rng.shuffle(values)
    stacks.append(values)
    chosen.append(i)
    while True:
        i = chosen[-1]
        stack = stacks[-1]
        if not stack:
            stacks.pop()
            chosen.pop()
            if not stacks:
                return None
            if backtracks >= budget:
                return None
            backtracks += 1
            del assigned[csp.leaves[chosen[-1]]]
            done[chosen[-1]] = False
            undo()
            continue
        value = stack.pop()
        assigned[csp.leaves[i]] = value
        done[i] = True
        trail.append([])
        if len(assigned) == k:
            return dict(assigned)
        if forward_check(i, value):
            j = pick_variable()
            values = sorted(domains[j])
            rng.shuffle(values)
            stacks.append(values)
            chosen.append(j)
        else:
            del assigned[csp.leaves[i]]
            done[i] = False
            undo()


def test_bitmask_solver_matches_set_reference():
    # Stage-1 partials of random trees, plus arbitrary injective partials
    # of the same internal nodes, which often leave an empty domain.
    rng = random.Random(2024)
    seen = {"empty": 0, "solved": 0, "failed": 0}
    for _ in range(1000):
        n = rng.randrange(4, 13)
        code = [rng.randrange(n) for _ in range(n - 2)]
        tree = Tree.from_level_sequence(
            canonical_from_edges(n, prufer_decode(n, code)))
        internal = sorted(internal_nodes(tree))
        partials = [stage1_internal(tree, CFG, rng),
                    dict(zip(internal, rng.sample(range(n), len(internal))))]
        for partial in partials:
            if partial is None:
                continue
            csp = build_leaf_csp(tree, partial)
            seen["empty"] += csp.has_empty_domain
            for budget in (0, 1, 150):
                seed = rng.getrandbits(32)
                ref_rng, new_rng = random.Random(seed), random.Random(seed)
                ref_pruned, new_pruned = [], []
                want = _reference_solve_leaf_csp(
                    csp, ref_rng, budget,
                    lambda *removal: ref_pruned.append(removal))
                got = solve_leaf_csp(
                    csp, new_rng, budget,
                    lambda *removal: new_pruned.append(removal))
                assert got == want, (tree.levels, partial, budget)
                assert new_rng.getstate() == ref_rng.getstate(), \
                    (tree.levels, partial, budget)
                # the bitmask pass stops at a wipeout, so it reports a
                # subsequence of the reference's removals
                rest = iter(ref_pruned)
                assert all(removal in rest for removal in new_pruned)
                seen["solved" if got is not None else "failed"] += 1
    assert min(seen.values()) > 100, seen


# ------------------------------------------------------------------ #
# Forward-checking soundness and stage-2 completeness                 #
# ------------------------------------------------------------------ #

def _harmonious_completions(tree, fixed):
    """Brute force: all full bijective harmonious labellings extending
    *fixed* (a node->value dict).  A non-injective *fixed* has none."""
    n = tree.n
    m = n - 1
    if len(set(fixed.values())) != len(fixed):
        return []
    rest_nodes = [v for v in range(n) if v not in fixed]
    rest_values = [v for v in range(n) if v not in fixed.values()]
    out = []
    for perm in permutations(rest_values):
        labels = [0] * n
        for v, value in fixed.items():
            labels[v] = value
        for v, value in zip(rest_nodes, perm):
            labels[v] = value
        sums = set()
        ok = True
        for i in range(1, n):
            s = (labels[i] + labels[tree.parents[i]]) % m
            if s in sums:
                ok = False
                break
            sums.add(s)
        if ok:
            out.append(tuple(labels))
    return out


def test_forward_checking_soundness_small():
    rng = random.Random(23)
    for n in (5, 6, 7):
        for seq in free_trees(n):
            tree = Tree.from_level_sequence(seq)
            partial = stage1_internal(tree, CFG, rng)
            csp = build_leaf_csp(tree, partial)
            pruned = []
            solve_leaf_csp(csp, random.Random(9), budget=10 ** 9,
                           on_prune=lambda leaf, value, assigned:
                           pruned.append((leaf, value, dict(assigned))))
            for leaf, value, assigned in pruned[:40]:
                fixed = dict(partial)
                fixed.update(assigned)
                fixed[leaf] = value
                assert not _harmonious_completions(tree, fixed), \
                    (seq, partial, leaf, value, assigned)


def test_stage2_complete_relative_to_its_sample():
    # if any harmonious extension of the stage-1 partial exists, the
    # unbounded CSP solver finds one
    rng = random.Random(77)
    for n in (5, 6, 7, 8):
        for seq in list(free_trees(n))[:8]:
            tree = Tree.from_level_sequence(seq)
            for attempt in range(4):
                partial = stage1_internal(tree, CFG, rng)
                extensions = _harmonious_completions(tree, partial)
                got = solve_leaf_csp(build_leaf_csp(tree, partial),
                                     random.Random(attempt), budget=10 ** 9)
                assert (got is not None) == bool(extensions), (seq, partial)
                if got is not None:
                    full = dict(partial)
                    full.update(got)
                    labels = tuple(full[i] for i in range(n))
                    assert labels in extensions


# ------------------------------------------------------------------ #
# Full solver                                                         #
# ------------------------------------------------------------------ #

def test_solve_star_and_p4():
    out = solve_twostage(STAR4, CFG, random.Random(0))
    assert out.success and is_harmonious(STAR4, out.labels)
    assert out.stats["runs"] <= 5
    out = solve_twostage(P4, CFG, random.Random(0))
    assert out.success and is_harmonious(P4, out.labels)


def test_zero_runs_immediate_failure():
    out = solve_twostage(P4, SolverConfig(twostage_runs=0), random.Random(0))
    assert not out.success and out.stats["runs"] == 0


def test_trivial_sizes():
    one = Tree.from_level_sequence((0,))
    assert solve_twostage(one, CFG, random.Random(0)).labels == (0,)
    assert solve_twostage(N2, CFG, random.Random(0)).labels == (0, 0)
    assert not solve_twostage(N2, SolverConfig(twostage_runs=0),
                              random.Random(0)).success


def test_deterministic_under_seed():
    a = solve_twostage(P4, CFG, random.Random(4))
    b = solve_twostage(P4, CFG, random.Random(4))
    assert (a.success, a.labels, a.stats) == (b.success, b.labels, b.stats)


def test_output_is_normalized_and_verified():
    rng = random.Random(8)
    for n in (5, 7, 9, 11):
        for seq in list(free_trees(n))[:4]:
            tree = Tree.from_level_sequence(seq)
            out = solve_twostage(tree, CFG, rng)
            assert out.success
            assert is_harmonious(tree, out.labels)
            assert sorted(out.labels).count(0) == 2
