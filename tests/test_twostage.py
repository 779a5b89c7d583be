"""Two-stage constraint solving: stage-1 sampling, the leaf CSP with
forward checking, and the retry loop."""

import random
from dataclasses import replace
from itertools import combinations, permutations, product

import pytest

from completions import harmonious_completions
from random_trees import random_tree
import search_reference
from treeharmony.config import SolverConfig
from treeharmony.generate import free_trees
from treeharmony.labelling import (is_harmonious, iter_harmonious_bijective,
                                   normalize_labelling, shift_labelling)
from treeharmony.trees import Tree, internal_nodes, rooted_level_sequence
from treeharmony.twostage import (LeafCSP, build_leaf_csp, solve_leaf_csp,
                                  solve_twostage, stage1_internal)

P4 = Tree.from_level_sequence((0, 1, 2, 1))
STAR4 = Tree.from_level_sequence((0, 1, 1, 1))
N2 = Tree.from_level_sequence((0, 1))
CFG = SolverConfig()
# a budget no search spends: above long long, so the kernel clamps it
UNBOUNDED = 2**63


# ------------------------------------------------------------------ #
# Stage 1                                                             #
# ------------------------------------------------------------------ #

def test_stage1_star_single_internal():
    partial = stage1_internal(STAR4, CFG, 1)
    assert set(partial) == {0}
    assert 0 <= partial[0] <= 3


def test_stage1_p4_distinct_pair():
    for seed in range(10):
        partial = stage1_internal(P4, CFG, seed)
        assert set(partial) == {0, 1}
        assert partial[0] != partial[1]
        assert all(0 <= v <= 3 for v in partial.values())


def test_stage1_no_internal_nodes():
    assert stage1_internal(N2, CFG, 0) == {}
    assert stage1_internal(Tree.from_level_sequence((0,)), CFG, 0) == {}


def test_stage1_respects_internal_sum_distinctness():
    rng = random.Random(17)
    for n in (8, 10, 12):
        for seq in list(free_trees(n))[:6]:
            tree = Tree.from_level_sequence(seq)
            partial = stage1_internal(tree, CFG, rng.getrandbits(32))
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
# Stage 1: the edge-sum congruence                                    #
# ------------------------------------------------------------------ #

def _congruence(tree, labels) -> int:
    """sum((deg(v) - 1) * f(v)) mod n-1 over the nodes *labels* names."""
    return sum((len(tree.adjacency[v]) - 1) * f
               for v, f in labels.items()) % (tree.n - 1)


def test_every_harmonious_labelling_meets_the_congruence():
    trees = labellings = 0
    for n in range(3, 9):
        for seq in free_trees(n):
            tree = Tree.from_level_sequence(seq)
            trees += 1
            for f in iter_harmonious_bijective(tree):
                labellings += 1
                assert _congruence(tree, dict(enumerate(f))) == 0, (seq, f)
    assert (trees, labellings) == (46, 29012)


def test_stage1_partials_meet_the_congruence():
    # one stage-1 call per tree on 9..14 nodes (5,399 trees); a call
    # that spends its budget returns None and is not counted
    rng = random.Random(0xC0)
    partials = 0
    for n in range(9, 15):
        for seq in free_trees(n):
            tree = Tree.from_level_sequence(seq)
            partial = stage1_internal(tree, CFG, rng.getrandbits(32))
            if partial is None:
                continue
            partials += 1
            assert set(partial) == internal_nodes(tree)
            assert _congruence(tree, partial) == 0, (seq, partial)
    assert partials > 5300


def _congruent_labelling_exists(order, parents, n_values, weights, m):
    """Brute force: an injective labelling of *order* from
    range(n_values), with distinct sums on the edges to its parents and
    sum(weights[k] * f(order[k])) = 0 (mod m)."""
    for values in permutations(range(n_values), len(order)):
        if sum(w * f for w, f in zip(weights, values)) % m:
            continue
        label = dict(zip(order, values))
        sums = [(f + label[p]) % m for f, p in zip(values, parents) if p >= 0]
        if len(set(sums)) == len(sums):
            return True
    return False


def test_stage1_complete_on_every_small_tree():
    # unbounded, the kernel's stage 1 succeeds exactly when a brute force
    # finds an internal labelling that meets the congruence.  Every tree
    # here is harmonious, and a harmonious labelling's internal labels
    # are such a labelling, so the verdict is always success; the rows
    # with a failing verdict run on the reference, in the test below
    for n in range(3, 9):
        for seq in free_trees(n):
            tree = Tree.from_level_sequence(seq)
            order, parents, weights = search_reference.stage1_shape(tree)
            partial = stage1_internal(tree, replace(CFG, stage1_budget=UNBOUNDED), n)
            want = _congruent_labelling_exists(order, parents, n, weights, n - 1)
            assert (partial is not None) == want, seq
            if partial is not None:
                assert list(partial) == order
                assert _congruence(tree, partial) == 0


def test_label_dfs_with_weights_complete_on_every_small_tree():
    # unbounded, the reference's weighted search succeeds exactly when a
    # brute force finds a labelling that meets the congruence: the rows
    # no kernel entry takes, two random weight vectors per tree with all
    # n values, one spare value or none, and the stage-1 weights with one
    # spare value or none, so both verdicts occur
    rng = random.Random(0x3E)
    verdicts = set()
    for n in range(3, 9):
        m = n - 1
        for seq in free_trees(n):
            tree = Tree.from_level_sequence(seq)
            order, parents, stage1 = search_reference.stage1_shape(tree)
            for weights in (stage1, *([rng.randrange(m) for _ in order]
                                      for _ in range(2))):
                for n_values in {n, len(order) + 1, len(order)}:
                    if weights is stage1 and n_values == n:
                        continue   # the kernel's row, in the test above
                    labels = [-1] * n
                    ok, _ = search_reference.label_dfs(
                        order, parents, labels, n_values, UNBOUNDED,
                        random.Random(rng.getrandbits(32)), weights=weights)
                    want = _congruent_labelling_exists(
                        order, parents, n_values, weights, m)
                    assert ok == want, (seq, weights, n_values)
                    verdicts.add(ok)
                    if ok:
                        values = [labels[v] for v in order]
                        assert len(set(values)) == len(values)
                        assert max(values) < n_values
                        assert sum(w * f for w, f in zip(weights, values)) % m == 0
    assert verdicts == {True, False}


class _AssignmentLog(list):
    """A labels list that logs each assignment as (node, labels before
    it), so a test can tell which node the search's last pick was for."""

    def __init__(self, n):
        super().__init__([-1] * n)
        self.log = []

    def __setitem__(self, node, value):
        self.log.append((node, tuple(self)))
        super().__setitem__(node, value)


def _second_last_values(order, parents, labels, n_values, weights, m):
    """Brute force over the second-last position, given the labels of the
    earlier positions: the values x it may take (unused, and with a new
    edge sum), and those of them that some value y of the last position
    completes (injective, distinct sums on the edges to parents, and
    sum(weights[k] * f(order[k])) = 0 (mod m))."""
    last = len(order) - 1
    label = {v: labels[v] for v in order[:last - 1]}
    rest = sum(w * label[v] for w, v in zip(weights, order[:last - 1]))
    used_sums = [(label[v] + label[p]) % m
                 for v, p in zip(order[:last - 1], parents) if p >= 0]
    unused = set(range(n_values)) - set(label.values())
    p = parents[last - 1]
    valid = {x for x in unused
             if p < 0 or (x + label[p]) % m not in used_sums}
    closable = set()
    for x, y in permutations(unused, 2):
        if (rest + weights[last - 1] * x + weights[last] * y) % m:
            continue
        full = {**label, order[last - 1]: x, order[last]: y}
        sums = used_sums + [(full[v] + full[p]) % m
                            for v, p in zip(order[last - 1:], parents[last - 1:])
                            if p >= 0]
        if len(set(sums)) == len(sums):
            closable.add(x)
    return valid, closable


def test_congruence_lookahead_keeps_every_closable_value(monkeypatch):
    # every time the weighted search enters its second-last position, the
    # candidates it draws from include every value that a brute force
    # can close; stage-1 and random weights on every tree n=3..8, with
    # all n values or one spare value, as in
    # test_label_dfs_with_weights_complete_on_every_small_tree.  The
    # search is the Python reference, whose picks a test can watch; the
    # kernel matches it draw for draw (tests/test_kernel.py)
    masks = []

    def record(mask, getrandbits):
        masks.append(mask)
        return pick(mask, getrandbits)

    pick = search_reference._pick
    monkeypatch.setattr(search_reference, "_pick", record)
    rng = random.Random(0x1A)
    entries = narrowed = 0
    for n in range(3, 9):
        m = n - 1
        for seq in free_trees(n):
            tree = Tree.from_level_sequence(seq)
            internal = internal_nodes(tree)
            order = sorted(internal)
            if len(order) < 2:
                continue
            parents = [tree.parents[v] if tree.parents[v] in internal else -1
                       for v in order]
            stage1 = [len(tree.adjacency[v]) - 1 for v in order]
            for weights in (stage1, *([rng.randrange(m) for _ in order]
                                      for _ in range(2))):
                for n_values, seed in product({n, len(order) + 1}, range(3)):
                    masks.clear()
                    labels = _AssignmentLog(n)
                    search_reference.label_dfs(order, parents, labels, n_values,
                                               UNBOUNDED, random.Random(seed),
                                               weights=weights)
                    depths = [order.index(node) for node, _ in labels.log]
                    for d, (mask, (_, before)) in enumerate(zip(masks, labels.log)):
                        # a pick for the second-last node right after one
                        # for the node before it enters that position
                        if depths[d] != len(order) - 2 or \
                                d > 0 and depths[d - 1] != len(order) - 3:
                            continue
                        entries += 1
                        offered = {w for w in range(n) if mask >> w & 1}
                        valid, closable = _second_last_values(
                            order, parents, before, n_values, weights, m)
                        assert closable <= offered <= valid, \
                            (seq, weights, n_values, before)
                        narrowed += offered != valid
    assert entries > 1000 and narrowed > 100, (entries, narrowed)


# ------------------------------------------------------------------ #
# Leaf CSP construction                                               #
# ------------------------------------------------------------------ #

# The kernel builds the leaf CSP inside stage2, so the domains are read
# off the reference build, which tests/test_kernel.py holds it to.

def _domains(csp):
    """The domain bitmasks of a reference leaf CSP as frozensets of
    values."""
    return tuple(frozenset(w for w in range(csp.n) if mask >> w & 1)
                 for mask in csp.domain_masks)


def test_build_leaf_csp_star_all_open():
    csp = search_reference.build_leaf_csp(STAR4, {0: 3})
    assert csp.leaves == (1, 2, 3)
    assert _domains(csp) == (frozenset({0, 1, 2}),) * 3


def test_build_leaf_csp_p4_hand_construction():
    # internal labels f0=0, f1=1, internal edge sum G={1}
    csp = search_reference.build_leaf_csp(P4, {0: 0, 1: 1})
    assert csp.leaves == (2, 3)
    # leaf 2 hangs under node 1 (label 1): {2,3} minus w with (w+1)%3=1
    assert _domains(csp)[0] == frozenset({2})
    # leaf 3 hangs under node 0 (label 0): {2,3} minus w with w%3=1
    assert _domains(csp)[1] == frozenset({2, 3})


def test_build_leaf_csp_empty_domain_is_failure_not_error():
    # internal pair (0,1) exhausts nothing, but a crafted partial can:
    # on the 5-star, give the hub 0 and pretend 1..4 are used up
    star5 = Tree.from_level_sequence((0, 1, 1, 1, 1))
    csp = search_reference.build_leaf_csp(star5, {0: 0})
    assert all(csp.domain_masks)
    # stage-2 failure shows up as None from the solver, not an exception
    bad = build_leaf_csp(P4, {0: 0, 1: 1})
    assert solve_leaf_csp(bad, 0, budget=100) is None


def test_build_leaf_csp_refuses_what_it_cannot_reduce():
    # a tree of one or two nodes has no internal node, and a partial must
    # label exactly the internal nodes: one that missed an internal node
    # left a leaf without its neighbour's label, and one that labelled a
    # leaf made it a CSP variable all the same
    for tree in (Tree.from_level_sequence((0,)), N2):
        with pytest.raises(ValueError, match="^a leaf CSP needs a tree of at least 3 nodes"):
            build_leaf_csp(tree, {})
    for tree, partial in ((P4, {0: 0}), (P4, {1: 0}), (P4, {}), (P4, {0: 0, 1: 1, 2: 2}),
                          (STAR4, {0: 3, 1: 0}), (STAR4, {1: 0})):
        with pytest.raises(ValueError, match="^the partial must label exactly the internal"):
            build_leaf_csp(tree, partial)


def test_solve_leaf_csp_refuses_labels_that_are_not_stage_1s():
    # an internal label outside 0..n-1 or repeated, a labelled leaf and
    # labels of another length, each refused by the kernel, which alone
    # reads the labels
    refused = (lambda: build_leaf_csp(STAR4, {0: 7}),
               lambda: build_leaf_csp(P4, {0: 2, 1: 2}),
               lambda: build_leaf_csp(STAR4, {0: -1}),
               lambda: LeafCSP(STAR4.parents, (3, 0, -1, -1)),
               lambda: LeafCSP(STAR4.parents, (3, -1, -1)),
               lambda: LeafCSP(STAR4.parents, (3, -1, -1, -1, -1)))
    for csp in refused:
        with pytest.raises(ValueError, match="^labels must hold one label per node"):
            solve_leaf_csp(csp(), 0)
    assert build_leaf_csp(STAR4, {0: 3}) == LeafCSP(STAR4.parents, (3, -1, -1, -1))


def test_leaf_csp_star_solves():
    csp = build_leaf_csp(STAR4, {0: 3})
    got = solve_leaf_csp(csp, 4)
    assert got is not None and set(got) == {1, 2, 3}
    assert sorted(got.values()) == [0, 1, 2]


def test_leaf_csp_p4_dead_partial_fails_good_partial_extends():
    # (0,1) admits no extension (hand propagation); (0,3) does
    assert solve_leaf_csp(build_leaf_csp(P4, {0: 0, 1: 1}), 0) is None
    got = solve_leaf_csp(build_leaf_csp(P4, {0: 0, 1: 3}), 0)
    assert got is not None
    full = {0: 0, 1: 3, **got}
    labels = tuple(full[i] for i in range(4))
    assert sorted(labels) == [0, 1, 2, 3]
    assert is_harmonious(P4, shift_labelling(labels, 0))


def test_leaf_csp_singleton_domains_assigned_without_branching():
    csp = build_leaf_csp(P4, {0: 0, 1: 3})
    got = solve_leaf_csp(csp, 1, budget=0)
    assert got is not None  # no backtracking needed anywhere


# ------------------------------------------------------------------ #
# Stage 2 against the set-based reference                             #
# ------------------------------------------------------------------ #

def _hall_holds(domains, parent_labels, m):
    """Brute-force Hall condition: every set of leaves, given by their
    value *domains* and parent labels, has between them at least as many
    candidate values, and as many candidate edge sums, as it has
    leaves."""
    values = [set(d) for d in domains]
    sums = [{(w + pl) % m for w in d} for d, pl in zip(domains, parent_labels)]
    k = len(values)
    for size in range(1, k + 1):
        for subset in combinations(range(k), size):
            if len(set().union(*(values[i] for i in subset))) < size:
                return False
            if len(set().union(*(sums[i] for i in subset))) < size:
                return False
    return True


def _reference_solve_leaf_csp(csp, rng, budget, on_prune, hall_refuted):
    """A set-and-trail leaf search kept as a test-only oracle: the
    bitmask solver must match its variable order, value order, budget
    accounting and RNG draws.  The root, and every level once the search
    has backtracked, checks :func:`_hall_holds` on the free leaves'
    domains; *hall_refuted* is a one-item list that counts the fixations
    it refutes below the root."""
    k = len(csp.leaves)
    if not all(csp.domain_masks):
        return None
    m = csp.n - 1
    parent_labels = csp.parent_labels
    domains = [set(d) for d in _domains(csp)]
    if not _hall_holds(domains, parent_labels, m):
        return None
    siblings = [[j for j in range(k) if j != i and parent_labels[j] == pl]
                for i, pl in enumerate(parent_labels)]
    assigned: dict[int, int] = {}
    done = [False] * k
    trail: list[list[tuple[int, int]]] = []
    untried: list[set[int]] = []   # per level, the values not yet tried
    chosen: list[int] = []
    refuted: list[list[tuple[int, int]]] = []   # per level, undone with it
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

    def hall_check() -> bool:
        free = [j for j in range(k) if not done[j]]
        if _hall_holds([domains[j] for j in free],
                       [parent_labels[j] for j in free], m):
            return True
        hall_refuted[0] += 1
        return False

    def undo():
        for j, w in trail.pop():
            domains[j].add(w)

    def push_level(i):
        untried.append(set(domains[i]))
        chosen.append(i)
        refuted.append([])

    def draw(values):
        # r as random.Random._randbelow draws it, then the r-th lowest
        # value; a single value draws nothing
        ordered = sorted(values)
        r = rng._randbelow(len(ordered)) if len(ordered) > 1 else 0
        values.discard(ordered[r])
        return ordered[r]

    def refute(i, value):
        # leaf i cannot take value at this level, so no free sibling can
        for j in siblings[i]:
            if done[j] or value not in domains[j]:
                continue
            domains[j].discard(value)
            refuted[-1].append((j, value))
            if not domains[j]:
                untried[-1].clear()

    push_level(pick_variable())
    while True:
        i = chosen[-1]
        if not untried[-1]:
            untried.pop()
            chosen.pop()
            for j, w in refuted.pop():
                domains[j].add(w)
            if not untried:
                return None
            if backtracks >= budget:
                return None
            backtracks += 1
            i = chosen[-1]
            value = assigned.pop(csp.leaves[i])
            done[i] = False
            undo()
            refute(i, value)
            continue
        value = draw(untried[-1])
        assigned[csp.leaves[i]] = value
        done[i] = True
        trail.append([])
        if len(assigned) == k:
            return dict(assigned)
        if forward_check(i, value) and (not backtracks or hall_check()):
            push_level(pick_variable())
        else:
            del assigned[csp.leaves[i]]
            done[i] = False
            undo()
            refute(i, value)


def test_bitmask_solver_matches_set_reference():
    # Stage-1 partials of random trees, plus arbitrary injective partials
    # of the same internal nodes, which often leave an empty domain.
    rng = random.Random(2024)
    seen = {"empty": 0, "hall": 0, "hall_below_root": 0, "solved": 0,
            "failed": 0}
    for _ in range(1000):
        n = rng.randrange(4, 13)
        tree = random_tree(n, rng)
        internal = sorted(internal_nodes(tree))
        partials = [stage1_internal(tree, CFG, rng.getrandbits(32)),
                    dict(zip(internal, rng.sample(range(n), len(internal))))]
        for partial in partials:
            if partial is None:
                continue
            csp = search_reference.build_leaf_csp(tree, partial)
            empty = not all(csp.domain_masks)
            seen["empty"] += empty
            seen["hall"] += not (empty or _hall_holds(
                _domains(csp), csp.parent_labels, n - 1))
            for budget in (0, 1, 150):
                seed = rng.getrandbits(32)
                ref_pruned, new_pruned = [], []
                hall_refuted = [0]
                want = _reference_solve_leaf_csp(
                    csp, random.Random(seed), budget,
                    lambda *removal: ref_pruned.append(removal), hall_refuted)
                got = solve_leaf_csp(
                    build_leaf_csp(tree, partial), seed, budget,
                    lambda *removal: new_pruned.append(removal))
                assert got == want, (tree.levels, partial, budget)
                # the bitmask pass stops at a wipeout, so it reports a
                # subsequence of the reference's removals
                rest = iter(ref_pruned)
                assert all(removal in rest for removal in new_pruned)
                seen["hall_below_root"] += hall_refuted[0]
                seen["solved" if got is not None else "failed"] += 1
    assert min(seen.values()) > 100, seen


# ------------------------------------------------------------------ #
# Stage-2 completeness (forward-checking soundness: criterion 7)     #
# ------------------------------------------------------------------ #

def test_stage2_complete_on_every_small_tree():
    # the Hall checks and sibling refutation cut no extension away:
    # every tree n=4..8 (stars and other sibling-heavy trees included),
    # three stage-1 partials each
    rng = random.Random(0x5EB)
    extendable = 0
    for n in range(4, 9):
        for seq in free_trees(n):
            tree = Tree.from_level_sequence(seq)
            for attempt in range(3):
                partial = stage1_internal(tree, CFG, rng.getrandbits(32))
                extensions = harmonious_completions(tree, partial)
                got = solve_leaf_csp(build_leaf_csp(tree, partial),
                                     attempt, budget=10 ** 9)
                assert (got is not None) == bool(extensions), (seq, partial)
                if got is not None:
                    full = dict(partial)
                    full.update(got)
                    assert tuple(full[i] for i in range(n)) in extensions
                    extendable += 1
    assert extendable > 10


def test_matchable_agrees_with_brute_force_hall():
    rng = random.Random(31)
    verdicts = set()
    for _ in range(3000):
        k = rng.randrange(1, 8)
        width = rng.randrange(1, 9)
        masks = [rng.getrandbits(width) & rng.getrandbits(width)
                 for _ in range(k)]
        # with parent labels 0 and m = width, each leaf's edge sums are
        # its values, so only the plain Hall condition on the masks counts
        hall = _hall_holds([{w for w in range(width) if mask >> w & 1}
                            for mask in masks], [0] * k, width)
        assert search_reference._matchable(masks) == hall, masks
        verdicts.add(hall)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n", [12, 13, 14, 15])
def test_twostage_certifies_stars(n):
    # all leaves of a star are siblings; a search that orders sibling
    # values would fail here where refutation does not
    star = Tree.from_level_sequence((0,) + (1,) * (n - 1))
    for seed in range(5):
        out = solve_twostage(star, SolverConfig(twostage_runs=100), seed)
        assert out.success, (n, seed)
        assert is_harmonious(star, out.labels)


# ------------------------------------------------------------------ #
# Full solver                                                         #
# ------------------------------------------------------------------ #

TWOSTAGE_RUNS = (0, 1, 10000)
STAGE_BUDGETS = (0, 1, 150, 2000)


def _setting(i) -> SolverConfig:
    """The i-th of the 48 settings of twostage_runs, stage1_budget and
    stage2_budget, in turn."""
    return SolverConfig(twostage_runs=TWOSTAGE_RUNS[i % 3],
                        stage1_budget=STAGE_BUDGETS[i // 3 % 4],
                        stage2_budget=STAGE_BUDGETS[i // 12 % 4])


# Seeds at the edges of the kernel's seeding: a key of one 32-bit word
# (below 2**32) or of two, up to the largest seed it takes.
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)


def _both_loops(tree, cfg, seed):
    """solve_twostage (one kernel call, on the kernel's own generator) and
    the reference loop, which calls no kernel, drawing from
    random.Random(seed): each one's success, labels, solver and stats
    items in order, and the reference's draw count."""
    rng = search_reference.CountingRandom(seed)
    out = [solve_twostage(tree, cfg, seed), search_reference.solve_twostage(tree, cfg, rng)]
    return [(o.success, o.labels, o.solver, list(o.stats.items())) for o in out], rng.draws


def test_solve_twostage_matches_the_reference_loop():
    # every tree on 1..12 nodes at the default config and at the next of
    # the 48 settings (each meets about 20 trees), then 300 random trees
    # on 3..64 nodes at the settings in turn, every other one rooted at a
    # random leaf, which no canonical sequence on 3 or more nodes is.
    # Every other call takes the next of EDGE_SEEDS, the rest a random
    # seed below 2**64.
    rng = random.Random(0x2572)
    seen = set()
    calls = 0
    most_draws = 0

    def compare(tree, cfg):
        nonlocal calls, most_draws
        seed = EDGE_SEEDS[calls // 2 % len(EDGE_SEEDS)] if calls % 2 else rng.getrandbits(64)
        calls += 1
        (got, want), draws = _both_loops(tree, cfg, seed)
        assert got == want, (tree.levels, cfg, seed)
        most_draws = max(most_draws, draws)
        stats = want[3]
        seen.add((want[0], stats[1][1] > 0, stats[2][1] > 0))

    i = 0
    for n in range(1, 13):
        for seq in free_trees(n):
            tree = Tree.from_level_sequence(seq)
            compare(tree, CFG)
            compare(tree, _setting(i))
            i += 1
    rooted_at_leaf = 0
    for i in range(300):
        n = rng.randrange(3, 65)
        tree = random_tree(n, rng)
        if i % 2:
            leaves = [v for v in range(n) if len(tree.adjacency[v]) == 1]
            tree = Tree.from_level_sequence(
                rooted_level_sequence(tree.adjacency, rng.choice(leaves)))
            rooted_at_leaf += len(tree.adjacency[0]) == 1
        compare(tree, _setting(i))
    assert rooted_at_leaf == 150
    # successes and failures, after failed stage-1 rounds, failed stage-2
    # rounds, both (successes only) or neither
    assert seen >= set(product((True, False), repeat=3)) - {(False, True, True)}, seen
    # some solve ran the generator through its 624-word state twice
    assert most_draws > 2 * 624, most_draws


def test_solve_star_and_p4():
    out = solve_twostage(STAR4, CFG, 0)
    assert out.success and is_harmonious(STAR4, out.labels)
    assert out.stats["runs"] <= 5
    out = solve_twostage(P4, CFG, 0)
    assert out.success and is_harmonious(P4, out.labels)


def test_zero_runs_immediate_failure():
    out = solve_twostage(P4, SolverConfig(twostage_runs=0), 0)
    assert not out.success and out.stats["runs"] == 0


def test_trivial_sizes():
    one = Tree.from_level_sequence((0,))
    assert solve_twostage(one, CFG, 0).labels == (0,)
    assert solve_twostage(N2, CFG, 0).labels == (0, 0)
    assert not solve_twostage(N2, SolverConfig(twostage_runs=0), 0).success


def test_deterministic_under_seed():
    a = solve_twostage(P4, CFG, 4)
    b = solve_twostage(P4, CFG, 4)
    assert (a.success, a.labels, a.stats) == (b.success, b.labels, b.stats)


def test_output_is_normalized_and_verified():
    # every tree with n <= 10, and the first few with n = 11
    rng = random.Random(8)
    small = [seq for n in range(1, 11) for seq in free_trees(n)]
    for seq in small + list(free_trees(11))[:4]:
        tree = Tree.from_level_sequence(seq)
        out = solve_twostage(tree, CFG, rng.getrandbits(64))
        assert out.success
        assert is_harmonious(tree, out.labels)
        # already the normal form that make_certificate writes
        assert normalize_labelling(tree, out.labels) == out.labels
        assert tree.n == 1 or sorted(out.labels).count(0) == 2
