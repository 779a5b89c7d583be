"""Tabu search over onto labellings, minimizing the Eval objective.

Starts from a random onto labelling (which value is duplicated does not
matter: adding a constant to every label preserves harmoniousness).  Each
iteration samples several non-forbidden node pairs, applies the best
strictly Eval-lowering label swap among them if one exists, and forbids
that pair for the next `tenure` iterations.  Swapping labels preserves
the label multiset, so surjectivity survives every move.  Success is
declared the moment Eval reaches 0; the iteration limit turns failure
into a value rather than a hang; a state with no improving swap at all
is stuck for good, so the search ends there with the limit's outcome.

Eval is maintained incrementally through a per-sum multiplicity table:
a swap touches only edges incident to the two nodes, so its Eval delta
is exact and O(deg).
"""

from .config import SolveOutcome, SolverConfig
from .labelling import random_onto_labelling
from .trees import Tree


class TabuState:
    """Current labelling with cached Eval, per-sum multiplicities, and
    the tabu map from unordered node pairs to expiry iteration."""

    __slots__ = ("n", "m", "labels", "neighbors", "sum_multiplicity",
                 "distinct", "tabu", "iter")

    def __init__(self, tree: Tree, labels):
        self.n = tree.n
        self.m = max(tree.n - 1, 1)
        self.labels = list(labels)
        self.neighbors = tree.adjacency
        self.sum_multiplicity = [0] * self.m
        for i in range(1, tree.n):
            s = (self.labels[i] + self.labels[tree.parents[i]]) % self.m
            self.sum_multiplicity[s] += 1
        self.distinct = sum(1 for c in self.sum_multiplicity if c > 0)
        self.tabu: dict[tuple[int, int], int] = {}
        self.iter = 0

    @property
    def eval(self) -> int:
        return (self.n - 1) - self.distinct

    def is_tabu(self, u: int, v: int) -> bool:
        pair = (u, v) if u < v else (v, u)
        return self.tabu.get(pair, -1) > self.iter

    def mark_tabu(self, u: int, v: int, tenure: int) -> None:
        pair = (u, v) if u < v else (v, u)
        self.tabu[pair] = self.iter + tenure

    def _sum_changes(self, u: int, v: int):
        lu, lv = self.labels[u], self.labels[v]
        m = self.m
        out = []
        for w in self.neighbors[u]:
            if w == v:
                continue  # the u-v edge sum is unchanged by the swap
            lw = self.labels[w]
            out.append(((lu + lw) % m, (lv + lw) % m))
        for w in self.neighbors[v]:
            if w == u:
                continue
            lw = self.labels[w]
            out.append(((lv + lw) % m, (lu + lw) % m))
        return out

    def delta_eval(self, u: int, v: int) -> int:
        """Eval after swapping labels of u and v, minus Eval now; touches
        only edges incident to u and v."""
        if self.labels[u] == self.labels[v]:
            return 0
        mult = self.sum_multiplicity
        touched: dict[int, int] = {}
        for old, new in self._sum_changes(u, v):
            touched[old] = touched.get(old, 0) - 1
            touched[new] = touched.get(new, 0) + 1
        distinct_delta = 0
        for s, d in touched.items():
            before = mult[s]
            after = before + d
            distinct_delta += (after > 0) - (before > 0)
        return -distinct_delta

    def apply_swap(self, u: int, v: int) -> None:
        mult = self.sum_multiplicity
        for old, new in self._sum_changes(u, v):
            mult[old] -= 1
            if mult[old] == 0:
                self.distinct -= 1
            if mult[new] == 0:
                self.distinct += 1
            mult[new] += 1
        self.labels[u], self.labels[v] = self.labels[v], self.labels[u]


def _sample_pairs(state: TabuState, cfg: SolverConfig, rng):
    n = state.n
    pairs = []
    attempts = 0
    limit = 4 * cfg.tabu_sample_pairs + 8
    while len(pairs) < cfg.tabu_sample_pairs and attempts < limit:
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or state.is_tabu(u, v):
            continue
        pairs.append((u, v))
    return pairs


def _any_improving_swap(state: TabuState) -> bool:
    for u in range(state.n):
        for v in range(u + 1, state.n):
            if state.delta_eval(u, v) < 0:
                return True
    return False


def solve_tabu(tree: Tree, cfg: SolverConfig, rng) -> SolveOutcome:
    """Tabu search; failure is a value once the iteration limit passes.

    The harmonious check sits inside the loop, so a zero iteration limit
    fails even when the random start is already harmonious; with any
    budget at all, an already-harmonious start succeeds at iteration 0
    with 0 swaps.

    Only strictly improving swaps are ever accepted, so once no swap at
    all improves Eval the state can never change again.  The first
    iteration that accepts no swap after a start or a swap scans the
    state once (drawing nothing); if no swap improves, the remaining
    iterations are skipped and ``stalled`` is set.  The outcome is
    exactly what running them out would produce.  Eval starts at n-2 or
    less and each swap lowers it, so a solve makes at most n-2 swaps,
    and a failure's ``best_eval`` is its final Eval.
    """
    n = tree.n
    state = TabuState(tree, random_onto_labelling(n, rng))
    max_iters = cfg.tabu_iteration_limit(n)
    swaps = 0
    scanned = False
    while state.iter < max_iters:
        best_pair = None
        best_delta = 0
        for u, v in _sample_pairs(state, cfg, rng):
            d = state.delta_eval(u, v)
            if d < best_delta:
                best_delta = d
                best_pair = (u, v)
        if best_pair is not None:
            state.apply_swap(*best_pair)
            state.mark_tabu(*best_pair, cfg.tabu_tenure)
            swaps += 1
            scanned = False
        if state.eval == 0:
            return SolveOutcome(True, tuple(state.labels), "tabu", {
                "iterations": state.iter,
                "swaps": swaps,
            })
        state.iter += 1
        if best_pair is None and not scanned:
            scanned = True
            if not _any_improving_swap(state):
                break  # permanently stuck: fast-forward to the limit
    return SolveOutcome(False, None, "tabu", {
        "iterations": max_iters,
        "swaps": swaps,
        "best_eval": state.eval,
        "final_eval": state.eval,
        "stalled": state.iter < max_iters,
    })
