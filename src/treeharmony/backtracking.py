"""Bounded randomized labelling DFS, and the backtracking solver built on it.

:func:`label_dfs` is the search engine shared by this solver and by stage
1 of the two-stage solver.  It labels a fixed sequence of nodes in turn,
each node's parent (when it has one in the search) being labelled before
it, so every assignment fixes at most one edge label.  A value is valid
for the current node when no node of the sequence holds it yet and the
edge sum with the parent is new; always assigning valid values therefore
keeps the labels injective and the fixed edge labels pairwise distinct.
Candidates are tried in a random order, and the search stops once its
backtrack budget is spent.

The backtracking solver labels every non-root node in level-sequence
order, which guarantees each node's parent is already labelled, so on
completion the labelling is harmonious.  The root is labelled uniformly
at random and never revisited: shifting all labels by a constant
preserves harmoniousness, so alternatives at the root add nothing.

Three randomized escapes from bad regions, all bounded:

* a limit on backtrack events per run (the expensive phenomenon),
* random restarts (fresh root label and candidate orders),
* stochastic perturbation: occasionally the remaining-candidate lists of
  two pending depths are each reshuffled by one random transposition.

The duplicated label of every returned labelling sits on the root: the
root's value is the one value non-root nodes may still take.
"""

from .config import SolveOutcome, SolverConfig
from .labelling import is_harmonious
from .trees import Tree


def _perturb(stacks, depth: int, rng) -> None:
    # Swap two random candidates within each of (up to) two random
    # pending depths.  Reordering within a depth is always sound: a
    # depth's candidates were validated against the assignment below it,
    # which has not changed.
    pending = [d for d in range(depth + 1) if len(stacks[d]) >= 2]
    if not pending:
        return
    count = min(2, len(pending))
    for d in rng.sample(pending, count):
        stack = stacks[d]
        i = rng.randrange(len(stack))
        j = rng.randrange(len(stack))
        stack[i], stack[j] = stack[j], stack[i]


def label_dfs(order, parents, labels, n_values: int, budget: int, rng,
              perturb_rate: float = 0.0) -> tuple[bool, int]:
    """Label ``order[k]`` for k = 0, 1, ... with values from
    ``range(n_values)`` that no node of *order* holds yet.  When
    ``parents[k] >= 0`` it names an already-labelled node, and the edge
    sum with it mod ``len(labels) - 1`` must be new as well.

    Labels are written into *labels* in place; labels of nodes outside
    *order* are read but never reserved.  Each depth's candidates are
    shuffled once and popped from the end.  Returns (success, backtracks);
    the search fails once *budget* backtracks are spent or every
    candidate is exhausted, leaving the labels of *order* unspecified.
    """
    size = len(order)
    if size == 0:
        return True, 0
    m = len(labels) - 1
    used_value = [False] * n_values
    used_sum = [False] * m
    stacks: list = [None] * size
    backtracks = 0

    def candidates(k):
        p = parents[k]
        if p < 0:
            out = [v for v in range(n_values) if not used_value[v]]
        else:
            pl = labels[p]
            out = [v for v in range(n_values)
                   if not used_value[v] and not used_sum[(v + pl) % m]]
        rng.shuffle(out)
        return out

    k = 0
    stacks[0] = candidates(0)
    while True:
        stack = stacks[k]
        if not stack:
            if backtracks >= budget:
                return False, backtracks
            backtracks += 1
            stacks[k] = None
            k -= 1
            if k < 0:
                return False, backtracks
            value = labels[order[k]]
            used_value[value] = False
            p = parents[k]
            if p >= 0:
                used_sum[(value + labels[p]) % m] = False
            continue
        value = stack.pop()
        labels[order[k]] = value
        used_value[value] = True
        p = parents[k]
        if p >= 0:
            used_sum[(value + labels[p]) % m] = True
        k += 1
        if k == size:
            return True, backtracks
        stacks[k] = candidates(k)
        if perturb_rate > 0 and rng.random() < perturb_rate:
            _perturb(stacks, k, rng)


def _run_once(tree: Tree, cfg: SolverConfig, rng) -> tuple[tuple[int, ...] | None, int]:
    """One bounded run; returns (labels or None, backtracks used)."""
    n = tree.n
    if n == 1:
        return (0,), 0
    labels = [-1] * n
    labels[0] = rng.randrange(n - 1)
    # Exhausting the candidates of node 1 ends the run: root alternatives
    # are shift-equivalent, so the run's search space is exhausted.
    ok, backtracks = label_dfs(range(1, n), tree.parents[1:], labels, n - 1,
                               cfg.backtrack_limit, rng, cfg.perturb_rate)
    return (tuple(labels) if ok else None), backtracks


def solve_backtracking(tree: Tree, cfg: SolverConfig, rng) -> SolveOutcome:
    """Backtracking with restarts; failure (a value, not an error) after
    every restart exhausts its backtrack limit."""
    total_backtracks = 0
    for restart in range(cfg.backtrack_restarts):
        labels, used = _run_once(tree, cfg, rng)
        total_backtracks += used
        if labels is not None:
            assert is_harmonious(tree, labels), "backtracking produced a bad labelling"
            return SolveOutcome(True, labels, "backtrack", {
                "backtracks": total_backtracks,
                "restarts_used": restart + 1,
            })
    return SolveOutcome(False, None, "backtrack", {
        "backtracks": total_backtracks,
        "restarts_used": cfg.backtrack_restarts,
    })
