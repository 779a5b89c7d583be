"""Bounded randomized labelling DFS, and the backtracking solver built on it.

:func:`label_dfs` is the search engine shared by this solver and by stage
1 of the two-stage solver.  It labels a fixed sequence of nodes in turn,
each node's parent (when it has one in the search) being labelled before
it, so every assignment fixes at most one edge label.  A value is valid
for the current node when no node of the sequence holds it yet and the
edge sum with the parent is new; always assigning valid values therefore
keeps the labels injective and the fixed edge labels pairwise distinct.
Stage 1 also passes weights: the last node may then only take values
that make the weighted sum of the labels 0 mod n-1.
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


def _open_values(open_sums: int, pl: int, m: int) -> int:
    """The values w in 0..m whose edge sum with parent label pl is a bit
    of *open_sums*.  Value w < m has sum (w + pl) % m and value m has
    sum pl % m, so this is *open_sums* rotated right by pl % m within m
    bits, plus bit m when bit pl % m is open."""
    r = pl % m
    allowed = ((open_sums >> r) | (open_sums << (m - r))) & ((1 << m) - 1)
    if open_sums >> r & 1:
        allowed |= 1 << m
    return allowed


def _shuffled_values(dom: int, getrandbits) -> list[int]:
    """The values of bitmask *dom* in ascending order, shuffled with the
    draws of ``random.Random.shuffle``: for i from len-1 down to 1,
    ``getrandbits(k)`` with k the bit length of i+1, repeated until the
    draw is at most i."""
    values = []
    while dom:
        low = dom & -dom
        values.append(low.bit_length() - 1)
        dom ^= low
    for i in range(len(values) - 1, 0, -1):
        bound = i + 1
        k = bound.bit_length()
        j = getrandbits(k)
        while j >= bound:
            j = getrandbits(k)
        values[i], values[j] = values[j], values[i]
    return values


def label_dfs(order, parents, labels, n_values: int, budget: int, rng,
              perturb_rate: float = 0.0, weights=None) -> tuple[bool, int]:
    """Label ``order[k]`` for k = 0, 1, ... with values from
    ``range(n_values)`` that no node of *order* holds yet.  When
    ``parents[k] >= 0`` it names an already-labelled node, and the edge
    sum with it mod ``m = len(labels) - 1`` must be new as well.  With
    *weights*, the labelling must also satisfy
    ``sum(weights[k] * labels[order[k]]) % m == 0``; the running sum is
    kept on every assign and unassign, and the rule strikes the
    candidates of the last position only.

    Labels are written into *labels* in place; labels of nodes outside
    *order* are read but never reserved.  Each depth's candidates are
    listed in ascending order, shuffled once with the draws of
    ``rng.shuffle`` (:func:`_shuffled_values`) and popped from the end.
    Returns (success, backtracks); the search fails once *budget*
    backtracks are spent or every candidate is exhausted, leaving the
    labels of *order* unspecified.
    """
    size = len(order)
    if size == 0:
        return True, 0
    m = len(labels) - 1
    low = (1 << m) - 1
    full = (1 << n_values) - 1
    getrandbits = rng.getrandbits
    used_values = used_sums = 0   # bit masks of the values and sums held
    stacks: list = [None] * size
    backtracks = 0
    last = size - 1
    total = 0   # sum of weights[k] * value over the labelled positions
    solve = None
    if weights is not None:
        # solve[t]: the values w with weights[last] * w = t (mod m)
        solve = [0] * m
        w_last = weights[last]
        for w in range(n_values):
            solve[w_last * w % m] |= 1 << w

    def candidates(k):
        free = full & ~used_values
        p = parents[k]
        if p >= 0:
            free &= _open_values(low & ~used_sums, labels[p], m)
        if k == last and solve is not None:
            free &= solve[-total % m]
        return _shuffled_values(free, getrandbits)

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
            used_values ^= 1 << value
            p = parents[k]
            if p >= 0:
                used_sums ^= 1 << (value + labels[p]) % m
            if solve is not None:
                total -= weights[k] * value
            continue
        value = stack.pop()
        labels[order[k]] = value
        used_values |= 1 << value
        p = parents[k]
        if p >= 0:
            used_sums |= 1 << (value + labels[p]) % m
        if solve is not None:
            total += weights[k] * value
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
