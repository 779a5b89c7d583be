"""Bounded randomized labelling DFS, and the backtracking solver built on it.

:func:`label_dfs` is the search engine shared by this solver and by stage
1 of the two-stage solver.  It labels a fixed sequence of nodes in turn,
each node's parent (when it has one in the search) being labelled before
it, so every assignment fixes at most one edge label.  A value is valid
for the current node when no node of the sequence holds it yet and the
edge sum with the parent is new; always assigning valid values therefore
keeps the labels injective and the fixed edge labels pairwise distinct.
Stage 1 also passes weights: the last node may then only take values
that make the weighted sum of the labels 0 mod n-1, and the second-last
node only values that leave the last node such a value.
Each candidate is drawn at random from the untried ones when it is
tried, and the search stops once its backtrack budget is spent.

The backtracking solver labels every non-root node in level-sequence
order, which guarantees each node's parent is already labelled, so on
completion the labelling is harmonious.  The root is labelled uniformly
at random and never revisited: shifting all labels by a constant
preserves harmoniousness, so alternatives at the root add nothing.

Two randomized escapes from bad regions, both bounded:

* a limit on backtrack events per run (the expensive phenomenon),
* random restarts (fresh root label and candidate draws).

The duplicated label of every returned labelling sits on the root: the
root's value is the one value non-root nodes may still take.
"""

from .config import SolveOutcome, SolverConfig
from .labelling import is_harmonious
from .trees import Tree


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


def _pick(mask: int, getrandbits) -> int:
    """One value of the non-empty bitmask *mask*, drawn on demand: with
    c >= 2 set bits, r is drawn as ``random.Random._randbelow(c)`` draws
    it (``getrandbits(k)`` with k the bit length of c, repeated until it
    is below c) and the r-th lowest set bit is taken; a single set bit
    draws nothing."""
    c = mask.bit_count()
    if c == 1:
        return mask.bit_length() - 1
    k = c.bit_length()
    r = getrandbits(k)
    while r >= c:
        r = getrandbits(k)
    for _ in range(r):
        mask &= mask - 1
    return (mask & -mask).bit_length() - 1


def label_dfs(order, parents, labels, n_values: int, budget: int, rng,
              weights=None) -> tuple[bool, int]:
    """Label ``order[k]`` for k = 0, 1, ... with values from
    ``range(n_values)`` that no node of *order* holds yet.  When
    ``parents[k] >= 0`` it names an already-labelled node, and the edge
    sum with it mod ``m = len(labels) - 1`` must be new as well.  With
    *weights*, the labelling must also satisfy
    ``sum(weights[k] * labels[order[k]]) % m == 0``; the running sum is
    kept on every assign and unassign.  The rule strikes the candidates
    of the last position, and looks one position ahead: the second-last
    position keeps only the values x for which some candidate y of the
    last position (an unused value, with an open edge sum when the last
    node's parent is labelled and is not the second-last node) closes
    the sum, ``weights[-2] * x + weights[-1] * y + rest = 0 (mod m)``.

    Labels are written into *labels* in place; labels of nodes outside
    *order* are read but never reserved.  Each depth keeps its untried
    candidates as a bitmask and draws one with :func:`_pick` whenever it
    tries the next.  Returns (success, backtracks); the search fails
    once *budget* backtracks are spent or every candidate is exhausted,
    leaving the labels of *order* unspecified.
    """
    size = len(order)
    if size == 0:
        return True, 0
    m = len(labels) - 1
    low = (1 << m) - 1
    full = (1 << n_values) - 1
    getrandbits = rng.getrandbits
    pick = _pick
    used_values = used_sums = 0   # bit masks of the values and sums held
    untried = [0] * size          # bit mask of each depth's untried values
    backtracks = 0
    last = size - 1
    total = 0   # sum of weights[k] * value over the labelled positions
    solve = pre = None
    p_last = -1
    if weights is not None:
        # solve[t]: the values w with weights[last] * w = t (mod m)
        solve = [0] * m
        w_last = weights[last]
        for w in range(n_values):
            solve[w_last * w % m] |= 1 << w
        if size >= 2:
            # pre[q]: the values x with weights[last - 1] * x = q (mod m)
            pre = [0] * m
            w_pre = weights[last - 1]
            for x in range(n_values):
                pre[w_pre * x % m] |= 1 << x
            # the last node's parent, when its label is known before the
            # second-last position is chosen
            p_last = parents[last]
            if p_last == order[last - 1]:
                p_last = -1

    def candidates(k):
        free = full & ~used_values
        p = parents[k]
        if p >= 0:
            free &= _open_values(low & ~used_sums, labels[p], m)
        if solve is not None:
            if k == last:
                free &= solve[-total % m]
            elif k == last - 1:
                # the values x that some candidate y of the last position
                # can close: pre[(-total - w_last * y) % m] over those y
                ys = full & ~used_values
                if p_last >= 0:
                    ys &= _open_values(low & ~used_sums, labels[p_last], m)
                reach = 0
                while ys:
                    y = ys & -ys
                    reach |= pre[(-total - w_last * (y.bit_length() - 1)) % m]
                    ys ^= y
                free &= reach
        return free

    k = 0
    untried[0] = candidates(0)
    while True:
        mask = untried[k]
        if not mask:
            if backtracks >= budget:
                return False, backtracks
            backtracks += 1
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
        value = pick(mask, getrandbits)
        untried[k] = mask ^ (1 << value)
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
        untried[k] = candidates(k)


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
                               cfg.backtrack_limit, rng)
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
