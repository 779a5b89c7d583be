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

Both functions run in the compiled kernel (:mod:`treeharmony.native`),
which limits trees to 64 nodes.  Each takes an int seed and draws what
``random.Random(seed)`` would draw, from the kernel's own generator.
"""

from .config import SolveOutcome, SolverConfig
from .native import kernel
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


def label_dfs(order, parents, labels, n_values: int, budget: int, seed: int,
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

    Labels are written into *labels* (a list) in place; labels of nodes
    outside *order* are read but never reserved.  Each depth keeps its
    untried candidates as a bitmask and draws one whenever it tries the
    next: with c >= 2 untried values it draws r as
    ``random.Random(seed)._randbelow(c)`` would (``getrandbits(k)`` with
    k the bit length of c, repeated until it is below c) and takes the
    r-th lowest; a last untried value draws nothing.  Returns (success,
    backtracks); the search fails once *budget* backtracks (an int) are
    spent or every candidate is exhausted, leaving the labels of *order*
    unspecified.

    *labels* has at most 64 entries; more raise ValueError, and a seed
    outside ``0 <= seed < 2**64`` raises ValueError too.
    """
    return kernel().label_dfs(order, parents, labels, n_values, budget, seed, weights)


def solve_backtracking(tree: Tree, cfg: SolverConfig, seed: int) -> SolveOutcome:
    """Backtracking with up to cfg.backtrack_restarts runs, drawing what
    ``random.Random(seed)`` would.  Each run draws the root label as
    ``randrange(n - 1)`` does (at n = 2, where it can only be 0, it draws
    nothing), then runs :func:`label_dfs` over nodes 1..n-1 under
    cfg.backtrack_limit; exhausting node 1's candidates ends the run,
    since other root labels are shifts of this one.  Failure (a value,
    not an error) comes after every run fails.  Trees of two or more
    nodes run as one kernel call, which raises ValueError for more than
    64 nodes."""
    if tree.n == 1:
        restarts = min(cfg.backtrack_restarts, 1)
        return SolveOutcome(restarts == 1, (0,) if restarts else None, "backtrack",
                            {"backtracks": 0, "restarts_used": restarts})
    labels, backtracks, restarts = kernel().solve_backtracking(
        tree.parents, cfg.backtrack_restarts, cfg.backtrack_limit, seed)
    return SolveOutcome(labels is not None, labels, "backtrack",
                        {"backtracks": backtracks, "restarts_used": restarts})
