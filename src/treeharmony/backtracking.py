"""The backtracking solver: a bounded randomized labelling DFS over every
non-root node, with random restarts.

Each run labels the root uniformly at random and never revisits it:
shifting all labels by a constant preserves harmoniousness, so
alternatives at the root add nothing.  It then labels nodes 1..n-1 in
level-sequence order, so each node's parent is labelled before it.  A
value is valid for the current node when no non-root node holds it yet
and the edge sum with the parent is new, so the labels stay injective
off the root and the edge sums pairwise distinct, and on completion the
labelling is harmonious.  Each candidate is drawn at random from the
untried ones when it is tried.

Two randomized escapes from bad regions, both bounded:

* a limit on backtrack events per run (the expensive phenomenon),
* random restarts (fresh root label and candidate draws).

The duplicated label of every returned labelling sits on the root: the
root's value is the one value non-root nodes may still take.

The solver runs in the compiled kernel (:mod:`treeharmony.native`),
which limits trees to 64 nodes.  It takes an int seed and draws what
``random.Random(seed)`` would draw, from the kernel's own generator;
``tests/search_reference.py`` holds the search in Python.
"""

from .config import SolveOutcome, SolverConfig
from .native import kernel
from .trees import Tree


def solve_backtracking(tree: Tree, cfg: SolverConfig, seed: int) -> SolveOutcome:
    """Backtracking with up to cfg.backtrack_restarts runs, drawing what
    ``random.Random(seed)`` would.  Each run draws the root label as
    ``randrange(n - 1)`` does (at n = 2, where it can only be 0, it draws
    nothing), then labels nodes 1..n-1 with values 0..n-2 within
    cfg.backtrack_limit backtracks; exhausting node 1's candidates ends
    the run, since other root labels are shifts of this one.  Failure (a
    value, not an error) comes after every run fails.  Trees of two or more
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
