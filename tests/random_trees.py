"""Random free trees for the tests: a uniformly random Prüfer code,
decoded and put in canonical form.

The draws are part of every test that uses this helper: a test seeds its
own ``random.Random`` and sees the same trees only while the helper
draws exactly n - 2 values below n per tree, in that order.
"""

from treeharmony.generate import prufer_decode
from treeharmony.trees import Tree, canonical_from_edges


def random_tree(n: int, rng) -> Tree:
    """A random free tree on *n* nodes, as a canonical ``Tree``; n <= 2
    has one tree and draws nothing."""
    if n <= 2:
        return Tree.from_level_sequence(tuple(range(n)))
    code = [rng.randrange(n) for _ in range(n - 2)]
    return Tree.from_level_sequence(canonical_from_edges(n, prufer_decode(n, code)))
