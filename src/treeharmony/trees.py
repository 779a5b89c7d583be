"""Rooted free trees represented as preorder level sequences.

A tree on n nodes is stored as the depth of each node in preorder, root
first.  Node i's parent is the nearest j < i with depth(j) = depth(i) - 1,
so the sequence alone determines the tree and every node is linked to some
node before it.

The canonical form used throughout the package reroots a tree at a center
(the midpoint of any longest path; found by stripping leaves until at most
two nodes remain).  At every node the child subtree sequences are ordered
lexicographically non-increasing, and for bicentral trees both centers are
tried and the lexicographically greater full sequence wins.  Two trees get
equal canonical sequences exactly when they are isomorphic as free trees.

Interchange format: one tree per line, comma-separated decimal depths,
root first, e.g. ``0,1,2,1`` for the 4-node path rooted at a center.
"""


class LevelSequenceError(ValueError):
    """A structurally invalid level sequence; ``index`` names the offender."""

    def __init__(self, message: str, index: int):
        super().__init__(f"{message} (index {index})")
        self.index = index


def validate_level_sequence(seq) -> None:
    """Raise LevelSequenceError unless *seq* is a structurally valid
    level sequence: first entry 0, later entries >= 1 and at most the
    previous entry + 1.  Canonicality is not required."""
    if len(seq) == 0:
        raise LevelSequenceError("empty level sequence", 0)
    if seq[0] != 0:
        raise LevelSequenceError("first depth must be 0", 0)
    prev = 0
    for i in range(1, len(seq)):
        d = seq[i]
        if d < 1:
            raise LevelSequenceError("depth must be at least 1 after the root", i)
        if d > prev + 1:
            raise LevelSequenceError("depth jump greater than 1", i)
        prev = d


def parse_level_sequence(text: str) -> tuple[int, ...]:
    """Parse the ``0,1,2,1`` line format into a validated depth tuple."""
    parts = [p.strip() for p in text.strip().split(",")]
    seq = []
    for i, p in enumerate(parts):
        try:
            seq.append(int(p))
        except ValueError:
            raise LevelSequenceError(f"not an integer: {p!r}", i) from None
    validate_level_sequence(seq)
    return tuple(seq)


def format_level_sequence(seq) -> str:
    return ",".join(str(d) for d in seq)


class Tree:
    """Immutable rooted tree built from a level sequence.

    Attributes:
        n: node count.
        levels: depth per node, ``levels[0] == 0``.
        parents: preorder parent index per node, ``-1`` for the root.
        adjacency: tuple of neighbor tuples, derived from ``parents`` on
            first read and kept; the two-stage solver, the certificate
            check and the sweep read ``parents`` alone.
    """

    __slots__ = ("n", "levels", "parents", "_adjacency")

    def __init__(self, levels, parents):
        self.n = len(levels)
        self.levels = levels
        self.parents = parents
        self._adjacency = None

    @classmethod
    def from_level_sequence(cls, seq) -> "Tree":
        """Build a Tree; parent of node i is the nearest j < i one level up."""
        validate_level_sequence(seq)
        n = len(seq)
        levels = tuple(seq)
        parents = [-1] * n
        last_at = [0] * (n + 1)  # most recent node index seen at each depth
        for i in range(1, n):
            d = levels[i]
            parents[i] = last_at[d - 1]
            last_at[d] = i
        return cls(levels, tuple(parents))

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        if self._adjacency is None:
            parents = self.parents
            adj = [[] for _ in range(self.n)]
            for i in range(1, self.n):
                adj[parents[i]].append(i)
                adj[i].append(parents[i])
            self._adjacency = tuple(map(tuple, adj))
        return self._adjacency

    def __repr__(self):
        return f"Tree({format_level_sequence(self.levels)})"


def edges(tree: Tree) -> list[tuple[int, int]]:
    """The n-1 edges as (min, max) pairs, in order of the child node."""
    return [(tree.parents[i], i) for i in range(1, tree.n)]


def _centers_adj(adjacency) -> list[int]:
    """Centers of a tree given by adjacency lists, by iterative leaf
    stripping until at most two nodes remain."""
    n = len(adjacency)
    if n == 1:
        return [0]
    deg = [len(a) for a in adjacency]
    layer = [v for v in range(n) if deg[v] == 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            for w in adjacency[v]:
                deg[w] -= 1
                if deg[w] == 1:
                    nxt.append(w)
        layer = nxt
    return sorted(layer)


def centers(tree: Tree) -> list[int]:
    """The 1 (central) or 2 (bicentral) middle nodes of the tree."""
    return _centers_adj(tree.adjacency)


def rooted_level_sequence(adjacency, root: int) -> tuple[int, ...]:
    """Canonical level sequence of the tree rooted at *root*: at every
    node the child subtree sequences appear in lexicographically
    non-increasing order.  Iterative (children processed before parents),
    so arbitrarily deep trees are fine.

    Each subtree's sequence is built in absolute depths, so a parent
    concatenates its children's lists as they are: children share a
    depth, so they sort as their sequences from their own roots would."""
    n = len(adjacency)
    parent = [-2] * n
    parent[root] = -1
    depth = [0] * n
    order = [root]
    for v in order:
        below = depth[v] + 1
        for w in adjacency[v]:
            if parent[w] == -2:
                parent[w] = v
                depth[w] = below
                order.append(w)
    kids: list[list] = [[] for _ in range(n)]   # each node's child sequences
    for v in reversed(order):
        seq = [depth[v]]
        own = kids[v]
        if own:
            own.sort(reverse=True)
            for kid in own:
                seq += kid
        if v == root:
            return tuple(seq)
        kids[parent[v]].append(seq)


def _canonical_adj(adjacency) -> tuple[int, ...]:
    return max(rooted_level_sequence(adjacency, c) for c in _centers_adj(adjacency))


def canonicalize(tree: Tree) -> tuple[int, ...]:
    """Canonical level sequence of the underlying free tree.

    Reroots at the canonical center; for bicentral trees both centers are
    tried and the lexicographically greater sequence wins.  Idempotent,
    and equal outputs characterize free-tree isomorphism.
    """
    return _canonical_adj(tree.adjacency)


def canonical_from_edges(n: int, edge_list) -> tuple[int, ...]:
    """Canonical level sequence of the free tree on nodes 0..n-1 with the
    given edges (any labelling)."""
    if n == 1:
        return (0,)
    adj = [[] for _ in range(n)]
    for u, v in edge_list:
        adj[u].append(v)
        adj[v].append(u)
    return _canonical_adj(adj)


def leaves(tree: Tree) -> frozenset[int]:
    """Degree-1 nodes; for n=1 the lone node counts as a leaf."""
    if tree.n == 1:
        return frozenset({0})
    return frozenset(v for v in range(tree.n) if len(tree.adjacency[v]) == 1)


def internal_nodes(tree: Tree) -> frozenset[int]:
    return frozenset(range(tree.n)) - leaves(tree)


def is_caterpillar(tree: Tree) -> bool:
    """True iff removing all leaves yields a (possibly empty) path.

    The non-leaf nodes of a tree always induce a subtree, so it suffices
    that every non-leaf node has at most two non-leaf neighbors.
    """
    adj = tree.adjacency
    spine = [v for v in range(tree.n) if len(adj[v]) >= 2]
    for v in spine:
        if sum(1 for w in adj[v] if len(adj[w]) >= 2) > 2:
            return False
    return True
