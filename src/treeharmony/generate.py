"""Duplicate-free enumeration of free trees of a given node count.

The enumerator walks canonical rooted level sequences in decreasing
lexicographic order with the constant-time successor of Beyer-Hedetniemi
and emits exactly those sequences that are canonical for their free tree,
i.e. fixed points of :func:`treeharmony.trees.canonicalize`.  The walk
follows the free-tree method of Wright, Richmond, Odlyzko and McKay:

* It starts at the first free tree, whose canonical sequence is the
  greatest (see :class:`FreeTreeStream`), not at the rooted path.
* The root must be a center.  Writing the first (tallest) subtree's
  height as ``h1`` and the tallest remaining subtree's height as ``h2``,
  the root is a center iff ``h2 >= h1 - 1``.  When ``h2 < h1 - 1`` every
  sequence sharing the same first subtree fails too (smaller rests are
  never taller), so the whole prefix family is skipped in one successor
  jump.  If that jump leaves the root a single child, the candidate's
  tail is overwritten with the path 1, 2, ..., h1: the greatest rest deep
  enough for the root to be a center.
* When ``h2 == h1 - 1`` the tree is bicentral and node 1 is the other
  center; the sequence is emitted only if it is lexicographically >= the
  canonical sequence rooted at node 1, which is the old root's side
  (shifted one level down) followed by node 1's own subtrees (shifted one
  level up).  Failing candidates advance by a single successor step.

The walk judges about 1.6 rooted sequences per emitted tree (n = 13 to
18).  Two independent oracles validate the stream: exhaustive Pruefer
decoding for n <= 9 and the classic rooted-tree convolution count
(Otter's dissimilarity formula) for the free-tree totals.
"""

from functools import lru_cache
from itertools import islice, product

from .trees import canonical_from_edges

# Bump whenever emission order could change; recorded in sweep checkpoints
# so a resumed run never mixes two generator versions.
GENERATOR_VERSION = "succ1"


# ---------------------------------------------------------------------------
# Rooted-sequence successor
# ---------------------------------------------------------------------------

def _successor(seq, p=None):
    """Next canonical rooted level sequence in decreasing lexicographic
    order, or None when *seq* is the star (all depths 1).

    With explicit *p*, returns the greatest canonical sequence smaller
    than *seq* that differs at some position <= p, skipping everything
    that shares seq[0..p].
    """
    if p is None:
        p = len(seq) - 1
        while seq[p] == 1:
            p -= 1
    if p <= 0:
        return None
    q = p - 1
    target = seq[p] - 1
    while seq[q] != target:
        q -= 1
    out = list(seq)
    gap = p - q
    for i in range(p, len(out)):
        out[i] = out[i - gap]
    return out


_EMIT, _STEP, _SKIP = 1, 0, -1


def _verdict(seq):
    """Classify a canonical rooted sequence (n >= 2) for free-tree
    emission: (_EMIT, 0), (_STEP, 0), or (_SKIP, p) with p the last index
    of the first subtree."""
    n = len(seq)
    try:
        m = seq.index(1, 2)  # start of the second subtree
    except ValueError:
        m = n
    left_h = max(seq[1:m]) - 1  # height of the first subtree
    rest_h = max(seq[m:], default=0)  # 1 + height of the tallest other one
    if rest_h < left_h:
        return _SKIP, m - 1
    if rest_h > left_h:
        return _EMIT, 0
    # Bicentral: the centers are the root and node 1.  Re-rooted at node 1,
    # the old root's side is the taller subtree, so it comes first.
    other = [0, 1]
    other += [x + 1 for x in seq[m:]]
    other += [x - 1 for x in seq[2:m]]
    return (_EMIT if seq >= other else _STEP), 0


def _skip_family(seq, p):
    """Next candidate after skipping every sequence that shares seq[0..p]
    (p >= 2, the end of a first subtree too tall for the root to be a
    center)."""
    out = _successor(seq, p)
    if seq[p] > 2:
        # The first subtree now runs to the end.  A root that is a center
        # needs a rest as deep as that subtree (height h, fixed by
        # out[0..p-1]), so the greatest such candidate ends in the path
        # 1, 2, ..., h, provided that leaves position p alone.
        h = max(out) - 1
        n = len(out)
        if n - h > p:
            out[n - h:] = range(1, h + 1)
    return out


class FreeTreeStream:
    """Single-consumer stream of canonical level sequences, one per
    isomorphism class of free trees on ``n`` nodes.

    Emission order is deterministic (decreasing lexicographic), so range
    sweeps can partition the stream into contiguous index blocks and a
    checkpointed run can resume via :meth:`skip`.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("node count must be at least 1")
        self.n = n
        self.index = 0  # sequences already emitted
        # The candidate under examination; None once exhausted.  It starts
        # at the first free tree: canonical sequences begin 0, 1, ..., r
        # with r the radius, at most n // 2, and the greatest of that
        # radius is the path (even n) or, for odd n, the path on n - 1
        # nodes with one more leaf beside its first deepest node.
        r = n // 2
        self._candidate = ([0] if n == 1 else
                           [*range(r + 1), *[r] * (n % 2), *range(1, r)])

    def next(self) -> tuple[int, ...] | None:
        """The next canonical sequence, or None when exhausted."""
        if self.n == 1:
            if self._candidate is None:
                return None
            self._candidate = None
            self.index = 1
            return (0,)
        while self._candidate is not None:
            code, p = _verdict(self._candidate)
            if code == _EMIT:
                out = tuple(self._candidate)
                self._candidate = _successor(self._candidate)
                self.index += 1
                return out
            if code == _SKIP:
                self._candidate = _skip_family(self._candidate, p)
            else:
                self._candidate = _successor(self._candidate)
        return None

    def skip(self, k: int) -> "FreeTreeStream":
        """Advance past k emissions (equivalent to draining k items);
        skipping beyond the end just exhausts the stream."""
        if k < 0:
            raise ValueError("skip count must be non-negative")
        for _ in range(k):
            if self.next() is None:
                break
        return self

    def __iter__(self):
        return self

    def __next__(self):
        out = self.next()
        if out is None:
            raise StopIteration
        return out


def free_trees(n: int) -> FreeTreeStream:
    """Stream every free tree on n nodes exactly once, as canonical
    level sequences."""
    return FreeTreeStream(n)


def count_free_trees_enumerated(n: int) -> int:
    """Exact free-tree count by draining the stream."""
    stream = free_trees(n)
    count = 0
    while stream.next() is not None:
        count += 1
    return count


# ---------------------------------------------------------------------------
# Counting oracle: rooted-tree convolution
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def count_rooted_trees(n: int) -> int:
    """Number of unlabelled rooted trees on n nodes, via the divisor-sum
    convolution recurrence (exact integer arithmetic)."""
    if n < 1:
        return 0
    if n == 1:
        return 1
    total = 0
    for j in range(1, n):
        sj = sum(d * count_rooted_trees(d) for d in range(1, j + 1) if j % d == 0)
        total += sj * count_rooted_trees(n - j)
    return total // (n - 1)


def oracle_count_otter(n: int) -> int:
    """Free-tree count from rooted-tree counts:
    t(n) = r(n) - (sum_{i=1..n-1} r(i) r(n-i) - [n even] r(n/2)) / 2."""
    if n < 1:
        raise ValueError("node count must be at least 1")
    r = count_rooted_trees
    pairs = sum(r(i) * r(n - i) for i in range(1, n))
    if n % 2 == 0:
        pairs -= r(n // 2)
    return r(n) - pairs // 2


# ---------------------------------------------------------------------------
# Enumeration oracle: exhaustive Pruefer decoding
# ---------------------------------------------------------------------------

def prufer_decode(n: int, code) -> list[tuple[int, int]]:
    """Edges of the labelled tree on nodes 0..n-1 with Pruefer sequence
    *code* (length n-2).  Linear-time pointer decoding."""
    if n < 2:
        raise ValueError("decoding needs n >= 2")
    degree = [1] * n
    for v in code:
        degree[v] += 1
    out = []
    ptr = 0
    leaf = -1
    for v in code:
        if leaf == -1:
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
        out.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            leaf = -1
    u = -1
    for w in range(n):
        if degree[w] == 1:
            if u == -1:
                u = w
            else:
                out.append((u, w))
                break
    return out


def oracle_enumerate_prufer(n: int, start: int = 0, stop: int | None = None) -> set[tuple[int, ...]]:
    """Exact set of free-tree isomorphism classes on n nodes, by decoding
    all n^(n-2) Pruefer sequences, canonicalizing each and deduplicating.

    ``start``/``stop`` slice the code space by lexicographic rank so the
    work can be chunked across processes; the union over a partition of
    [0, n^(n-2)) equals the full run.
    """
    if not 1 <= n <= 9:
        raise ValueError("pruefer oracle supports 1 <= n <= 9 (cost n^(n-2))")
    if n == 1:
        return {(0,)}
    if n == 2:
        return {(0, 1)}
    out = set()
    codes = product(range(n), repeat=n - 2)
    for code in islice(codes, start, stop):
        out.add(canonical_from_edges(n, prufer_decode(n, code)))
    return out
