"""Two-stage constraint solving: internal nodes first, then the leaves.

The full constraint model - values a permutation of {0..n-1}, edge sums
mod (n-1) all different - resists forward checking because every node's
valid values depend on its parent.  Splitting the tree at its leaves
fixes that.  Stage 1 runs the bounded randomized labelling DFS that the
backtracking solver also runs (:func:`treeharmony.backtracking.label_dfs`)
over the internal nodes: injective values, distinct sums on
internal-internal edges.  The residual problem over the leaves is then a
clean CSP: each leaf needs a value outside the used ones whose edge sum
avoids the used sums, leaf values must be pairwise distinct, and leaf
edge sums must be pairwise distinct too (the model's sum constraint
covers leaf edges just as it covers internal ones).

Most stage-1 partials admit no extension, so stage 2 refutes as it
searches.  The leaf search holds each domain as an int bitmask, shrinks
the domains by forward checking after every fixation, and picks
variables smallest-domain-first.  At the root, and at every level once
the search has backtracked, it then asks whether the free leaves can
still be matched to distinct values, and to distinct edge sums, at all
(Hall's condition, found by bipartite matching as in Regin's
all-different reasoning, but without its value filtering); if not, the
fixation fails without a deeper search.  Leaves with the same parent
are interchangeable (swapping their values keeps both the value set and
the sum set), so a value refuted for one leaf is struck from its free
siblings too.

Both stages draw from the solver's RNG in a fixed pattern: a search
level keeps its untried values as a bitmask and, each time it tries
one, draws it on demand (r as ``random.Random._randbelow(c)`` draws it
over the c untried values, through ``rng.getrandbits``, then the r-th
lowest of them; a last untried value draws nothing).  Nothing else is
drawn.  That pattern is a contract: a sweep is replayed from its
seeds alone, so a change in what is drawn changes the labels, and so the
bytes, of a replayed certificate file, and must come with a new
:data:`treeharmony.config.SOLVER_VERSION`.

Stage 1 also enforces a counting rule that every harmonious labelling f
meets.  With m = n-1 the edge sums run over Z_m once each, so
sum_v deg(v) f(v) = 0 + 1 + ... + (m-1) = m(m-1)/2 (mod m); the labels
are 0..m once each, so sum_v f(v) = m(m+1)/2.  Subtracting,
sum_v (deg(v) - 1) f(v) = -m = 0 (mod m).  Leaves have weight 0, so the
internal labels alone decide the rule, and partials that break it are
never built: the last internal node takes only values that close the
sum, and the one before it only values that leave the last node such a
value.

A chosen stage-1 partial may admit no extension even when the tree is
harmonious, so the pair of stages is retried several times before the
solver reports failure.

Both searches run in the compiled kernel (:mod:`treeharmony.native`),
which limits trees to 64 nodes.  The Python functions here prepare their
input and keep their names, signatures and draws.
"""

from functools import lru_cache
from typing import NamedTuple

from .backtracking import _open_values, label_dfs
from .config import SolveOutcome, SolverConfig
from .native import kernel
from .trees import Tree


class LeafCSP(NamedTuple):
    """Residual leaf-assignment problem after stage 1, as bitmasks.

    Bit w of ``domain_masks[i]`` means ``leaves[i]`` may take value w:
    w is unused and its edge sum with the leaf's neighbor label avoids
    the used sums.
    """

    n: int
    leaves: tuple[int, ...]
    parent_labels: tuple[int, ...]   # label of each leaf's unique neighbor
    domain_masks: tuple[int, ...]


class _TreeConstants(NamedTuple):
    order: tuple[int, ...]          # the internal nodes, ascending
    parents: tuple[int, ...]        # each one's parent, -1 for the root
    weights: tuple[int, ...]        # each one's degree - 1
    internal_edges: tuple[tuple[int, int], ...]   # (node, parent), both internal
    leaves: tuple[int, ...]
    leaf_parents: tuple[int, ...]   # each leaf's one neighbour


@lru_cache(maxsize=1)
def _constants(tree: Tree) -> _TreeConstants:
    """What every two-stage run on *tree* needs of its shape.  A solver
    runs the stages up to ``twostage_runs`` times on one tree before it
    moves on, so one cached tree serves all of them.  Tree defines no
    ``__eq__``, so the cache holds it by identity."""
    adjacency = tree.adjacency
    order = tuple(v for v in range(tree.n) if len(adjacency[v]) > 1)
    # A parent precedes its children in level-sequence order, so each
    # internal node's only earlier internal neighbour is its parent.
    parents = tuple(p if p >= 0 and len(adjacency[p]) > 1 else -1
                    for p in map(tree.parents.__getitem__, order))
    leaves = tuple(v for v in range(tree.n) if len(adjacency[v]) <= 1)
    return _TreeConstants(
        order, parents, tuple(len(adjacency[v]) - 1 for v in order),
        tuple((v, p) for v, p in zip(order, parents) if p >= 0),
        leaves, tuple(adjacency[leaf][0] for leaf in leaves if adjacency[leaf]))


def stage1_internal(tree: Tree, cfg: SolverConfig, rng) -> dict[int, int] | None:
    """Randomized bounded backtracking over the internal nodes: injective
    values from {0..n-1} with pairwise-distinct internal-internal edge
    sums mod m = n-1, and sum((deg(v) - 1) * f(v)) = 0 (mod m) over the
    internal nodes v, which every harmonious labelling meets (see the
    module docstring).  None once the backtrack budget runs out."""
    c = _constants(tree)
    labels = [-1] * tree.n
    ok, _ = label_dfs(c.order, c.parents, labels, tree.n, cfg.stage1_budget, rng,
                      weights=c.weights)
    return dict(zip(c.order, map(labels.__getitem__, c.order))) if ok else None


def build_leaf_csp(tree: Tree, partial: dict[int, int]) -> LeafCSP:
    """Reduce the remaining problem to a CSP over the leaves, given
    *partial*, stage 1's labels of the internal nodes.  An empty initial
    domain is not an error here; it shows up as an immediate stage-2
    failure and triggers a stage-1 retry."""
    c = _constants(tree)
    n = tree.n
    m = n - 1
    used_values = used_sums = 0
    for value in partial.values():
        used_values |= 1 << value
    for v, p in c.internal_edges:
        used_sums |= 1 << ((partial[v] + partial[p]) % m)
    parent_labels = tuple(map(partial.__getitem__, c.leaf_parents))
    free = ((1 << n) - 1) & ~used_values
    open_sums = ((1 << m) - 1) & ~used_sums
    by_label: dict[int, int] = {}
    for pl in parent_labels:
        if pl not in by_label:
            by_label[pl] = free & _open_values(open_sums, pl, m)
    domains = tuple(map(by_label.__getitem__, parent_labels))
    return LeafCSP(n, c.leaves, parent_labels, domains)


def solve_leaf_csp(csp: LeafCSP, rng, budget: int = 5000,
                   on_prune=None) -> dict[int, int] | None:
    """Search the leaf CSP, refuting what it can at every level.

    Backtracking with forward checking and a Hall check.  Domains are
    bitmasks: bit w of a leaf's domain means the leaf may still take
    value w.  After each fixation the assigned value is removed from
    every free leaf's domain, and so is every value that would repeat the
    new edge sum.  The next variable is the free leaf with the smallest
    domain (ties to the lowest leaf position), picked in the same pass as
    forward checking; that pass stops at the first wipeout.  Once the
    search has backtracked, a fixation that forward checking survives
    must also leave the free leaves matchable to distinct values and to
    distinct edge sums (Hall's condition for both all-different
    constraints, found by a greedy pass and then Kuhn's augmenting
    paths); if they are not, the fixation fails as a wipeout does.  The
    same check on the initial domains rejects a CSP before any search.
    Each search level keeps its own domain list, in which the entry of
    the level's leaf holds the values it has not yet tried, so
    backtracking just drops the level.

    Sibling refutation: when value v of a level's leaf fails (a wipeout,
    a Hall violation or an exhausted subtree), v is cleared from every
    free sibling of that leaf in the level's domain list, since a
    solution giving v to a sibling would give v to the leaf once the two
    swap values.  Siblings start with equal domains and forward checking
    takes the same values from each, so a free sibling's domain is just
    the leaf's untried values: it runs dry exactly when the level does.

    ``on_prune(leaf, value, assigned)``, when given, is called on every
    forward-checking removal (soundness instrumentation for tests); Hall
    violations and sibling refutations are not reported, as a refuted
    value may still extend to a labelling under another assignment.
    None on failure or budget exhaustion.

    The RNG consumption is a contract (see the module docstring): a CSP
    with an empty domain or one that fails the Hall check draws nothing;
    otherwise each value a level tries is drawn when it is tried, on the
    level's untried values (so a last untried value draws nothing), and
    nothing else is drawn.

    The search runs in the compiled kernel; a CSP of a tree with more
    than 64 nodes raises ValueError.
    """
    return kernel().solve_leaf_csp(csp.leaves, csp.parent_labels, csp.domain_masks,
                                   csp.n - 1, budget, rng.getrandbits, on_prune)


def solve_twostage(tree: Tree, cfg: SolverConfig, rng) -> SolveOutcome:
    """Retry (stage 1 -> leaf CSP) up to cfg.twostage_runs times; any
    success extends the partial labelling, reduces it to the normal onto
    form (the duplicated value is 0) and returns it unchecked."""
    n = tree.n
    stats = {"runs": 0, "stage1_failures": 0, "stage2_failures": 0}
    for run in range(cfg.twostage_runs):
        stats["runs"] = run + 1
        if n <= 2:
            labels = (0,) if n == 1 else (0, 0)
            return SolveOutcome(True, labels, "twostage", stats)
        partial = stage1_internal(tree, cfg, rng)
        if partial is None:
            stats["stage1_failures"] += 1
            continue
        csp = build_leaf_csp(tree, partial)
        assignment = solve_leaf_csp(csp, rng, cfg.stage2_budget)
        if assignment is None:
            stats["stage2_failures"] += 1
            continue
        full = [0] * n
        for v, value in partial.items():
            full[v] = value
        for v, value in assignment.items():
            full[v] = value
        # Reducing the permutation mod n-1 merges 0 and n-1 on 0, which is
        # the normal form make_certificate asks for.
        labels = tuple(v % (n - 1) for v in full)
        return SolveOutcome(True, labels, "twostage", stats)
    return SolveOutcome(False, None, "twostage", stats)
