"""Two-stage constraint solving: internal nodes first, then the leaves.

The full constraint model - values a permutation of {0..n-1}, edge sums
mod (n-1) all different - resists forward checking because every node's
valid values depend on its parent.  Splitting the tree at its leaves
fixes that.  Stage 1 runs a bounded randomized labelling DFS, the search
the backtracking solver also runs, over the internal nodes: injective
values, distinct sums on internal-internal edges.  The residual problem
over the leaves is then a clean CSP: each leaf needs a value outside the
used ones whose edge sum avoids the used sums, leaf values must be
pairwise distinct, and leaf edge sums must be pairwise distinct too (the
model's sum constraint covers leaf edges just as it covers internal
ones).

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

Both stages draw from one generator in a fixed pattern: a search level
keeps its untried values as a bitmask and, each time it tries one, draws
it on demand (r as ``random.Random._randbelow(c)`` draws it over the c
untried values, through ``getrandbits``, then the r-th lowest of them;
a last untried value draws nothing).  Nothing else is drawn.  That
pattern is a contract: a sweep is replayed from its seeds alone, so a
change in what is drawn changes the labels, and so the bytes, of a
replayed certificate file, and must come with a new
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

Both stages and the retry loop run in the compiled kernel
(:mod:`treeharmony.native`), which limits trees to 64 nodes.  Every
search takes an int seed and draws what ``random.Random(seed)`` would
draw, from the kernel's own Mersenne Twister.  :func:`solve_twostage`
is one kernel call per tree: the kernel's ``solve_twostage`` takes the
tree's shape from its parents once and runs every round of stage 1, the
leaf-CSP build and stage 2 in C on one generator.  The stage functions
run one step each, the searches on a generator of their own seed:
:func:`stage1_internal` is the kernel's ``stage1`` on the tree, and
:func:`solve_leaf_csp` its ``stage2`` on the tree and stage 1's labels,
which :func:`build_leaf_csp` only checks and packs; the kernel alone
decides what a leaf may take.  They are library and test entry points,
and the solvers do not call them.
"""

from typing import NamedTuple

from .config import SolveOutcome, SolverConfig
from .native import kernel
from .trees import Tree, internal_nodes


class LeafCSP(NamedTuple):
    """Residual leaf-assignment problem after stage 1: the tree's preorder
    parents and stage 1's labels of nodes 0..n-1, -1 on each leaf, as the
    kernel's ``stage1`` returns them.  The kernel reads the leaves'
    domains off the two: a leaf may take an unused value whose edge sum
    with its neighbour's label is unused."""

    parents: tuple[int, ...]
    labels: tuple[int, ...]


def stage1_internal(tree: Tree, cfg: SolverConfig, seed: int) -> dict[int, int] | None:
    """Randomized bounded backtracking over the internal nodes, ascending
    (each after its parent): injective values from {0..n-1} with
    pairwise-distinct internal-internal edge sums mod m = n-1, and
    sum((deg(v) - 1) * f(v)) = 0 (mod m) over the internal nodes v, which
    every harmonious labelling meets (see the module docstring).  Draws
    what ``random.Random(seed)`` would.  Returns the internal nodes'
    labels in ascending node order, or None once cfg.stage1_budget
    backtracks are spent or every candidate is exhausted.  A tree of one
    or two nodes has no internal node and gets {}; a larger one is one
    kernel call, which raises ValueError for more than 64 nodes."""
    if tree.n <= 2:
        return {}
    labels, _ = kernel().stage1(tree.parents, cfg.stage1_budget, seed)
    if labels is None:
        return None
    return {v: f for v, f in enumerate(labels) if f >= 0}


def build_leaf_csp(tree: Tree, partial: dict[int, int]) -> LeafCSP:
    """The remaining problem over the leaves, given *partial*, stage 1's
    labels of the internal nodes.  A tree of fewer than three nodes, or a
    partial whose keys are not exactly the internal nodes, raises
    ValueError; :func:`solve_leaf_csp` refuses labels that are not
    distinct values of 0..n-1."""
    n = tree.n
    if n < 3:
        raise ValueError(f"a leaf CSP needs a tree of at least 3 nodes, not {n}")
    internal = internal_nodes(tree)
    if partial.keys() != internal:
        raise ValueError("the partial must label exactly the internal nodes "
                         f"{sorted(internal)}, not {sorted(partial)}")
    return LeafCSP(tree.parents, tuple(partial.get(v, -1) for v in range(n)))


def solve_leaf_csp(csp: LeafCSP, seed: int, budget: int = 5000,
                   on_prune=None) -> dict[int, int] | None:
    """Search the leaf CSP, refuting what it can at every level.

    Backtracking with forward checking and a Hall check.  Domains are
    bitmasks: bit w of a leaf's domain means the leaf may still take
    value w, and at the start it is set when w is unused and its edge
    sum with the leaf's neighbour's label is unused.  After each fixation
    the assigned value is removed from every free leaf's domain, and so
    is every value that would repeat the new edge sum.  The next
    variable is the free leaf with the smallest domain (ties to the
    lowest leaf position), picked in the same pass as forward checking;
    that pass stops at the first wipeout.  Once the
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
    Returns a dict from leaf to value, or None on failure or once
    *budget* (an int) backtracks are spent.

    The draws are a contract (see the module docstring): the search
    makes those of ``random.Random(seed)``; a CSP with an empty domain or
    one that fails the Hall check draws nothing; otherwise each value a
    level tries is drawn when it is tried, on the level's untried values
    (so a last untried value draws nothing), and nothing else is drawn.

    The CSP is built and searched in one kernel call.  A tree of more
    than 64 nodes, labels that are not distinct values of 0..n-1 on the
    internal nodes and -1 on each leaf, or a seed outside
    ``0 <= seed < 2**64`` raise ValueError.
    """
    return kernel().stage2(csp.parents, csp.labels, budget, seed, on_prune)


def solve_twostage(tree: Tree, cfg: SolverConfig, seed: int) -> SolveOutcome:
    """Retry (stage 1 -> leaf CSP) up to cfg.twostage_runs times; any
    success extends the partial labelling, reduces it to the normal onto
    form (the duplicated value is 0) and returns it unchecked.  Trees of
    three or more nodes run as one kernel call, drawing what
    ``random.Random(seed)`` would; its rounds are those of
    :func:`stage1_internal`, :func:`build_leaf_csp` and
    :func:`solve_leaf_csp` in turn, draw for draw, all on that one
    generator.
    The kernel raises ValueError for a tree of more than 64 nodes or a
    seed outside 0 <= seed < 2**64, and TypeError for a seed that is not
    an int."""
    n = tree.n
    if n <= 2:
        runs = min(cfg.twostage_runs, 1)
        stats = {"runs": runs, "stage1_failures": 0, "stage2_failures": 0}
        return SolveOutcome(runs == 1, (0,) * n if runs else None, "twostage", stats)
    labels, runs, stage1_failures, stage2_failures = kernel().solve_twostage(
        tree.parents, cfg.twostage_runs, cfg.stage1_budget, cfg.stage2_budget, seed)
    stats = {"runs": runs, "stage1_failures": stage1_failures,
             "stage2_failures": stage2_failures}
    return SolveOutcome(labels is not None, labels, "twostage", stats)
