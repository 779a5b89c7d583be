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
covers leaf edges just as it covers internal ones).  Domains shrink by
forward checking after every fixation; variables are picked
smallest-domain-first.

A chosen stage-1 partial may admit no extension even when the tree is
harmonious, so the pair of stages is retried several times before the
solver reports failure.
"""

from dataclasses import dataclass

from .backtracking import label_dfs
from .config import SolveOutcome, SolverConfig
from .labelling import BIJECTIVE, is_harmonious, normalize_labelling
from .trees import Tree, internal_nodes


@dataclass(frozen=True)
class LeafCSP:
    """Residual leaf-assignment problem after stage 1.

    ``domains[i]`` is the initial candidate set of ``leaves[i]``:
    unused values whose edge sum with the leaf's neighbor label avoids
    the used sums.
    """

    n: int
    leaves: tuple[int, ...]
    parent_labels: tuple[int, ...]   # label of each leaf's unique neighbor
    used_values: frozenset[int]
    used_sums: frozenset[int]
    domains: tuple[frozenset[int], ...]

    @property
    def has_empty_domain(self) -> bool:
        return any(not d for d in self.domains)


def stage1_internal(tree: Tree, cfg: SolverConfig, rng) -> dict[int, int] | None:
    """Randomized bounded backtracking over the internal nodes: injective
    values from {0..n-1} with pairwise-distinct internal-internal edge
    sums mod (n-1).  None once the backtrack budget runs out."""
    internal = internal_nodes(tree)
    order = sorted(internal)
    # A parent precedes its children in level-sequence order, so each
    # internal node's only earlier internal neighbour is its parent.
    parents = [tree.parents[v] if tree.parents[v] in internal else -1 for v in order]
    labels = [-1] * tree.n
    ok, _ = label_dfs(order, parents, labels, tree.n, cfg.stage1_budget, rng)
    return {v: labels[v] for v in order} if ok else None


def build_leaf_csp(tree: Tree, partial: dict[int, int]) -> LeafCSP:
    """Reduce the remaining problem to a CSP over the leaves.  An empty
    initial domain is not an error here; it shows up as an immediate
    stage-2 failure and triggers a stage-1 retry."""
    n = tree.n
    m = n - 1
    internal = internal_nodes(tree)
    leaf_list = tuple(sorted(set(range(n)) - internal))
    used_values = frozenset(partial.values())
    used_sums = frozenset(
        (partial[u] + partial[v]) % m
        for u in internal for v in tree.adjacency[u]
        if v in internal and u < v)
    parent_labels = tuple(partial[tree.adjacency[leaf][0]] for leaf in leaf_list)
    domains = tuple(
        frozenset(w for w in range(n)
                  if w not in used_values and (w + pl) % m not in used_sums)
        for pl in parent_labels)
    return LeafCSP(n, leaf_list, parent_labels, used_values, used_sums, domains)


def solve_leaf_csp(csp: LeafCSP, rng, budget: int = 5000,
                   on_prune=None) -> dict[int, int] | None:
    """Backtracking with forward checking on the leaf CSP.

    After each fixation the assigned value is removed from every other
    domain, and so is every value that would repeat the new edge sum.
    Variable order is smallest current domain first; value order is
    randomized.  ``on_prune(leaf, value, assigned)`` is called on every
    forward-checking removal (soundness instrumentation for tests).
    None on failure or budget exhaustion.
    """
    k = len(csp.leaves)
    if k == 0:
        return {}
    if csp.has_empty_domain:
        return None
    m = csp.n - 1
    domains = [set(d) for d in csp.domains]
    parent_labels = csp.parent_labels
    assigned: dict[int, int] = {}
    done = [False] * k
    trail: list[list[tuple[int, int]]] = []
    stacks: list = []
    chosen: list[int] = []
    backtracks = 0

    def pick_variable():
        best = -1
        best_size = None
        for i in range(k):
            if done[i]:
                continue
            size = len(domains[i])
            if best_size is None or size < best_size:
                best, best_size = i, size
        return best

    def forward_check(i, value) -> bool:
        removed = trail[-1]
        s = (value + parent_labels[i]) % m
        wipeout = False
        for j in range(k):
            if done[j] or j == i:
                continue
            dom = domains[j]
            if value in dom:
                dom.discard(value)
                removed.append((j, value))
                if on_prune is not None:
                    on_prune(csp.leaves[j], value, dict(assigned))
            # values w with (w + parent_label_j) % m == s; labels run over
            # {0..m}, so only c and (when c == 0) c + m can hit
            c = (s - parent_labels[j]) % m
            for w in ((c, m) if c == 0 else (c,)):
                if w in dom:
                    dom.discard(w)
                    removed.append((j, w))
                    if on_prune is not None:
                        on_prune(csp.leaves[j], w, dict(assigned))
            if not dom:
                wipeout = True
        return not wipeout

    def undo():
        for j, w in trail.pop():
            domains[j].add(w)

    i = pick_variable()
    values = sorted(domains[i])
    rng.shuffle(values)
    stacks.append(values)
    chosen.append(i)
    while True:
        i = chosen[-1]
        stack = stacks[-1]
        if not stack:
            stacks.pop()
            chosen.pop()
            if not stacks:
                return None
            if backtracks >= budget:
                return None
            backtracks += 1
            del assigned[csp.leaves[chosen[-1]]]
            done[chosen[-1]] = False
            undo()
            continue
        value = stack.pop()
        assigned[csp.leaves[i]] = value
        done[i] = True
        trail.append([])
        if len(assigned) == k:
            return dict(assigned)
        if forward_check(i, value):
            j = pick_variable()
            values = sorted(domains[j])
            rng.shuffle(values)
            stacks.append(values)
            chosen.append(j)
        else:
            del assigned[csp.leaves[i]]
            done[i] = False
            undo()
    # unreachable


def solve_twostage(tree: Tree, cfg: SolverConfig, rng) -> SolveOutcome:
    """Retry (stage 1 -> leaf CSP) up to cfg.twostage_runs times; any
    success extends the partial labelling, normalizes it to the onto
    model, verifies, and returns."""
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
        labels = normalize_labelling(tree, tuple(full), BIJECTIVE)
        assert is_harmonious(tree, labels), "twostage produced a bad labelling"
        return SolveOutcome(True, labels, "twostage", stats)
    return SolveOutcome(False, None, "twostage", stats)
