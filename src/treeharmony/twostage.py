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
covers leaf edges just as it covers internal ones).  The leaf search
holds each domain as an int bitmask, shrinks the domains by forward
checking after every fixation, and picks variables smallest-domain-first.

Both stages draw from the solver's RNG in a fixed pattern (see
:func:`solve_leaf_csp`).  That pattern is a contract: a sweep is
replayed from its seeds alone, so a change in what is drawn changes the
labels, and so the bytes, of a replayed certificate file.

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


def _shuffled_values(dom: int, rng) -> list[int]:
    """The values of bitmask *dom* in ascending order, shuffled once.
    A single value skips the call, which would draw nothing anyway."""
    if not dom & (dom - 1):
        return [dom.bit_length() - 1]
    values = []
    while dom:
        low = dom & -dom
        values.append(low.bit_length() - 1)
        dom ^= low
    rng.shuffle(values)
    return values


def solve_leaf_csp(csp: LeafCSP, rng, budget: int = 5000,
                   on_prune=None) -> dict[int, int] | None:
    """Backtracking with forward checking on the leaf CSP.

    Domains are int bitmasks: bit w of a leaf's domain means the leaf may
    still take value w.  After each fixation the assigned value is
    removed from every free leaf's domain, and so is every value that
    would repeat the new edge sum.  The next variable is the free leaf
    with the smallest domain (ties to the lowest leaf position), picked
    in the same pass as forward checking; that pass stops at the first
    wipeout.  Each search level keeps its own domain list, so
    backtracking just drops the level.  ``on_prune(leaf, value,
    assigned)`` is called on every forward-checking removal (soundness
    instrumentation for tests).  None on failure or budget exhaustion.

    The RNG consumption is a contract (see the module docstring): each
    new level draws one ``rng.shuffle`` of its variable's values listed
    in ascending order (a single value draws nothing), and nothing else
    is drawn.
    """
    k = len(csp.leaves)
    if k == 0:
        return {}
    if csp.has_empty_domain:
        return None
    m = csp.n - 1
    leaves = csp.leaves
    parent_labels = csp.parent_labels
    # kill[s][j]: the values whose edge sum with leaf j's parent label is
    # s.  Labels run over {0..m}, so that is (s - pl) % m, plus m when
    # (s - pl) % m == 0.
    base = [1 << c for c in range(m)]
    base[0] |= 1 << m
    kill = [[base[(s - pl) % m] for pl in parent_labels] for s in range(m)]
    doms = [sum(1 << w for w in d) for d in csp.domains]
    # the domain list of each level; an assigned leaf's entry is 0
    levels = [doms]
    first = min(range(k), key=lambda j: doms[j].bit_count())
    chosen = [first]
    stacks = [_shuffled_values(doms[first], rng)]
    values: list[int] = []   # values[d] is the value of chosen[d]
    backtracks = 0
    while True:
        stack = stacks[-1]
        if not stack:
            stacks.pop()
            chosen.pop()
            levels.pop()
            if not stacks:
                return None
            if backtracks >= budget:
                return None
            backtracks += 1
            values.pop()
            continue
        value = stack.pop()
        i = chosen[-1]
        if len(chosen) == k:
            values.append(value)
            return {leaves[j]: w for j, w in zip(chosen, values)}
        s = (value + parent_labels[i]) % m
        vbit = 1 << value
        doms = levels[-1][:]
        doms[i] = 0
        if on_prune is not None:
            assigned = {leaves[j]: w for j, w in zip(chosen, values)}
            assigned[leaves[i]] = value
        kill_s = kill[s]
        best, best_size = -1, m + 2
        for j, dom in enumerate(doms):
            if not dom:
                continue
            kept = dom & ~(vbit | kill_s[j])
            if on_prune is not None and kept != dom:
                removed = dom ^ kept
                if removed & vbit:
                    on_prune(leaves[j], value, dict(assigned))
                    removed ^= vbit
                while removed:
                    low = removed & -removed
                    on_prune(leaves[j], low.bit_length() - 1, dict(assigned))
                    removed ^= low
            if not kept:
                break
            doms[j] = kept
            if best_size > 1:   # no surviving domain is smaller than 1
                size = kept.bit_count()
                if size < best_size:
                    best, best_size = j, size
        else:
            values.append(value)
            levels.append(doms)
            chosen.append(best)
            stacks.append(_shuffled_values(doms[best], rng))


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
