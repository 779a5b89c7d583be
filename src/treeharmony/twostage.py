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
one, draws it with :func:`treeharmony.backtracking._pick` (r as
``random.Random._randbelow(c)`` draws it over the c untried values, then
the r-th lowest of them; a last untried value draws nothing).  Nothing
else is drawn.  That pattern is a contract: a sweep is replayed from its
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
"""

from dataclasses import dataclass

from .backtracking import _open_values, _pick, label_dfs
from .config import SolveOutcome, SolverConfig
from .labelling import BIJECTIVE, is_harmonious, normalize_labelling
from .trees import Tree, internal_nodes


def _bits(mask: int) -> frozenset[int]:
    return frozenset(w for w in range(mask.bit_length()) if mask >> w & 1)


@dataclass(frozen=True)
class LeafCSP:
    """Residual leaf-assignment problem after stage 1, as bitmasks.

    Bit w of ``domain_masks[i]`` means ``leaves[i]`` may take value w:
    w is unused and its edge sum with the leaf's neighbor label avoids
    the used sums.  ``domains``, ``used_values`` and ``used_sums`` give
    the same facts as frozensets.
    """

    n: int
    leaves: tuple[int, ...]
    parent_labels: tuple[int, ...]   # label of each leaf's unique neighbor
    used_value_mask: int             # bit w: an internal node has value w
    used_sum_mask: int               # bit s: an internal edge has sum s
    domain_masks: tuple[int, ...]

    @property
    def used_values(self) -> frozenset[int]:
        return _bits(self.used_value_mask)

    @property
    def used_sums(self) -> frozenset[int]:
        return _bits(self.used_sum_mask)

    @property
    def domains(self) -> tuple[frozenset[int], ...]:
        return tuple(_bits(d) for d in self.domain_masks)

    @property
    def has_empty_domain(self) -> bool:
        return not all(self.domain_masks)


def stage1_internal(tree: Tree, cfg: SolverConfig, rng) -> dict[int, int] | None:
    """Randomized bounded backtracking over the internal nodes: injective
    values from {0..n-1} with pairwise-distinct internal-internal edge
    sums mod m = n-1, and sum((deg(v) - 1) * f(v)) = 0 (mod m) over the
    internal nodes v, which every harmonious labelling meets (see the
    module docstring).  None once the backtrack budget runs out."""
    internal = internal_nodes(tree)
    order = sorted(internal)
    # A parent precedes its children in level-sequence order, so each
    # internal node's only earlier internal neighbour is its parent.
    parents = [tree.parents[v] if tree.parents[v] in internal else -1 for v in order]
    weights = [len(tree.adjacency[v]) - 1 for v in order]
    labels = [-1] * tree.n
    ok, _ = label_dfs(order, parents, labels, tree.n, cfg.stage1_budget, rng,
                      weights=weights)
    return {v: labels[v] for v in order} if ok else None


def build_leaf_csp(tree: Tree, partial: dict[int, int]) -> LeafCSP:
    """Reduce the remaining problem to a CSP over the leaves, the nodes
    that *partial* (stage 1's labels of the internal nodes) leaves
    unlabelled.  An empty initial domain is not an error here; it shows
    up as an immediate stage-2 failure and triggers a stage-1 retry."""
    n = tree.n
    m = n - 1
    low = (1 << m) - 1
    adjacency = tree.adjacency
    parents = tree.parents
    used_values = used_sums = 0
    for v, value in partial.items():
        used_values |= 1 << value
        p = parents[v]
        if p in partial:   # both ends internal
            used_sums |= 1 << ((value + partial[p]) % m)
    leaf_list = tuple(v for v in range(n) if v not in partial)
    parent_labels = tuple(partial[adjacency[leaf][0]] for leaf in leaf_list)
    free = ((1 << n) - 1) & ~used_values
    open_sums = low & ~used_sums
    by_label: dict[int, int] = {}
    for pl in parent_labels:
        if pl not in by_label:
            by_label[pl] = free & _open_values(open_sums, pl, m)
    domains = tuple(by_label[pl] for pl in parent_labels)
    return LeafCSP(n, leaf_list, parent_labels, used_values, used_sums, domains)


def _matchable(masks) -> bool:
    """True when every mask can keep a bit of its own that no other mask
    keeps (a system of distinct representatives): a greedy pass that
    takes each mask's lowest free bit, then Kuhn's augmenting paths over
    int masks for the masks it left without one."""
    owner: dict[int, int] = {}   # bit -> index of the mask holding it
    taken = 0                    # the bits held
    pending = []
    for i, mask in enumerate(masks):
        spare = mask & ~taken
        if spare:
            bit = spare & -spare
            taken |= bit
            owner[bit] = i
        else:
            pending.append(i)
    seen = 0                     # the bits visited by this augmentation

    def augment(i: int) -> bool:
        nonlocal taken, seen
        spare = masks[i] & ~taken
        if spare:
            bit = spare & -spare
            taken |= bit
            owner[bit] = i
            return True
        while True:
            avail = masks[i] & ~seen
            if not avail:
                return False
            bit = avail & -avail
            seen |= bit
            if augment(owner[bit]):
                owner[bit] = i
                return True

    for i in pending:
        seen = 0
        if not augment(i):
            return False
    return True


def _hall_holds(doms, parent_labels, m: int) -> bool:
    """True when the free leaves (the non-zero entries of *doms*) can be
    matched to distinct values of their domains, and also to distinct
    edge sums: Hall's condition for both all-different constraints.  The
    sums of a domain are its values rotated left by the parent label,
    the inverse of :func:`treeharmony.backtracking._open_values`."""
    if not _matchable([d for d in doms if d]):
        return False
    low = (1 << m) - 1
    sums = []
    for dom, pl in zip(doms, parent_labels):
        if dom:
            r = pl % m
            d = dom & low
            mask = ((d << r) | (d >> (m - r))) & low
            if dom >> m:   # value m has the sum of value 0
                mask |= 1 << r
            sums.append(mask)
    return _matchable(sums)


def solve_leaf_csp(csp: LeafCSP, rng, budget: int = 5000,
                   on_prune=None) -> dict[int, int] | None:
    """Search the leaf CSP, refuting what it can at every level.

    Backtracking with forward checking and a Hall check.  Domains are
    int bitmasks: bit w of a leaf's domain means the leaf may still take
    value w.  After each fixation the assigned value is removed from
    every free leaf's domain, and so is every value that would repeat the
    new edge sum.  The next variable is the free leaf with the smallest
    domain (ties to the lowest leaf position), picked in the same pass as
    forward checking; that pass stops at the first wipeout.  Once the
    search has backtracked, a fixation that forward checking survives
    must also leave the free leaves matchable to distinct values and to
    distinct edge sums (:func:`_hall_holds`); if they are not, the
    fixation fails as a wipeout does.  The same check on the initial
    domains rejects a CSP before any search.  Each search level keeps
    its own domain list, in which the entry of the level's leaf holds
    the values it has not yet tried, so backtracking just drops the
    level.

    Sibling refutation: when value v of a level's leaf fails (a wipeout,
    a Hall violation or an exhausted subtree), v is cleared from every
    free sibling of that leaf in the level's domain list, since a
    solution giving v to a sibling would give v to the leaf once the two
    swap values.  Siblings start with equal domains and forward checking
    takes the same values from each, so a free sibling's domain is just
    the leaf's untried values: it runs dry exactly when the level does.

    ``on_prune(leaf, value, assigned)`` is called on every forward-checking
    removal (soundness instrumentation for tests); Hall violations and
    sibling refutations are not reported, as a refuted value may still
    extend to a labelling under another assignment.  None on failure or
    budget exhaustion.

    The RNG consumption is a contract (see the module docstring): a CSP
    with an empty domain or one that fails the Hall check draws nothing;
    otherwise each value a level tries is drawn when it is tried, with
    :func:`treeharmony.backtracking._pick` on the level's untried values
    (so a last untried value draws nothing), and nothing else is drawn.
    """
    k = len(csp.leaves)
    if k == 0:
        return {}
    if csp.has_empty_domain:
        return None
    doms = list(csp.domain_masks)
    m = csp.n - 1
    parent_labels = csp.parent_labels
    if not _hall_holds(doms, parent_labels, m):
        return None
    leaves = csp.leaves
    getrandbits = rng.getrandbits
    pick = _pick
    # kill[s][j]: the values whose edge sum with leaf j's parent label is
    # s.  Labels run over {0..m}, so that is (s - pl) % m, plus m when
    # (s - pl) % m == 0.  Rows are built on first use.
    base = [1 << c for c in range(m)]
    base[0] |= 1 << m
    kill: list = [None] * m
    # sibs[j]: the other leaves with leaf j's parent
    groups: dict[int, list[int]] = {}
    for j, pl in enumerate(parent_labels):
        groups.setdefault(pl, []).append(j)
    sibs = [[g for g in groups[pl] if g != j] for j, pl in enumerate(parent_labels)]
    # the domain list of each level; an assigned leaf's entry is 0
    levels = [doms]
    chosen = [min(range(k), key=lambda j: doms[j].bit_count())]
    values: list[int] = []   # values[d] is the value of chosen[d]
    backtracks = 0
    while True:
        level = levels[-1]
        i = chosen[-1]
        untried = level[i]
        if not untried:
            chosen.pop()
            levels.pop()
            if not levels:
                return None
            if backtracks >= budget:
                return None
            backtracks += 1
            # the subtree of the enclosing level's value is exhausted
            i = chosen[-1]
            value = values.pop()
        else:
            value = pick(untried, getrandbits)
            vbit = 1 << value
            level[i] = untried ^ vbit
            if len(chosen) == k:
                values.append(value)
                return {leaves[j]: w for j, w in zip(chosen, values)}
            pl = parent_labels[i]
            s = (value + pl) % m
            doms = level[:]
            doms[i] = 0
            if on_prune is not None:
                assigned = {leaves[j]: w for j, w in zip(chosen, values)}
                assigned[leaves[i]] = value
            kill_s = kill[s]
            if kill_s is None:
                kill_s = kill[s] = [base[(s - p) % m] for p in parent_labels]
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
                # below the root, Hall is checked once the search has
                # backtracked: a search that has not yet failed seldom
                # repays the matching
                if not backtracks or _hall_holds(doms, parent_labels, m):
                    values.append(value)
                    levels.append(doms)
                    chosen.append(best)
                    continue
        # value is refuted for leaf i under this level's assignment, and
        # so for each free sibling of i (an assigned one's entry stays 0)
        keep = ~(1 << value)
        level = levels[-1]
        for j in sibs[i]:
            level[j] &= keep


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
