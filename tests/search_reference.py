"""The Python labelling DFS, stage-1 shape, leaf-CSP build, leaf search,
two-stage loop and backtracking loop, kept as test-side references.

These are the searches that ``treeharmony._kernel`` (``_kernel.c``) runs
in C, as they stood in pure Python before the port: the labelling DFS
(:func:`label_dfs`) on the stage-1 shape of a tree (:func:`stage1_shape`,
with the weights of the congruence) as the kernel's ``stage1`` runs it,
the leaf CSP of a tree and stage 1's labels in mask form
(:func:`build_leaf_csp`) and its search (:func:`solve_leaf_csp`) as the
kernel's ``stage2`` runs them, the retry loop of
``twostage.solve_twostage`` and the restart loop of
``backtracking.solve_backtracking``.  The loops are composed from the
functions here alone, so no reference calls the kernel or runs package
code that the kernel replaced.  Each draws through a caller's
``random.Random``; the kernel, which takes a seed, must make the draws
these make on ``random.Random(seed)``.  The equivalence tests hold the
kernel to them: the same result, the same backtracks, the same labels,
the same ``on_prune`` calls and the same stats.  Tests that need to see
inside the search (a patched ``_pick``, a labels list that logs its
assignments, the domains of a leaf CSP) run these, and so do the tests
of what the kernel's entries no longer take: random weights, other value
counts and preset labels.
"""

import random
from typing import NamedTuple

from treeharmony.config import SolveOutcome, SolverConfig
from treeharmony.trees import Tree


class CountingRandom(random.Random):
    """A random.Random that counts its getrandbits calls, the draws of
    every method used here."""

    draws = 0

    def getrandbits(self, k):
        self.draws += 1
        return super().getrandbits(k)


def _pick(mask: int, getrandbits) -> int:
    """One value of the non-empty bitmask *mask*, drawn on demand: with
    c >= 2 set bits, r is drawn as ``random.Random._randbelow(c)`` draws
    it (``getrandbits(k)`` with k the bit length of c, repeated until it
    is below c) and the r-th lowest set bit is taken; a single set bit
    draws nothing."""
    c = mask.bit_count()
    if c == 1:
        return mask.bit_length() - 1
    k = c.bit_length()
    r = getrandbits(k)
    while r >= c:
        r = getrandbits(k)
    for _ in range(r):
        mask &= mask - 1
    return (mask & -mask).bit_length() - 1


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


def label_dfs(order, parents, labels, n_values: int, budget: int, rng,
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
    untried candidates as a bitmask and draws one from *rng* with
    :func:`_pick` whenever it tries the next.  Returns (success,
    backtracks); the search fails once *budget* backtracks are spent or
    every candidate is exhausted, leaving the labels of *order*
    unspecified.  The kernel runs this search on the stage-1 shape
    (``stage1``, ``solve_twostage``) and on nodes 1..n-1 under a drawn
    root label with n - 1 values (``solve_backtracking``).
    """
    size = len(order)
    if size == 0:
        return True, 0
    m = len(labels) - 1
    low = (1 << m) - 1
    full = (1 << n_values) - 1
    getrandbits = rng.getrandbits
    pick = _pick
    used_values = used_sums = 0   # bit masks of the values and sums held
    untried = [0] * size          # bit mask of each depth's untried values
    backtracks = 0
    last = size - 1
    total = 0   # sum of weights[k] * value over the labelled positions
    solve = pre = None
    p_last = -1
    if weights is not None:
        # solve[t]: the values w with weights[last] * w = t (mod m)
        solve = [0] * m
        w_last = weights[last]
        for w in range(n_values):
            solve[w_last * w % m] |= 1 << w
        if size >= 2:
            # pre[q]: the values x with weights[last - 1] * x = q (mod m)
            pre = [0] * m
            w_pre = weights[last - 1]
            for x in range(n_values):
                pre[w_pre * x % m] |= 1 << x
            # the last node's parent, when its label is known before the
            # second-last position is chosen
            p_last = parents[last]
            if p_last == order[last - 1]:
                p_last = -1

    def candidates(k):
        free = full & ~used_values
        p = parents[k]
        if p >= 0:
            free &= _open_values(low & ~used_sums, labels[p], m)
        if solve is not None:
            if k == last:
                free &= solve[-total % m]
            elif k == last - 1:
                # the values x that some candidate y of the last position
                # can close: pre[(-total - w_last * y) % m] over those y
                ys = full & ~used_values
                if p_last >= 0:
                    ys &= _open_values(low & ~used_sums, labels[p_last], m)
                reach = 0
                while ys:
                    y = ys & -ys
                    reach |= pre[(-total - w_last * (y.bit_length() - 1)) % m]
                    ys ^= y
                free &= reach
        return free

    k = 0
    untried[0] = candidates(0)
    while True:
        mask = untried[k]
        if not mask:
            if backtracks >= budget:
                return False, backtracks
            backtracks += 1
            k -= 1
            if k < 0:
                return False, backtracks
            value = labels[order[k]]
            used_values ^= 1 << value
            p = parents[k]
            if p >= 0:
                used_sums ^= 1 << (value + labels[p]) % m
            if solve is not None:
                total -= weights[k] * value
            continue
        value = pick(mask, getrandbits)
        untried[k] = mask ^ (1 << value)
        labels[order[k]] = value
        used_values |= 1 << value
        p = parents[k]
        if p >= 0:
            used_sums |= 1 << (value + labels[p]) % m
        if solve is not None:
            total += weights[k] * value
        k += 1
        if k == size:
            return True, backtracks
        untried[k] = candidates(k)


def stage1_shape(tree: Tree):
    """The shape stage 1 labels, as the kernel takes it from the parents:
    the internal nodes ascending, each one's parent when that is internal
    (else -1) and its weight deg - 1 in the congruence."""
    adjacency = tree.adjacency
    order = [v for v in range(tree.n) if len(adjacency[v]) > 1]
    parents = [p if p >= 0 and len(adjacency[p]) > 1 else -1
               for p in map(tree.parents.__getitem__, order)]
    return order, parents, [len(adjacency[v]) - 1 for v in order]


def stage1(tree: Tree, budget: int, rng) -> tuple[tuple[int, ...] | None, int]:
    """What the kernel's ``stage1`` returns for the tree of 3 or more
    nodes: :func:`label_dfs` on :func:`stage1_shape` with n values, as
    (the labels of nodes 0..n-1, -1 on each leaf, or None, backtracks)."""
    order, parents, weights = stage1_shape(tree)
    labels = [-1] * tree.n
    ok, backtracks = label_dfs(order, parents, labels, tree.n, budget, rng, weights)
    return (tuple(labels) if ok else None), backtracks


class MaskCSP(NamedTuple):
    """A leaf CSP in mask form: bit w of ``domain_masks[i]`` means
    ``leaves[i]`` may take value w."""

    n: int
    leaves: tuple[int, ...]
    parent_labels: tuple[int, ...]   # the label of each leaf's neighbour
    domain_masks: tuple[int, ...]


def build_leaf_csp(tree: Tree, partial: dict[int, int]) -> MaskCSP:
    """The leaf CSP that the kernel's ``stage2`` builds from the tree of 3
    or more nodes and stage 1's labels *partial* of its internal nodes:
    the leaves ascending, each with its neighbour's label, and as domain
    the unused values whose edge sum with that label is unused (the sums
    of the internal-internal edges)."""
    n, m = tree.n, tree.n - 1
    order, parents, _ = stage1_shape(tree)
    used_values = used_sums = 0
    for value in partial.values():
        used_values |= 1 << value
    for v, p in zip(order, parents):
        if p >= 0:
            used_sums |= 1 << (partial[v] + partial[p]) % m
    leaves = tuple(v for v in range(n) if len(tree.adjacency[v]) == 1)
    parent_labels = tuple(partial[tree.adjacency[leaf][0]] for leaf in leaves)
    free = ((1 << n) - 1) & ~used_values
    open_sums = ((1 << m) - 1) & ~used_sums
    domains = tuple(free & _open_values(open_sums, pl, m) for pl in parent_labels)
    return MaskCSP(n, leaves, parent_labels, domains)


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
    the inverse of :func:`_open_values`."""
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


def solve_leaf_csp(csp: MaskCSP, rng, budget: int = 5000,
                   on_prune=None) -> dict[int, int] | None:
    """The search that :func:`treeharmony.twostage.solve_leaf_csp`
    documents, in Python, on a CSP of :func:`build_leaf_csp`.  Leaves
    with the same parent label are siblings, which for the distinct
    labels of stage 1 are the leaves with the same neighbour."""
    k = len(csp.leaves)
    if not all(csp.domain_masks):
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
    """The loop that :func:`treeharmony.twostage.solve_twostage` runs in
    the kernel, in Python: one round is stage 1 (:func:`stage1`), then
    :func:`build_leaf_csp` and :func:`solve_leaf_csp`."""
    n = tree.n
    stats = {"runs": 0, "stage1_failures": 0, "stage2_failures": 0}
    for run in range(cfg.twostage_runs):
        stats["runs"] = run + 1
        if n <= 2:
            labels = (0,) if n == 1 else (0, 0)
            return SolveOutcome(True, labels, "twostage", stats)
        labels, _ = stage1(tree, cfg.stage1_budget, rng)
        if labels is None:
            stats["stage1_failures"] += 1
            continue
        partial = {v: f for v, f in enumerate(labels) if f >= 0}
        csp = build_leaf_csp(tree, partial)
        assignment = solve_leaf_csp(csp, rng, cfg.stage2_budget)
        if assignment is None:
            stats["stage2_failures"] += 1
            continue
        labels = list(labels)
        for v, value in assignment.items():
            labels[v] = value
        # Reducing the permutation mod n-1 merges 0 and n-1 on 0, which is
        # the normal form make_certificate asks for.
        return SolveOutcome(True, tuple(v % (n - 1) for v in labels), "twostage", stats)
    return SolveOutcome(False, None, "twostage", stats)


def solve_backtracking(tree: Tree, cfg: SolverConfig, rng) -> SolveOutcome:
    """The loop that :func:`treeharmony.backtracking.solve_backtracking`
    runs in the kernel, in Python: each restart draws the root label with
    ``rng.randrange(n - 1)`` and runs :func:`label_dfs` over nodes
    1..n-1; exhausting node 1's candidates ends the run."""
    n = tree.n
    backtracks = 0
    for restart in range(cfg.backtrack_restarts):
        if n == 1:
            labels, ok = [0], True
        else:
            labels = [-1] * n
            labels[0] = rng.randrange(n - 1)
            ok, used = label_dfs(range(1, n), tree.parents[1:], labels, n - 1,
                                 cfg.backtrack_limit, rng)
            backtracks += used
        if ok:
            return SolveOutcome(True, tuple(labels), "backtrack", {
                "backtracks": backtracks, "restarts_used": restart + 1})
    return SolveOutcome(False, None, "backtrack", {
        "backtracks": backtracks, "restarts_used": cfg.backtrack_restarts})
