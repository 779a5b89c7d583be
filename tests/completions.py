"""The brute-force completion oracle of the tests: every bijective
harmonious labelling that extends some fixed node labels.

It tries every permutation of the free values over the free nodes, so
it serves trees of at most about 9 nodes.
"""

from itertools import permutations


def harmonious_completions(tree, fixed: dict) -> list[tuple[int, ...]]:
    """All labellings of the nodes of *tree* with the values 0..n-1, each
    used once, that extend *fixed* (a node -> value dict) and give the
    edges distinct sums mod n-1.  A *fixed* that is not injective has
    none."""
    n = tree.n
    m = n - 1
    if len(set(fixed.values())) != len(fixed):
        return []
    rest_nodes = [v for v in range(n) if v not in fixed]
    rest_values = [v for v in range(n) if v not in fixed.values()]
    parent = tree.parents
    out = []
    for perm in permutations(rest_values):
        labels = [0] * n
        for v, value in fixed.items():
            labels[v] = value
        for v, value in zip(rest_nodes, perm):
            labels[v] = value
        seen = 0
        for i in range(1, n):
            bit = 1 << (labels[i] + labels[parent[i]]) % m
            if seen & bit:
                break
            seen |= bit
        else:
            out.append(tuple(labels))
    return out
