"""Output checks made apart from the program.

The canonical-form check here re-derives each tree's canonical level
sequence with its own code (no call into ``trees.py`` or
``generate.py``): root at a center, child subtrees in non-increasing
lexicographic order, and for two centers the greater of the two rootings.
"""

from treeharmony import Certificate, oracle_count_otter, verify_certificate


def _adjacency(levels):
    n = len(levels)
    adj = [[] for _ in range(n)]
    last = [0] * (n + 1)
    for i in range(1, n):
        p = last[levels[i] - 1]
        adj[p].append(i)
        adj[i].append(p)
        last[levels[i]] = i
    return adj


def _centers(adj):
    n = len(adj)
    if n <= 2:
        return list(range(n))
    deg = [len(a) for a in adj]
    leaves = [v for v in range(n) if deg[v] == 1]
    left = n
    while left > 2:
        left -= len(leaves)
        nxt = []
        for v in leaves:
            for w in adj[v]:
                deg[w] -= 1
                if deg[w] == 1:
                    nxt.append(w)
        leaves = nxt
    return leaves


def _rooted(adj, v, parent, depth):
    """Level sequence (a list) of the subtree at v, children sorted
    non-increasing."""
    out = [depth]
    for kid in sorted((_rooted(adj, w, v, depth + 1) for w in adj[v] if w != parent),
                      reverse=True):
        out += kid
    return out


def canonical(levels):
    """Canonical level sequence of the free tree *levels* describes."""
    adj = _adjacency(levels)
    return tuple(max(_rooted(adj, c, -1, 0) for c in _centers(adj)))


def check_census(n, seqs):
    """Complete, duplicate-free census: count equals the Otter count,
    sequences strictly decrease (so none repeats) and each is canonical.
    Returns a list of problems, empty when all hold."""
    problems = []
    expected = oracle_count_otter(n)
    if len(seqs) != expected:
        problems.append(f"n={n}: {len(seqs)} trees, Otter count {expected}")
    prev = None
    for seq in seqs:
        if len(seq) != n:
            problems.append(f"n={n}: sequence of length {len(seq)}")
            break
        if prev is not None and not seq < prev:
            problems.append(f"n={n}: sequence {seq} does not decrease")
            break
        if tuple(seq) != canonical(seq):
            problems.append(f"n={n}: sequence {seq} is not canonical")
            break
        prev = seq
    return problems


def check_certificates(lines, seqs):
    """Every certificate line parses, passes the cold verifier and
    names the expected tree, in order.  Returns a list of problems."""
    if len(lines) != len(seqs):
        return [f"{len(lines)} certificates for {len(seqs)} trees"]
    for line, seq in zip(lines, seqs):
        cert = Certificate.from_json_line(line)
        if cert.levels != tuple(seq):
            return [f"certificate for {cert.levels}, expected {seq}"]
        reason = verify_certificate(cert)
        if reason is not None:
            return [f"certificate for {seq} rejected: {reason}"]
    return []


def negative_control(line):
    """Alter a certificate so that two edges share a sum (keeping the
    label multiset) and require the cold verifier to reject it."""
    cert = Certificate.from_json_line(line)
    n, labels = cert.n, list(cert.labels)
    m = n - 1
    adj = _adjacency(cert.levels)
    edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
    for a in range(n):
        for b in range(a + 1, n):
            if labels[a] == labels[b]:
                continue
            bad = labels[:]
            bad[a], bad[b] = bad[b], bad[a]
            sums = [(bad[u] + bad[v]) % m for u, v in edges]
            if len(set(sums)) < len(sums):
                altered = Certificate(n, cert.levels, tuple(bad), cert.solver, cert.seed)
                if verify_certificate(altered) is None:
                    return ["cold verifier accepted a repeated edge sum"]
                return []
    return [f"no altered certificate found for {cert.levels}"]
