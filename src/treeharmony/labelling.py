"""Labellings, the induced edge labelling, the Eval objective, and the
independent harmonious verifier.

A labelling assigns one value per node, and the model is Graham and
Sloane's: n values onto Z_{n-1}, so exactly one value is used twice
(the backtracking solver puts the duplicate on the root, but the model
allows it anywhere - see :func:`normalize_labelling`).  A labelling is
harmonious when all n-1 edge sums mod (n-1) are pairwise distinct.  n=1
is harmonious by convention (no labels constrained, no edges) and n=2
always is (Z_1 has a single value).

The exhaustive oracle enumerates bijective labellings, permutations of
{0, ..., n-1}; ``shift_labelling(f, 0)`` reduces one mod (n-1), merging
labels 0 and n-1, to the onto form checked here.  A permutation is
harmonious exactly when its reduction is.

Certificates persist one solved tree per JSON line and are re-verified
from scratch by :func:`verify_certificate`, which shares no edge
derivation or duplicate detection with the search-side code.
"""

import json
from collections import namedtuple
from dataclasses import dataclass

from .config import PIPELINE_TAGS
from .trees import Tree

SOLVER_TAGS = PIPELINE_TAGS + ("exhaustive",)

# a string as json.dumps quotes it by default (ensure_ascii)
_quote = json.encoder.encode_basestring_ascii


def induced_edge_labels(tree: Tree, labels) -> tuple[int, ...]:
    """Per-edge sums mod (n-1), in edges(tree) order."""
    n = tree.n
    if len(labels) != n:
        raise ValueError(f"expected {n} labels, got {len(labels)}")
    if n == 1:
        return ()
    m = n - 1
    parents = tree.parents
    return tuple((labels[i] + labels[parents[i]]) % m for i in range(1, n))


def eval_labelling(tree: Tree, labels) -> int:
    """The search objective: (n-1) minus the number of distinct induced
    edge labels.  Zero exactly when the induced labelling is a bijection,
    i.e. when the labelling is harmonious."""
    if tree.n == 1:
        return 0
    return tree.n - 1 - len(set(induced_edge_labels(tree, labels)))


def check_labelling(tree: Tree, labels) -> str | None:
    """None if harmonious, else a short reason.

    Deliberately does not share its duplicate detection with
    eval_labelling: edge sums are bucket-counted here, not set-deduped.
    """
    n = tree.n
    if len(labels) != n:
        return "length mismatch"
    if n == 1:
        return None
    m = n - 1
    counts = [0] * m
    for v in labels:
        if not 0 <= v < m:
            return "label out of range"
        counts[v] += 1
    for c in counts:
        if c == 0:
            return "label multiset not onto"
    sum_counts = [0] * m
    parents = tree.parents
    for i in range(1, n):
        s = (labels[i] + labels[parents[i]]) % m
        sum_counts[s] += 1
        if sum_counts[s] > 1:
            return "duplicate edge label"
    return None


def is_harmonious(tree: Tree, labels) -> bool:
    return check_labelling(tree, labels) is None


def shift_labelling(labels, c: int) -> tuple[int, ...]:
    """Add c to every label mod (n-1).  Harmonious labellings stay
    harmonious under every shift, and Eval is unchanged."""
    n = len(labels)
    if n == 1:
        return tuple(labels)
    m = n - 1
    return tuple((v + c) % m for v in labels)


def normalize_labelling(tree: Tree, labels) -> tuple[int, ...]:
    """Canonical form of a harmonious labelling: shifted so that its
    duplicated value is 0.  Idempotent.  Raises ValueError on
    non-harmonious input.
    """
    reason = check_labelling(tree, labels)
    if reason is not None:
        raise ValueError(f"cannot normalize: {reason}")
    n = tree.n
    if n == 1:
        return (0,)
    m = n - 1
    # the labels hold 0..m-1 once each and the duplicated value once more
    dup = sum(labels) - m * (m - 1) // 2
    return tuple(labels) if dup == 0 else shift_labelling(labels, -dup)


def random_onto_labelling(n: int, rng) -> tuple[int, ...]:
    """Uniform random onto labelling: a permutation of {0..n-2} over n-1
    randomly chosen nodes plus one uniformly random duplicate value on
    the remaining node."""
    if n == 1:
        return (0,)
    dup_node = rng.randrange(n)
    values = list(range(n - 1))
    rng.shuffle(values)
    labels = [0] * n
    k = 0
    for v in range(n):
        if v != dup_node:
            labels[v] = values[k]
            k += 1
    labels[dup_node] = rng.randrange(n - 1)
    return tuple(labels)


# ---------------------------------------------------------------------------
# Exhaustive small-tree oracle
# ---------------------------------------------------------------------------

ExhaustiveResult = namedtuple("ExhaustiveResult", "exists count witness")

_EXHAUSTIVE_MAX_N = 10


def iter_harmonious_bijective(tree: Tree):
    """Yield every harmonious bijective labelling in ascending
    lexicographic order.

    Deterministic depth-first enumeration over preorder nodes; a partial
    assignment is extended only while node values and fixed edge sums
    stay distinct, so completions are exactly the harmonious bijective
    labellings (each prefix constraint is a restriction of the full one).
    Shares no state or randomization with the solvers.
    """
    n = tree.n
    if n > _EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive search supports n <= {_EXHAUSTIVE_MAX_N}")
    if n == 1:
        yield (0,)
        return
    m = n - 1
    parents = tree.parents
    labels = [0] * n
    used_value = [False] * n
    used_sum = [False] * m

    def extend(i):
        if i == n:
            yield tuple(labels)
            return
        parent_label = labels[parents[i]]
        for v in range(n):
            if used_value[v]:
                continue
            s = (v + parent_label) % m
            if used_sum[s]:
                continue
            labels[i] = v
            used_value[v] = True
            used_sum[s] = True
            yield from extend(i + 1)
            used_value[v] = False
            used_sum[s] = False

    for root_value in range(n):
        labels[0] = root_value
        used_value[root_value] = True
        yield from extend(1)
        used_value[root_value] = False


def exhaustive_search(tree: Tree) -> ExhaustiveResult:
    """Exact count of harmonious bijective labellings plus one witness.

    Every harmonious labelling is a shift of a reduced bijective one, so
    existence here settles existence in general.
    """
    count = 0
    witness = None
    for sol in iter_harmonious_bijective(tree):
        if witness is None:
            witness = sol
        count += 1
    return ExhaustiveResult(count > 0, count, witness)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

class CertificateError(ValueError):
    """Malformed certificate record (bad JSON, missing or ill-typed fields)."""


@dataclass(frozen=True)
class Certificate:
    """Persisted, independently re-verifiable proof that one tree is
    harmonious: canonical levels, normalized onto labels, the producing
    solver tag, and the RNG seed of the work unit."""

    n: int
    levels: tuple[int, ...]
    labels: tuple[int, ...]
    solver: str
    seed: int

    def to_json_line(self) -> str:
        """The record as ``json.dumps`` with ``separators=(",", ":")``
        writes it, built without a dict or an encoder: a list of ints
        prints as its JSON array once the spaces are dropped."""
        levels = str(list(self.levels)).replace(" ", "")
        labels = str(list(self.labels)).replace(" ", "")
        return (f'{{"n":{self.n},"levels":{levels},"labels":{labels},'
                f'"solver":{_quote(self.solver)},"seed":{self.seed}}}')

    @classmethod
    def from_json_line(cls, line: str) -> "Certificate":
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CertificateError(f"bad JSON: {exc}") from None
        if not isinstance(rec, dict):
            raise CertificateError("record is not an object")
        for field in ("n", "levels", "labels", "solver", "seed"):
            if field not in rec:
                raise CertificateError(f"missing field {field!r}")
        n, levels, labels, solver, seed = (
            rec["n"], rec["levels"], rec["labels"], rec["solver"], rec["seed"])
        # type(x) is int, not isinstance: JSON true and false load as
        # bool, a subclass of int
        if type(n) is not int or type(seed) is not int:
            raise CertificateError("n and seed must be integers")
        if not isinstance(levels, list) or not all(type(x) is int for x in levels):
            raise CertificateError("levels must be a list of integers")
        if not isinstance(labels, list) or not all(type(x) is int for x in labels):
            raise CertificateError("labels must be a list of integers")
        if not isinstance(solver, str) or solver not in SOLVER_TAGS:
            raise CertificateError(f"unknown solver tag {solver!r}")
        if n != len(levels):
            raise CertificateError("n does not match levels length")
        return cls(n, tuple(levels), tuple(labels), solver, seed)


def verify_certificate(cert: Certificate) -> str | None:
    """Cold re-verification: None if the certificate proves its tree
    harmonious, else a reason.

    Re-derives edges from the level sequence and bucket-counts labels and
    edge sums on its own; nothing is shared with Tree construction, the
    solvers, or eval_labelling, so a bug there cannot hide here.
    """
    levels = cert.levels
    n = cert.n
    if n < 1 or len(levels) != n:
        return "bad node count"
    if levels[0] != 0:
        return "levels do not start at depth 0"
    for i in range(1, n):
        if levels[i] < 1 or levels[i] > levels[i - 1] + 1:
            return "malformed level sequence"
    labels = cert.labels
    if len(labels) != n:
        return "label count mismatch"
    if n == 1:
        return None
    m = n - 1
    value_counts = [0] * m
    for v in labels:
        if not 0 <= v < m:
            return "label out of range"
        value_counts[v] += 1
    for c in value_counts:
        if c == 0:
            return "label multiset not onto"
    sum_counts = [0] * m
    last_at = [0] * (n + 1)
    for i in range(1, n):
        parent = last_at[levels[i] - 1]
        last_at[levels[i]] = i
        s = (labels[i] + labels[parent]) % m
        sum_counts[s] += 1
        if sum_counts[s] > 1:
            return "duplicate edge label"
    return None
