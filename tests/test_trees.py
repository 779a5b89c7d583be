"""Tree representation, canonical form, centers, leaf classification."""

import random
from itertools import permutations

import pytest

from random_trees import random_tree
from treeharmony.generate import free_trees
from treeharmony.trees import (LevelSequenceError, Tree, canonical_from_edges,
                               canonicalize, centers, edges, format_level_sequence,
                               internal_nodes, is_caterpillar, leaves,
                               parse_level_sequence, rooted_level_sequence,
                               validate_level_sequence)


def tree(*seq):
    return Tree.from_level_sequence(seq)


# ------------------------------------------------------------------ #
# Parsing and validation                                              #
# ------------------------------------------------------------------ #

def test_parse_round_trip():
    assert parse_level_sequence("0,1,2,1") == (0, 1, 2, 1)
    assert format_level_sequence((0, 1, 2, 1)) == "0,1,2,1"
    assert parse_level_sequence(" 0, 1 ,1 ") == (0, 1, 1)


@pytest.mark.parametrize("text,index", [
    ("1,2,1", 0),      # first depth nonzero
    ("0,2,1", 1),      # depth jump > 1
    ("0,1,3", 2),      # depth jump > 1 later
    ("0,1,0", 2),      # second zero
    ("0,x", 1),        # not an integer
])
def test_parse_errors_name_the_index(text, index):
    with pytest.raises(LevelSequenceError) as err:
        parse_level_sequence(text)
    assert err.value.index == index


def test_validate_rejects_empty():
    with pytest.raises(LevelSequenceError):
        validate_level_sequence(())


# ------------------------------------------------------------------ #
# Construction and edges                                              #
# ------------------------------------------------------------------ #

def test_from_level_sequence_p3():
    t = tree(0, 1, 1)
    assert t.parents == (-1, 0, 0)
    assert edges(t) == [(0, 1), (0, 2)]


def test_from_level_sequence_p4_center_rooting():
    # hand expansion of preorder depths: 1 under 0, 2 under 1, 3 under 0
    t = tree(0, 1, 2, 1)
    assert t.parents == (-1, 0, 1, 0)
    assert edges(t) == [(0, 1), (1, 2), (0, 3)]
    assert t.levels[2] == t.levels[1] + 1


def test_other_rooting_same_free_tree():
    # [0,1,1,2] is the same free tree as [0,1,2,1], rooted differently
    a = tree(0, 1, 1, 2)
    assert a.parents == (-1, 0, 0, 2)
    assert canonicalize(a) == (0, 1, 2, 1)
    assert canonicalize(tree(0, 1, 2, 1)) == (0, 1, 2, 1)


def test_adjacency_is_built_on_first_read_as_the_eager_build_was():
    for n in range(1, 11):
        for seq in free_trees(n):
            t = Tree.from_level_sequence(seq)
            assert t._adjacency is None
            eager = [[] for _ in range(n)]
            for i in range(1, n):
                eager[t.parents[i]].append(i)
                eager[i].append(t.parents[i])
            assert t.adjacency == tuple(tuple(a) for a in eager), seq
            assert t.adjacency is t.adjacency


def test_edges_single_node():
    assert edges(tree(0)) == []


def test_levels_invariant():
    t = tree(0, 1, 2, 3, 2, 1)
    for i in range(1, t.n):
        assert t.levels[i] == t.levels[t.parents[i]] + 1


# ------------------------------------------------------------------ #
# Centers                                                             #
# ------------------------------------------------------------------ #

def test_centers_examples():
    p5 = tree(0, 1, 2, 1, 2)        # path on 5 rooted at its middle
    assert centers(p5) == [0]
    p4 = tree(0, 1, 2, 1)
    assert centers(p4) == [0, 1]    # the two middle nodes
    star = tree(0, 1, 1, 1)
    assert centers(star) == [0]     # the hub


def test_centers_degenerate():
    assert centers(tree(0)) == [0]
    assert centers(tree(0, 1)) == [0, 1]


def test_bicentral_nodes_adjacent():
    rng = random.Random(20240)
    for _ in range(200):
        n = rng.randrange(2, 9)
        t = random_tree(n, rng)
        cs = centers(t)
        assert len(cs) in (1, 2)
        if len(cs) == 2:
            a, b = cs
            assert b in t.adjacency[a]


# ------------------------------------------------------------------ #
# Canonical form                                                      #
# ------------------------------------------------------------------ #

def test_canonicalize_idempotent():
    for seq in [(0,), (0, 1), (0, 1, 2, 1), (0, 1, 1, 1), (0, 1, 2, 2, 1)]:
        c = canonicalize(Tree.from_level_sequence(seq))
        assert canonicalize(Tree.from_level_sequence(c)) == c


def test_canonicalize_single_node():
    assert canonicalize(tree(0)) == (0,)


def test_canonicalize_round_trip_on_enumerated():
    for n in range(1, 9):
        for seq in free_trees(n):
            assert canonicalize(Tree.from_level_sequence(seq)) == seq


def _brute_isomorphic(t1: Tree, t2: Tree) -> bool:
    if t1.n != t2.n:
        return False
    e1 = {frozenset(e) for e in edges(t1)}
    e2 = {frozenset(e) for e in edges(t2)}
    for perm in permutations(range(t1.n)):
        if {frozenset((perm[u], perm[v])) for u, v in e1} == e2:
            return True
    return False


def _reference_rooted_level_sequence(adjacency, root):
    """rooted_level_sequence as it stood before it built each subtree's
    sequence in absolute depths: every parent shifted its children's
    sequences by one."""
    n = len(adjacency)
    parent = [-2] * n
    parent[root] = -1
    order = [root]
    for v in order:
        for w in adjacency[v]:
            if parent[w] == -2:
                parent[w] = v
                order.append(w)
    sub = [None] * n
    for v in reversed(order):
        kids = [sub[w] for w in adjacency[v] if parent[w] == v]
        if not kids:
            sub[v] = (0,)
            continue
        kids.sort(reverse=True)
        out = [0]
        for k in kids:
            out.extend(x + 1 for x in k)
        sub[v] = tuple(out)
    return sub[root]


def test_rooted_level_sequence_matches_the_reference():
    # every tree on 1..10 nodes under three random relabellings (edges in
    # random order too), rooted at every node; canonical_from_edges gives
    # back the enumerated canonical sequence
    rng = random.Random(0x5EC)
    calls = 0
    for n in range(1, 11):
        for seq in free_trees(n):
            for _ in range(3):
                perm = rng.sample(range(n), n)
                edge_list = [(perm[u], perm[v]) for u, v in edges(tree(*seq))]
                rng.shuffle(edge_list)
                adjacency = [[] for _ in range(n)]
                for u, v in edge_list:
                    adjacency[u].append(v)
                    adjacency[v].append(u)
                for root in range(n):
                    assert rooted_level_sequence(adjacency, root) == \
                        _reference_rooted_level_sequence(adjacency, root), (seq, perm, root)
                    calls += 1
                assert canonical_from_edges(n, edge_list) == seq, (seq, perm)
    assert calls == 3 * sum(len(list(free_trees(n))) * n for n in range(1, 11))


def test_canonicalize_matches_brute_force_isomorphism():
    # equal canonical sequences exactly when a permutation maps edge sets
    rng = random.Random(7)
    pairs = [(random_tree(rng.randrange(2, 9), rng),
              random_tree(rng.randrange(2, 9), rng)) for _ in range(40)]
    for t1, t2 in pairs:
        same = canonicalize(t1) == canonicalize(t2)
        assert same == _brute_isomorphic(t1, t2)


# ------------------------------------------------------------------ #
# Leaves, internal nodes, caterpillars                                #
# ------------------------------------------------------------------ #

def test_leaf_partition_examples():
    star = tree(0, 1, 1, 1)
    assert leaves(star) == {1, 2, 3}
    assert internal_nodes(star) == {0}
    p4 = tree(0, 1, 2, 1)
    assert leaves(p4) == {2, 3}
    assert internal_nodes(p4) == {0, 1}
    p2 = tree(0, 1)
    assert leaves(p2) == {0, 1}
    assert internal_nodes(p2) == frozenset()
    assert leaves(tree(0)) == {0}


def test_leaves_partition_property():
    rng = random.Random(99)
    for _ in range(100):
        t = random_tree(rng.randrange(1, 10), rng)
        assert leaves(t) | internal_nodes(t) == frozenset(range(t.n))
        assert not leaves(t) & internal_nodes(t)


def test_is_caterpillar():
    assert is_caterpillar(tree(0, 1, 2, 3, 2, 1))   # a path
    assert is_caterpillar(tree(0, 1, 1, 1))          # a star
    # spider with three legs of length 2: stripping leaves leaves a 3-star
    spider = tree(0, 1, 2, 1, 2, 1, 2)
    assert not is_caterpillar(spider)
    assert is_caterpillar(tree(0))
    assert is_caterpillar(tree(0, 1))
