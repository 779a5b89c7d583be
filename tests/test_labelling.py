"""Edge labelling, Eval, the verifier, normalization, the exhaustive
oracle, and certificate records.

Expected values in the example tests were recomputed by hand from the
edge lists (P3 edges (0,1),(0,2); P4 edges (0,1),(1,2),(0,3)) before
being frozen here; the larger checks compare two independent routes.
"""

import random
from itertools import permutations

import pytest

from completions import harmonious_completions
from random_trees import random_tree
from treeharmony.generate import free_trees
from treeharmony.labelling import (Certificate, CertificateError,
                                   check_labelling, eval_labelling,
                                   exhaustive_search, induced_edge_labels,
                                   is_harmonious, iter_harmonious_bijective,
                                   normalize_labelling, random_onto_labelling,
                                   shift_labelling, verify_certificate)
from treeharmony.trees import Tree

P3 = Tree.from_level_sequence((0, 1, 1))
P4 = Tree.from_level_sequence((0, 1, 2, 1))
STAR4 = Tree.from_level_sequence((0, 1, 1, 1))
N1 = Tree.from_level_sequence((0,))
N2 = Tree.from_level_sequence((0, 1))


# ------------------------------------------------------------------ #
# Induced edge labels and Eval                                        #
# ------------------------------------------------------------------ #

def test_induced_edge_labels_examples():
    assert induced_edge_labels(P3, (0, 0, 1)) == (0, 1)
    # P4 edges (0,1),(1,2),(0,3): 0+1, 1+2, 0+2 mod 3
    assert induced_edge_labels(P4, (0, 1, 2, 2)) == (1, 0, 2)
    assert induced_edge_labels(N2, (0, 0)) == (0,)


def test_induced_edge_labels_length_mismatch():
    with pytest.raises(ValueError):
        induced_edge_labels(P4, (0, 1, 2))


def test_eval_examples():
    assert eval_labelling(P4, (0, 1, 2, 2)) == 0       # sums 1,0,2 all distinct
    # sums of (1,0,2,0) are 1,2,1: two distinct, eval 3-2=1
    assert eval_labelling(P4, (1, 0, 2, 0)) == 1
    assert eval_labelling(P3, (1, 0, 1)) == 0           # sums 1,0
    assert eval_labelling(N1, (0,)) == 0
    assert eval_labelling(N2, (0, 0)) == 0


def test_eval_range_and_extremes():
    rng = random.Random(314)
    for _ in range(300):
        n = rng.randrange(3, 11)
        t = random_tree(n, rng)
        f = random_onto_labelling(n, rng)
        assert 0 <= eval_labelling(t, f) <= n - 2
    # all edge sums coincide on a star labelled root 0, leaves shifted:
    # star n=3 with f=[0,1,1] has sums 1,1 -> eval = n-2
    star3 = Tree.from_level_sequence((0, 1, 1))
    assert eval_labelling(star3, (0, 1, 1)) == 1


# ------------------------------------------------------------------ #
# Verifier                                                            #
# ------------------------------------------------------------------ #

def test_is_harmonious_examples():
    assert is_harmonious(P3, (0, 0, 1))
    assert not is_harmonious(P4, (1, 0, 2, 0))  # duplicate edge sum
    assert is_harmonious(N1, (5,))              # single node, by convention
    assert is_harmonious(N2, (0, 0))


def test_check_labelling_reasons():
    assert check_labelling(P4, (0, 1, 2)) == "length mismatch"
    assert check_labelling(P4, (0, 1, 2, 3)) == "label out of range"
    assert check_labelling(P4, (0, 1, 1, 0)) == "label multiset not onto"
    assert check_labelling(P4, (1, 0, 2, 0)) == "duplicate edge label"
    # a permutation of 0..n-1 is checked in its reduced form
    assert check_labelling(P4, shift_labelling((0, 3, 1, 2), 0)) is None
    with pytest.raises(TypeError):  # one model, so no model argument
        check_labelling(P4, (0, 3, 1, 2), "bijective")


def test_eval_iff_harmonious():
    rng = random.Random(2718)
    for _ in range(3000):
        n = rng.randrange(2, 11)
        t = random_tree(n, rng)
        f = random_onto_labelling(n, rng)
        assert (eval_labelling(t, f) == 0) == is_harmonious(t, f)


# ------------------------------------------------------------------ #
# Shift and normalization                                             #
# ------------------------------------------------------------------ #

def test_shift_examples():
    assert shift_labelling((0, 0, 1), 1) == (1, 1, 0)
    assert shift_labelling((0, 0, 1), 0) == (0, 0, 1)
    assert shift_labelling((2, 2, 0, 1), 1) == (0, 0, 1, 2)


def test_shift_invariance():
    rng = random.Random(1618)
    checked = 0
    while checked < 400:
        n = rng.randrange(2, 11)
        t = random_tree(n, rng)
        f = random_onto_labelling(n, rng)
        e = eval_labelling(t, f)
        h = is_harmonious(t, f)
        for c in range(n - 1):
            g = shift_labelling(f, c)
            assert eval_labelling(t, g) == e
            assert is_harmonious(t, g) == h
        checked += 1


def test_normalize_examples():
    # bijective star labelling: 3 = 0 mod 3
    assert normalize_labelling(STAR4, shift_labelling((3, 0, 1, 2), 0)) == (0, 0, 1, 2)
    # onto labelling with duplicated value 2: shift by +1 mod 3
    assert normalize_labelling(P4, (2, 2, 0, 1)) == (0, 0, 1, 2)
    assert normalize_labelling(P4, (0, 0, 1, 2)) == (0, 0, 1, 2)  # idempotent


def test_normalize_not_harmonious():
    with pytest.raises(ValueError):
        normalize_labelling(P4, (1, 0, 2, 0))


def test_normalize_can_place_duplicate_off_root():
    # reducing a bijective labelling merges 0 and n-1 wherever they sit
    f = shift_labelling((1, 2, 0, 3), 0)
    assert is_harmonious(P4, f)
    norm = normalize_labelling(P4, f)
    assert norm == (1, 2, 0, 0)
    assert is_harmonious(P4, norm)


def test_normalize_properties():
    rng = random.Random(4242)
    done = 0
    while done < 300:
        n = rng.randrange(2, 10)
        t = random_tree(n, rng)
        f = random_onto_labelling(n, rng)
        if not is_harmonious(t, f):
            continue
        norm = normalize_labelling(t, f)
        assert is_harmonious(t, norm)
        assert normalize_labelling(t, norm) == norm
        if n >= 3:
            assert sorted(norm).count(0) == 2  # duplicated value is 0
        done += 1


def test_random_onto_labelling_is_onto():
    rng = random.Random(55)
    for _ in range(200):
        n = rng.randrange(1, 12)
        f = random_onto_labelling(n, rng)
        assert len(f) == n
        if n >= 2:
            assert set(f) == set(range(n - 1))


# ------------------------------------------------------------------ #
# Exhaustive oracle                                                   #
# ------------------------------------------------------------------ #

def test_exhaustive_p3():
    # hand enumeration of the 6 permutations leaves 4 harmonious ones
    result = exhaustive_search(P3)
    assert result.exists and result.count == 4
    assert is_harmonious(P3, shift_labelling(result.witness, 0))


def test_exhaustive_n2():
    assert exhaustive_search(N2).count == 2


def test_exhaustive_n1():
    assert exhaustive_search(N1) == (True, 1, (0,))


def test_exhaustive_rejects_big_n():
    big = Tree.from_level_sequence(tuple([0] + [1] * 11))
    with pytest.raises(ValueError):
        exhaustive_search(big)


def test_exhaustive_matches_permutation_filter():
    # dual route: pruned DFS count == literal n! filter, every tree n <= 7
    for n in range(1, 8):
        for seq in free_trees(n):
            t = Tree.from_level_sequence(seq)
            assert exhaustive_search(t).count == len(harmonious_completions(t, {}))


def test_reduced_permutation_is_harmonious_iff_oracle_yields_it():
    # the one labelling model covers the oracle's bijective one: reducing
    # a permutation mod n-1 keeps its edge sums, so it passes the onto
    # check exactly when the oracle enumerates it
    for n in range(2, 8):
        for seq in free_trees(n):
            t = Tree.from_level_sequence(seq)
            solutions = set(iter_harmonious_bijective(t))
            for f in permutations(range(n)):
                g = shift_labelling(f, 0)
                assert is_harmonious(t, g) == (f in solutions), (seq, f)
                if f in solutions:
                    norm = normalize_labelling(t, g)
                    assert norm == g and norm.count(0) == 2, (seq, f)


def test_iter_solutions_are_harmonious_and_sorted():
    sols = list(iter_harmonious_bijective(P4))
    assert sols == sorted(sols)
    assert len(sols) == len(set(sols)) == 8
    for f in sols:
        assert sorted(f) == [0, 1, 2, 3]
        assert is_harmonious(P4, shift_labelling(f, 0))


# ------------------------------------------------------------------ #
# Certificates                                                        #
# ------------------------------------------------------------------ #

def _cert(levels, labels, solver="twostage", seed=7):
    return Certificate(len(levels), tuple(levels), tuple(labels), solver, seed)


def test_certificate_json_round_trip():
    cert = _cert((0, 1, 2, 1), (0, 0, 1, 2))
    again = Certificate.from_json_line(cert.to_json_line())
    assert again == cert


@pytest.mark.parametrize("line", [
    "not json",
    "[1,2,3]",
    '{"n":3,"levels":[0,1,1],"labels":[0,0,1],"solver":"twostage"}',   # no seed
    '{"n":4,"levels":[0,1,1],"labels":[0,0,1],"solver":"twostage","seed":1}',  # n mismatch
    '{"n":3,"levels":[0,1,1],"labels":[0,0,1],"solver":"magic","seed":1}',     # bad tag
    '{"n":3,"levels":[0,"x",1],"labels":[0,0,1],"solver":"tabu","seed":1}',
])
def test_certificate_malformed(line):
    with pytest.raises(CertificateError):
        Certificate.from_json_line(line)


def test_verify_certificate_good_and_mutated():
    cert = _cert((0, 1, 2, 1), (0, 0, 1, 2))
    assert verify_certificate(cert) is None
    # mutate one label: either the multiset breaks or an edge sum repeats
    bad1 = _cert((0, 1, 2, 1), (0, 0, 1, 1))
    assert verify_certificate(bad1) == "label multiset not onto"
    bad2 = _cert((0, 1, 2, 1), (1, 0, 2, 0))
    assert verify_certificate(bad2) == "duplicate edge label"
    bad3 = _cert((0, 1, 2, 1), (0, 0, 1, 9))
    assert verify_certificate(bad3) == "label out of range"
    bad4 = _cert((0, 2, 2, 1), (0, 0, 1, 2))
    assert verify_certificate(bad4) == "malformed level sequence"


def test_verify_certificate_trivial_sizes():
    assert verify_certificate(_cert((0,), (0,))) is None
    assert verify_certificate(_cert((0, 1), (0, 0))) is None
