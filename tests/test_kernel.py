"""The compiled search kernel: the same draws as the Python reference,
the 64-node limit, what each entry refuses, no undefined behaviour, and
how it is built and loaded."""

import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from random_trees import random_tree
import search_reference
from treeharmony import backtracking, native, twostage
from treeharmony.backtracking import solve_backtracking
from treeharmony.config import SolverConfig
from treeharmony.generate import free_trees
from treeharmony.hybrid import benchmark_solvers, sweep
from treeharmony.trees import Tree, internal_nodes, rooted_level_sequence
from treeharmony.twostage import (LeafCSP, build_leaf_csp, solve_leaf_csp,
                                  solve_twostage, stage1_internal)

SRC = Path(__file__).resolve().parent.parent / "src"
CFG = SolverConfig()
# a budget no search spends: above long long, so the kernel clamps it
UNBOUNDED = 2**63
BUDGETS = (0, 1, 150, UNBOUNDED)


# ------------------------------------------------------------------ #
# stage1 and solve_backtracking against the reference                 #
# ------------------------------------------------------------------ #

def test_stage1_matches_reference():
    # every tree on 3..10 nodes and 300 random trees on 3..64 nodes (the
    # last 20 on 64, where the values fill the 64-bit mask), each at
    # budgets 0, 1, 150 and unbounded.  The kernel's stage1 on its own
    # generator and the reference's label_dfs on the stage-1 shape,
    # drawing from random.Random(seed), give the same labels and
    # backtracks; stage1_internal gives the reference's internal labels
    # as a dict in ascending node order
    rng = random.Random(0x4B)
    trees = [Tree.from_level_sequence(seq) for n in range(3, 11) for seq in free_trees(n)]
    trees += [random_tree(64 if i >= 280 else rng.randrange(3, 65), rng) for i in range(300)]
    stage1 = native.kernel().stage1
    seen = set()
    for tree in trees:
        for budget in BUDGETS:
            seed = rng.getrandbits(64)
            want = search_reference.stage1(tree, budget, random.Random(seed))
            assert stage1(tree.parents, budget, seed) == want, (tree.levels, budget, seed)
            got = stage1_internal(tree, replace(CFG, stage1_budget=budget), seed)
            labels = want[0]
            if labels is None:
                assert got is None
            else:
                assert list(got.items()) == [(v, f) for v, f in enumerate(labels) if f >= 0]
                assert all((f < 0) == (len(tree.adjacency[v]) == 1)
                           for v, f in enumerate(labels))
            seen.add((labels is not None, want[1] > 0))
    assert len(trees) == 499
    assert seen == {(True, False), (True, True), (False, False), (False, True)}, seen


def test_solve_backtracking_matches_the_reference_loop_at_64_nodes():
    # the widest masks of the unweighted search: 63 values under a drawn
    # root label, at limits 0, 1 and 20 over up to three restarts
    rng = random.Random(0x40)
    for _ in range(20):
        tree = random_tree(64, rng)
        for limit in (0, 1, 20):
            cfg = SolverConfig(backtrack_limit=limit, backtrack_restarts=3)
            seed = rng.getrandbits(64)
            got = solve_backtracking(tree, cfg, seed)
            want = search_reference.solve_backtracking(tree, cfg, random.Random(seed))
            assert (got.success, got.labels, got.stats) == \
                (want.success, want.labels, want.stats), (tree.levels, limit, seed)


# ------------------------------------------------------------------ #
# stage2 against the reference                                        #
# ------------------------------------------------------------------ #

def _both_leaf_searches(tree, partial, budget, seed):
    """The kernel's stage2 through solve_leaf_csp on *seed*, and the
    reference's build and search on random.Random(seed): both (result,
    on_prune calls)."""
    out = []
    for build, search, draws in (
            (build_leaf_csp, solve_leaf_csp, seed),
            (search_reference.build_leaf_csp, search_reference.solve_leaf_csp,
             random.Random(seed))):
        pruned = []
        result = search(build(tree, partial), draws, budget,
                        lambda *removal: pruned.append(removal))
        out.append((result, pruned))
    return out


def _count_against_reference(trees, rng):
    """Each tree with a stage-1 partial and a random injective one, which
    often leaves an empty domain or fails Hall at the root, at budgets
    0, 1, 150 and unbounded.  The kernel builds the leaf CSP from the
    tree and the labels, and gives the result and the removals, in the
    same order, through on_prune, that the reference gives on its own
    build.  Returns how many calls solved, failed and pruned, and how
    many partials left an empty domain or failed Hall at the root."""
    seen = dict.fromkeys(("solved", "failed", "pruned", "empty", "hall"), 0)
    for tree in trees:
        internal = sorted(internal_nodes(tree))
        partials = [stage1_internal(tree, CFG, rng.getrandbits(32)),
                    dict(zip(internal, rng.sample(range(tree.n), len(internal))))]
        for partial in partials:
            if partial is None:
                continue
            csp = search_reference.build_leaf_csp(tree, partial)
            empty = not all(csp.domain_masks)
            seen["empty"] += empty
            seen["hall"] += not (empty or search_reference._hall_holds(
                csp.domain_masks, csp.parent_labels, tree.n - 1))
            for budget in BUDGETS:
                got, want = _both_leaf_searches(tree, partial, budget, rng.getrandbits(64))
                assert got == want, (tree.levels, partial, budget)
                seen["solved" if want[0] is not None else "failed"] += 1
                seen["pruned"] += bool(want[1])
    return seen


def test_solve_leaf_csp_matches_reference():
    # every tree on 3..9 nodes, 1,000 random trees on 4..14 nodes and 400
    # on 3..64 nodes rooted at a random leaf, which no canonical sequence is
    rng = random.Random(0x1EAF)
    trees = [Tree.from_level_sequence(seq) for n in range(3, 10) for seq in free_trees(n)]
    trees += [random_tree(rng.randrange(4, 15), rng) for _ in range(1000)]
    for _ in range(400):
        tree = random_tree(rng.randrange(3, 65), rng)
        leaves = [v for v in range(tree.n) if len(tree.adjacency[v]) == 1]
        trees.append(Tree.from_level_sequence(
            rooted_level_sequence(tree.adjacency, rng.choice(leaves))))
    assert len(trees) == 93 + 1000 + 400
    seen = _count_against_reference(trees, rng)
    assert min(seen.values()) > 100, seen


def test_solve_leaf_csp_matches_reference_at_64_nodes():
    # 60 random trees on 64 nodes, where the values fill the 64-bit mask
    rng = random.Random(0x64)
    seen = _count_against_reference([random_tree(64, rng) for _ in range(60)], rng)
    assert min(seen[k] for k in ("solved", "failed", "pruned")) > 100, seen


def test_the_reference_loops_call_no_kernel(monkeypatch):
    # the kernel is held to the reference loops, so they must not run on it
    def no_kernel():
        raise AssertionError("a reference loop called the kernel")

    for module in (backtracking, twostage):
        monkeypatch.setattr(module, "kernel", no_kernel)
    tree = Tree.from_level_sequence((0, 1, 2, 1, 1))
    assert search_reference.solve_twostage(tree, CFG, random.Random(1)).success
    assert search_reference.solve_backtracking(tree, CFG, random.Random(1)).success


def test_more_than_64_nodes_is_a_value_error():
    rng = random.Random(65)
    tree = random_tree(65, rng)
    with pytest.raises(ValueError, match="at most 64 nodes"):
        stage1_internal(tree, CFG, 0)
    with pytest.raises(ValueError, match="at most 64 nodes, not 65"):
        native.kernel().stage1(tree.parents, 10, 0)
    internal = sorted(internal_nodes(tree))
    csp = build_leaf_csp(tree, dict(zip(internal, range(len(internal)))))
    with pytest.raises(ValueError, match="at most 64 nodes"):
        solve_leaf_csp(csp, 0)
    with pytest.raises(ValueError, match="at most 64 nodes"):
        solve_twostage(tree, CFG, 0)
    with pytest.raises(ValueError, match="at most 64 nodes"):
        solve_backtracking(tree, CFG, 0)


def test_solve_twostage_refuses_what_is_not_a_parent_array():
    # the kernel entry takes Tree.parents: -1, then an earlier node for
    # every other node; the n <= 2 trees stay in Python
    for parents in ((0, 0, 1), (-1, 0, 2), (-1, 0, -1), (-1, 0)):
        with pytest.raises(ValueError, match="parents|at least 3 nodes"):
            native.kernel().solve_twostage(parents, 1, 10, 10, 0)


def _entry_calls(seed):
    """A valid call of each kernel entry, with *seed* as its seed."""
    k = native.kernel()
    return (lambda: k.stage1((-1, 0, 1), 10, seed),
            lambda: k.stage2(*_stage2_args(seed=seed)),
            lambda: k.solve_twostage((-1, 0, 1), 1, 10, 10, seed),
            lambda: k.solve_backtracking((-1, 0, 1), 1, 10, seed))


def test_each_entry_refuses_a_seed_it_cannot_replay():
    # random.Random seeds a negative int by its absolute value and takes
    # ints of any size; the kernel's generator takes 0 <= seed < 2**64.
    # A generator, or its getrandbits, is not a seed.
    for seed in (-1, -2**64, 2**64, 2**100):
        for call in _entry_calls(seed):
            with pytest.raises(ValueError, match="^seed must be at least 0 and below 2"):
                call()
    for seed in (1.0, "1", None, random.Random(1), random.Random(1).getrandbits):
        for call in _entry_calls(seed):
            with pytest.raises(TypeError, match="^seed must be an int$"):
                call()
    for call in _entry_calls(2**64 - 1):
        assert call() is not None


# ------------------------------------------------------------------ #
# What the entries refuse                                             #
# ------------------------------------------------------------------ #

def _stage2_args(**changed):
    # a valid stage2 call: the 3-node star with its hub labelled 0
    args = {"parents": (-1, 0, 0), "labels": (0, -1, -1), "budget": 10, "seed": 0,
            "on_prune": None}
    args.update(changed)
    return tuple(args.values())


def test_each_entry_refuses_another_number_of_arguments():
    k = native.kernel()
    for name, count in (("stage1", 3), ("stage2", 5), ("solve_twostage", 5),
                        ("solve_backtracking", 4)):
        for nargs in (0, count - 1, count + 1):
            with pytest.raises(TypeError, match=f"^{name} takes {count} arguments$"):
                getattr(k, name)(*[0] * nargs)


def test_stage1_refusals():
    stage1 = native.kernel().stage1
    refused = [
        (TypeError, "integer", ((-1, 0, 1), "10", 0)),
        (TypeError, "integer", ((-1, 0, 1), None, 0)),
        (TypeError, "parents must be a sequence", (5, 10, 0)),
        (TypeError, "integer", ((-1, 0, "1"), 10, 0)),
        (ValueError, "at most 64 nodes, not 65", ((-1,) + tuple(range(64)), 10, 0)),
    ]
    # the n <= 2 trees, which have no internal node, stay in Python
    for parents in ((), (-1,), (-1, 0)):
        refused.append((ValueError, "^stage1 needs at least 3 nodes$", (parents, 10, 0)))
    for parents in ((0, 0, 1), (-1, 0, 2), (-1, 0, -1), (-1, 1, 0), (-1, 0, 3)):
        refused.append((ValueError, "^parents must be -1 for node 0 and an earlier node",
                        (parents, 10, 0)))
    for error, message, args in refused:
        with pytest.raises(error, match=message):
            stage1(*args)
    # a 64-node path is the largest tree it takes: nodes 1..62 are
    # internal and labelled, the two ends are leaves and are not
    labels, _ = stage1((-1,) + tuple(range(63)), UNBOUNDED, 0)
    assert labels[0] == labels[63] == -1 and min(labels[1:63]) >= 0


def test_stage2_refusals():
    stage2 = native.kernel().stage2
    assert stage2(*_stage2_args()) in ({1: 1, 2: 2}, {1: 2, 2: 1})
    refused = [
        (TypeError, "integer", {"budget": "10"}),
        (TypeError, "parents must be a sequence", {"parents": 5}),
        (TypeError, "integer", {"parents": (-1, 0, "0")}),
        (ValueError, "at most 64 nodes, not 65", {"parents": (-1,) + (0,) * 64}),
        (TypeError, "labels must be a sequence", {"labels": 5}),
        (TypeError, "integer", {"labels": (0, -1, None)}),
        (ValueError, "at most 64 nodes, not 65", {"labels": (0,) + (-1,) * 64}),
    ]
    # the n <= 2 trees, which have no internal node, have no leaf CSP
    for parents in ((), (-1,), (-1, 0)):
        refused.append((ValueError, "^stage2 needs at least 3 nodes$", {"parents": parents}))
    for parents in ((0, 0, 1), (-1, 0, 2), (-1, 0, -1), (-1, 1, 0), (-1, 0, 3)):
        refused.append((ValueError, "^parents must be -1 for node 0 and an earlier node",
                        {"parents": parents}))
    # the labels of stage 1: one per node, distinct values of 0..n-1 on
    # the internal nodes and -1 on each leaf
    for labels in ((0, -1), (0, -1, -1, -1), (3, -1, -1), (-1, -1, -1), (-2, -1, -1),
                   (2**62, -1, -1), (0, 1, -1), (0, -1, 0), (0, -1, -2)):
        refused.append((ValueError, "^labels must hold one label per node", {"labels": labels}))
    refused.append((ValueError, "^labels must hold one label per node",
                    {"parents": (-1, 0, 1, 0), "labels": (2, 2, -1, -1)}))
    for error, message, changed in refused:
        with pytest.raises(error, match=message):
            stage2(*_stage2_args(**changed))
    # value m is a value: on the 64-node path, whose ends are the leaves,
    # with labels 1..62 on the inner nodes, the free values are 0 and 63
    path = (-1,) + tuple(range(63))
    got = stage2(path, (-1,) + tuple(range(1, 63)) + (-1,), UNBOUNDED, 0, None)
    assert sorted(got.values()) == [0, 63]


def test_a_limit_is_an_int():
    # a float budget or run count is refused, math.inf included; an int
    # beyond long long stands for no limit
    for budget in (10.0, 1.5, math.inf):
        with pytest.raises(TypeError, match="integer"):
            native.kernel().stage1((-1, 0, 1), budget, 0)
        with pytest.raises(TypeError, match="integer"):
            solve_leaf_csp(LeafCSP((-1, 0, 0), (0, -1, -1)), 0, budget)
    path = (-1, 0, 1, 2, 3, 4)
    stage1 = native.kernel().stage1
    assert stage1(path, 2**70, 5) == stage1(path, 2**62, 5)
    assert stage1(path, -2**70, 5) == stage1(path, 0, 5)
    stage2 = native.kernel().stage2
    star = (-1, 0, 0, 0, 0)
    assert stage2(star, (2, -1, -1, -1, -1), 2**70, 5, None) == \
        stage2(star, (2, -1, -1, -1, -1), 2**62, 5, None)
    solve = native.kernel().solve_twostage
    for limits in ((3.0, 10, 10), (3, 10.0, 10), (3, 10, math.inf)):
        with pytest.raises(TypeError, match="integer"):
            solve((-1, 0, 1), *limits, 0)
    star = (-1, 0, 0, 0, 0)
    assert solve(star, 2**70, -2**70, 2**70, 5) == solve(star, 2**62, 0, 2**62, 5)
    solve = native.kernel().solve_backtracking
    for limits in ((3.0, 10), (3, 10.0), (3, math.inf)):
        with pytest.raises(TypeError, match="integer"):
            solve((-1, 0, 1), *limits, 0)
    path = (-1, 0, 1, 2)
    assert solve(path, 2**70, 2**70, 5) == solve(path, 2**62, 2**62, 5)


def test_an_on_prune_that_raises_stops_the_search():
    # on the 4-node path with internal labels 0 and 1, leaf 2 takes 2
    # (edge sum 0), which strikes 2 from leaf 3 and then 3, whose sum
    # with leaf 3's neighbour label 0 is 0 as well
    csp = build_leaf_csp(Tree.from_level_sequence((0, 1, 2, 1)), {0: 0, 1: 1})

    def on_prune(leaf, value, assigned):
        if when(value, assigned):
            raise RuntimeError("stop")

    assert solve_leaf_csp(csp, 0, on_prune=lambda *removal: None) is None
    for when in (lambda value, assigned: True,
                 lambda value, assigned: value not in assigned.values()):
        with pytest.raises(RuntimeError, match="stop"):
            solve_leaf_csp(csp, 0, on_prune=on_prune)


def test_solve_twostage_refusals():
    solve = native.kernel().solve_twostage
    refused = [
        (TypeError, "integer", ((-1, 0, 1), "1", 10, 10, 0)),
        (TypeError, "integer", ((-1, 0, 1), 1, "10", 10, 0)),
        (TypeError, "integer", ((-1, 0, 1), 1, 10, None, 0)),
        (TypeError, "parents must be a sequence", (5, 1, 10, 10, 0)),
        (TypeError, "integer", ((-1, 0, "1"), 1, 10, 10, 0)),
        (ValueError, "at most 64 nodes, not 65", ((-1,) + tuple(range(64)), 1, 10, 10, 0)),
        (ValueError, "at least 3 nodes", ((), 1, 10, 10, 0)),
    ]
    for error, message, args in refused:
        with pytest.raises(error, match=message):
            solve(*args)
    # a 64-node path is the largest tree the kernel takes
    assert solve((-1,) + tuple(range(63)), 1, 10, 10, 0)[1] == 1


def test_solve_backtracking_refusals():
    solve = native.kernel().solve_backtracking
    refused = [
        (TypeError, "integer", ((-1, 0, 1), "1", 10, 0)),
        (TypeError, "integer", ((-1, 0, 1), 1, None, 0)),
        (TypeError, "parents must be a sequence", (5, 1, 10, 0)),
        (TypeError, "integer", ((-1, 0, "1"), 1, 10, 0)),
        (ValueError, "at most 64 nodes, not 65", ((-1,) + tuple(range(64)), 1, 10, 0)),
        (ValueError, "^solve_backtracking needs at least 2 nodes$", ((-1,), 1, 10, 0)),
        (ValueError, "^solve_backtracking needs at least 2 nodes$", ((), 1, 10, 0)),
    ]
    # the kernel entry takes Tree.parents: -1, then an earlier node for
    # every other node; the one-node tree stays in Python
    for parents in ((0, 0), (0, 0, 1), (-1, 0, 2), (-1, 0, -1), (-1, 1), (-1, 0, 3)):
        refused.append((ValueError, "^parents must be -1 for node 0 and an earlier node",
                        (parents, 1, 10, 0)))
    for error, message, args in refused:
        with pytest.raises(error, match=message):
            solve(*args)
    # a 64-node path is the largest tree it takes; no restart uses none
    assert solve((-1,) + tuple(range(63)), 1, 10, 0)[2] == 1
    assert solve((-1, 0, 1), 0, 10, 0) == (None, 0, 0)


# ------------------------------------------------------------------ #
# Building and loading                                                #
# ------------------------------------------------------------------ #

def test_kernel_compiles_without_warnings(tmp_path):
    native.build(str(tmp_path / "kernel.so"), ("-Wall", "-Wextra", "-Werror"))
    assert (tmp_path / "kernel.so").stat().st_size > 0


# Run in a subprocess on the kernel built at sys.argv[1]: every entry on
# every tree with n <= 9 and on random trees on 3..64 nodes, at the
# default config and at small limits, stage2 with on_prune set,
# and each entry's refusals.
_EVERY_ENTRY = """
import random, sys
from importlib.machinery import ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader

from random_trees import random_tree
from treeharmony import native
from treeharmony.backtracking import solve_backtracking
from treeharmony.config import SolverConfig
from treeharmony.generate import free_trees
from treeharmony.trees import Tree
from treeharmony.twostage import (build_leaf_csp, solve_leaf_csp, solve_twostage,
                                  stage1_internal)

loader = ExtensionFileLoader("treeharmony._kernel", sys.argv[1])
native._kernel = module_from_spec(spec_from_loader(loader.name, loader))
loader.exec_module(native._kernel)
k = native.kernel()
rng = random.Random(0x0B)
small = SolverConfig(twostage_runs=3, stage1_budget=20, stage2_budget=20,
                     backtrack_limit=20, backtrack_restarts=3)
trees = [(Tree.from_level_sequence(seq), (SolverConfig(), small))
         for n in range(1, 10) for seq in free_trees(n)]
trees += [(random_tree(64 if i % 10 == 0 else rng.randrange(3, 65), rng), (small,))
          for i in range(300)]
solves = leaf_searches = refusals = 0
for tree, configs in trees:
    for cfg in configs:
        seed = rng.getrandbits(64)
        solve_twostage(tree, cfg, seed)
        solve_backtracking(tree, cfg, seed)
        partial = stage1_internal(tree, cfg, seed)
        if partial:
            csp = build_leaf_csp(tree, partial)
            solve_leaf_csp(csp, seed, cfg.stage2_budget, lambda *removal: None)
            leaf_searches += 1
        solves += 1
big = (-1,) + tuple(range(64))
refused = [(k.stage1, (big, 1, 0)), (k.stage1, ((-1, 0, 2), 1, 0)),
           (k.stage1, ((-1, 0, 1), 1.5, 0)), (k.stage1, ((-1, 0, 1), 1, -1)),
           (k.solve_twostage, (big, 1, 1, 1, 0)), (k.solve_backtracking, (big, 1, 1, 0)),
           (k.stage2, (big, (0,) * 65, 1, 0, None))]
# labels of the 3-node star that are not stage 1's: the wrong length,
# an internal label out of range (far out, too) or -1, and a labelled
# leaf; and a repeated internal label on the 4-node path
refused += [(k.stage2, ((-1, 0, 0), labels, 1, 0, None))
            for labels in ((0, -1), (3, -1, -1), (2**62, -1, -1), (-1, -1, -1), (0, 1, -1))]
refused.append((k.stage2, ((-1, 0, 1, 0), (2, 2, -1, -1), 1, 0, None)))
for entry, args in refused:
    try:
        entry(*args)
    except (TypeError, ValueError):
        refusals += 1
    else:
        raise AssertionError(args)
print(solves, leaf_searches, refusals)
"""


def test_the_kernel_runs_without_undefined_behaviour(tmp_path):
    # gcc's undefined-behaviour sanitizer, made to abort on its first
    # finding, checks the kernel's shifts, overflows and bounds while it
    # runs every entry
    path = tmp_path / "kernel.so"
    native.build(str(path), ("-fsanitize=undefined", "-fno-sanitize-recover=all"))
    env = _env()
    env["PYTHONPATH"] += os.pathsep + str(Path(__file__).resolve().parent)
    proc = subprocess.run([sys.executable, "-c", _EVERY_ENTRY, str(path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and "runtime error" not in proc.stderr, proc.stderr
    # each tree under each of its configs, a leaf search of most stage-1
    # partials, and each refusal
    solves, leaf_searches, refusals = map(int, proc.stdout.split())
    assert (solves, refusals) == (2 * 95 + 300, 13) and leaf_searches > 300, proc.stdout


def test_failed_build_names_the_command_and_its_output(tmp_path):
    # a missing header, as on a machine without the Python headers
    with pytest.raises(native.KernelBuildError) as info:
        native.build(str(tmp_path / "kernel.so"),
                     ("-include", str(tmp_path / "missing.h")))
    message = str(info.value)
    assert native.COMPILER in message and "missing.h" in message
    assert os.listdir(tmp_path) == []   # no partial output is left


def _env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def test_concurrent_first_builds_leave_one_intact_file(tmp_path):
    code = ("from treeharmony.native import kernel; "
            "print(kernel().__file__)")
    procs = [subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              text=True, env=_env(XDG_CACHE_HOME=str(tmp_path)))
             for _ in range(2)]
    paths = [proc.communicate()[0].strip() for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    built = list((tmp_path / "treeharmony").iterdir())
    assert [str(p) for p in built] == paths[:1] == paths[1:]


def _log_kernel_loads(log, monkeypatch):
    """Unload the kernel and have each load append its process's pid to
    *log*."""
    load = native._load

    def logged_load():
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return load()

    monkeypatch.setattr(native, "_kernel", None)
    monkeypatch.setattr(native, "_load", logged_load)


def test_a_sweep_loads_the_kernel_once_before_its_pool(tmp_path, monkeypatch):
    # a 2-worker sweep loads the kernel in its own process before the
    # pool forks the workers, which inherit it; a worker that loaded it
    # again would log its own pid.  A tabu-only sweep never loads it.
    log = tmp_path / "loads"
    _log_kernel_loads(log, monkeypatch)
    sweep(2, 6, replace(CFG, pipeline=("tabu",)), 2, out_path=str(tmp_path / "t.jsonl"),
          checkpoint_path=str(tmp_path / "t.ck"))
    assert native._kernel is None and not log.exists()
    sweep(2, 6, CFG, 2, out_path=str(tmp_path / "c.jsonl"),
          checkpoint_path=str(tmp_path / "c.ck"))
    assert log.read_text(encoding="utf-8").split() == [str(os.getpid())]


def test_benchmark_solvers_loads_the_kernel_once_before_its_pool(tmp_path, monkeypatch):
    log = tmp_path / "loads"
    _log_kernel_loads(log, monkeypatch)
    assert benchmark_solvers(6, CFG, 2)["trees"] == 6
    assert log.read_text(encoding="utf-8").split() == [str(os.getpid())]


def test_a_sweep_that_cannot_build_the_kernel_writes_nothing(tmp_path, monkeypatch):
    def no_compiler():
        raise native.KernelBuildError("cannot build the search kernel")

    monkeypatch.setattr(native, "_kernel", None)
    monkeypatch.setattr(native, "_load", no_compiler)
    with pytest.raises(native.KernelBuildError):
        sweep(2, 6, CFG, 2, out_path=str(tmp_path / "c.jsonl"),
              checkpoint_path=str(tmp_path / "c.ck"), report_path=str(tmp_path / "r"))
    assert os.listdir(tmp_path) == []


def test_verify_gen_and_count_need_no_compiler(tmp_path):
    # with no compiler on PATH and an empty cache, the commands that do
    # not solve run as usual and never load the kernel; a solve fails
    # with exit 2 and names the compiler command
    certs = tmp_path / "certs.jsonl"
    sweep(2, 7, CFG, out_path=str(certs), checkpoint_path=str(tmp_path / "ck"))
    code = (
        "import sys\n"
        "from treeharmony import native\n"
        "from treeharmony.cli import main\n"
        f"codes = [main(['verify', {str(certs)!r}]), main(['gen', '--nodes', '7']),\n"
        "         main(['count', '--nodes', '9'])]\n"
        "assert native._kernel is None, 'kernel loaded'\n"
        "codes.append(main(['solve', '--levels', '0,1,2,1']))\n"
        "print(codes)\n")
    empty = tmp_path / "bin"
    empty.mkdir()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_env(PATH=str(empty), XDG_CACHE_HOME=str(tmp_path / "cache")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[-2] == "[0, 0, 0, 2]"
    lines = len(certs.read_text().splitlines())
    assert f"verify: {lines} certificates ok" in proc.stderr
    assert "cannot build the search kernel: gcc" in proc.stderr
