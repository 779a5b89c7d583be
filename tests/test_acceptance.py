"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The sweep-scale
criteria use a process pool; the whole module targets a few minutes on
four cores.
"""

import json
import random
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from itertools import permutations
from pathlib import Path

import pytest

from treeharmony.config import SolverConfig
from treeharmony.generate import (count_free_trees_enumerated, free_trees,
                                  oracle_count_otter, oracle_enumerate_prufer,
                                  prufer_decode)
from treeharmony.hybrid import (benchmark_solvers, derive_seed,
                                make_certificate, solve_hybrid, sweep)
from treeharmony.labelling import (BIJECTIVE, Certificate, eval_labelling,
                                   exhaustive_search, is_harmonious,
                                   iter_harmonious_bijective,
                                   normalize_labelling, random_onto_labelling,
                                   shift_labelling, verify_certificate)
from treeharmony.tabu import TabuState
from treeharmony.trees import Tree, canonical_from_edges, is_caterpillar
from treeharmony.twostage import build_leaf_csp, solve_leaf_csp, stage1_internal

CFG = SolverConfig()

# t(1..16), also asserted against both counting paths in criterion 1
T_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320]


@contextmanager
def criterion(num: int, description: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {num:2d}: FAIL - {description}")
        raise
    print(f"\n[acceptance] criterion {num:2d}: PASS - {description} "
          f"({time.perf_counter() - t0:.1f}s)")


def random_tree(n: int, rng) -> Tree:
    if n <= 2:
        return Tree.from_level_sequence(tuple(range(n)))
    code = [rng.randrange(n) for _ in range(n - 2)]
    return Tree.from_level_sequence(canonical_from_edges(n, prufer_decode(n, code)))


# ------------------------------------------------------------------ #
# 1. Enumeration correctness                                          #
# ------------------------------------------------------------------ #

@pytest.mark.slow
def test_criterion_01_enumeration_counts():
    with criterion(1, "free-tree counts n=1..16 via both paths; "
                      "Pruefer set equality n<=9"):
        for n in range(1, 17):
            assert count_free_trees_enumerated(n) == T_COUNTS[n - 1]
            assert oracle_count_otter(n) == T_COUNTS[n - 1]
        for n in range(1, 9):
            assert set(free_trees(n)) == oracle_enumerate_prufer(n)
        # n=9 decodes 9^7 codes; chunk the rank space across processes
        total = 9 ** 7
        bounds = [total * k // 8 for k in range(9)]
        with ProcessPoolExecutor(max_workers=4) as pool:
            parts = pool.map(oracle_enumerate_prufer,
                             [9] * 8, bounds[:-1], bounds[1:])
            oracle = set().union(*parts)
        assert set(free_trees(9)) == oracle
        assert len(oracle) == 47


# ------------------------------------------------------------------ #
# 2. Scaled theorem check                                             #
# ------------------------------------------------------------------ #

def test_criterion_02_sweep_2_to_14(tmp_path):
    # criterion 1's own table sums to 5446 for n=2..14 (the criterion
    # text says 5,428 - an arithmetic slip; the Otter formula agrees
    # with 5446)
    expected_total = sum(T_COUNTS[1:14])
    assert expected_total == 5446 == sum(oracle_count_otter(n) for n in range(2, 15))
    with criterion(2, f"sweep 2..14 solves all {expected_total} trees, "
                      "zero failures, certificates verify cold"):
        out = tmp_path / "full.jsonl"
        reports = sweep(2, 14, CFG, workers=4, out_path=out,
                        checkpoint_path=tmp_path / "full.ck")
        assert sum(r.trees_total for r in reports) == expected_total
        assert sum(len(r.failures) for r in reports) == 0
        assert sum(r.trees_solved for r in reports) == expected_total
        lines = out.read_text().splitlines()
        assert len(lines) == expected_total
        for ln in lines:
            assert verify_certificate(Certificate.from_json_line(ln)) is None


# ------------------------------------------------------------------ #
# 3. Oracle agreement                                                 #
# ------------------------------------------------------------------ #

def test_criterion_03_exhaustive_oracle_agreement():
    with criterion(3, "every tree n<=9 is harmonious per the exhaustive "
                      "oracle; hybrid certificates lie in the oracle's "
                      "normalized solution set"):
        for n in range(1, 10):
            for index, seq in enumerate(free_trees(n)):
                tree = Tree.from_level_sequence(seq)
                result = exhaustive_search(tree)
                assert result.exists, seq
                out = solve_hybrid(tree, CFG, derive_seed(CFG.global_seed, n, index))
                assert out.success, seq
                cert = make_certificate(tree, out, 0)
                assert any(
                    normalize_labelling(tree, sol, BIJECTIVE) == cert.labels
                    for sol in iter_harmonious_bijective(tree)), seq


# ------------------------------------------------------------------ #
# 4. Verifier/objective equivalence                                   #
# ------------------------------------------------------------------ #

def test_criterion_04_eval_iff_harmonious():
    with criterion(4, "eval==0 <=> is_harmonious over 1e5+ random pairs, "
                      "zero discrepancies"):
        rng = random.Random(0xC4)
        pool = [random_tree(rng.randrange(2, 13), rng) for _ in range(400)]
        discrepancies = 0
        checked = 0
        for i in range(100000):
            tree = pool[i % len(pool)]
            f = random_onto_labelling(tree.n, rng)
            if (eval_labelling(tree, f) == 0) != is_harmonious(tree, f):
                discrepancies += 1
            checked += 1
        # exercise the harmonious side explicitly as well
        for i in range(4000):
            tree = pool[i % len(pool)]
            out = solve_hybrid(tree, CFG, rng.randrange(1 << 62))
            f = out.labels
            if (eval_labelling(tree, f) == 0) != is_harmonious(tree, f):
                discrepancies += 1
            checked += 1
        assert checked >= 100000
        assert discrepancies == 0


# ------------------------------------------------------------------ #
# 5. Shift invariance                                                 #
# ------------------------------------------------------------------ #

def test_criterion_05_shift_invariance():
    with criterion(5, "1e4 harmonious certificates: every shift stays "
                      "harmonious with unchanged eval; normalize idempotent"):
        rng = random.Random(0xC5)
        for k in range(10000):
            n = rng.randrange(2, 13)
            tree = random_tree(n, rng)
            out = solve_hybrid(tree, CFG, rng.randrange(1 << 62))
            assert out.success
            labels = normalize_labelling(tree, out.labels)
            base_eval = eval_labelling(tree, labels)
            assert base_eval == 0
            assert normalize_labelling(tree, labels) == labels
            for c in range(n - 1):
                shifted = shift_labelling(labels, c)
                assert is_harmonious(tree, shifted)
                assert eval_labelling(tree, shifted) == base_eval


# ------------------------------------------------------------------ #
# 6. Tabu correctness                                                 #
# ------------------------------------------------------------------ #

def test_criterion_06_tabu_incremental_eval():
    with criterion(6, "1e4 accepted swaps: delta equals full recomputation "
                      "exactly and strictly decreases eval"):
        rng = random.Random(0xC6)
        accepted = 0
        while accepted < 10000:
            n = rng.randrange(3, 13)
            tree = random_tree(n, rng)
            state = TabuState(tree, random_onto_labelling(n, rng))
            for _ in range(60):
                u = rng.randrange(n)
                v = (u + 1 + rng.randrange(n - 1)) % n
                d = state.delta_eval(u, v)
                before_eval = state.eval
                before_labels = list(state.labels)
                before_labels[u], before_labels[v] = \
                    before_labels[v], before_labels[u]
                assert d == eval_labelling(tree, before_labels) - before_eval
                if d < 0:
                    state.apply_swap(u, v)
                    assert state.eval == before_eval + d < before_eval
                    assert state.eval == eval_labelling(tree, state.labels)
                    accepted += 1
                    if state.eval == 0:
                        break


# ------------------------------------------------------------------ #
# 7. Forward-checking soundness                                       #
# ------------------------------------------------------------------ #

def _harmonious_completions_exist(tree: Tree, fixed: dict) -> bool:
    n = tree.n
    m = n - 1
    if len(set(fixed.values())) != len(fixed):
        return False
    rest_nodes = [v for v in range(n) if v not in fixed]
    rest_values = [v for v in range(n) if v not in fixed.values()]
    parent = tree.parents
    for perm in permutations(rest_values):
        labels = [0] * n
        for v, value in fixed.items():
            labels[v] = value
        for v, value in zip(rest_nodes, perm):
            labels[v] = value
        seen = 0
        ok = True
        for i in range(1, n):
            bit = 1 << ((labels[i] + labels[parent[i]]) % m)
            if seen & bit:
                ok = False
                break
            seen |= bit
        if ok:
            return True
    return False


def test_criterion_07_forward_checking_soundness():
    with criterion(7, "no value pruned by stage-2 forward checking on any "
                      "tree n<=8 participates in a harmonious completion"):
        rng = random.Random(0xC7)
        for n in range(3, 9):
            for seq in free_trees(n):
                tree = Tree.from_level_sequence(seq)
                for attempt in range(3):
                    partial = stage1_internal(tree, CFG, rng)
                    assert partial is not None
                    pruned = []
                    solve_leaf_csp(
                        build_leaf_csp(tree, partial), random.Random(attempt),
                        budget=10 ** 9,
                        on_prune=lambda leaf, value, assigned:
                        pruned.append((leaf, value, assigned)))
                    for leaf, value, assigned in pruned[:60]:
                        fixed = dict(partial)
                        fixed.update(assigned)
                        fixed[leaf] = value
                        assert not _harmonious_completions_exist(tree, fixed), \
                            (seq, partial, leaf, value, assigned)


# ------------------------------------------------------------------ #
# 8. Determinism                                                      #
# ------------------------------------------------------------------ #

def test_criterion_08_determinism(tmp_path):
    with criterion(8, "sweep 2..10 byte-identical across worker counts; "
                      "killed-and-resumed run matches uninterrupted"):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        sweep(2, 10, CFG, workers=1, out_path=a,
              checkpoint_path=tmp_path / "a.ck")
        sweep(2, 10, CFG, workers=3, out_path=b,
              checkpoint_path=tmp_path / "b.ck", block_size=16)
        ref = a.read_text()
        assert ref == b.read_text()

        class Killed(Exception):
            pass

        blocks = []

        def kill_after_ten_blocks(n, completed):
            blocks.append(n)
            if len(blocks) == 10:
                raise Killed

        cut = tmp_path / "cut.jsonl"
        ck = tmp_path / "cut.ck"
        with pytest.raises(Killed):
            sweep(2, 10, CFG, workers=2, out_path=cut, checkpoint_path=ck,
                  block_size=10, progress=kill_after_ten_blocks)
        partial = cut.read_text()
        assert 0 < len(partial.splitlines()) < len(ref.splitlines())
        sweep(2, 10, CFG, workers=2, out_path=cut, checkpoint_path=ck,
              block_size=10)
        assert cut.read_text() == ref


# ------------------------------------------------------------------ #
# 9. Caterpillar smoke test                                           #
# ------------------------------------------------------------------ #

def test_criterion_09_caterpillars_without_tabu():
    with criterion(9, "all caterpillars n<=14 solved by twostage+backtrack "
                      "alone, zero failures"):
        cfg = SolverConfig(pipeline=("twostage", "backtrack"))
        total = 0
        for n in range(2, 15):
            for index, seq in enumerate(free_trees(n)):
                tree = Tree.from_level_sequence(seq)
                if not is_caterpillar(tree):
                    continue
                out = solve_hybrid(tree, cfg, derive_seed(cfg.global_seed, n, index))
                assert out.success, seq
                assert is_harmonious(tree, out.labels)
                total += 1
        assert total == 2143  # caterpillar count for 2..14, frozen


# ------------------------------------------------------------------ #
# 10. Pipeline trend report                                           #
# ------------------------------------------------------------------ #

@pytest.mark.slow
def test_criterion_10_benchmark_report():
    with criterion(10, "n=12 per-solver benchmark generated and archived "
                       "(trend read manually, not machine-asserted)"):
        report = benchmark_solvers(12, CFG, workers=4)
        assert report["trees"] == 551
        for tag in ("twostage", "backtrack", "tabu"):
            solver = report["solvers"][tag]
            assert 0.0 <= solver["success_rate"] <= 1.0
            assert solver["mean_time"] > 0.0
        out_dir = Path(__file__).resolve().parent.parent / "reports"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / "solver_trend_n12.json"
        path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"\n[acceptance] benchmark archived at {path}:")
        for tag in ("twostage", "backtrack", "tabu"):
            solver = report["solvers"][tag]
            print(f"[acceptance]   {tag:10s} success_rate={solver['success_rate']:.3f} "
                  f"mean_time={solver['mean_time'] * 1000:.2f}ms")
