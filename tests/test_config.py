"""SolverConfig validation, overrides, and the key=value file format."""

import pytest

from treeharmony.config import DEFAULT_SEED, SolverConfig


def test_defaults_are_valid():
    cfg = SolverConfig()
    assert cfg.pipeline == ("twostage", "backtrack", "tabu")
    assert cfg.global_seed == DEFAULT_SEED
    assert cfg.tabu_iteration_limit(12) == 20000 * 12
    assert SolverConfig(tabu_max_iters=5).tabu_iteration_limit(12) == 5


def test_negative_limit_rejected():
    with pytest.raises(ValueError):
        SolverConfig(backtrack_limit=-1)
    with pytest.raises(ValueError):
        SolverConfig(tabu_max_iters=-2)


@pytest.mark.parametrize("key, value", [
    ("twostage_runs", 3.0), ("stage2_budget", 1.5), ("global_seed", 1.5),
    ("backtrack_limit", True), ("stage1_budget", float("inf")), ("tabu_tenure", [8]),
    ("backtrack_restarts", None), ("tabu_max_iters", 5.0), ("global_seed", False),
])
def test_a_limit_or_seed_that_is_not_an_int_is_refused(key, value):
    # a float would reach the kernel, which takes ints only
    with pytest.raises(ValueError, match=f"^{key} must be an int"):
        SolverConfig(**{key: value})
    with pytest.raises(ValueError, match=f"^{key} must be an int"):
        SolverConfig().with_overrides({key: value})


def test_every_limit_takes_any_int_and_the_seed_a_negative_one():
    big = SolverConfig(twostage_runs=2**70, stage1_budget=2**64, tabu_max_iters=0)
    assert big.twostage_runs == 2**70 and big.tabu_max_iters == 0
    assert SolverConfig(global_seed=-3).global_seed == -3


def test_pipeline_validation():
    SolverConfig(pipeline=("twostage", "backtrack"))  # subsets allowed
    SolverConfig(pipeline=("tabu",))
    with pytest.raises(ValueError):
        SolverConfig(pipeline=())
    with pytest.raises(ValueError):
        SolverConfig(pipeline=("twostage", "twostage"))
    with pytest.raises(ValueError):
        SolverConfig(pipeline=("twostage", "nope"))


def test_with_overrides_parses_strings():
    cfg = SolverConfig().with_overrides({
        "backtrack_limit": "10",
        "tabu_max_iters": "none",
        "pipeline": "tabu,twostage",
        "global_seed": "9",
    })
    assert cfg.backtrack_limit == 10
    assert cfg.tabu_max_iters is None
    assert cfg.pipeline == ("tabu", "twostage")
    assert cfg.global_seed == 9


def test_with_overrides_rejects_unknown_key():
    with pytest.raises(ValueError):
        SolverConfig().with_overrides({"not_a_knob": "1"})
    # removed with solver version 4
    with pytest.raises(ValueError):
        SolverConfig().with_overrides({"perturb_rate": "0.01"})


def test_from_file(tmp_path):
    path = tmp_path / "solver.cfg"
    path.write_text(
        "# tuned for a quick smoke run\n"
        "twostage_runs = 3\n"
        "tabu_tenure=2\n"
        "\n"
        "pipeline = backtrack,tabu  # order matters\n")
    cfg = SolverConfig.from_file(path)
    assert cfg.twostage_runs == 3
    assert cfg.tabu_tenure == 2
    assert cfg.pipeline == ("backtrack", "tabu")


def test_from_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("this is not key value\n")
    with pytest.raises(ValueError):
        SolverConfig.from_file(path)
