"""CLI surface: formats, exit codes, flag plumbing."""

import contextlib
import hashlib
import io
import json

import pytest

from treeharmony import hybrid
from treeharmony.cli import _config_from_args, build_parser, main
from treeharmony.config import SolveOutcome, SolverConfig
from treeharmony.generate import free_trees
from treeharmony.labelling import Certificate, verify_certificate
from treeharmony.trees import format_level_sequence


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ #
# gen / count                                                         #
# ------------------------------------------------------------------ #

def test_gen_nodes_4(capsys):
    code, out, _ = run(capsys, "gen", "--nodes", "4")
    assert code == 0
    assert out.splitlines() == ["0,1,2,1", "0,1,1,1"]
    # `count --nodes` is the one way to print the enumerated count
    with pytest.raises(SystemExit) as usage:
        main(["gen", "--nodes", "7", "--count-only"])
    assert usage.value.code == 2
    assert "unrecognized arguments: --count-only" in capsys.readouterr().err


def test_gen_single_node(capsys):
    code, out, _ = run(capsys, "gen", "--nodes", "1")
    assert code == 0 and out.strip() == "0"


def test_gen_invalid_n(capsys):
    code, _, err = run(capsys, "gen", "--nodes", "0")
    assert code == 2 and "at least 1" in err


@pytest.mark.parametrize("argv", [
    ["count", "--nodes", "0"],
    ["sweep", "--min", "3", "--max", "2", "--out", "o", "--checkpoint", "c"],
    ["sweep", "--min", "2", "--max", "2", "--jobs", "0", "--out", "o", "--checkpoint", "c"],
    ["sweep", "--min", "2", "--max", "2", "--block-size", "0", "--out", "o",
     "--checkpoint", "c"],
], ids=["count-nodes", "sweep-range", "sweep-jobs", "sweep-block-size"])
def test_library_argument_checks_exit_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "at least 1" in err or "1 <= n_min <= n_max" in err
    assert list(tmp_path.iterdir()) == []


def test_count_matches(capsys):
    code, out, _ = run(capsys, "count", "--nodes", "10")
    assert code == 0
    assert out.strip() == "enumerated=106 formula=106"
    code, out, _ = run(capsys, "count", "--nodes", "3")
    assert code == 0 and out.strip() == "enumerated=1 formula=1"
    code, out, _ = run(capsys, "count", "--nodes", "14")
    assert code == 0 and out.strip() == "enumerated=3159 formula=3159"


# ------------------------------------------------------------------ #
# solve                                                               #
# ------------------------------------------------------------------ #

def test_solve_p3(capsys):
    code, out, _ = run(capsys, "solve", "--levels", "0,1,1", "--seed", "7")
    assert code == 0
    cert = Certificate.from_json_line(out.strip())
    assert cert.n == 3 and cert.seed == 7
    assert sorted(cert.labels).count(0) == 2  # normalized: duplicate is 0
    assert verify_certificate(cert) is None


def test_solve_single_solver_tag(capsys):
    code, out, _ = run(capsys, "solve", "--levels", "0,1,1,1",
                       "--pipeline", "twostage")
    assert code == 0
    assert Certificate.from_json_line(out.strip()).solver == "twostage"
    # --pipeline is the one way to name the solvers
    with pytest.raises(SystemExit) as usage:
        main(["solve", "--levels", "0,1,1,1", "--solver", "twostage"])
    assert usage.value.code == 2
    assert "unrecognized arguments: --solver" in capsys.readouterr().err


# SHA-256 of the `solve --levels L --pipeline TAG --seed 7` output lines
# (no --pipeline for "hybrid", the full pipeline), concatenated, for every
# tree L with 2 <= n <= 9 in enumeration order.  Measured with the since
# removed `--solver TAG` flag, before it ran the one-solver pipeline (TAG,):
# the hybrid and twostage values are that output byte for byte; for backtrack
# (8 failures) and tabu (50) it is that output with each failure record's
# stats nested as {"attempts": [{"solver": TAG, ...}]}, the shape the
# pipeline gives them.
SOLVE_SOLVER_DIGESTS = {
    "hybrid": "7b933dd54880de9c685cbfc28e401e9a22f5eee1d3e45e835855e295c8cf63fd",
    "twostage": "7b933dd54880de9c685cbfc28e401e9a22f5eee1d3e45e835855e295c8cf63fd",
    "backtrack": "ce4fde55a71eb0a956fa5e5fa722e99e3e0f22885bb3251d26ad7ed391ee8e55",
    "tabu": "47bd883ee6cf4ba33335fccdbc7c9b295e872391617307d4c08a222a059c1a58",
}


@pytest.mark.parametrize("tag", sorted(SOLVE_SOLVER_DIGESTS))
def test_solve_solver_output_is_pinned(tag):
    digest = hashlib.sha256()
    for n in range(2, 10):
        for seq in free_trees(n):
            buf = io.StringIO()
            pipeline = [] if tag == "hybrid" else ["--pipeline", tag]
            with contextlib.redirect_stdout(buf):
                main(["solve", "--levels", format_level_sequence(seq),
                      *pipeline, "--seed", "7"])
            digest.update(buf.getvalue().encode())
    assert digest.hexdigest() == SOLVE_SOLVER_DIGESTS[tag]


def test_solve_single_node_succeeds_with_zero_runs(capsys):
    code, out, _ = run(capsys, "solve", "--levels", "0", "--pipeline", "backtrack",
                       "--backtrack-restarts", "0")
    assert code == 0 and Certificate.from_json_line(out.strip()).solver == "backtrack"


def test_solve_malformed_levels(capsys):
    code, _, err = run(capsys, "solve", "--levels", "0,2,1")
    assert code == 2 and "index 1" in err


def test_solve_non_canonical_input_is_canonicalized(capsys):
    code, out, _ = run(capsys, "solve", "--levels", "0,1,1,2")
    assert code == 0
    cert = Certificate.from_json_line(out.strip())
    assert cert.levels == (0, 1, 2, 1)


def test_solve_failure_record(capsys):
    code, out, _ = run(capsys, "solve", "--levels", "0,1,2,1",
                       "--twostage-runs", "0", "--backtrack-restarts", "0",
                       "--tabu-max-iters", "0")
    assert code == 1
    rec = json.loads(out.strip())
    assert rec["failed"] and len(rec["stats"]["attempts"]) == 3
    # one solver alone fails with the pipeline's record shape
    code, out, _ = run(capsys, "solve", "--levels", "0,1,2,1", "--pipeline", "tabu",
                       "--tabu-max-iters", "0")
    assert code == 1
    [attempt] = json.loads(out.strip())["stats"]["attempts"]
    assert attempt["solver"] == "tabu" and attempt["iterations"] == 0


def test_solve_refuses_a_bad_labelling(capsys, monkeypatch):
    # make_certificate is the one check between a solver and the output
    monkeypatch.setitem(hybrid.SOLVERS, "twostage",
                        lambda tree, cfg, seed: SolveOutcome(
                            True, (0,) * tree.n, "twostage", {}))
    code, out, err = run(capsys, "solve", "--levels", "0,1,2,1")
    assert code == 2 and out == "" and "cannot normalize" in err


def test_solve_unknown_pipeline_tag(capsys):
    code, _, err = run(capsys, "solve", "--levels", "0,1,1",
                       "--pipeline", "twostage,magic")
    assert code == 2 and "magic" in err


def test_config_file_bulk_settings(capsys, tmp_path):
    cfgfile = tmp_path / "solver.cfg"
    cfgfile.write_text(
        "twostage_runs = 0\n"
        "backtrack_restarts = 0   # comment\n"
        "tabu_max_iters = 0\n"
        "pipeline = twostage,backtrack,tabu\n")
    code, out, _ = run(capsys, "solve", "--levels", "0,1,2,1",
                       "--config", str(cfgfile))
    assert code == 1  # all limits zeroed via the file
    # flags override the file
    code, out, _ = run(capsys, "solve", "--levels", "0,1,2,1",
                       "--config", str(cfgfile), "--twostage-runs", "50")
    assert code == 0


def test_config_file_seed_used_unless_seed_flag(capsys, tmp_path):
    cfgfile = tmp_path / "solver.cfg"
    cfgfile.write_text("global_seed = 5\n")
    code, out, _ = run(capsys, "solve", "--levels", "0,1,2,1", "--config", str(cfgfile))
    assert code == 0 and Certificate.from_json_line(out.strip()).seed == 5
    code, out, _ = run(capsys, "solve", "--levels", "0,1,2,1", "--config", str(cfgfile),
                       "--seed", "11")
    assert code == 0 and Certificate.from_json_line(out.strip()).seed == 11


def test_flags_parse_like_config_file_lines(tmp_path):
    settings = {
        "backtrack_limit": "7", "backtrack_restarts": "3", "tabu_sample_pairs": "4",
        "tabu_tenure": "2", "tabu_max_iters": "none", "twostage_runs": "9",
        "stage1_budget": "11", "stage2_budget": "13", "pipeline": "tabu,twostage",
        "global_seed": "17",
    }
    cfgfile = tmp_path / "solver.cfg"
    cfgfile.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
    flags = []
    for key, value in settings.items():
        flags += ["--seed" if key == "global_seed" else "--" + key.replace("_", "-"), value]
    parser = build_parser()
    common = ["solve", "--levels", "0,1,1"]
    from_flags = _config_from_args(parser.parse_args(common + flags))
    from_file = _config_from_args(parser.parse_args(common + ["--config", str(cfgfile)]))
    assert from_flags == from_file == SolverConfig().with_overrides(settings)
    assert from_flags.fingerprint() == from_file.fingerprint()
    assert from_flags.tabu_max_iters is None and from_flags.global_seed == 17


def test_bad_integer_flag_names_its_key(capsys):
    code, _, err = run(capsys, "solve", "--levels", "0,1,1", "--twostage-runs", "ten")
    assert code == 2 and "twostage_runs" in err and "'ten'" in err
    code, _, err = run(capsys, "solve", "--levels", "0,1,1", "--seed", "1.5")
    assert code == 2 and "global_seed" in err
    # "none" is the one spelling of no tabu_max_iters of its own
    code, _, err = run(capsys, "solve", "--levels", "0,1,1", "--tabu-max-iters", "auto")
    assert code == 2 and "tabu_max_iters: not an integer: 'auto'" in err


# ------------------------------------------------------------------ #
# sweep + verify                                                      #
# ------------------------------------------------------------------ #

def test_sweep_then_verify(capsys, tmp_path):
    out_file = tmp_path / "r.jsonl"
    ck = tmp_path / "c.txt"
    code, _, err = run(capsys, "sweep", "--min", "2", "--max", "7",
                       "--seed", "1", "--jobs", "2",
                       "--out", str(out_file), "--checkpoint", str(ck))
    assert code == 0
    assert "n=7 total=11 solved=11" in err
    assert len(out_file.read_text().splitlines()) == 1 + 1 + 2 + 3 + 6 + 11
    assert (tmp_path / "r.jsonl.report.jsonl").exists()

    code, _, err = run(capsys, "verify", str(out_file))
    assert code == 0 and "24 certificates ok" in err


def test_sweep_all_limits_zero_exits_1(capsys, tmp_path):
    code, _, err = run(capsys, "sweep", "--min", "2", "--max", "4",
                       "--out", str(tmp_path / "r.jsonl"),
                       "--checkpoint", str(tmp_path / "c.txt"),
                       "--twostage-runs", "0", "--backtrack-restarts", "0",
                       "--tabu-max-iters", "0")
    assert code == 1
    assert err.count("candidate counterexample:") == 4


def test_sweep_checkpoint_mismatch_exits_2(capsys, tmp_path):
    args = ["sweep", "--min", "2", "--max", "4",
            "--out", str(tmp_path / "r.jsonl"),
            "--checkpoint", str(tmp_path / "c.txt")]
    assert run(capsys, *args)[0] == 0
    code, _, err = run(capsys, *args, "--seed", "9")
    assert code == 2 and "checkpoint" in err
    # the refusal names the flag that restarts, not sweep()'s keyword
    assert "pass --fresh to restart" in err and "fresh=True" not in err
    assert run(capsys, *args, "--seed", "9", "--fresh")[0] == 0


def test_verify_detects_mutation(capsys, tmp_path):
    out_file = tmp_path / "r.jsonl"
    run(capsys, "sweep", "--min", "2", "--max", "6",
        "--out", str(out_file), "--checkpoint", str(tmp_path / "c.txt"))
    lines = out_file.read_text().splitlines()
    rec = json.loads(lines[-1])
    # overwrite a value that occurs once: the multiset is no longer onto
    labels = rec["labels"]
    i = next(i for i, v in enumerate(labels) if labels.count(v) == 1)
    labels[i] = labels[i - 1]
    lines[-1] = json.dumps(rec)
    bad_file = tmp_path / "bad.jsonl"
    bad_file.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "verify", str(bad_file))
    assert code == 1
    assert "duplicate edge label" in err or "label multiset not onto" in err


def test_verify_rejects_repeated_tree(capsys, tmp_path):
    # a block written twice (a stop between the certificate flush and the
    # checkpoint rename, then a resume) repeats trees that each verify
    out_file = tmp_path / "r.jsonl"
    run(capsys, "sweep", "--min", "2", "--max", "7",
        "--out", str(out_file), "--checkpoint", str(tmp_path / "c.txt"))
    lines = out_file.read_text().splitlines()
    assert json.loads(lines[9])["n"] == 6
    dup_file = tmp_path / "dup.jsonl"
    dup_file.write_text("\n".join(lines[:10] + lines[9:]) + "\n")
    code, _, err = run(capsys, "verify", str(dup_file))
    assert code == 1 and "line 11:" in err and "n=6" in err


def test_verify_empty_file_warns(capsys, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code, _, err = run(capsys, "verify", str(empty))
    assert code == 0 and "warning" in err


def test_verify_malformed_line_exits_2(capsys, tmp_path):
    f = tmp_path / "m.jsonl"
    f.write_text('{"n":3,"levels":[0,1,1],"labels":[0,0,1],"solver":"tabu","seed":1}\nnot json\n')
    code, _, err = run(capsys, "verify", str(f))
    assert code == 2 and "line 2" in err


# one JSON boolean where an integer belongs: Python loads true and false
# as bool, a subclass of int, yet the record is malformed
@pytest.mark.parametrize("record", [
    '{"n":true,"levels":[0],"labels":[0],"solver":"twostage","seed":1}',
    '{"n":3,"levels":[0,true,true],"labels":[0,0,1],"solver":"twostage","seed":1}',
    '{"n":3,"levels":[0,1,1],"labels":[false,false,true],"solver":"twostage","seed":1}',
    '{"n":3,"levels":[0,1,1],"labels":[0,0,1],"solver":"twostage","seed":false}',
], ids=["n", "levels", "labels", "seed"])
def test_verify_rejects_booleans_as_integers(capsys, tmp_path, record):
    f = tmp_path / "b.jsonl"
    f.write_text('{"n":2,"levels":[0,1],"labels":[0,0],"solver":"twostage","seed":1}\n'
                 + record + "\n")
    code, _, err = run(capsys, "verify", str(f))
    assert code == 2 and "line 2: malformed record" in err


def test_verify_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "verify", str(tmp_path / "nope.jsonl"))
    assert code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["gen"])  # missing --nodes
    assert err.value.code == 2
