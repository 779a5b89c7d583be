#!/usr/bin/env python3
"""Benchmark of the treeharmony certify pipeline.

    python3 perfbench/run.py --workload sweep_n13_jobs2 --seed 1 --seconds 40 --trace 0

Runs one workload against the package under ``src/`` of this checkout,
checks every output apart from the program and prints, as the last line
of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics
of untraced runs; ``--trace 1`` runs the workload serially with the layer
wrappers of ``tracing.py`` installed and reports the per-layer metrics.
See README.md in this directory for the workloads and the metrics.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 15       # set-ups timed per run; setup_s is their median
VERIFY_SECONDS = 1.0    # untraced cold re-verification time per traced run
SERIAL_PIECE = 64       # trees per piece of the serial reference sweep
SERIAL_PROCS = 2        # processes that share the serial reference sweep

# Kind, n, worker count and solver pipeline (None: default) of each
# workload.  A "sweep" runs hybrid.sweep, "blocks" solves the kept trees
# block by block as a sweep would.
WORKLOADS = {
    "sweep_n13_jobs2": ("sweep", 13, 2, None),
    "fallback_n9": ("blocks", 9, 1, ("tabu", "backtrack")),
}

# The three trees on 9 nodes that fail both tabu and backtracking on
# most seeds (see README.md); fallback_n9 leaves them out so that no seed
# fails.
FALLBACK_LEFT_OUT = {
    (0, 1, 2, 2, 2, 2, 2, 1, 2),
    (0, 1, 2, 2, 2, 1, 2, 2, 2),
    (0, 1, 2, 2, 2, 1, 2, 1, 1),
}

if not (SRC / "treeharmony" / "__init__.py").is_file():
    sys.exit(f"perfbench: no treeharmony sources under {SRC}")
sys.path.insert(0, str(SRC))

import treeharmony  # noqa: E402
from treeharmony import (DEFAULT_SEED, GENERATOR_VERSION, Certificate,  # noqa: E402
                         SolverConfig, free_trees, hybrid,
                         oracle_count_otter, verify_certificate)

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402

if Path(treeharmony.__file__).resolve().parent != SRC / "treeharmony":
    sys.exit(f"perfbench: imported treeharmony from {treeharmony.__file__}, not {SRC}")


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _round_seed(seed, k):
    """Global seed of round k: round 0 uses the given seed itself."""
    return seed + (k << 32)


class Workload:
    """Inputs of one workload and the round that certifies them."""

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.kind, self.n, self.workers, self.pipeline = WORKLOADS[name]
        oracle_count_otter(self.n)
        OUT.mkdir(exist_ok=True)
        self.blocks = []
        if self.kind == "blocks":
            # Contiguous index ranges of the kept trees, solved as sweep
            # blocks so each tree keeps the seed a sweep would give it.
            start, seqs = None, []
            for index, seq in enumerate(free_trees(self.n)):
                if seq in FALLBACK_LEFT_OUT:
                    if seqs:
                        self.blocks.append((start, seqs))
                    start, seqs = None, []
                    continue
                if start is None:
                    start = index
                seqs.append(seq)
            if seqs:
                self.blocks.append((start, seqs))

    def config(self, k):
        cfg = SolverConfig(global_seed=_round_seed(self.seed, k))
        if self.pipeline is not None:
            cfg = cfg.with_overrides({"pipeline": self.pipeline})
        return cfg

    def run(self, k, workers=None, tag=""):
        """One round; returns (trees, failures, output path, solver CPU
        seconds summed over blocks)."""
        workers = self.workers if workers is None else workers
        path = OUT / f"{self.name}.r{k}{tag}.jsonl"
        if self.kind == "sweep":
            [report] = hybrid.sweep(self.n, self.n, self.config(k), workers,
                                    out_path=str(path),
                                    checkpoint_path=str(path.with_suffix(".ck")),
                                    fresh=True)
            return report.trees_total, report.failures, path, report.cpu_time
        lines, failures, cpu = [], [], 0.0
        for start, seqs in self.blocks:
            results, block_cpu = hybrid._solve_block(self.n, start, seqs, self.config(k))
            cpu += block_cpu
            for _, line, info in results:
                if line is None:
                    failures.append(info)
                else:
                    lines.append(line + "\n")
        path.write_text("".join(lines), encoding="utf-8")
        return sum(len(s) for _, s in self.blocks), failures, path, cpu

    def expected(self):
        """Trees the certificate file must name, in order, after the
        census of n has been checked."""
        seqs = list(free_trees(self.n))
        problems = checks.check_census(self.n, seqs)
        if self.kind == "blocks":
            seqs = [s for s in seqs if s not in FALLBACK_LEFT_OUT]
        return seqs, problems


def check_outputs(wl, rounds):
    """Checks of every round's output; returns a list of problems."""
    seqs, problems = wl.expected()
    for _, failures, path, _ in rounds:
        if failures:
            problems.append(f"candidate counterexamples: {failures}")
        lines = path.read_text(encoding="utf-8").splitlines()
        problems += checks.check_certificates(lines, seqs)
        if lines:
            problems += checks.negative_control(lines[0])
    return problems


class _PartDone(Exception):
    pass


def _stop_after_block(n, completed):
    raise _PartDone


def serial_part(n, cfg, path, start, count):
    """Trees start .. start+count-1 of a serial sweep: a sweep resumed
    from a checkpoint at *start* and stopped after one block."""
    ck = Path(f"{path}.ck")
    Path(path).write_text("", encoding="utf-8")
    if start:
        ck.write_text(f"n={n} completed={start} seed={cfg.global_seed} "
                      f"gen={GENERATOR_VERSION}\n", encoding="utf-8")
    try:
        hybrid.sweep(n, n, cfg, out_path=str(path), checkpoint_path=str(ck),
                     fresh=not start, block_size=count, progress=_stop_after_block)
    except _PartDone:
        pass


def _serial_pieces(wl):
    """(file, first tree, tree count) of each piece of the serial sweep
    of round 0."""
    total = oracle_count_otter(wl.n)
    return [(OUT / f"{wl.name}.r0.serial{i:03d}.jsonl", start,
             min(SERIAL_PIECE, total - start))
            for i, start in enumerate(range(0, total, SERIAL_PIECE))]


def serial_share(wl, j):
    """Pieces j, j + SERIAL_PROCS, ... of the serial sweep of round 0."""
    for part in _serial_pieces(wl)[j::SERIAL_PROCS]:
        serial_part(wl.n, wl.config(0), *part)


def serial_reference(wl, path):
    """Byte identity of round 0's parallel file, at *path*, with a serial
    sweep of the same round.  The serial sweep runs as resumed pieces of
    SERIAL_PIECE trees, dealt in turn to SERIAL_PROCS fresh interpreters,
    which divides its wall time; the costly trees sit at the end of the
    enumeration, so pieces must be small to keep the processes equally
    busy.  Every process is waited for, on every way out."""
    procs = []
    try:
        for j in range(SERIAL_PROCS):
            procs.append(subprocess.Popen(
                [sys.executable, str(HERE / "run.py"), "--serial-share", str(j),
                 "--workload", wl.name, "--seed", str(wl.seed)], cwd=ROOT))
        codes = [proc.wait() for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if any(codes):
        raise RuntimeError(f"serial reference exited with {codes}")
    parts = _serial_pieces(wl)
    if b"".join(p.read_bytes() for p, _, _ in parts) != path.read_bytes():
        return ["parallel certificate file differs from the serial one"]
    return []


def time_setup(name, seed):
    """Median wall time from process start until the first timed call
    could begin, over SETUP_PROBES fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "run.py"), "--probe",
                               "--workload", name, "--seed", str(seed)],
                              cwd=ROOT, stdout=subprocess.PIPE) as proc:
            ready = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or ready.strip() != b"ready":
            raise RuntimeError("set-up probe failed")
        times.append(t1 - t0)
    return statistics.median(times)


def measure(wl, seconds):
    """Untraced rounds for at least *seconds*; end-to-end metrics."""
    rounds, rates, cpu_ms = [], [], []
    start = time.perf_counter()
    k = 0
    while True:
        c0, t0 = _cpu_s(), time.perf_counter()
        result = wl.run(k)
        t1 = time.perf_counter()
        rounds.append(result)
        rates.append(result[0] / (t1 - t0))
        cpu_ms.append((_cpu_s() - c0) * 1e3 / result[0])
        k += 1
        if t1 - start >= seconds:
            break
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_kb = own + (wl.workers * kids if wl.workers > 1 else 0)
    trees = sum(r[0] for r in rounds)
    t_checks = time.perf_counter()
    problems = check_outputs(wl, rounds)
    if wl.workers > 1:
        problems += serial_reference(wl, rounds[0][2])
    t_setup = time.perf_counter()
    setup_s = time_setup(wl.name, wl.seed)
    print(f"perfbench: rounds {t_checks - start:.1f} s, checks {t_setup - t_checks:.1f} s, "
          f"set-up probes {time.perf_counter() - t_setup:.1f} s", file=sys.stderr)
    metrics = {
        "setup_s": (setup_s, "s"),
        "trees_per_s": (statistics.median(rates), "1/s"),
        "cpu_ms_per_tree": (statistics.median(cpu_ms), "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    print(f"perfbench: {wl.name} seed={wl.seed} rounds={k} trees/s min "
          f"{min(rates):.1f} median {statistics.median(rates):.1f} max {max(rates):.1f}",
          file=sys.stderr)
    return trees, rounds, problems, metrics


def verify_pass(lines, parse, verify):
    bad = 0
    for line in lines:
        bad += verify(parse(line)) is not None
    return bad


def trace(wl):
    """Untraced round, then the same round serially with the layer
    wrappers installed; per-layer metrics."""
    t0 = time.perf_counter()
    plain = wl.run(0)
    plain_wall = time.perf_counter() - t0
    plain_cpu = plain[3]

    tracer = Tracer()
    tracer.install()
    try:
        traced = tracer.span("hybrid.run", wl.run)(0, workers=1, tag=".traced")
    finally:
        tracer.uninstall()
    problems = check_outputs(wl, [plain, traced])
    if plain[2].read_bytes() != traced[2].read_bytes():
        problems.append("traced run wrote other certificates than the untraced run")

    lines = traced[2].read_text(encoding="utf-8").splitlines()
    parse = tracer.span("labelling.parse", Certificate.from_json_line)
    verify = tracer.span("labelling.verify", verify_certificate,
                         lambda _: tracer.count("labelling.verify_calls"))
    tracer.span("labelling.pass", verify_pass)(lines, parse, verify)
    rates = []
    start = time.perf_counter()
    while time.perf_counter() - start < VERIFY_SECONDS:
        p0 = time.perf_counter()
        if verify_pass(lines, Certificate.from_json_line, verify_certificate):
            problems.append("cold verifier rejected a certificate")
            break
        rates.append(len(lines) / (time.perf_counter() - p0))
    verify_rate = statistics.median(rates) if rates else 0.0

    metrics = tracer.metrics()
    traced_wall = tracer.layer_times()[0]["hybrid.run"]
    if wl.workers > 1:
        # The traced run is serial; compare the solver CPU of the blocks.
        overhead = traced[3] - plain_cpu
        busy = plain_cpu / (plain_wall * wl.workers)
    else:
        overhead = traced_wall - plain_wall
        busy = plain_cpu / plain_wall
    extra = {
        "labelling.verify_certs_per_s": (verify_rate, "1/s"),
        "hybrid.worker_busy": (busy, "ratio"),
        "trace.untraced_wall_s": (plain_wall, "s"),
        "trace.overhead_s": (overhead, "s"),
    }
    metrics.update({k: {"value": v, "unit": u} for k, (v, u) in extra.items()})
    tracer.write(OUT / f"{wl.name}.spans.csv")
    trees = plain[0] + traced[0]
    return trees, [plain, traced], problems, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="set up the workload, print 'ready' and exit (times setup_s)")
    ap.add_argument("--serial-share", type=int, metavar="J",
                    help="run share J of the serial reference sweep and exit")
    args = ap.parse_args(argv)

    wl = Workload(args.workload, args.seed)
    if args.probe:
        print("ready", flush=True)
        return 0
    if args.serial_share is not None:
        serial_share(wl, args.serial_share)
        return 0
    for stale in OUT.glob(f"{wl.name}.*"):
        stale.unlink()
    if args.trace:
        trees, rounds, problems, metrics = trace(wl)
    else:
        trees, rounds, problems, metrics = measure(wl, args.seconds)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    for p in problems:
        print(f"perfbench: FAIL {p}", file=sys.stderr)
    failed = sum(len(r[1]) for r in rounds)
    print(json.dumps({"correct": not problems, "attempted": trees,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
