"""Solver configuration and outcome records shared by all solvers.

Every empirical limit the search needs lives here with an explicit
default, overridable per run via a key=value config file or CLI flags of
the same names (``--seed`` sets ``global_seed``), both read by
:meth:`SolverConfig.with_overrides`.  The default seed is a fixed
constant rather than entropy so bare invocations are replayable.
"""

import json
import zlib
from dataclasses import dataclass, field, fields, replace
from typing import Any

DEFAULT_SEED = 1000003

# Version of the solvers' search and RNG draws.  Bump it whenever any
# solver's search or draws change: the same seeds then give other
# labellings, so certificates of another version do not replay.
# Version 2: stage 2 of the two-stage solver runs a Hall prefilter and
# sibling refutation.  Version 3: stage 1 of the two-stage solver only
# returns partials with sum((deg(v) - 1) * f(v)) = 0 (mod n-1).
# Version 4: both searches draw each candidate when they try it, not a
# shuffled list per depth; stage 1 checks the congruence one node early;
# stage 2 runs its Hall check below the root once it has backtracked;
# perturbation is gone.
SOLVER_VERSION = 4

PIPELINE_TAGS = ("twostage", "backtrack", "tabu")


@dataclass(frozen=True)
class SolverConfig:
    """Limits and tenures for the three solvers, the hybrid pipeline
    order, and the sweep's global seed."""

    backtrack_limit: int = 50000      # backtrack events allowed per restart
    backtrack_restarts: int = 20      # independent runs per solve call
    tabu_sample_pairs: int = 30
    tabu_tenure: int = 8
    tabu_max_iters: int | None = None  # None: 20000 * n
    twostage_runs: int = 10000
    stage1_budget: int = 2000         # backtracks for the internal-node stage
    stage2_budget: int = 150          # backtracks for the leaf CSP
    pipeline: tuple[str, ...] = PIPELINE_TAGS
    global_seed: int = DEFAULT_SEED

    def __post_init__(self):
        for f in fields(self):
            if f.name in ("pipeline", "tabu_max_iters", "global_seed"):
                continue
            if getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be non-negative")
        if self.tabu_max_iters is not None and self.tabu_max_iters < 0:
            raise ValueError("tabu_max_iters must be non-negative")
        if not self.pipeline:
            raise ValueError("pipeline must name at least one solver")
        if len(set(self.pipeline)) != len(self.pipeline):
            raise ValueError("pipeline tags must be distinct")
        for tag in self.pipeline:
            if tag not in PIPELINE_TAGS:
                raise ValueError(f"unknown solver tag {tag!r}")

    def fingerprint(self) -> str:
        """16 hex digits naming SOLVER_VERSION and every field but
        ``global_seed``: what, beside the seed, decides each tree's
        labelling.  They are the CRC-32s of the settings' JSON text read
        forwards and backwards, a guard against mixing configs by
        mistake rather than a cryptographic digest; hashlib would load
        OpenSSL, a few MB, into every sweep process."""
        settings = {f.name: getattr(self, f.name) for f in fields(self)
                    if f.name != "global_seed"}
        settings["solver_version"] = SOLVER_VERSION
        data = json.dumps(settings, sort_keys=True).encode("utf-8")
        return f"{zlib.crc32(data):08x}{zlib.crc32(data[::-1]):08x}"

    def tabu_iteration_limit(self, n: int) -> int:
        if self.tabu_max_iters is not None:
            return self.tabu_max_iters
        return 20000 * n

    @classmethod
    def from_file(cls, path) -> "SolverConfig":
        """Read key=value lines ('#' comments allowed); keys are the
        field names above."""
        overrides = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value")
                key, value = (part.strip() for part in line.split("=", 1))
                overrides[key] = value
        return cls().with_overrides(overrides)

    def with_overrides(self, overrides: dict[str, Any]) -> "SolverConfig":
        """Apply string or typed overrides keyed by field name.  A string
        parses as in a config file: comma-separated tags for ``pipeline``,
        ``none`` or ``auto`` for ``tabu_max_iters``, else an integer."""
        known = {f.name: f for f in fields(self)}
        parsed = {}
        for key, value in overrides.items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            if not isinstance(value, str):
                parsed[key] = value
                continue
            if key == "pipeline":
                parsed[key] = tuple(t.strip() for t in value.split(",") if t.strip())
            elif key == "tabu_max_iters" and value.lower() in ("none", "auto"):
                parsed[key] = None
            else:
                try:
                    parsed[key] = int(value)
                except ValueError:
                    raise ValueError(f"{key}: not an integer: {value!r}") from None
        return replace(self, **parsed)


@dataclass
class SolveOutcome:
    """Result of one solve call: raw solver labels (make_certificate checks
    and normalizes them) or a failure, plus per-solver search statistics."""

    success: bool
    labels: tuple[int, ...] | None
    solver: str
    stats: dict = field(default_factory=dict)
