"""Outside-in layer trace for the treeharmony pipeline.

Timing wrappers are installed from here around the functions that the
program looks up at call time as module globals (``hybrid.SOLVERS``,
``hybrid.solve_hybrid``, ``hybrid.make_certificate``, ``hybrid._solve_block``,
``hybrid.free_trees``, ``hybrid.Tree`` and the three stage functions in
``twostage``), so ``src/`` stays untouched.  Spans are kept in memory as
(name, start, end, parent) and every per-layer metric is derived from them
and from counts taken at the same boundaries.

Layers are the modules in ``src/treeharmony/``; a span belongs to the
layer named before the first dot of its name.
"""

import statistics
import time

from treeharmony import hybrid, twostage

LAYERS = ("generate", "trees", "twostage", "backtracking", "tabu",
          "labelling", "hybrid")

# Candidate tail percentiles, highest first; the reported one is the
# highest with at least ten trees beyond it.
_TAIL_PCTS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Tracer:
    def __init__(self):
        self.spans = []      # (name, start, end, parent index or -1)
        self._stack = []
        self.counts = {}
        self.twostage_runs = []   # runs per solve_twostage call
        self._saved = []

    def span(self, name, fn, on_result=None):
        """Return fn wrapped so that each call records one span."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def count(self, key, k=1):
        self.counts[key] = self.counts.get(key, 0) + k

    # -- installation -------------------------------------------------

    def _patch(self, obj, attr, value, item=False):
        if item:
            self._saved.append((obj, attr, obj[attr], True))
            obj[attr] = value
        else:
            self._saved.append((obj, attr, getattr(obj, attr), False))
            setattr(obj, attr, value)

    def install(self):
        def on_twostage(out):
            self.twostage_runs.append(out.stats.get("runs", 0))

        def on_stage1(partial):
            self.count("twostage.stage1_fail", partial is None)

        def on_stage2(assignment):
            self.count("twostage.stage2_calls")
            self.count("twostage.stage2_fail", assignment is None)

        def on_backtrack(out):
            self.count("backtracking.calls")
            self.count("backtracking.solved", out.success)
            self.count("backtracking.backtracks", out.stats.get("backtracks", 0))

        def on_tabu(out):
            self.count("tabu.calls")
            self.count("tabu.solved", out.success)
            self.count("tabu.iterations", out.stats.get("iterations", 0))

        solvers = hybrid.SOLVERS
        self._patch(solvers, "twostage",
                    self.span("twostage.solve", solvers["twostage"], on_twostage), item=True)
        self._patch(solvers, "backtrack",
                    self.span("backtracking.solve", solvers["backtrack"], on_backtrack), item=True)
        self._patch(solvers, "tabu",
                    self.span("tabu.solve", solvers["tabu"], on_tabu), item=True)
        self._patch(twostage, "stage1_internal",
                    self.span("twostage.stage1", twostage.stage1_internal, on_stage1))
        self._patch(twostage, "build_leaf_csp",
                    self.span("twostage.csp_build", twostage.build_leaf_csp))
        self._patch(twostage, "solve_leaf_csp",
                    self.span("twostage.stage2", twostage.solve_leaf_csp, on_stage2))
        self._patch(hybrid, "solve_hybrid",
                    self.span("hybrid.solve", hybrid.solve_hybrid))
        self._patch(hybrid, "_solve_block",
                    self.span("hybrid.block", hybrid._solve_block,
                              lambda _: self.count("hybrid.blocks")))
        self._patch(hybrid, "make_certificate",
                    self.span("labelling.certify", hybrid.make_certificate))
        build = self.span("trees.build", hybrid.Tree.from_level_sequence)
        self._patch(hybrid, "Tree", type("TracedTree", (), {
            "from_level_sequence": staticmethod(build)}))
        free_trees = hybrid.free_trees
        self._patch(hybrid, "free_trees", lambda n: _TracedStream(self, free_trees(n)))

    def uninstall(self):
        while self._saved:
            obj, attr, value, item = self._saved.pop()
            if item:
                obj[attr] = value
            else:
                setattr(obj, attr, value)

    # -- derived metrics ----------------------------------------------

    def layer_times(self):
        """Total span time per span name, self time per layer, and the
        summed duration of the root spans (the traced wall time)."""
        total = {}
        self_time = dict.fromkeys(LAYERS, 0.0)
        child = [0.0] * len(self.spans)
        wall = 0.0
        for name, t0, t1, parent in self.spans:
            dur = t1 - t0
            total[name] = total.get(name, 0.0) + dur
            if parent < 0:
                wall += dur
            else:
                child[parent] += dur
        for (name, t0, t1, _), inner in zip(self.spans, child):
            self_time[name.split(".", 1)[0]] += (t1 - t0) - inner
        return total, self_time, wall

    def metrics(self):
        total, self_time, wall = self.layer_times()
        c = self.counts.get
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        runs = self.twostage_runs
        put("twostage.s", total.get("twostage.solve", 0.0), "s")
        put("twostage.runs", sum(runs), "count")
        put("twostage.runs_per_tree_p50", statistics.median(runs) if runs else 0, "count")
        put("twostage.runs_per_tree_max", max(runs, default=0), "count")
        put("twostage.stage1_s", total.get("twostage.stage1", 0.0), "s")
        put("twostage.stage1_fail", c("twostage.stage1_fail", 0), "count")
        put("twostage.csp_build_s", total.get("twostage.csp_build", 0.0), "s")
        put("twostage.stage2_s", total.get("twostage.stage2", 0.0), "s")
        put("twostage.stage2_calls", c("twostage.stage2_calls", 0), "count")
        put("twostage.stage2_fail", c("twostage.stage2_fail", 0), "count")
        calls2 = c("twostage.stage2_calls", 0)
        put("twostage.stage2_useful",
            (calls2 - c("twostage.stage2_fail", 0)) / calls2 if calls2 else 0.0, "ratio")
        for layer, tag in (("backtracking", "backtracks"), ("tabu", "iterations")):
            put(f"{layer}.calls", c(f"{layer}.calls", 0), "count")
            put(f"{layer}.solved", c(f"{layer}.solved", 0), "count")
            put(f"{layer}.s", total.get(f"{layer}.solve", 0.0), "s")
            put(f"{layer}.{tag}", c(f"{layer}.{tag}", 0), "count")
        put("generate.trees", c("generate.trees", 0), "count")
        put("generate.s", total.get("generate.next", 0.0), "s")
        put("trees.build_s", total.get("trees.build", 0.0), "s")
        put("labelling.certify_s", total.get("labelling.certify", 0.0), "s")
        put("labelling.parse_s", total.get("labelling.parse", 0.0), "s")
        put("labelling.verify_s", total.get("labelling.verify", 0.0), "s")
        put("labelling.verify_calls", c("labelling.verify_calls", 0), "count")

        tree_ms = sorted((t1 - t0) * 1e3 for name, t0, t1, _ in self.spans
                         if name == "hybrid.solve")
        put("hybrid.trees", len(tree_ms), "count")
        put("hybrid.tree_ms_p50", statistics.median(tree_ms) if tree_ms else 0.0, "ms")
        tail_pct, tail = 0.0, 0.0
        for pct in _TAIL_PCTS:
            k = int(len(tree_ms) * pct / 100)
            if tree_ms and len(tree_ms) - k - 1 >= 10:
                tail_pct, tail = pct, tree_ms[k]
                break
        put("hybrid.tree_ms_tail", tail, "ms")
        put("hybrid.tree_ms_tail_pct", tail_pct, "%")
        put("hybrid.blocks", c("hybrid.blocks", 0), "count")
        for layer in LAYERS:
            put(f"{layer}.self_s", self_time[layer], "s")
        put("trace.wall_s", wall, "s")
        put("trace.spans", len(self.spans), "count")
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            for name, t0, t1, parent in self.spans:
                fh.write(f"{name},{t0:.9f},{t1:.9f},{parent}\n")


class _TracedStream:
    """The sweep's view of the tree stream, with one span per emission."""

    def __init__(self, tracer, stream):
        self._next = tracer.span("generate.next", stream.next,
                                 lambda seq: tracer.count("generate.trees", seq is not None))
        self._stream = stream

    @property
    def index(self):
        return self._stream.index

    def skip(self, k):
        self._stream.skip(k)
        return self

    def next(self):
        return self._next()
