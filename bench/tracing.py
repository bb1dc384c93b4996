"""Call tracing of pencillab from outside the program.

The tracer wraps a fixed list of layer functions at every module binding
that refers to them (``pencillab.extractor.reduced_basis`` as well as
``pencillab.intlinalg.reduced_basis``), so calls made inside a module through
its globals are caught too.  Each call becomes one span (function, start,
end, parent) kept in flat arrays in memory; per-layer calls and self time
are derived from the spans, and the spans are discarded after each fold so
a long run stays small.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import sys
from array import array
from time import perf_counter

PACKAGE = "pencillab"

# spans written to a trace file (a round records up to a few hundred thousand)
SPANS_WRITTEN = 100_000

# layer functions traced, by defining module; every binding of each function
# in any pencillab module is wrapped
LAYERS: dict[str, tuple[str, ...]] = {
    "intlinalg": ("reduced_basis", "kernel_ints", "preimage_basis", "vec_primitive"),
    "polynomials": ("smith_diagonal", "linear_valuation", "rational_roots"),
    "rmatrix": ("rank",),
    "pencils": ("normal_rank", "classify_rank_one"),
    "extractor": ("weyr_characteristic",),
    "builder": ("build_pencil", "random_equivalence", "random_rank_one"),
    "bounds": ("check_bounds",),
    "completion": ("check_completion_full", "realize_companion",
                   "search_rank_one_witness"),
    "concordance": ("completed_characteristics", "companion_completion_witness"),
    "campaign": ("perturbation_trial",),
    "fixtures": ("run_fixture",),
    "cli": ("main",),
}

FUNCTIONS: tuple[str, ...] = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items()
                                   for fn in fns)

METRIC_UNITS: dict[str, str] = {}
for _name in FUNCTIONS:
    METRIC_UNITS[f"{_name}.calls"] = "count"
    METRIC_UNITS[f"{_name}.self_s"] = "s"
METRIC_UNITS.update({
    "extractor.irrational": "count",
    "extractor.smith_share": "ratio",
    "concordance.extractions_per_subpencil": "count",
    "concordance.useful_ratio": "ratio",
    "campaign.trial_ms_p50": "ms",
    "campaign.trial_ms_p99": "ms",
    "campaign.draw_useful_ratio": "ratio",
    "trace.overhead_s": "s",
})


class Fold:
    """Aggregate of the spans recorded between two folds."""

    def __init__(self) -> None:
        self.calls = dict.fromkeys(FUNCTIONS, 0)
        self.self_s = dict.fromkeys(FUNCTIONS, 0.0)
        self.irrational = 0  # extractions that raised IrrationalSpectrumError
        self.nested_extractions = 0  # extractions inside completed_characteristics
        self.reached = 0  # characteristics completed_characteristics returned
        self.draws = 0  # random_rank_one draws inside perturbation_trial
        self.trial_s: list[float] = []  # perturbation_trial span durations
        self.spans = 0


class Tracer:
    """Wraps the layer functions while installed and records their spans."""

    def __init__(self) -> None:
        self.ids = {name: i for i, name in enumerate(FUNCTIONS)}
        self.func = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised: dict[int, str] = {}
        self.reached: list[int] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _modules(self):
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        if self._patches:
            return
        originals = {}
        for mod, fns in LAYERS.items():
            module = sys.modules[f"{PACKAGE}.{mod}"]
            for fn in fns:
                originals[id(getattr(module, fn))] = f"{mod}.{fn}"
        wrappers: dict[str, object] = {}
        for module in self._modules():
            for attr, obj in list(vars(module).items()):
                name = originals.get(id(obj))
                if name is None:
                    continue
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, obj)
                self._patches.append((module, attr, obj))
                setattr(module, attr, wrappers[name])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        fid = self.ids[name]
        func_add, parent_add = self.func.append, self.parent.append
        start_add, end_add = self.start.append, self.end.append
        end, raised, stack = self.end, self.raised, self._stack
        reached = (self.reached.append if name == "concordance.completed_characteristics"
                   else None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(end)
            func_add(fid)
            parent_add(stack[-1])
            end_add(0.0)
            stack.append(i)
            start_add(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                raised[i] = type(exc).__name__
                raise
            finally:
                end[i] = perf_counter()
                stack.pop()
            if reached is not None:
                reached(len(out))
            return out

        return traced

    def fold(self) -> Fold:
        """Derive per-function calls and self time from the recorded spans,
        then discard them."""
        out = Fold()
        n = len(self.end)
        out.spans = n
        func, parent, start, end = self.func, self.parent, self.start, self.end
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(FUNCTIONS)
        self_s = [0.0] * len(FUNCTIONS)
        for i in range(n):
            f = func[i]
            calls[f] += 1
            self_s[f] += end[i] - start[i] - child[i]
        for f, name in enumerate(FUNCTIONS):
            out.calls[name] = calls[f]
            out.self_s[name] = self_s[f]
        extract = self.ids["extractor.weyr_characteristic"]
        trial = self.ids["campaign.perturbation_trial"]
        out.irrational = sum(func[i] == extract and exc == "IrrationalSpectrumError"
                             for i, exc in self.raised.items())
        out.nested_extractions = self._count_within("extractor.weyr_characteristic",
                                                    "concordance.completed_characteristics")
        out.reached = sum(self.reached)
        out.draws = self._count_within("builder.random_rank_one", "campaign.perturbation_trial")
        out.trial_s = [end[i] - start[i] for i in range(n) if func[i] == trial]
        self.clear()
        return out

    def _count_within(self, name: str, ancestor: str) -> int:
        fid, aid = self.ids[name], self.ids[ancestor]
        func, parent = self.func, self.parent
        inside = bytearray(len(func))
        count = 0
        for i in range(len(func)):
            p = parent[i]
            if p >= 0 and (inside[p] or func[p] == aid):
                inside[i] = 1
                if func[i] == fid:
                    count += 1
        return count

    def write_spans(self, path) -> None:
        """Write the first SPANS_WRITTEN spans recorded since the last fold
        as gzipped TSV."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tfunction\tparent\tstart_s\tend_s\n")
            for i in range(min(SPANS_WRITTEN, len(self.end))):
                fh.write(f"{i}\t{FUNCTIONS[self.func[i]]}\t{self.parent[i]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")

    def clear(self) -> None:
        for arr in (self.func, self.parent, self.start, self.end):
            del arr[:]
        self.raised.clear()
        self.reached.clear()


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q) - 1]


def per_layer_metrics(setup: Fold, rounds: list[Fold], overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of one set-up plus one timed round (the mean of the
    traced rounds); ratios and percentiles pool every traced round."""
    k = len(rounds)
    metrics: dict[str, float] = {}
    for name in FUNCTIONS:
        metrics[f"{name}.calls"] = setup.calls[name] + sum(r.calls[name] for r in rounds) / k
        metrics[f"{name}.self_s"] = setup.self_s[name] + sum(r.self_s[name] for r in rounds) / k
    folds = [setup] + rounds

    def total(get) -> float:
        return sum(get(f) for f in folds)

    extractions = total(lambda f: f.calls["extractor.weyr_characteristic"])
    metrics["extractor.irrational"] = setup.irrational + sum(r.irrational for r in rounds) / k
    smith = total(lambda f: f.calls["polynomials.smith_diagonal"])
    metrics["extractor.smith_share"] = smith / extractions if extractions else 0.0
    subpencils = total(lambda f: f.calls["concordance.completed_characteristics"])
    nested = total(lambda f: f.nested_extractions)
    metrics["concordance.extractions_per_subpencil"] = nested / subpencils if subpencils else 0.0
    metrics["concordance.useful_ratio"] = total(lambda f: f.reached) / nested if nested else 0.0
    trials = [d for f in folds for d in f.trial_s]
    metrics["campaign.trial_ms_p50"] = 1000 * _percentile(trials, 50)
    metrics["campaign.trial_ms_p99"] = 1000 * _percentile(trials, 99)
    draws = total(lambda f: f.draws)
    metrics["campaign.draw_useful_ratio"] = len(trials) / draws if draws else 0.0
    metrics["trace.overhead_s"] = overhead_s
    return metrics
