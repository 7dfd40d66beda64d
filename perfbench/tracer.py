"""Per-layer tracing of envchain CLI invocations, from outside the package.

Each mode runs in a fresh child process with `src` on PYTHONPATH:

    python3 perfbench/tracer.py spans OUT -- <envchain args>
    python3 perfbench/tracer.py count OUT -- <envchain args>
    python3 perfbench/tracer.py micro OUT SEED [GROUP_FILE ...]

`spans` wraps the public functions in `TRACED` in every envchain namespace
that binds them (`chains` and `cli` import `grp` and `catalog` functions by
name), runs the CLI in-process, and writes every span (name, start, end,
parent) kept in memory to OUT at exit.  The report still goes to stdout, so
its digest can be checked like an untraced one.

`count` counts `FiniteGroup.comm_idx` calls, a leaf too hot to time per call,
in a pass of its own so the count does not distort the span times.

`micro` times the product and commutator table build of each group file
through its first public `comm_idx` call, `symnat.sym_mul` on seed-drawn
operands like acceptance criterion 6 (checking every product), and the cost
one span adds to a call, from which the tracing overhead of a run is the span
count times that cost.  On a small shared machine this is far steadier than
the difference of a traced and an untraced wall time, whose noise is larger
than the overhead itself.

`layer_metrics` turns the three outputs into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import random
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

# Span names are <module>.<function>, except that `cli.main` is the root span
# "cli", whose self time is the CLI's own inline work.
TRACED = {
    "grp": ("central_series_indices", "normalizer_indices", "closure_indices",
            "nilpotency_class", "parse_group_file"),
    "catalog": ("enumerate_subgroups",),
    "chains": ("iterated_centralizer_levels", "ek_term_data", "ek_chain",
               "verify_bryant_lemma", "verify_ek_structure", "verify_abc_lemma",
               "verify_nilpotent_envelope"),
    "symnat": ("iterated_centralizer_model", "brute_force_level", "descent_witness",
               "sym_commutator"),
    "gf2": ("solutions",),
    "cli": ("main", "render"),
}
SYM_MUL_PAIRS = 200
SPAN_COST_CALLS = 20000


def span_name(module: str, function: str) -> str:
    return "cli" if (module, function) == ("cli", "main") else f"{module}.{function}"


SPAN_NAMES = [span_name(m, f) for m, fns in TRACED.items() for f in fns]

# Metrics that come from counters and the leaf passes rather than from spans.
EXTRA_UNITS = {
    "grp.comm_idx.calls": "count",
    "grp.table_build_s": "s",
    "catalog.subgroups": "count",
    "cli.report_bytes": "bytes",
    "symnat.sym_mul_us": "us",
    "trace.overhead_s": "s",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA_UNITS)
    return units


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, nested].

    `nested` marks a span opened inside another span of the same name, so
    recursion is not counted twice in total time.  A generator gets one span
    per resumption, so only its own work is timed, and one call per creation.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._active: Counter[str] = Counter()

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self._active[name] > 0])
        self._stack.append(idx)
        self._active[name] += 1
        self.spans[idx][1] = perf_counter()
        return idx

    def _exit(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = perf_counter()
        self._stack.pop()
        self._active[span[0]] -= 1

    def wrap(self, name: str, fn, on_result=None):
        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                self.calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = self._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit(idx)
                    yield item
            return functools.update_wrapper(traced_gen, fn)

        def traced(*args, **kwargs):
            self.calls[name] += 1
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if on_result is not None:
                on_result(result, *args)
            return result
        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Rebind every traced function in every envchain namespace.

        A traced function the program no longer has is skipped and reports
        zero calls.
        """
        importlib.import_module("envchain.cli")  # loads every module the CLI uses
        mods = {name: m for name, m in sys.modules.items() if name.startswith("envchain.")}
        # The report size leaves out the digits of the timings, so it repeats
        # exactly from run to run.
        hooks = {
            "catalog.enumerate_subgroups":
                lambda subs, *_: self.counts.update({"catalog.subgroups": len(subs)}),
            "cli.render":
                lambda text, report, *_: self.counts.update({"cli.report_bytes":
                    len(text.encode()) - len(json.dumps(report.get("timings", {})))}),
        }
        for mod, functions in TRACED.items():
            for function in functions:
                orig = getattr(mods.get(f"envchain.{mod}"), function, None)
                if orig is None:
                    continue
                name = span_name(mod, function)
                wrapper = self.wrap(name, orig, hooks.get(name))
                for m in mods.values():
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)

    def dump(self) -> dict:
        return {"spans": self.spans, "calls": dict(self.calls), "counts": dict(self.counts)}


def run_spans(out: Path, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    from envchain import cli

    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        out.write_text(json.dumps(tracer.dump()))


def run_count(out: Path, argv: list[str]) -> int:
    from envchain import cli
    from envchain.grp import FiniteGroup

    calls = [0]
    comm_idx = FiniteGroup.comm_idx

    def counted(self, i, j):
        calls[0] += 1
        return comm_idx(self, i, j)

    FiniteGroup.comm_idx = counted
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        out.write_text(json.dumps({"counts": {"grp.comm_idx.calls": calls[0]}}))


def _random_sym_elem(rng: random.Random, sn):
    pre = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 4)))
    blk = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 8)))
    pts = rng.sample(range(16), rng.randint(0, 6))
    shuffled = pts[:]
    rng.shuffle(shuffled)
    return sn.SymElem(sn.BitFn(pre, blk), sn.BlockPerm(dict(zip(pts, shuffled))), rng.randint(-6, 6))


def _span_cost() -> float:
    """Seconds one traced call costs over a plain one, median of five rounds."""
    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    rounds = []
    for _ in range(5):
        t0 = perf_counter()
        for _ in range(SPAN_COST_CALLS):
            noop()
        t1 = perf_counter()
        for _ in range(SPAN_COST_CALLS):
            traced()
        t2 = perf_counter()
        rounds.append(((t2 - t1) - (t1 - t0)) / SPAN_COST_CALLS)
    return sorted(rounds)[2]


def run_micro(out: Path, seed: int, group_files: list[str]) -> int:
    from envchain import symnat
    from envchain.grp import parse_group_file

    table_s = 0.0
    for path in group_files:
        G = parse_group_file(Path(path).read_text())
        t0 = perf_counter()
        G.comm_idx(0, 0)
        table_s += perf_counter() - t0

    rng = random.Random(seed)
    pairs = [(_random_sym_elem(rng, symnat), _random_sym_elem(rng, symnat))
             for _ in range(SYM_MUL_PAIRS)]
    sym_mul = symnat.sym_mul
    t0 = perf_counter()
    products = [sym_mul(a, b) for a, b in pairs]
    mul_s = perf_counter() - t0
    bad = sum(
        any(symnat.sym_apply(ab, x) != symnat.sym_apply(a, symnat.sym_apply(b, x)) for x in range(64))
        for (a, b), ab in zip(pairs, products)
    )
    out.write_text(json.dumps({"counts": {
        "grp.table_build_s": table_s,
        "symnat.sym_mul_us": 1e6 * mul_s / SYM_MUL_PAIRS,
    }, "span_cost_s": _span_cost()}))
    if bad:
        print(f"sym_mul: {bad} of {SYM_MUL_PAIRS} products act wrongly on x < 64", file=sys.stderr)
        return 1
    return 0


def layer_metrics(span_docs: list[dict], count_docs: list[dict], span_cost: float) -> dict[str, float]:
    """Per-layer metrics summed over invocations; self time is a span's
    duration minus the durations of its direct children."""
    calls: Counter[str] = Counter()
    total: Counter[str] = Counter()
    self_s: Counter[str] = Counter()
    counts: Counter[str] = Counter()
    for doc in span_docs:
        spans = doc["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, nested) in enumerate(spans):
            self_s[name] += end - start - child[i]
            if not nested:
                total[name] += end - start
        calls.update(doc["calls"])
        counts.update(doc["counts"])
    for doc in count_docs:
        counts.update(doc["counts"])
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.total_s"] = total[name]
        metrics[f"{name}.self_s"] = self_s[name]
    counts["trace.overhead_s"] = span_cost * sum(len(doc["spans"]) for doc in span_docs)
    for name in EXTRA_UNITS:
        metrics[name] = counts[name]
    return metrics


def main(argv: list[str]) -> int:
    mode, out = argv[0], Path(argv[1])
    if mode == "micro":
        return run_micro(out, int(argv[2]), argv[3:])
    if argv[2] != "--":
        raise SystemExit(f"usage: tracer.py {mode} OUT -- <envchain args>")
    run = {"spans": run_spans, "count": run_count}[mode]
    return run(out, argv[3:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
