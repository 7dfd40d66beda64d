"""envchain benchmark: the CLI run as a user runs it, one fresh process per
invocation, from this single parent process (a closed loop, one client).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record      # re-record the report digests

Run from the root of a checkout; the package is run from `src`.

Workloads (see BENCHMARK.json for why each was chosen):

  verify-bench  verify --suite all --kmax 4 over the bench catalog
                perfbench/groups/verify (S5 and D32)
  model-deep    counterexample --levels 8 --scan-max 12
  ekchain-s6    ekchain --kmax 4 in S6 for a cyclic subgroup, a 2-group of
                order 16 and an S3, each its own process; the seed picks a
                conjugate of each

A sample is one pass over the workload's invocations.  With `--trace 0`
samples repeat while the next one is expected to end within `--seconds`
(always at least one), and the end-to-end metrics are printed:

  wall_s       median wall time of a sample
  cpu_s        median user+sys CPU time of a sample's child processes
  setup_s      median over SETUPS fresh interpreters of importing envchain.cli
               and parsing the workload's group files
  peak_rss_mb  largest maximum resident set size of any child
  ok_ratio     share of invocations that did not fail (1 - failed_ratio)

Also printed, but left out of the JSON result: wall_s_tail (the sample with
ten samples above it, or the largest of fewer than eleven), the fastest
sample, and failed_ratio.  The tail and the fastest sample of a half-minute
run follow the speed drift of a small shared VM more than the program does.

An invocation fails on a nonzero exit, a "fail" check or a report digest that
differs from `digests.json` (see oracle.py).  With `--trace 1` the run makes
one sample under `tracer.py spans`, one under `tracer.py count` and one
`tracer.py micro` pass, whatever `--seconds` says, and prints the per-layer
metrics.  The last line of stdout is always the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import oracle
import tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent.relative_to(ROOT).as_posix()
WORK = f"{BENCH}/.work"
TRACER = f"{BENCH}/tracer.py"
CLI = ["-m", "envchain.cli"]
SETUPS = 9
DEADLINE_S = 170.0

SETUP_CODE = (
    "import sys, envchain.cli\n"
    "from envchain.grp import parse_group_file\n"
    "print(' '.join(str(parse_group_file(open(p).read()).order) for p in sys.argv[1:]))\n"
)


@dataclass
class Invocation:
    key: str  # digest key in digests.json
    args: list[str]  # envchain CLI arguments


@dataclass
class Workload:
    invocations: list[Invocation]
    orders: dict[str, int]  # group file -> expected order, checked before timing


class BenchError(Exception):
    pass


def _conjugate(src: str, dst: str, rng: random.Random) -> None:
    """Write the group file `src` relabelled by a random point permutation."""
    lines = (ROOT / src).read_text().splitlines()
    degree = int(next(l for l in lines if l.startswith("degree:")).split(":")[1])
    sigma = list(range(degree))
    rng.shuffle(sigma)
    out = []
    for line in lines:
        if line.startswith("("):
            line = re.sub(r"\d+", lambda m: str(sigma[int(m.group())]), line)
        out.append(line)
    (ROOT / dst).write_text("\n".join(out) + "\n")


def make_workload(name: str, seed: int) -> Workload:
    groups = f"{BENCH}/groups"
    if name == "verify-bench":
        catalog = f"{groups}/verify"
        return Workload(
            [Invocation(name, ["verify", "--suite", "all", "--kmax", "4",
                               "--format", "json-like", "--catalog-dir", catalog])],
            {f"{catalog}/S5.grp": 120, f"{catalog}/D32.grp": 32},
        )
    if name == "model-deep":
        return Workload(
            [Invocation(name, ["counterexample", "--levels", "8", "--scan-max", "12",
                               "--format", "json-like"])],
            {},
        )
    if name == "ekchain-s6":
        rng = random.Random(seed)
        s6 = f"{groups}/s6/S6.grp"
        invocations, orders = [], {s6: 720}
        for kind, order in (("cyclic", 6), ("p16", 16), ("s3", 6)):
            sub = f"{WORK}/ek-{kind}.grp"
            _conjugate(f"{groups}/s6/{kind}.grp", sub, rng)
            invocations.append(Invocation(f"{name}/{kind}", ["ekchain", s6, sub, "--kmax", "4",
                                                             "--format", "json-like"]))
            orders[sub] = order
        return Workload(invocations, orders)
    raise BenchError(f"unknown workload {name}")


WORKLOADS = ("verify-bench", "model-deep", "ekchain-s6")


class Runner:
    """Runs child processes from the checkout root and keeps the tallies."""

    def __init__(self, digests: dict[str, str] | None):
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.start = perf_counter()
        src = str(ROOT / "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))

    def child(self, argv: list[str]) -> tuple[subprocess.CompletedProcess, float, float]:
        """Run argv to completion; (process, wall seconds, CPU seconds)."""
        timeout = DEADLINE_S - (perf_counter() - self.start)
        if timeout <= 0:
            raise BenchError(f"run exceeded {DEADLINE_S} s")
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True, timeout=timeout)
        wall = perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return proc, wall, cpu

    def invoke(self, inv: Invocation, prefix: list[str]) -> tuple[float, float, str | None]:
        """One CLI invocation under `prefix`; (wall, cpu, digest)."""
        proc, wall, cpu = self.child([sys.executable, *prefix, *inv.args])
        expected = None if self.digests is None else self.digests.get(inv.key, "unrecorded")
        reason, dig = oracle.judge(proc.returncode, proc.stdout, expected)
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            err = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
            print(f"FAILED {inv.key}: {reason} {' | '.join(err)}", file=sys.stderr)
        return wall, cpu, dig

    def sample(self, wl: Workload) -> tuple[float, float]:
        wall = cpu = 0.0
        for inv in wl.invocations:
            w, c, _ = self.invoke(inv, CLI)
            wall += w
            cpu += c
        return wall, cpu

    def setup(self, wl: Workload) -> float:
        """Fresh-interpreter set-up time; fails loudly on a wrong group order."""
        files = list(wl.orders)
        proc, wall, _ = self.child([sys.executable, "-c", SETUP_CODE, *files])
        if proc.returncode != 0:
            raise BenchError("set-up failed: " + proc.stderr.decode(errors="replace").strip())
        got = [int(x) for x in proc.stdout.split()]
        want = [wl.orders[f] for f in files]
        if got != want:
            raise BenchError(f"bench groups parse to orders {got}, expected {want} for {files}")
        return wall


def tail(values: list[float]) -> float:
    """The value with ten values above it, or the largest of fewer than eleven."""
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - 11] if n >= 11 else ordered[-1]


def measure(runner: Runner, wl: Workload, seconds: float) -> tuple[dict, dict]:
    """(end-to-end metrics, figures printed only); each name -> (value, unit, n)."""
    # Half the set-ups before the samples and half after, so their median
    # spans the run as the samples do.
    setup = [runner.setup(wl) for _ in range(SETUPS - SETUPS // 2)]
    walls, cpus = [], []
    start = perf_counter()
    while True:
        wall, cpu = runner.sample(wl)
        walls.append(wall)
        cpus.append(cpu)
        if perf_counter() - start + wall > seconds:
            break
    setup += [runner.setup(wl) for _ in range(SETUPS // 2)]
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    n, att = len(walls), runner.attempted
    metrics = {
        "wall_s": (statistics.median(walls), "s", n),
        "cpu_s": (statistics.median(cpus), "s", n),
        "setup_s": (statistics.median(setup), "s", SETUPS),
        "peak_rss_mb": (rss_kb / 1024, "MB", att),
        "ok_ratio": (1 - runner.failed / att, "ratio", att),
    }
    printed = {
        "wall_s_tail": (tail(walls), "s", n),
        "wall_min_s": (min(walls), "s", n),
        "failed_ratio": (runner.failed / att, "ratio", att),
    }
    return metrics, printed


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {"spans": [], "calls": {}, "counts": {}}


def _tracer_pass(runner: Runner, wl: Workload, mode: str) -> list[dict]:
    docs = []
    for i, inv in enumerate(wl.invocations):
        out = f"{WORK}/{mode}-{i}.json"
        runner.invoke(inv, [TRACER, mode, out, "--"])
        docs.append(_read_json(ROOT / out))
    return docs


def trace(runner: Runner, wl: Workload, seed: int) -> dict:
    runner.setup(wl)
    span_docs = _tracer_pass(runner, wl, "spans")
    count_docs = _tracer_pass(runner, wl, "count")
    out = f"{WORK}/micro.json"
    groups = [f for f in wl.orders if not f.startswith(WORK)]
    proc, _, _ = runner.child([sys.executable, TRACER, "micro", out, str(seed), *groups])
    runner.attempted += 1
    if proc.returncode != 0:
        runner.failed += 1
        print("FAILED micro: " + proc.stderr.decode(errors="replace").strip(), file=sys.stderr)
    micro = _read_json(ROOT / out)
    metrics = tracer.layer_metrics(span_docs, count_docs + [micro], micro.get("span_cost_s", 0.0))
    units = tracer.metric_units()
    return {name: (value, units[name], 1) for name, value in metrics.items()}


def record(runner: Runner) -> None:
    digests = {}
    for name in WORKLOADS:
        wl = make_workload(name, 0)
        runner.setup(wl)
        for inv in wl.invocations:
            digests[inv.key] = runner.invoke(inv, CLI)[2]
            print(f"{inv.key} {digests[inv.key]}")
    if runner.failed:
        raise BenchError("digests not recorded: an invocation failed")
    oracle.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="envchain CLI benchmark")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true", help="re-record digests.json and exit")
    args = p.parse_args(argv)
    if not args.record and args.workload is None:
        p.error("--workload is required")
    (ROOT / WORK).mkdir(parents=True, exist_ok=True)
    try:
        oracle.self_test()
        if args.record:
            record(Runner(None))
            return 0
        runner = Runner(oracle.load_digests())
        wl = make_workload(args.workload, args.seed)
        if args.trace:
            metrics, printed = trace(runner, wl, args.seed), {}
        else:
            metrics, printed = measure(runner, wl, args.seconds)
    except (BenchError, oracle.SelfTestError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ROOT / WORK, ignore_errors=True)
    for name, (value, unit, n) in {**metrics, **printed}.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={n})")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
