"""Command-line front end.

Three subcommands:

  ekchain         envelope chain of a subgroup given by two group files
  verify          lemma suites over the built-in catalog of small groups
  counterexample  the infinite-descent chain model and its witnesses

This module parses arguments, loads groups and writes reports; the engines
make every check.  `chains.ek_chain` computes the `ekchain` chain, its
default window and H's class, and `chains.ek_chain_checks` gives its
checks; `cmd_ekchain` checks only a given `--kmax`.
`suites.group_suites` gives the `verify` blocks of each subgroup of each
catalog group, running the suites once per conjugacy class, and
`symnat.counterexample_checks` the chain model with its checks and
witnesses.

Group files are read as UTF-8, a leading byte-order mark dropped, and their
text goes to `grp`: `grp.parse_group_file` closes a group file, and
`grp.read_group_file` hands over the subgroup file's generators, each built
and looked up in G in turn, so the first one outside G ends the read.

Reports are deterministic byte-for-byte apart from the timing fields, in both
text and json-like form.  A report holds its checks as blocks
(prefix, records), each record an `envchain.CheckRecord` (an (id, claim,
status, witness) tuple, witness None when there is none), and each written
with the block's prefix before its id.  The engines hand over their records
lists as they are, and `verify`'s blocks share them: every block of a
`verify` report that holds an equal list holds the same object (see
`suites`).
json-like output is byte-for-byte `json.dumps(report, sort_keys=True,
indent=2)` with the checks as one list of dicts, written from a template
(see `_json_chunks`).  Exit codes: 0 all checks pass, 1 check failures, 2 usage,
file or report write errors, 3 resource limits exceeded: `main` catches the
package's one `envchain.LimitError`, which `grp.ClosureCapError` is and
`_add_checks` raises past `MAX_CHECKS`, and a partial model report exits 3
too.

Each subcommand imports only the engine it runs: `ekchain` imports `grp` and
`chains`; `verify` imports those, `suites` and `catalog`; `counterexample`
imports `symnat`, and no `perm`: only `ekchain` formats a permutation.
At module level this file imports only what they share (`argparse`, `json`,
the built-in `gc`, and `errno`, `os` and `stat`, which the interpreter's
start-up has already loaded); the option defaults, the status words and
`LimitError` come from the package itself.  Every CLI run is a fresh process that pays for each
import again, and compiles each module again where no bytecode is cached,
so an engine loaded but never called costs as much as a short run's own
work.

For the same reason `main`, when it parses `sys.argv` itself (the `envchain`
script and `python -m envchain.cli`), first moves every object made so far
(the interpreter's, `site`'s, the stdlib's and this module's, about 12,000)
to the permanent generation with `gc.freeze()`.  Collections during the run
and the full passes at interpreter exit then skip them, while objects the
run makes are still collected: a `counterexample --levels 8` process took
15 ms from `main`'s return to its end without the freeze and 6 ms with it
(Python 3.11.7, 2-vCPU VM).  A caller that passes `argv` (tests, library
use) keeps its heap as it is.

Both formats are written in pieces of whole blocks, at least `_CHUNK` checks
each but the last, so the whole text is never held at once.  Each renderer
quotes a block's prefix once per block and encodes each records object once
(`_check_chunks`), so writing costs per block, not per check.  `main` counts
the checks by status once per report, for the text summary line and the
exit code.  `MAX_CHECKS` is checked as blocks are added, before the first
byte.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import os
import stat
import sys
import time
from collections import Counter
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Sequence

from . import DEFAULT_CAP, FAIL, MAX_KMAX, PASS, SKIPPED, LimitError, __version__

# Most checks one report may hold; `verify` grows as O(kmax^3) per subgroup.
MAX_CHECKS = 500_000

# Fewest checks in each piece of a report as `main` writes it, the last piece
# excepted; pieces end on block boundaries.
_CHUNK = 4096


class _UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="envchain",
        description="Iterated centralizers and envelope chains in permutation groups.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument(
            "--format",
            choices=["text", "json-like"],
            default="text",
            help="report format (default: text)",
        )

    ek = sub.add_parser("ekchain", help="envelope chain of a subgroup")
    ek.add_argument("group_file", help="group file defining the ambient group")
    ek.add_argument("subgroup_file", help="group file whose generators define the subgroup")
    ek.add_argument("--kmax", type=int, default=None,
                    help="chain depth (default: class of H when nilpotent, else a log window)")
    ek.add_argument("--cap", type=int, default=DEFAULT_CAP, help=f"closure cap (default {DEFAULT_CAP})")
    common(ek)
    ek.set_defaults(func=cmd_ekchain)

    ver = sub.add_parser("verify", help="lemma suites over the group catalog")
    ver.add_argument("--suite", choices=["bryant", "structure", "nilpotent", "all"], default="all")
    ver.add_argument("--kmax", type=int, default=4)
    ver.add_argument("--cap", type=int, default=DEFAULT_CAP)
    ver.add_argument("--catalog-dir", default=None,
                     help="directory of *.grp files overriding the built-in catalog")
    common(ver)
    ver.set_defaults(func=cmd_verify)

    cx = sub.add_parser("counterexample", help="infinite-descent chain model")
    cx.add_argument("--levels", type=int, default=8, help="chain depth to compute (default 8)")
    cx.add_argument("--scan-max", type=int, default=12, help="descent scan bound (default 12)")
    cx.add_argument("--oracle-depth", type=int, default=3,
                    help="cross-check levels up to this depth by enumeration (default 3)")
    common(cx)
    cx.set_defaults(func=cmd_counterexample)
    return p


# --- report plumbing ---------------------------------------------------------


class _Blocks(list):
    """A report's checks: (prefix, records) blocks, check ids prefixed when
    written; `size` counts the checks in all of them."""

    size = 0


def _new_report(cmd: str, params: dict) -> dict:
    return {
        "tool_version": __version__,
        "command": {"name": cmd, "args": {k: params[k] for k in sorted(params)}},
        "checks": _Blocks(),
        "witnesses": [],
        "timings": {},
    }


def _add_checks(report: dict, prefix: str, records: Sequence[tuple]):
    """Store (id, claim, status, witness) records as one block, ids to be
    written under `prefix`; an `envchain.CheckRecord` is such a tuple.  The
    records are kept as given, shared tuples included."""
    blocks = report["checks"]
    if blocks.size + len(records) > MAX_CHECKS:
        raise LimitError(f"report exceeded the limit of {MAX_CHECKS} checks")
    blocks.size += len(records)
    blocks.append((prefix, records))


_STATUS = itemgetter(2)


def _summary(report: dict) -> dict:
    """Check counts by status.  Blocks share records objects, so each
    distinct one is counted once and weighted by the blocks holding it; the
    report holds every one of them, so their ids stay distinct."""
    n = dict.fromkeys((PASS, FAIL, SKIPPED), 0)
    uses = Counter(id(records) for _, records in report["checks"])
    held = {id(records): records for _, records in report["checks"]}
    for key, records in held.items():
        for status, count in Counter(map(_STATUS, records)).items():
            n[status] += count * uses[key]
    return n


def _check_chunks(blocks, pair, quote):
    """The checks' text in pieces of whole blocks, each ending at the first
    block boundary where it holds `_CHUNK` checks or more.

    Record r under prefix p is written as head + quote(p) + tail, where
    (head, tail) = pair(r).  Both renderers write the id after fixed text and
    escape (or not) one code point at a time, so the prefix is quoted once
    per block and each records object is encoded and joined once.  A joined
    run is kept by its object's id, and the entry holds the object, so no
    other object can take that id while the entry stands.  The memo is
    emptied at the first piece boundary where it holds more than `_CHUNK`
    records' text, so a report of distinct records is never held whole (the
    built-in `verify --kmax 4` report's 21 records objects hold 142 records,
    99 distinct).
    """
    runs, held = {}, 0
    parts, n = [], 0
    for prefix, records in blocks:
        if not records:
            continue
        kept = runs.get(id(records))
        if kept is None:
            # the block's text with the prefix left out: quote(p).join(run)
            heads, tails = zip(*map(pair, records))
            run = [heads[0], *map(str.__add__, tails, heads[1:]), tails[-1]]
            kept = runs[id(records)] = records, run
            held += len(records)
        parts.append(quote(prefix).join(kept[1]))
        n += len(records)
        if n >= _CHUNK:
            yield "".join(parts)
            parts, n = [], 0
            if held > _CHUNK:
                runs.clear()
                held = 0
    if n:
        yield "".join(parts)


def _text_pair(record: tuple) -> tuple[str, str]:
    cid, _, status, witness = record
    return f"[{status}] ", (f"{cid}\n" if witness is None else f"{cid}\n    {witness}\n")


def _text_chunks(report: dict, n: dict):
    """The text report in pieces: the header with the first piece of checks,
    each further piece, then the rest; `n` is the report's `_summary`."""
    cmd = report["command"]
    args = " ".join(f"{k}={v}" for k, v in cmd["args"].items())
    head = f"envchain {report['tool_version']}\n" + f"command: {cmd['name']} {args}".rstrip() + "\n"
    for chunk in _check_chunks(report["checks"], _text_pair, str):
        yield head + chunk
        head = ""
    lines = [head]  # the header, when no check came before the rest
    for w in report["witnesses"]:
        kv = " ".join(f"{k}={w[k]}" for k in sorted(w) if k != "type")
        lines.append(f"witness {w['type']}: {kv}\n")
    lines.append(f"summary: checks={sum(n.values())} pass={n[PASS]} fail={n[FAIL]} skipped={n[SKIPPED]}\n")
    if report["timings"]:
        lines.append(f"time: {report['timings'].get('total_s', 0.0)}s\n")
    yield "".join(lines)


# One check in the `indent=2` layout, keys sorted, split around the id's
# text: _HEAD % claim, then the quoted id without its opening quote, then
# _TAIL % status or _TAIL_WITNESS % (status, witness).  Each starts with the
# separator from the previous check; the first one drops its comma.
_HEAD = ',\n    {\n      "claim": %s,\n      "id": "'
_TAIL = ',\n      "status": %s\n    }'
_TAIL_WITNESS = ',\n      "status": %s,\n      "witness": %s\n    }'


def _json_pair(record: tuple) -> tuple[str, str]:
    cid, claim, status, witness = record
    e = encode_basestring_ascii
    tail = _TAIL % e(status) if witness is None else _TAIL_WITNESS % (e(status), e(witness))
    return _HEAD % e(claim), e(cid)[1:] + tail


def _json_chunks(report: dict):
    """The json-like report in pieces of checks, then the rest.

    The whole text is byte-for-byte `json.dumps(report, sort_keys=True,
    indent=2)` with the checks as one list of dicts, each id its block's
    prefix + id.

    "checks" sorts before every other report key, so the checks come first,
    followed by the rest of the report as `json.dumps` writes it.  JSON
    escapes one code point at a time, so the quoted prefix + id is the
    quoted prefix, less its closing quote, then the quoted id, less its
    opening one.
    """
    opening = '{\n  "checks": ['
    for chunk in _check_chunks(report["checks"], _json_pair,
                               lambda p: encode_basestring_ascii(p)[1:-1]):
        yield opening + chunk[1:] if opening else chunk
        opening = ""
    rest = json.dumps({k: v for k, v in report.items() if k != "checks"},
                      sort_keys=True, indent=2)
    yield "".join((opening + "],\n" if opening else "\n  ],\n", rest[2:], "\n"))


# --- commands ----------------------------------------------------------------


def _read_group_file(path: str, read, *args):
    """`read(text, *args)` on the text of the group file at `path`: one of
    `grp.parse_group_file` and `grp.read_group_file`."""
    from .grp import GroupFileError

    try:
        # before `open`: opening a FIFO for reading waits for a writer
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise _UsageError(f"cannot read {path}: not a regular file")
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    try:
        return read(text, *args)
    except GroupFileError as exc:
        raise _UsageError(f"{path}: {exc}") from exc


def _check_cap(cap: int):
    if cap < 1:
        raise _UsageError("cap must be >= 1")


def _check_kmax(kmax: int):
    if kmax < 1:
        raise _UsageError("kmax must be >= 1")
    if kmax > MAX_KMAX:
        raise _UsageError(f"kmax {kmax} exceeds the limit {MAX_KMAX}")


def cmd_ekchain(args) -> dict:
    from . import chains
    from .grp import parse_group_file, read_group_file
    from .perm import format_cycles

    _check_cap(args.cap)
    G = _read_group_file(args.group_file, parse_group_file, args.cap)
    # H is closed only inside G, so G's cap bounds it too
    degree, gens = _read_group_file(args.subgroup_file, read_group_file)
    if degree != G.degree:
        raise _UsageError(f"subgroup degree {degree} does not match group degree {G.degree}")
    seeds = []
    for g in gens:  # each tuple is built as the loop reaches it
        if g not in G:
            raise _UsageError(f"subgroup generator {format_cycles(g)} is not in the group")
        seeds.append(G.index(g))
    H = G.generated_subgroup(seeds)
    if args.kmax is not None:
        _check_kmax(args.kmax)
    rep = chains.ek_chain(G, H, args.kmax)  # a default window needs no check
    report = _new_report("ekchain", {
        "group_file": args.group_file,
        "subgroup_file": args.subgroup_file,
        "kmax": len(rep.terms) - 1,
        "cap": args.cap,
    })
    _add_checks(report, "", chains.ek_chain_checks(rep))
    report["witnesses"].append({
        "type": "ekchain",
        "group_order": G.order,
        "subgroup_order": H.order,
        "subgroup_class": "not nilpotent" if rep.subgroup_class is None else rep.subgroup_class,
        "orders": list(rep.orders),
        "stable_run": rep.stable_run,
        "guaranteed_stable": rep.guaranteed_stable,
        "reason": rep.stability_reason,
    })
    return report


def cmd_verify(args) -> dict:
    """Run the suites on every enumerated subgroup of every catalog group,
    once per conjugacy class (see `suites.group_suites`)."""
    from pathlib import Path

    from . import suites
    from .catalog import build_catalog
    from .grp import parse_group_file

    _check_cap(args.cap)
    _check_kmax(args.kmax)
    if args.catalog_dir is None:
        catalog = build_catalog(cap=args.cap)
    else:
        catalog = {}
        root = Path(args.catalog_dir)
        if not root.is_dir():
            raise _UsageError(f"{args.catalog_dir} is not a directory")
        for f in sorted(root.glob("*.grp")):
            catalog[f.stem] = _read_group_file(str(f), parse_group_file, args.cap)
        if not catalog:
            raise _UsageError(f"no *.grp files in {args.catalog_dir}")
    report = _new_report("verify", {
        "suite": args.suite,
        "kmax": args.kmax,
        "cap": args.cap,
        "catalog": "builtin" if args.catalog_dir is None else args.catalog_dir,
    })
    for prefix, blocks in suites.group_suites(catalog, args.suite, args.kmax):
        for tail, records in blocks:
            _add_checks(report, prefix + tail, records)
    return report


def cmd_counterexample(args) -> dict:
    from . import symnat

    if args.levels < 2:
        raise _UsageError("levels must be >= 2")
    if args.scan_max < 1:
        raise _UsageError("scan-max must be >= 1")
    if args.oracle_depth < 0:
        raise _UsageError("oracle-depth must be >= 0")
    report = _new_report("counterexample", {
        "levels": args.levels,
        "scan_max": args.scan_max,
        "oracle_depth": args.oracle_depth,
    })
    checks, witnesses, partial = symnat.counterexample_checks(
        args.levels, args.scan_max, args.oracle_depth)
    _add_checks(report, "", checks)
    report["witnesses"] += witnesses
    if partial:
        report["partial"] = True
    return report


def main(argv=None) -> int:
    if argv is None:  # a CLI process: see the module docstring
        gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report = args.func(args)
    except _UsageError as exc:
        print(f"envchain: error: {exc}", file=sys.stderr)
        return 2
    except LimitError as exc:
        print(f"envchain: resource limit: {exc}", file=sys.stderr)
        return 3
    report["timings"]["total_s"] = round(time.perf_counter() - start, 6)
    n = _summary(report)
    try:
        if sys.stdout is None:  # the interpreter found fd 1 closed at start-up
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.writelines(_json_chunks(report) if args.format == "json-like" else _text_chunks(report, n))
        sys.stdout.flush()
    except OSError as exc:
        if sys.stdout is not None:
            # the interpreter flushes stdout again at exit; what is left goes nowhere
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"envchain: error: cannot write report: {exc}", file=sys.stderr)
        return 2
    if report.get("partial"):
        return 3
    return 1 if n[FAIL] else 0


if __name__ == "__main__":
    sys.exit(main())
