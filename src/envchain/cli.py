"""Command-line front end.

Three subcommands:

  ekchain         envelope chain of a subgroup given by two group files
  verify          lemma suites over the built-in catalog of small groups
  counterexample  the infinite-descent chain model and its witnesses

Reports are deterministic byte-for-byte apart from the timing fields, in both
text and json-like form.  A report holds each check as a tuple
(id, claim, status, witness), witness None when there is none; json-like
output is byte-for-byte `json.dumps(report, sort_keys=True, indent=2)` with
each check as a dict, its checks written from a template (see `render`).
Exit codes: 0 all checks pass, 1 check failures, 2 usage or file errors,
3 resource caps exceeded.

Each subcommand imports only the engine it runs: `ekchain` imports `chains`,
`verify` `chains` and `catalog`, `counterexample` `symnat`.  At module level
this file imports only what they share (`argparse`, `json`, `grp`, `perm`,
and `os` and `stat`, which the interpreter's start-up has already loaded).
Every CLI run is a fresh process that pays for each import again, and
compiles each module again where no bytecode is cached, so an engine loaded
but never called costs as much as a short run's own work.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import time
from json.encoder import encode_basestring_ascii

from . import __version__
from .grp import (
    ClosureCapError,
    DEFAULT_CAP,
    FiniteGroup,
    GroupFileError,
    MAX_KMAX,
    Subgroup,
    default_kmax,
    nilpotency_class,
    parse_group_file,
)
from .perm import format_cycles


# Most checks one report may hold; `verify` grows as O(kmax^3) per subgroup.
MAX_CHECKS = 500_000


class _UsageError(Exception):
    pass


class ReportLimitError(RuntimeError):
    """A report grew past `MAX_CHECKS` checks."""


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


def _new_report(cmd: str, params: dict) -> dict:
    return {
        "tool_version": __version__,
        "command": {"name": cmd, "args": {k: params[k] for k in sorted(params)}},
        "checks": [],
        "witnesses": [],
        "timings": {},
    }


def _add_checks(report: dict, prefix: str, records: list[tuple]):
    """Store (id, claim, status, witness) records, ids prefixed; a
    `chains.CheckRecord` is such a tuple."""
    if len(report["checks"]) + len(records) > MAX_CHECKS:
        raise ReportLimitError(f"report exceeded the limit of {MAX_CHECKS} checks")
    report["checks"].extend((prefix + cid, claim, status, witness)
                            for cid, claim, status, witness in records)


def _summary(report: dict) -> dict:
    n = {"pass": 0, "fail": 0, "skipped": 0}
    for _, _, status, _ in report["checks"]:
        n[status] += 1
    return n


def render_text(report: dict) -> str:
    lines = [f"envchain {report['tool_version']}"]
    cmd = report["command"]
    args = " ".join(f"{k}={v}" for k, v in cmd["args"].items())
    lines.append(f"command: {cmd['name']} {args}".rstrip())
    for cid, _, status, witness in report["checks"]:
        lines.append(f"[{status}] {cid}")
        if witness is not None:
            lines.append(f"    {witness}")
    for w in report["witnesses"]:
        kv = " ".join(f"{k}={w[k]}" for k in sorted(w) if k != "type")
        lines.append(f"witness {w['type']}: {kv}")
    n = _summary(report)
    lines.append(f"summary: checks={sum(n.values())} pass={n['pass']} fail={n['fail']} skipped={n['skipped']}")
    if report["timings"]:
        lines.append(f"time: {report['timings'].get('total_s', 0.0)}s")
    lines.append("")  # the trailing newline, without copying the joined text
    return "\n".join(lines)


# One check in the `indent=2` layout, keys sorted.  Each starts with the
# separator from the previous check; the first one drops its comma.
_CHECK = ',\n    {\n      "claim": %s,\n      "id": %s,\n      "status": %s\n    }'
_CHECK_WITNESS = (
    ',\n    {\n      "claim": %s,\n      "id": %s,\n      "status": %s,\n      "witness": %s\n    }'
)


def _render_json(report: dict) -> str:
    """json-like report in one join.

    "checks" sorts before every other report key, so the checks come first,
    followed by the rest of the report as `json.dumps` writes it.
    """
    rest = json.dumps({k: v for k, v in report.items() if k != "checks"},
                      sort_keys=True, indent=2)
    if not report["checks"]:
        return "".join(('{\n  "checks": [],\n', rest[2:], "\n"))
    # claims and statuses repeat; encode each distinct one once
    shared: dict[str, str] = {}
    parts = ['{\n  "checks": [']
    for cid, claim, status, witness in report["checks"]:
        c = shared.get(claim)
        if c is None:
            c = shared[claim] = encode_basestring_ascii(claim)
        s = shared.get(status)
        if s is None:
            s = shared[status] = encode_basestring_ascii(status)
        if witness is None:
            parts.append(_CHECK % (c, encode_basestring_ascii(cid), s))
        else:
            parts.append(_CHECK_WITNESS % (c, encode_basestring_ascii(cid), s,
                                           encode_basestring_ascii(witness)))
    parts[1] = parts[1][1:]
    parts += ("\n  ],\n", rest[2:], "\n")
    return "".join(parts)


def render(report: dict, fmt: str) -> str:
    """The whole report as text or json-like, trailing newline included.

    json-like is byte-for-byte `json.dumps(report, sort_keys=True, indent=2)`
    with each check tuple as its dict; the checks come from a template.
    """
    if fmt == "json-like":
        return _render_json(report)
    return render_text(report)


def _exit_code(report: dict) -> int:
    return 1 if _summary(report)["fail"] else 0


# --- commands ----------------------------------------------------------------


def _load_group_file(path: str, cap: int) -> FiniteGroup:
    try:
        # before `open`: opening a FIFO for reading waits for a writer
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise _UsageError(f"cannot read {path}: not a regular file")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_group_file(text, cap=cap)
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

    _check_cap(args.cap)
    G = _load_group_file(args.group_file, args.cap)
    H_raw = _load_group_file(args.subgroup_file, args.cap)
    if H_raw.degree != G.degree:
        raise _UsageError(
            f"subgroup degree {H_raw.degree} does not match group degree {G.degree}"
        )
    missing = [g for g in H_raw.generators if g not in G]
    if missing:
        raise _UsageError(
            f"subgroup generator {format_cycles(missing[0])} is not in the group"
        )
    H = G.generated_subgroup(H_raw.generators)
    h_class = nilpotency_class(H)
    kmax = args.kmax if args.kmax is not None else default_kmax(G.order, h_class)
    _check_kmax(kmax)
    report = _new_report("ekchain", {
        "group_file": args.group_file,
        "subgroup_file": args.subgroup_file,
        "kmax": kmax,
        "cap": args.cap,
    })
    rep = chains.ek_chain(G, H, kmax)
    descending = all(rep.terms[k + 1] <= rep.terms[k] for k in range(kmax))
    contains = all(H.indices <= t.indices for t in rep.terms)
    _add_checks(report, "", [
        ("ekchain-descending", "terms form a descending chain",
         "pass" if descending else "fail", None),
        ("ekchain-contains-subgroup", "every term contains the subgroup",
         "pass" if contains else "fail", None),
        ("ekchain-first-term", "the chain starts at the whole group",
         "pass" if rep.terms[0].is_full() else "fail", None),
    ])
    report["witnesses"].append({
        "type": "ekchain",
        "group_order": G.order,
        "subgroup_order": H.order,
        "subgroup_class": "not nilpotent" if h_class is None else h_class,
        "orders": list(rep.orders),
        "stable_run": rep.stable_run,
        "guaranteed_stable": rep.guaranteed_stable,
        "reason": rep.stability_reason,
    })
    return report


def _abc_triples(G: FiniteGroup, H: Subgroup, kmax: int):
    """Deterministic nested triples exercising the three-group lemma.

    The envelope terms give triples H <= E_(k+1) <= E_k whose hypothesis holds
    by the chain/center identity; degenerate triples cover the trivial cases.
    """
    from . import chains

    terms, _ = chains.ek_term_data(G, H.indices, kmax)
    yield "abc(H,H,H)-", H, H, H, 1
    yield "abc(H,H,G)-", H, H, G.full_subgroup(), min(kmax, 2)
    for k in range(kmax):
        yield (
            f"abc(H,E{k + 1},E{k})-",
            H,
            Subgroup(G, terms[k + 1]),
            Subgroup(G, terms[k]),
            k,
        )


def _run_suites(G: FiniteGroup, gname: str, H: Subgroup, label: str, suite: str, kmax: int, report: dict):
    from . import chains

    prefix = f"{gname}:{label}:"
    if suite in ("bryant", "all"):
        _add_checks(report, prefix, chains.verify_bryant_lemma(G, H, kmax))
    if suite in ("structure", "all"):
        _add_checks(report, prefix, chains.verify_ek_structure(G, H, kmax))
        for tag, A, B, C, k in _abc_triples(G, H, kmax):
            _add_checks(report, prefix + tag, chains.verify_abc_lemma(A, B, C, k))
    if suite in ("nilpotent", "all"):
        _add_checks(report, prefix, chains.verify_nilpotent_envelope(G, H))


def cmd_verify(args) -> dict:
    from pathlib import Path

    from .catalog import build_catalog, enumerate_subgroups

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
            catalog[f.stem] = _load_group_file(str(f), args.cap)
        if not catalog:
            raise _UsageError(f"no *.grp files in {args.catalog_dir}")
    report = _new_report("verify", {
        "suite": args.suite,
        "kmax": args.kmax,
        "cap": args.cap,
        "catalog": "builtin" if args.catalog_dir is None else args.catalog_dir,
    })
    for gname in sorted(catalog):
        G = catalog[gname]
        for label, H in enumerate_subgroups(G):
            _run_suites(G, gname, H, label, args.suite, args.kmax, report)
    return report


def cmd_counterexample(args) -> dict:
    from . import symnat

    if args.levels < 2:
        raise _UsageError("levels must be >= 2")
    if args.scan_max < 1:
        raise _UsageError("scan-max must be >= 1")
    report = _new_report("counterexample", {
        "levels": args.levels,
        "scan_max": args.scan_max,
        "oracle_depth": args.oracle_depth,
    })
    try:
        model = symnat.iterated_centralizer_model(args.levels)
        partial = False
    except symnat.ModelBudgetError as exc:
        model = exc.partial
        partial = True
        _add_checks(report, "", [(
            "model-budget", "chain model fits the memory budget", "fail", str(exc),
        )])
    checks: list[tuple] = []
    if model.depth >= 1:
        ok = sorted(model.span(1)) == [0, 0b11]
        checks.append((
            "model-level1",
            "level 1 is exactly the constant functions",
            "pass" if ok else "fail",
            None if ok else "level 1 = {" + ", ".join(sorted(b.to_text() for b in model.level(1))) + "}",
        ))
    sizes = model.sizes()
    strict = all(a < b for a, b in zip(sizes, sizes[1:]))
    checks.append((
        "model-sizes-strict",
        "level sizes strictly increase",
        "pass" if strict else "fail",
        None if strict else f"sizes={sizes}",
    ))
    for i in range(1, model.depth + 1):
        # The checks run on the basis masks and carry to the span.  A mask
        # within one 2^i block is a function purely periodic with period
        # dividing 2^i, and so is an XOR of such; a nonzero one with a 1 in
        # its block has a 1 in every 2^i-window.  A span has 2^b distinct
        # members, 0 among them, exactly when its b vectors are independent.
        window = 2 ** i
        basis = model.basis(i)
        bad = [m for m in basis if m >> window]
        checks.append((
            f"model-periodicity-i{i}",
            "members are purely periodic with period dividing 2^i",
            "pass" if not bad else "fail",
            None if not bad else f"e.g. {min(symnat._from_mask(m, window) for m in bad).to_text()}",
        ))
        bad = [m for m in basis if m and not m & ((1 << window) - 1)]
        checks.append((
            f"model-support-i{i}",
            "nontrivial members hit every period window (infinite support)",
            "pass" if not bad else "fail",
            None if not bad else f"e.g. {min(symnat._from_mask(m, window) for m in bad).to_text()}",
        ))
        closed = symnat._rank(basis) == len(basis)
        checks.append((
            f"model-xor-closed-i{i}",
            "level is a group under pointwise XOR",
            "pass" if closed else "fail",
            None,
        ))
    for i in range(1, min(args.oracle_depth, model.depth, 4) + 1):
        ok = symnat.brute_force_level(i) == model.level(i)
        checks.append((
            f"model-oracle-i{i}",
            "solver level equals brute-force enumeration",
            "pass" if ok else "fail",
            None,
        ))
    for k in range(0, max(model.depth - 1, 0)):
        try:
            w = symnat.descent_witness(k, args.scan_max, model)
        except symnat.DescentScanError as exc:
            # A shallow model leaves the scan undecided; only a scan that
            # genuinely reached scan_max counts as a failure.
            checks.append((
                f"witness-k{k}",
                "a strict-descent witness exists in the scanned range",
                "fail" if exc.exhausted else "skipped",
                str(exc),
            ))
            continue
        expected = symnat.bits_to_permutation(symnat.BitFn.from_fn(
            lambda t: 1 if t in (w.x0, w.x0 + 2 ** w.l) else 0, w.x0 + 2 ** w.l + 1, 1,
        ))
        ok = w.commutator == expected
        checks.append((
            f"witness-k{k}",
            "descent witness verified; commutator is the paired block swap",
            "pass" if ok else "fail",
            None if ok else f"commutator={format_cycles(w.commutator)}",
        ))
        report["witnesses"].append({
            "type": "descent",
            "k": k,
            "kprime": w.kprime,
            "l": w.l,
            "x0": w.x0,
            "g": w.g.to_text(),
            "h": w.h.to_text(),
            "commutator": format_cycles(w.commutator),
        })
    report["witnesses"].insert(0, {"type": "levels", "sizes": sizes})
    _add_checks(report, "", checks)
    if partial:
        report["partial"] = True
    return report


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report = args.func(args)
    except _UsageError as exc:
        print(f"envchain: error: {exc}", file=sys.stderr)
        return 2
    except (ClosureCapError, ReportLimitError) as exc:
        print(f"envchain: resource limit: {exc}", file=sys.stderr)
        return 3
    report["timings"]["total_s"] = round(time.perf_counter() - start, 6)
    sys.stdout.write(render(report, args.format))
    if report.get("partial"):
        return 3
    return _exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
