"""The lemma suites `verify` runs on each subgroup, and their verifiers.

The verifiers check identities of the chains in `chains`, which no chain
computation assumes.  Each distinct input runs once and is written under
every check id that asks it.  `run_suites`, the suites `verify` runs on one
subgroup H, validates H once and makes the inputs the suites share once:
one `ek_term_data` run, at the deepest depth a suite reads, and one map
that computes an index set's upper central series the first time a
verifier reads it (`envchain._Memo`), so a series no chosen suite reads is
never computed.  The verifiers take index sets and read every series, and
every nilpotency class (`grp.series_class`), from that map; none computes
a series of its own.  `ek_structure_by_k` makes one literal
one-step pass per distinct envelope term, and `abc_lemma_by_k` returns its
checks per k, so `run_suites` runs each distinct (A, B, C) once, at the
deepest k it needs, and reads smaller k as a prefix.  `group_suites` runs
`run_suites` once per conjugacy class.  Inputs count as the same only when
their index sets are equal; no identity of the paper is used to find them.

Verifiers return lists of `CheckRecord`; failures carry witnesses instead of
raising.  Every pass/fail record, `_set_check`'s set comparisons included,
comes from the package's one rule, `envchain._verdict`.  A k-list of
`abc_lemma_by_k` or `ek_structure_by_k` whose checks all pass is one shared
tuple per k, built on first use, so its records are built once.  Every
comparison still runs; a failure or a skip gets a record and witness of its
own.  The check list is the unit of sharing: `group_suites` hands each
distinct records list of a catalog over as one object, however many
groups, subgroups and blocks hold it.  Only `verify` imports this module.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from operator import itemgetter
from typing import Iterator, Mapping, Sequence

from . import FAIL, SKIPPED, CheckRecord, _Memo, _verdict
from .catalog import enumerate_subgroups
from .chains import _validate_sub, ek_term_data, iterated_centralizer_levels
from .grp import (
    FiniteGroup,
    Subgroup,
    central_series_indices,
    generating_indices,
    is_abelian_indices,
    series_class,
    series_level,
)
from .perm import format_cycles

# index set -> its upper central series, as `run_suites` reads it
Series = Mapping[frozenset[int], list[frozenset[int]]]

# Shared tuples, built on first use: one per (kind, k) of a k-list whose
# checks all passed.  Every comparison still runs; only building the records
# is skipped.
_ALL_PASS: dict[tuple[str, int], tuple[CheckRecord, ...]] = {}


def _k_list(kind: str, k: int, ok: bool, build) -> Sequence[CheckRecord]:
    """build(), the records of list `kind` at k; when `ok` says all of them
    pass, the one shared tuple of that list instead.  All-pass records depend
    only on (kind, k), so build() runs once per (kind, k) that passes."""
    if not ok:
        return build()
    shared = _ALL_PASS.get((kind, k))
    if shared is None:
        shared = _ALL_PASS[kind, k] = tuple(build())
    return shared


def _describe(group: FiniteGroup, indices: frozenset[int], limit: int = 6) -> str:
    els = [format_cycles(group.element(i)) for i in sorted(indices)[:limit]]
    more = ", ..." if len(indices) > limit else ""
    return "{" + ", ".join(els) + more + "}"


def _set_check(
    group: FiniteGroup,
    check_id: str,
    claim: str,
    got: frozenset[int],
    want: frozenset[int],
    context: str,
) -> CheckRecord:
    """The verdict on got == want; a failure's witness names, after
    `context`, the elements `got` has beyond `want` and those it lacks."""

    def witness() -> str:
        diffs = (("unexpected", got - want), ("missing", want - got))
        return "; ".join([context, *(f"{word} {_describe(group, d)}" for word, d in diffs if d)])

    return _verdict(check_id, claim, got == want, witness)


def verify_bryant_lemma(G: FiniteGroup, hs: frozenset[int], series: Series, kmax: int) -> list[CheckRecord]:
    """Check the basic laws of the iterated centralizer chain of H = `hs` in G:

    (i)  every level is a subgroup,
    (ii) level k meets H exactly in the k-th term of H's upper central series,
    (iii) for H = G the levels are the upper central series of G,
    (iv) a nilpotent H of class c is contained in level c.

    H's series is series[hs].
    """
    levels, _ = iterated_centralizer_levels(G, G.all_indices, hs, kmax)
    h_series = series[hs]
    out = []
    for k in range(kmax + 1):
        ck, zk = series_level(levels, k), series_level(h_series, k)
        # the closure of a greedy generating set equals ck iff ck is closed
        out.append(_verdict(
            f"bryant-i-k{k}", "chain level is a subgroup", generating_indices(G, ck) is not None,
            lambda: f"level {k} = {_describe(G, ck)} is not closed",
        ))
        out.append(_set_check(
            G, f"bryant-ii-k{k}", "chain level meets H in the k-th center of H", ck & hs, zk, f"k={k}",
        ))
        if len(hs) == G.order:
            # H's index set is G's here, so H's series is G's
            out.append(_set_check(
                G, f"bryant-iii-k{k}", "chain of the whole group is its upper central series", ck, zk, f"k={k}",
            ))
    c = series_class(h_series, hs)
    claim = "class-c nilpotent H lies inside chain level c"
    if c is None or c > kmax:
        why = "H is not nilpotent" if c is None else f"class {c} exceeds kmax={kmax}"
        out.append(CheckRecord("bryant-iv", claim, SKIPPED, witness=why))
    else:
        out.append(_verdict(
            "bryant-iv", claim, hs <= series_level(levels, c),
            lambda: f"class {c}: H has elements outside level {c}",
        ))
    return out


_ABC_HYPOTHESIS = "chain of A in C matches the central series of C up to k"
_ABC_I = "chain of B in C matches the central series of C"
_ABC_II = "chain of A in B is the series of B and the series of C cut to B"
_ABC_II_CUT = "central series of B is the central series of C cut to B"


def abc_lemma_by_k(
    group: FiniteGroup, a: frozenset[int], b: frozenset[int], c: frozenset[int], series: Series, kmax: int
) -> list[Sequence[CheckRecord]]:
    """For nested index sets A <= B <= C, under the hypothesis that the
    chain of A in C agrees with the upper central series of C up to level k,
    check that

    (i)   the chains of A and of B in C agree with that series up to k,
    (ii)  the chain of A in B is the series of B, which is the series of C cut
          down to B, up to k,
    (iii) level k+1 of A in B is level k+1 of A in C cut down to B.

    When the hypothesis fails at some k the conclusions for that k are
    recorded as skipped.  The series of B and C are series[b] and series[c].

    The checks come as one list per k = 0..kmax.  The list for k does not
    depend on kmax: a chain run to a smaller depth is a prefix of a deeper
    one.  So a deeper call on the same (A, B, C) holds a shallower one as
    its leading lists.  The conclusions at (k, j) compare the same sets for
    every k, so each is compared once per j, and a list whose checks all
    pass is the shared tuple of that k (see `_k_list`).  A list is written
    record by record only the first time it passes, or when it fails; a
    failure gets its own witness text for each k.
    """
    if not (a <= b <= c):
        raise ValueError("need A <= B <= C")
    a_in_c, _ = iterated_centralizer_levels(group, c, a, kmax + 1)
    b_in_c, _ = iterated_centralizer_levels(group, c, b, kmax)
    a_in_b, _ = iterated_centralizer_levels(group, b, a, kmax + 1)
    c_series, b_series = series[c], series[b]
    # the first j at which the hypothesis fails; it fails for every k >= j
    hyp_break = next(
        (j for j in range(kmax + 1) if series_level(a_in_c, j) != series_level(c_series, j)),
        kmax + 1,
    )
    conclusions = []  # per j: (id stem, claim, got, want, got == want)
    for j in range(hyp_break):
        zc = series_level(c_series, j)
        zb = series_level(b_series, j)
        conclusions.append([
            (stem, claim, got, want, got == want)
            for stem, claim, got, want in (
                ("abc-i", _ABC_I, series_level(b_in_c, j), zc),
                ("abc-ii", _ABC_II, series_level(a_in_b, j), zb),
                ("abc-ii-cut", _ABC_II_CUT, zb, zc & b),
            )
        ])
    out = []
    holds = True  # every conclusion at j <= k holds
    for k in range(kmax + 1):
        if k >= hyp_break:
            out.append([CheckRecord(
                f"abc-hypothesis-k{k}", _ABC_HYPOTHESIS, SKIPPED,
                witness=f"hypothesis not met at j={hyp_break}",
            )])
            continue
        holds = holds and all(c[-1] for c in conclusions[k])
        level = series_level(a_in_b, k + 1)
        cut = series_level(a_in_c, k + 1) & b

        def build():
            records = [_verdict(f"abc-hypothesis-k{k}", _ABC_HYPOTHESIS, True)]
            for j in range(k + 1):
                for stem, claim, got, want, _ in conclusions[j]:
                    records.append(_set_check(group, f"{stem}-k{k}-j{j}", claim, got, want, f"k={k} j={j}"))
            records.append(_set_check(
                group, f"abc-iii-k{k}", "level k+1 of A in B is level k+1 of A in C cut to B",
                level, cut, f"k={k}",
            ))
            return records

        out.append(_k_list("abc", k, holds and level == cut, build))
    return out


def one_step_levels(
    G: FiniteGroup, members: frozenset[int], target: Sequence[int], zs: Sequence[frozenset[int]]
) -> list[frozenset[int]]:
    """[{x in members : [x, a] in zs[i] for every a in target} for each i].

    Literal on purpose, the independent side of the one-step check: every a
    is tested with `comm_idx`, never a generating set, and no commutator
    filter runs.  bits[c] holds bit i when c lies in zs[i], so each [x, a]
    is computed once for all i; nothing assumes the zs are nested.
    """
    bits = [0] * G.order
    for i, z in enumerate(zs):
        for c in z:
            bits[c] |= 1 << i
    comm, full = G.comm_idx, (1 << len(zs)) - 1
    masks = []
    for x in members:
        m = full
        for a in target:
            m &= bits[comm(x, a)]
            if not m:
                break
        masks.append((x, m))
    return [frozenset(x for x, m in masks if m >> i & 1) for i in range(len(zs))]


def ek_structure_by_k(
    G: FiniteGroup,
    hs: frozenset[int],
    terms: list[frozenset[int]],
    inner: list[list[frozenset[int]]],
    series: Series,
) -> list[Sequence[CheckRecord]]:
    """Structural laws of the envelope chain of H = `hs` in G:

    - inside each term E_k the chain of H up to level k is the upper central
      series of E_k,
    - the one-step commutator form {x in E_k : [x, H] <= Z_i(E_k)} agrees with
      the full normalizer-intersection definition of level i+1, for i <= k,
    - the k-th centers Z_k(E_k) ascend with k,
    - level k+1 of H computed inside E_(k+1) and inside E_k agree.

    `terms` and `inner` are the `ek_term_data` of H to depth
    kmax = len(terms) - 1, and series[E_k] is the series of E_k.  The checks
    come as lists: for each k = 0..kmax the centers and one-step checks at
    k, then one list of the ascent and level-shift checks.  A k-list whose
    checks all pass is the shared tuple of that k (see `_k_list`).
    """
    kmax = len(terms) - 1
    target = sorted(hs)
    term_series = [series[t] for t in terms]
    # simplified[k][i] depends only on E_k, H and Z_i(E_k): one literal pass
    # per distinct term, at the deepest k holding it, answers every k by its
    # prefix (one_step_levels treats each z on its own)
    deepest = {t: k for k, t in enumerate(terms)}
    passes = {
        t: one_step_levels(G, t, target, [series_level(term_series[k], i) for i in range(k + 1)])
        for t, k in deepest.items()
    }
    out = []
    for k in range(kmax + 1):
        centers = [(series_level(inner[k], j), series_level(term_series[k], j)) for j in range(k + 1)]
        simplified = [(passes[terms[k]][i], series_level(inner[k], i + 1)) for i in range(k + 1)]

        def build():
            return [
                *(_set_check(G, f"structure-centers-k{k}-j{j}",
                             "chain inside an envelope term is its upper central series",
                             got, want, f"k={k} j={j}")
                  for j, (got, want) in enumerate(centers)),
                *(_set_check(G, f"structure-simplified-k{k}-i{i}",
                             "one-step commutator form matches the full chain definition",
                             got, want, f"k={k} i={i}")
                  for i, (got, want) in enumerate(simplified)),
            ]

        ok = all(got == want for got, want in centers + simplified)
        out.append(_k_list("structure", k, ok, build))
    ascend_fail = None
    for i in range(kmax + 1):
        for j in range(i, kmax + 1):
            zi = series_level(term_series[i], i)
            zj = series_level(term_series[j], j)
            if not zi <= zj:
                ascend_fail = (i, j, zi - zj)
                break
        if ascend_fail:
            break
    last = [_verdict(
        "structure-centers-ascend", "k-th centers of the envelope terms ascend with k",
        ascend_fail is None,
        lambda: f"i={ascend_fail[0]} j={ascend_fail[1]}: {_describe(G, ascend_fail[2])} escapes",
    )]
    for k in range(kmax):
        # The unconditional form of the level-shift identity: the chain level
        # computed one term deeper is the previous one cut down to that term.
        # (Full equality of the two levels needs the deeper term to contain
        # the level, which holds in the infinite block model but not for
        # arbitrary finite instances.)
        last.append(
            _set_check(
                G,
                f"structure-level-shift-k{k}",
                "level k+1 of H one term deeper is the previous level cut to that term",
                series_level(inner[k + 1], k + 1),
                series_level(inner[k], k + 1) & terms[k + 1],
                f"k={k}",
            )
        )
    out.append(last)
    return out


def verify_nilpotent_envelope(
    G: FiniteGroup, hs: frozenset[int], terms: list[frozenset[int]], series: Series
) -> list[CheckRecord]:
    """For nilpotent H = `hs` of class c the envelope at step max(c, 1) is
    nilpotent of class at most that, the chain is constant from there on,
    and for c >= 1 the class is exactly c.  Abelian H additionally get the
    double-centralizer abelianness check.  Non-nilpotent H are reported as
    skipped.

    `terms` are H's envelope terms from an `ek_term_data` run at depth
    max(c, 1) + 3 or deeper, and series[X] is the series of X for X = H and
    X = E_max(c, 1); each class is read off its series.
    """
    c = series_class(series[hs], hs)
    if c is None:
        return [
            CheckRecord(
                "envelope-nilpotent",
                "envelope at the class of H is nilpotent of that class",
                SKIPPED,
                witness="H is not nilpotent",
            )
        ]
    step = max(c, 1)
    out = []
    if c <= 1:
        out.append(_verdict(
            "envelope-abelian", "double centralizer of an abelian subgroup is abelian",
            is_abelian_indices(G, terms[1]), lambda: f"E_1 = {_describe(G, terms[1])} is not abelian",
        ))
    e_class = series_class(series[terms[step]], terms[step])
    out.append(_verdict(
        "envelope-nilpotent", "envelope at the class of H is nilpotent of class at most that",
        e_class is not None and e_class <= step,
        lambda: f"class(E_{step}) = {e_class}, expected <= {step}",
    ))
    if c >= 1:
        out.append(_verdict(
            "envelope-class-exact", "envelope at the class of H has exactly that class",
            e_class == c, lambda: f"class(E_{c}) = {e_class}, expected {c}",
        ))
    else:
        out.append(
            CheckRecord(
                "envelope-class-exact",
                "envelope at the class of H has exactly that class",
                SKIPPED,
                witness="trivial subgroup: the class lower bound does not apply",
            )
        )
    bad = [l for l in range(step + 1, step + 4) if terms[l] != terms[step]]
    out.append(_verdict(
        "envelope-stable", "envelope chain is constant beyond the class of H",
        not bad, lambda: f"terms differ at steps {bad}",
    ))
    return out


def run_suites(G: FiniteGroup, H: Subgroup, suite: str, kmax: int) -> list[tuple[str, Sequence[CheckRecord]]]:
    """The checks of `verify`'s `suite` ("bryant", "structure", "nilpotent"
    or "all") on H, as (tail, records) blocks in report order; a caller
    writes each block's ids after its own prefix for H and the block's tail.

    One `ek_term_data` run, at the deepest depth a suite reads (kmax, or
    max(c, 1) + 3 for the nilpotent suite on H of class c), gives each suite
    its prefix, and one map computes the upper central series of H or of a
    term the first time a verifier reads it: the nilpotent suite alone
    reads only H's and E_max(c,1)'s.  The terms give the structure lists
    and the nested triples H <= E_(k+1) <= E_k of the three-group lemma,
    whose hypothesis holds by the chain/center identity; the degenerate
    triples (H, H, H) and (H, H, G) cover the trivial cases.
    """
    _validate_sub(G, H)
    hs = H.indices
    structure = suite in ("structure", "all")
    nilpotent = suite in ("nilpotent", "all")
    series = _Memo(partial(central_series_indices, G))
    c = series_class(series[hs], hs) if nilpotent else None
    run_depth = max(kmax if structure else 0, 0 if c is None else max(c, 1) + 3)
    terms, inner = ek_term_data(G, hs, run_depth) if run_depth else ([], [])
    blocks: list[tuple[str, Sequence[CheckRecord]]] = []
    if suite in ("bryant", "all"):
        blocks.append(("", verify_bryant_lemma(G, hs, series, kmax)))
    if structure:
        blocks += [("", r) for r in ek_structure_by_k(G, hs, terms[:kmax + 1], inner[:kmax + 1], series)]
        triples = [("abc(H,H,H)-", (hs, hs, hs), 1), ("abc(H,H,G)-", (hs, hs, terms[0]), min(kmax, 2))]
        triples += [(f"abc(H,E{k + 1},E{k})-", (hs, terms[k + 1], terms[k]), k) for k in range(kmax)]
        # Triples repeat once the envelope chain stalls, and a run at depth k
        # holds every smaller depth as its leading lists: run each distinct
        # triple once, at the deepest k asked of it.
        depth: dict[tuple[frozenset[int], ...], int] = {}
        for _, abc, k in triples:
            depth[abc] = max(k, depth.get(abc, k))
        runs = {abc: abc_lemma_by_k(G, *abc, series, k) for abc, k in depth.items()}
        for tag, abc, k in triples:
            blocks += [(tag, records) for records in runs[abc][:k + 1]]
    if nilpotent:
        blocks.append(("", verify_nilpotent_envelope(G, hs, terms, series)))
    return blocks


def group_suites(catalog: Mapping[str, FiniteGroup], suite: str, kmax: int) -> Iterator[tuple[str, list]]:
    """(prefix, blocks) for every subgroup of every group of `catalog`, the
    groups by name and each group's subgroups in `enumerate_subgroups`'
    order: "name:label:" and the blocks of `run_suites` on that subgroup.

    Conjugation by g in G is an automorphism of G, so it carries every set a
    check compares for H onto the matching set for H^g, and the check's
    (id, claim, status) is the same for both.  The suites therefore run on
    the first member of each conjugacy class, which `enumerate_subgroups`
    names beside every member, and a later member gets the first member's
    blocks, the same objects.
    A failure's witness names elements, so a class whose first member fails
    any check runs member by member; a skip's witness quotes only integers.
    Each records list a run returns is interned by content for the length of
    the call, so equal lists of any two subgroups are one tuple.
    """
    lists = _Memo(lambda records: records)  # records tuple -> the first equal one
    for name, G in sorted(catalog.items()):
        shared = {}  # first member -> its blocks, if all pass or skip
        for label, H, first in enumerate_subgroups(G):
            blocks = shared.get(first)
            if blocks is None:
                blocks = [(tail, lists[tuple(records)]) for tail, records in run_suites(G, H, suite, kmax)]
                if H is first and FAIL not in map(itemgetter(2), chain.from_iterable(r for _, r in blocks)):
                    shared[first] = blocks
            yield f"{name}:{label}:", blocks
