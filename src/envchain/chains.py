"""Iterated centralizer chains, envelope chains, and their verifiers.

The ascending chain of a subgroup A inside an ambient group W is

    C^0 = 1,   C^k = {x in every normalizer of a lower level : [x, A] <= C^(k-1)}

and the descending envelope chain of H in G is

    E_0 = G,   E_(k+1) = {g in E_k : [g, C^(k+1) of H inside E_k] <= C^k of H inside E_k}

with the inner chain recomputed from scratch inside each term, exactly as
defined; identities that would let one reuse levels across terms are *checked*
by the verifiers here, never assumed.

Every level and every envelope term is a commutator filter
{x : [x, X] <= T}, computed by `grp.commutator_filter`; that function alone
decides when a generating set of X is enough to test.

Chain runs and envelope runs keep no memo.  `grp` memoizes each filter by
its exact index sets, so a repeat run, at any depth, is answered filter by
filter and builds the same fresh lists a cold run does.  A filter result is
reused only for the very same inputs, never across different terms, and
every identity is still checked.

The verifiers keep the same rule: one run per distinct input, written under
every check id that asks it.  `verify_ek_structure` makes one literal
one-step pass per distinct envelope term, and `abc_lemma_by_k` returns its
checks per k, so a caller runs each distinct (A, B, C) once, at the deepest
k it needs, and reads smaller k as a prefix.  `run_suites`, the suites
`verify` runs on one subgroup, makes one envelope run for all of them, at
the deepest depth a suite reads, and builds the three-group triples from
it.  Inputs count as the same only when their index sets are equal; no
identity of the paper is used to find them.

Verifiers return lists of `CheckRecord`; failures carry witnesses instead of
raising.  A check that passes without a witness is one shared record per
(id, claim) for the process, and a k-list of `abc_lemma_by_k` or
`ek_structure_by_k` whose checks all pass is one shared tuple per k, each
built on first use.  Every comparison still runs; a failure or a skip gets
a record and witness of its own.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .grp import (
    FiniteGroup,
    Subgroup,
    central_series_indices,
    commutator_filter,
    generating_indices,
    is_abelian_indices,
    nilpotency_class,
    normalizer_indices,
    series_level,
)
from .perm import format_cycles

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


class CheckRecord(NamedTuple):
    """One check as the (id, claim, status, witness) tuple a report stores."""

    id: str
    claim: str
    status: str
    witness: str | None = None


# Shared records, built on first use: one per (id, claim) of a check that
# passed without a witness, and one tuple per (kind, k) of a k-list whose
# checks all passed.  Every comparison still runs; only the record is shared.
_PASSED: dict[tuple[str, str], CheckRecord] = {}
_ALL_PASS: dict[tuple[str, int], tuple[CheckRecord, ...]] = {}


def _passed(check_id: str, claim: str) -> CheckRecord:
    """The one record of check `check_id` passing without a witness."""
    record = _PASSED.get((check_id, claim))
    if record is None:
        record = _PASSED[check_id, claim] = CheckRecord(check_id, claim, PASS)
    return record


def _verdict(check_id: str, claim: str, ok: bool, witness) -> CheckRecord:
    """The shared pass record when `ok`, else a failure with witness()."""
    return _passed(check_id, claim) if ok else CheckRecord(check_id, claim, FAIL, witness())


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


class IteratedCentralizerChain(NamedTuple):
    """Levels C^0 <= C^1 <= ... of a target subgroup inside an ambient group.

    `truncated_at` is the least k at which the chain was seen stationary
    (every later level equals levels[truncated_at]); None when no repeat
    occurred within the requested depth.
    """

    ambient: FiniteGroup
    target: Subgroup
    levels: tuple[Subgroup, ...]
    truncated_at: int | None

    def level(self, k: int) -> Subgroup:
        if k < len(self.levels):
            return self.levels[k]
        if self.truncated_at is not None:
            return self.levels[-1]
        raise IndexError(f"level {k} not computed and chain not known stationary")


class EkChainReport(NamedTuple):
    """The descending envelope chain E_0 >= E_1 >= ... >= H with metadata.

    `stable_run` counts the trailing terms equal to the last computed term; it
    is an observation, not a stabilization proof (a constant stretch can be
    followed by a strict drop in general).  `guaranteed_stable` is set only
    when H is nilpotent and the window reaches its class, in which case the
    chain is provably constant from that step on.
    """

    ambient: FiniteGroup
    subgroup: Subgroup
    terms: tuple[Subgroup, ...]
    orders: tuple[int, ...]
    stable_run: int
    guaranteed_stable: bool
    stability_reason: str


# --- core index-level computations -----------------------------------------


def _validate_sub(G: FiniteGroup, H: Subgroup, name: str = "subgroup"):
    if H.parent is not G:
        raise ValueError(f"{name} belongs to a different group")


def iterated_centralizer_levels(
    group: FiniteGroup,
    within: frozenset[int],
    target: Iterable[int],
    kmax: int,
) -> tuple[list[frozenset[int]], int | None]:
    """Literal chain computation on index sets; see the module docstring.

    Normalizer conditions accumulate exactly as defined: level k is filtered
    from the intersection of the normalizers of all lower levels.  Stops as
    soon as a level repeats (the chain is then stationary) and reports the
    index of the stationary level.  A frozenset target is used as it is
    (`frozenset` returns it), so memo keys match it by identity.
    """
    tset = frozenset(target)
    levels, norm_inter = [frozenset({group.identity_idx})], within
    for k in range(1, kmax + 1):
        prev = levels[-1]
        norm_inter = normalizer_indices(group, norm_inter, prev)
        new = commutator_filter(group, norm_inter, tset, prev)
        if new == prev:
            return levels, k - 1
        levels.append(new)
    return levels, None


def ek_term_data(
    group: FiniteGroup,
    h_indices: frozenset[int],
    kmax: int,
) -> tuple[list[frozenset[int]], list[list[frozenset[int]]]]:
    """Envelope terms E_0..E_kmax plus the inner chain computed inside each.

    inner[k] is the level list of H inside E_k, computed to depth k+1 (or to
    its stationary point).  Neither depends on kmax.  Each call is a fresh
    loop that builds fresh lists; `grp` memoizes its filters by their exact
    inputs, so a repeat call runs only the filters no earlier call ran.
    """
    terms, inner = [group.all_indices], []
    for k in range(kmax + 1):
        if k:
            levels = inner[k - 1]
            terms.append(commutator_filter(
                group, terms[k - 1], series_level(levels, k), series_level(levels, k - 1)
            ))
        levels, _ = iterated_centralizer_levels(group, terms[k], h_indices, kmax=k + 1)
        inner.append(levels)
    return terms, inner


# --- public chain operations -------------------------------------------------


def iterated_centralizers(G: FiniteGroup, A: Subgroup, kmax: int) -> IteratedCentralizerChain:
    """The chain of A inside G, to depth `kmax` or its stationary point."""
    _validate_sub(G, A, "target")
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    levels, trunc = iterated_centralizer_levels(G, G.all_indices, A.indices, kmax)
    return IteratedCentralizerChain(
        ambient=G,
        target=A,
        levels=tuple(Subgroup(G, s) for s in levels),
        truncated_at=trunc,
    )


def ek_chain(G: FiniteGroup, H: Subgroup, kmax: int) -> EkChainReport:
    """The envelope chain E_0..E_kmax of H in G."""
    _validate_sub(G, H)
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    terms, _ = ek_term_data(G, H.indices, kmax)
    last = terms[-1]
    run = 0
    for t in reversed(terms):
        if t != last:
            break
        run += 1
    c = nilpotency_class(H)
    if c is None:
        guaranteed = False
        reason = "subgroup is not nilpotent; only the observed run is reported"
    else:
        step = max(c, 1)
        if step <= kmax:
            guaranteed = True
            reason = (
                f"subgroup is nilpotent of class {c}; "
                f"the chain is provably constant from step {step} on"
            )
        else:
            guaranteed = False
            reason = f"nilpotency class {c} exceeds the computed window kmax={kmax}"
    return EkChainReport(
        ambient=G,
        subgroup=H,
        terms=tuple(Subgroup(G, t) for t in terms),
        orders=tuple(len(t) for t in terms),
        stable_run=run,
        guaranteed_stable=guaranteed,
        stability_reason=reason,
    )


def ek_chain_checks(rep: EkChainReport) -> list[CheckRecord]:
    """The `ekchain` report's checks on a chain from `ek_chain`: the terms
    descend, each contains H, and the first is the whole group."""
    terms = rep.terms
    return [CheckRecord(check_id, claim, PASS if ok else FAIL) for check_id, claim, ok in (
        ("ekchain-descending", "terms form a descending chain",
         all(b <= a for a, b in zip(terms, terms[1:]))),
        ("ekchain-contains-subgroup", "every term contains the subgroup",
         all(rep.subgroup <= t for t in terms)),
        ("ekchain-first-term", "the chain starts at the whole group", terms[0].is_full()),
    )]


# --- verifiers ---------------------------------------------------------------


def _describe(group: FiniteGroup, indices: frozenset[int], limit: int = 6) -> str:
    els = [format_cycles(group.elements[i]) for i in sorted(indices)[:limit]]
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
    if got == want:
        return _passed(check_id, claim)
    extra = got - want
    missing = want - got
    parts = [context]
    if extra:
        parts.append(f"unexpected {_describe(group, extra)}")
    if missing:
        parts.append(f"missing {_describe(group, missing)}")
    return CheckRecord(check_id, claim, FAIL, witness="; ".join(parts))


def verify_bryant_lemma(G: FiniteGroup, H: Subgroup, kmax: int) -> list[CheckRecord]:
    """Check the basic laws of the iterated centralizer chain of H in G:

    (i)  every level is a subgroup,
    (ii) level k meets H exactly in the k-th term of H's upper central series,
    (iii) for H = G the levels are the upper central series of G,
    (iv) a nilpotent H of class c is contained in level c.
    """
    _validate_sub(G, H)
    chain = iterated_centralizers(G, H, kmax)
    hs = H.indices
    h_series = central_series_indices(G, hs)
    out = []
    for k in range(kmax + 1):
        ck = chain.level(k).indices
        # the closure of a greedy generating set equals ck iff ck is closed
        out.append(_verdict(
            f"bryant-i-k{k}", "chain level is a subgroup", generating_indices(G, ck) is not None,
            lambda: f"level {k} = {_describe(G, ck)} is not closed",
        ))
        out.append(
            _set_check(
                G,
                f"bryant-ii-k{k}",
                "chain level meets H in the k-th center of H",
                ck & hs,
                series_level(h_series, k),
                f"k={k}",
            )
        )
        if H.is_full():
            # H's index set is G's here, so H's series is G's
            out.append(
                _set_check(
                    G,
                    f"bryant-iii-k{k}",
                    "chain of the whole group is its upper central series",
                    ck,
                    series_level(h_series, k),
                    f"k={k}",
                )
            )
    c = len(h_series) - 1 if h_series[-1] == hs else None  # `nilpotency_class(H)`
    if c is None:
        out.append(
            CheckRecord(
                "bryant-iv",
                "class-c nilpotent H lies inside chain level c",
                SKIPPED,
                witness="H is not nilpotent",
            )
        )
    elif c > kmax:
        out.append(
            CheckRecord(
                "bryant-iv",
                "class-c nilpotent H lies inside chain level c",
                SKIPPED,
                witness=f"class {c} exceeds kmax={kmax}",
            )
        )
    else:
        out.append(_verdict(
            "bryant-iv", "class-c nilpotent H lies inside chain level c",
            hs <= chain.level(c).indices, lambda: f"class {c}: H has elements outside level {c}",
        ))
    return out


_ABC_HYPOTHESIS = "chain of A in C matches the central series of C up to k"
_ABC_I = "chain of B in C matches the central series of C"
_ABC_II = "chain of A in B is the series of B and the series of C cut to B"
_ABC_II_CUT = "central series of B is the central series of C cut to B"


def abc_lemma_by_k(A: Subgroup, B: Subgroup, C: Subgroup, kmax: int) -> list[Sequence[CheckRecord]]:
    """The checks of `verify_abc_lemma`, as one list per k = 0..kmax.

    The list for k does not depend on kmax: a chain run to a smaller depth
    is a prefix of a deeper one.  So a deeper call on the same (A, B, C)
    holds a shallower one as its leading lists.  The conclusions at (k, j)
    compare the same sets for every k, so each is compared once per j, and
    a list whose checks all pass is the shared tuple of that k (see
    `_k_list`).  A list is written record by record only the first time it
    passes, or when it fails; a failure gets its own witness text for each k.
    """
    group = A.parent
    if B.parent is not group or C.parent is not group:
        raise ValueError("A, B, C must share a parent group")
    if not (A.indices <= B.indices <= C.indices):
        raise ValueError("need A <= B <= C")
    a_in_c, _ = iterated_centralizer_levels(group, C.indices, A.indices, kmax + 1)
    b_in_c, _ = iterated_centralizer_levels(group, C.indices, B.indices, kmax)
    a_in_b, _ = iterated_centralizer_levels(group, B.indices, A.indices, kmax + 1)
    c_series = central_series_indices(group, C.indices)
    b_series = central_series_indices(group, B.indices)
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
                ("abc-ii-cut", _ABC_II_CUT, zb, zc & B.indices),
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
        cut = series_level(a_in_c, k + 1) & B.indices

        def build():
            records = [_passed(f"abc-hypothesis-k{k}", _ABC_HYPOTHESIS)]
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


def verify_abc_lemma(A: Subgroup, B: Subgroup, C: Subgroup, kmax: int) -> list[CheckRecord]:
    """For nested A <= B <= C, under the hypothesis that the chain of A in C
    agrees with the upper central series of C up to level k, check that

    (i)   the chains of A and of B in C agree with that series up to k,
    (ii)  the chain of A in B is the series of B, which is the series of C cut
          down to B, up to k,
    (iii) level k+1 of A in B is level k+1 of A in C cut down to B.

    When the hypothesis fails at some k the conclusions for that k are
    recorded as skipped.  The records of `abc_lemma_by_k`, in order.
    """
    return [r for records in abc_lemma_by_k(A, B, C, kmax) for r in records]


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


def ek_structure_by_k(G: FiniteGroup, H: Subgroup, kmax: int) -> list[Sequence[CheckRecord]]:
    """The checks of `verify_ek_structure` as lists: for each k = 0..kmax
    the centers and one-step checks at k, then one list of the ascent and
    level-shift checks.  A k-list whose checks all pass is the shared tuple
    of that k (see `_k_list`)."""
    _validate_sub(G, H)
    return _structure_lists(G, H, *ek_term_data(G, H.indices, kmax))


def _structure_lists(
    G: FiniteGroup, H: Subgroup, terms: list[frozenset[int]], inner: list[list[frozenset[int]]]
) -> list[Sequence[CheckRecord]]:
    """`ek_structure_by_k` on the `ek_term_data` of H, to depth len(terms) - 1."""
    kmax = len(terms) - 1
    target = sorted(H.indices)
    series = [central_series_indices(G, t) for t in terms]
    # simplified[k][i] depends only on E_k, H and Z_i(E_k): one literal pass
    # per distinct term, at the deepest k holding it, answers every k by its
    # prefix (one_step_levels treats each z on its own)
    deepest = {t: k for k, t in enumerate(terms)}
    passes = {
        t: one_step_levels(G, t, target, [series_level(series[k], i) for i in range(k + 1)])
        for t, k in deepest.items()
    }
    out = []
    for k in range(kmax + 1):
        centers = [(series_level(inner[k], j), series_level(series[k], j)) for j in range(k + 1)]
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
            zi = series_level(series[i], i)
            zj = series_level(series[j], j)
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


def verify_ek_structure(G: FiniteGroup, H: Subgroup, kmax: int) -> list[CheckRecord]:
    """Structural laws of the envelope chain of H in G:

    - inside each term E_k the chain of H up to level k is the upper central
      series of E_k,
    - the one-step commutator form {x in E_k : [x, H] <= Z_i(E_k)} agrees with
      the full normalizer-intersection definition of level i+1, for i <= k,
    - the k-th centers Z_k(E_k) ascend with k,
    - level k+1 of H computed inside E_(k+1) and inside E_k agree.

    The records of `ek_structure_by_k`, in order.
    """
    return [r for records in ek_structure_by_k(G, H, kmax) for r in records]


def verify_nilpotent_envelope(G: FiniteGroup, H: Subgroup, terms: list | None = None) -> list[CheckRecord]:
    """For nilpotent H of class c the envelope at step max(c, 1) is nilpotent
    of class at most that, the chain is constant from there on, and for c >= 1
    the class is exactly c.  Abelian H additionally get the double-centralizer
    abelianness check.  Non-nilpotent H are reported as skipped.

    `terms` are H's envelope terms from a caller's `ek_term_data` run at
    depth max(c, 1) + 3 or deeper; by default this makes that run.
    """
    _validate_sub(G, H)
    c = nilpotency_class(H)
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
    if terms is None:
        terms, _ = ek_term_data(G, H.indices, step + 3)
    out = []
    if c <= 1:
        out.append(_verdict(
            "envelope-abelian", "double centralizer of an abelian subgroup is abelian",
            is_abelian_indices(G, terms[1]), lambda: f"E_1 = {_describe(G, terms[1])} is not abelian",
        ))
    e_sub = Subgroup(G, terms[step])
    e_class = nilpotency_class(e_sub)
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
    its prefix.  Its terms give the structure lists and the nested triples
    H <= E_(k+1) <= E_k of the three-group lemma, whose hypothesis holds by
    the chain/center identity; the degenerate triples (H, H, H) and (H, H, G)
    cover the trivial cases.
    """
    _validate_sub(G, H)
    structure = suite in ("structure", "all")
    c = nilpotency_class(H) if suite in ("nilpotent", "all") else None
    run_depth = max(kmax if structure else 0, 0 if c is None else max(c, 1) + 3)
    terms, inner = ek_term_data(G, H.indices, run_depth) if run_depth else ([], [])
    blocks: list[tuple[str, Sequence[CheckRecord]]] = []
    if suite in ("bryant", "all"):
        blocks.append(("", verify_bryant_lemma(G, H, kmax)))
    if structure:
        blocks += [("", r) for r in _structure_lists(G, H, terms[:kmax + 1], inner[:kmax + 1])]
        E = [Subgroup(G, t) for t in terms]
        triples = [("abc(H,H,H)-", (H, H, H), 1), ("abc(H,H,G)-", (H, H, E[0]), min(kmax, 2))]
        triples += [(f"abc(H,E{k + 1},E{k})-", (H, E[k + 1], E[k]), k) for k in range(kmax)]
        # Triples repeat once the envelope chain stalls, and a run at depth k
        # holds every smaller depth as its leading lists: run each distinct
        # triple once, at the deepest k asked of it.
        depth: dict[tuple[Subgroup, ...], int] = {}
        for _, abc, k in triples:
            depth[abc] = max(k, depth.get(abc, k))
        runs = {abc: abc_lemma_by_k(*abc, k) for abc, k in depth.items()}
        for tag, abc, k in triples:
            blocks += [(tag, records) for records in runs[abc][:k + 1]]
    if suite in ("nilpotent", "all"):
        blocks.append(("", verify_nilpotent_envelope(G, H, terms)))
    return blocks
