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

Chain runs and envelope runs are memoized on the group.  The keys are the
exact inputs (ambient set and target set; the subgroup H), so a run is only
ever reused for the very same question, never across different terms, and
every identity is still checked.  A run kept at a larger depth answers a
smaller one by its prefix, with the same `truncated_at` a fresh run gives.

Verifiers return lists of `CheckRecord`; failures carry witnesses instead of
raising.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

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
    target: Sequence[int],
    kmax: int,
) -> tuple[list[frozenset[int]], int | None]:
    """Literal chain computation on index sets; see the module docstring.

    Normalizer conditions accumulate exactly as defined: level k is filtered
    from the intersection of the normalizers of all lower levels.  Stops as
    soon as a level repeats (the chain is then stationary) and reports the
    index of the stationary level.
    """
    tset = frozenset(target)
    key = (within, tset)
    memo = group._levels.get(key)
    if memo is None:
        levels, norm_inter = [frozenset({group.identity_idx})], within
    else:
        stored, trunc, norm_inter = memo
        if trunc is not None and kmax > trunc:
            return list(stored), trunc
        if kmax < len(stored):
            return list(stored[:kmax + 1]), None
        levels = list(stored)
    trunc = None
    for k in range(len(levels), kmax + 1):
        prev = levels[-1]
        norm_inter = normalizer_indices(group, norm_inter, prev)
        new = commutator_filter(group, norm_inter, tset, prev)
        if new == prev:
            trunc = k - 1
            break
        levels.append(new)
    group._levels[key] = (tuple(levels), trunc, norm_inter)
    return levels, trunc


def ek_term_data(
    group: FiniteGroup,
    h_indices: frozenset[int],
    kmax: int,
) -> tuple[list[frozenset[int]], list[list[frozenset[int]]]]:
    """Envelope terms E_0..E_kmax plus the inner chain computed inside each.

    inner[k] is the level list of H inside E_k, computed to depth k+1 (or to
    its stationary point).  Neither depends on kmax, so a memoized run serves
    any smaller kmax by its prefix and a larger one by carrying it on.
    """
    memo = group._terms.get(h_indices)
    if memo is None:
        terms, inner = [frozenset(range(group.order))], []
    else:
        terms, inner = list(memo[0]), [list(l) for l in memo[1]]
    target = sorted(h_indices)
    for k in range(len(inner), kmax + 1):
        if k == len(terms):
            levels = inner[k - 1]
            terms.append(commutator_filter(
                group, terms[k - 1], series_level(levels, k), series_level(levels, k - 1)
            ))
        levels, _ = iterated_centralizer_levels(group, terms[k], target, kmax=k + 1)
        inner.append(levels)
    if memo is None or len(inner) > len(memo[1]):
        group._terms[h_indices] = (tuple(terms), tuple(tuple(l) for l in inner))
    return terms[:kmax + 1], inner[:kmax + 1]


# --- public chain operations -------------------------------------------------


def iterated_centralizers(G: FiniteGroup, A: Subgroup, kmax: int) -> IteratedCentralizerChain:
    """The chain of A inside G, to depth `kmax` or its stationary point."""
    _validate_sub(G, A, "target")
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    levels, trunc = iterated_centralizer_levels(
        G, frozenset(range(G.order)), sorted(A.indices), kmax
    )
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
        return CheckRecord(check_id, claim, PASS)
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
    g_series = central_series_indices(G, frozenset(range(G.order)))
    out = []
    for k in range(kmax + 1):
        ck = chain.level(k).indices
        # the closure of a greedy generating set equals ck iff ck is closed
        if generating_indices(G, ck) is not None:
            out.append(CheckRecord(f"bryant-i-k{k}", "chain level is a subgroup", PASS))
        else:
            out.append(
                CheckRecord(
                    f"bryant-i-k{k}",
                    "chain level is a subgroup",
                    FAIL,
                    witness=f"level {k} = {_describe(G, ck)} is not closed",
                )
            )
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
            out.append(
                _set_check(
                    G,
                    f"bryant-iii-k{k}",
                    "chain of the whole group is its upper central series",
                    ck,
                    series_level(g_series, k),
                    f"k={k}",
                )
            )
    c = nilpotency_class(H)
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
        ok = hs <= chain.level(c).indices
        out.append(
            CheckRecord(
                "bryant-iv",
                "class-c nilpotent H lies inside chain level c",
                PASS if ok else FAIL,
                witness=None if ok else f"class {c}: H has elements outside level {c}",
            )
        )
    return out


def verify_abc_lemma(A: Subgroup, B: Subgroup, C: Subgroup, kmax: int) -> list[CheckRecord]:
    """For nested A <= B <= C, under the hypothesis that the chain of A in C
    agrees with the upper central series of C up to level k, check that

    (i)   the chains of A and of B in C agree with that series up to k,
    (ii)  the chain of A in B is the series of B, which is the series of C cut
          down to B, up to k,
    (iii) level k+1 of A in B is level k+1 of A in C cut down to B.

    When the hypothesis fails at some k the conclusions for that k are
    recorded as skipped.
    """
    group = A.parent
    if B.parent is not group or C.parent is not group:
        raise ValueError("A, B, C must share a parent group")
    if not (A.indices <= B.indices <= C.indices):
        raise ValueError("need A <= B <= C")
    a_in_c, _ = iterated_centralizer_levels(group, C.indices, sorted(A.indices), kmax + 1)
    b_in_c, _ = iterated_centralizer_levels(group, C.indices, sorted(B.indices), kmax)
    a_in_b, _ = iterated_centralizer_levels(group, B.indices, sorted(A.indices), kmax + 1)
    c_series = central_series_indices(group, C.indices)
    b_series = central_series_indices(group, B.indices)
    out = []
    for k in range(kmax + 1):
        hyp_break = None
        for j in range(k + 1):
            if series_level(a_in_c, j) != series_level(c_series, j):
                hyp_break = j
                break
        if hyp_break is not None:
            out.append(
                CheckRecord(
                    f"abc-hypothesis-k{k}",
                    "chain of A in C matches the central series of C up to k",
                    SKIPPED,
                    witness=f"hypothesis not met at j={hyp_break}",
                )
            )
            continue
        out.append(
            CheckRecord(
                f"abc-hypothesis-k{k}",
                "chain of A in C matches the central series of C up to k",
                PASS,
            )
        )
        for j in range(k + 1):
            zc = series_level(c_series, j)
            out.append(
                _set_check(
                    group,
                    f"abc-i-k{k}-j{j}",
                    "chain of B in C matches the central series of C",
                    series_level(b_in_c, j),
                    zc,
                    f"k={k} j={j}",
                )
            )
            zb = series_level(b_series, j)
            out.append(
                _set_check(
                    group,
                    f"abc-ii-k{k}-j{j}",
                    "chain of A in B is the series of B and the series of C cut to B",
                    series_level(a_in_b, j),
                    zb,
                    f"k={k} j={j}",
                )
            )
            out.append(
                _set_check(
                    group,
                    f"abc-ii-cut-k{k}-j{j}",
                    "central series of B is the central series of C cut to B",
                    zb,
                    zc & B.indices,
                    f"k={k} j={j}",
                )
            )
        out.append(
            _set_check(
                group,
                f"abc-iii-k{k}",
                "level k+1 of A in B is level k+1 of A in C cut to B",
                series_level(a_in_b, k + 1),
                series_level(a_in_c, k + 1) & B.indices,
                f"k={k}",
            )
        )
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


def verify_ek_structure(G: FiniteGroup, H: Subgroup, kmax: int) -> list[CheckRecord]:
    """Structural laws of the envelope chain of H in G:

    - inside each term E_k the chain of H up to level k is the upper central
      series of E_k,
    - the one-step commutator form {x in E_k : [x, H] <= Z_i(E_k)} agrees with
      the full normalizer-intersection definition of level i+1, for i <= k,
    - the k-th centers Z_k(E_k) ascend with k,
    - level k+1 of H computed inside E_(k+1) and inside E_k agree.
    """
    _validate_sub(G, H)
    terms, inner = ek_term_data(G, H.indices, kmax)
    target = sorted(H.indices)
    series = [central_series_indices(G, t) for t in terms]
    out = []
    for k in range(kmax + 1):
        for j in range(k + 1):
            out.append(
                _set_check(
                    G,
                    f"structure-centers-k{k}-j{j}",
                    "chain inside an envelope term is its upper central series",
                    series_level(inner[k], j),
                    series_level(series[k], j),
                    f"k={k} j={j}",
                )
            )
        zs = [series_level(series[k], i) for i in range(k + 1)]
        simplified = one_step_levels(G, terms[k], target, zs)
        for i in range(k + 1):
            out.append(
                _set_check(
                    G,
                    f"structure-simplified-k{k}-i{i}",
                    "one-step commutator form matches the full chain definition",
                    simplified[i],
                    series_level(inner[k], i + 1),
                    f"k={k} i={i}",
                )
            )
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
    out.append(
        CheckRecord(
            "structure-centers-ascend",
            "k-th centers of the envelope terms ascend with k",
            PASS if ascend_fail is None else FAIL,
            witness=None
            if ascend_fail is None
            else f"i={ascend_fail[0]} j={ascend_fail[1]}: {_describe(G, ascend_fail[2])} escapes",
        )
    )
    for k in range(kmax):
        # The unconditional form of the level-shift identity: the chain level
        # computed one term deeper is the previous one cut down to that term.
        # (Full equality of the two levels needs the deeper term to contain
        # the level, which holds in the infinite block model but not for
        # arbitrary finite instances.)
        out.append(
            _set_check(
                G,
                f"structure-level-shift-k{k}",
                "level k+1 of H one term deeper is the previous level cut to that term",
                series_level(inner[k + 1], k + 1),
                series_level(inner[k], k + 1) & terms[k + 1],
                f"k={k}",
            )
        )
    return out


def verify_nilpotent_envelope(G: FiniteGroup, H: Subgroup) -> list[CheckRecord]:
    """For nilpotent H of class c the envelope at step max(c, 1) is nilpotent
    of class at most that, the chain is constant from there on, and for c >= 1
    the class is exactly c.  Abelian H additionally get the double-centralizer
    abelianness check.  Non-nilpotent H are reported as skipped.
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
    terms, _ = ek_term_data(G, H.indices, step + 3)
    out = []
    if c <= 1:
        ok = is_abelian_indices(G, terms[1])
        out.append(
            CheckRecord(
                "envelope-abelian",
                "double centralizer of an abelian subgroup is abelian",
                PASS if ok else FAIL,
                witness=None if ok else f"E_1 = {_describe(G, terms[1])} is not abelian",
            )
        )
    e_sub = Subgroup(G, terms[step])
    e_class = nilpotency_class(e_sub)
    ok = e_class is not None and e_class <= step
    out.append(
        CheckRecord(
            "envelope-nilpotent",
            "envelope at the class of H is nilpotent of class at most that",
            PASS if ok else FAIL,
            witness=None if ok else f"class(E_{step}) = {e_class}, expected <= {step}",
        )
    )
    if c >= 1:
        ok = e_class == c
        out.append(
            CheckRecord(
                "envelope-class-exact",
                "envelope at the class of H has exactly that class",
                PASS if ok else FAIL,
                witness=None if ok else f"class(E_{c}) = {e_class}, expected {c}",
            )
        )
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
    out.append(
        CheckRecord(
            "envelope-stable",
            "envelope chain is constant beyond the class of H",
            PASS if not bad else FAIL,
            witness=None if not bad else f"terms differ at steps {bad}",
        )
    )
    return out
