"""Iterated centralizer chains and envelope chains.

The ascending chain of a subgroup A inside an ambient group W is

    C^0 = 1,   C^k = {x in every normalizer of a lower level : [x, A] <= C^(k-1)}

and the descending envelope chain of H in G is

    E_0 = G,   E_(k+1) = {g in E_k : [g, C^(k+1) of H inside E_k] <= C^k of H inside E_k}

with the inner chain recomputed from scratch inside each term, exactly as
defined; identities that would let one reuse levels across terms are *checked*
by the verifiers in `suites`, never assumed.

Every level and every envelope term is a commutator filter
{x : [x, X] <= T}, computed by `grp.commutator_filter`; that function alone
decides when a generating set of X is enough to test.

Chain runs and envelope runs keep no memo.  `grp` memoizes each filter by
its exact index sets, so a repeat run, at any depth, is answered filter by
filter and builds the same fresh lists a cold run does.  A filter result is
reused only for the very same inputs, never across different terms, and
every identity is still checked.

`ek_chain` is the whole of `ekchain`'s computation: it computes H's
nilpotency class once, resolves the default window from it, and returns
it in the report with the terms.  `ek_chain_checks` writes the report's
checks through the package's one pass/fail rule, `envchain._verdict`,
and `CheckRecord` is the package's, imported here.

`verify`'s lemma suites live in `suites`, off `ekchain`'s import path.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from . import CheckRecord, _verdict
from .grp import (
    FiniteGroup,
    Subgroup,
    commutator_filter,
    nilpotency_class,
    normalizer_indices,
    series_level,
)

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
    chain is provably constant from that step on.  `subgroup_class` is H's
    nilpotency class, None when H is not nilpotent.
    """

    ambient: FiniteGroup
    subgroup: Subgroup
    terms: tuple[Subgroup, ...]
    orders: tuple[int, ...]
    stable_run: int
    guaranteed_stable: bool
    stability_reason: str
    subgroup_class: int | None


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


def ek_chain(G: FiniteGroup, H: Subgroup, kmax: int | None = None) -> EkChainReport:
    """The envelope chain E_0..E_kmax of H in G.

    H's class c is computed once.  kmax defaults to max(c, 1) for nilpotent
    H, the step from which the chain is provably constant, else to the log
    window int(2 log2 |G|) + 2.  A default is below the CLI's `MAX_KMAX` of
    64 for every |G| < 2^31, so it needs no check of its own.
    """
    _validate_sub(G, H)
    c = nilpotency_class(H)
    if kmax is None:
        kmax = int(2 * math.log2(max(G.order, 2))) + 2 if c is None else max(c, 1)
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    terms, _ = ek_term_data(G, H.indices, kmax)
    last = terms[-1]
    run = 0
    for t in reversed(terms):
        if t != last:
            break
        run += 1
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
        subgroup_class=c,
    )


def ek_chain_checks(rep: EkChainReport) -> list[CheckRecord]:
    """The `ekchain` report's checks on a chain from `ek_chain`: the terms
    descend, each contains H, and the first is the whole group."""
    terms = rep.terms
    return [_verdict(check_id, claim, ok) for check_id, claim, ok in (
        ("ekchain-descending", "terms form a descending chain",
         all(b <= a for a, b in zip(terms, terms[1:]))),
        ("ekchain-contains-subgroup", "every term contains the subgroup",
         all(rep.subgroup <= t for t in terms)),
        ("ekchain-first-term", "the chain starts at the whole group", terms[0].is_full()),
    )]
