"""Independent naive oracle: every chain notion recomputed by direct set
filtering over raw Permutation objects, with no index tables and no caching.

Deliberately duplicates none of the package's machinery so that agreement is
meaningful.
"""

from __future__ import annotations

from envchain.perm import Permutation, commutator, compose, conjugate


def naive_closure(gens: set[Permutation], degree: int) -> frozenset[Permutation]:
    els = {Permutation.identity(degree)} | set(gens)
    while True:
        new = {compose(a, b) for a in els for b in els} | {g.inverse() for g in els}
        if new <= els:
            return frozenset(els)
        els |= new


def naive_centralizer(ambient: frozenset[Permutation], targets) -> frozenset[Permutation]:
    return frozenset(g for g in ambient if all(compose(g, t) == compose(t, g) for t in targets))


def naive_commutator_filter(members, xs, into) -> frozenset[Permutation]:
    return frozenset(g for g in members if all(commutator(g, x) in into for x in xs))


def naive_normalizer(ambient: frozenset[Permutation], sub: frozenset[Permutation]) -> frozenset[Permutation]:
    return frozenset(g for g in ambient if {conjugate(s, g) for s in sub} == sub)


def naive_center_series(sub: frozenset[Permutation]) -> list[frozenset[Permutation]]:
    degree = next(iter(sub)).degree
    series = [frozenset({Permutation.identity(degree)})]
    while True:
        prev = series[-1]
        nxt = frozenset(g for g in sub if all(commutator(g, x) in prev for x in sub))
        if nxt == prev:
            return series
        series.append(nxt)


def _at(series, k):
    return series[k] if k < len(series) else series[-1]


def naive_nilpotency_class(sub: frozenset[Permutation]):
    series = naive_center_series(sub)
    return len(series) - 1 if series[-1] == sub else None


def naive_iterated_levels(
    within: frozenset[Permutation], target: frozenset[Permutation], kmax: int
) -> list[frozenset[Permutation]]:
    degree = next(iter(within)).degree
    levels = [frozenset({Permutation.identity(degree)})]
    for k in range(1, kmax + 1):
        cand = within
        for n in range(k):
            cand = cand & naive_normalizer(within, levels[n])
        new = frozenset(
            x for x in cand if all(commutator(x, a) in levels[k - 1] for a in target)
        )
        if new == levels[-1]:
            break
        levels.append(new)
    return levels


def naive_ek_terms(
    whole: frozenset[Permutation], sub: frozenset[Permutation], kmax: int
) -> list[frozenset[Permutation]]:
    terms = [whole]
    for k in range(kmax):
        ek = terms[-1]
        levels = naive_iterated_levels(ek, sub, k + 1)
        ck = _at(levels, k)
        ck1 = _at(levels, k + 1)
        terms.append(frozenset(g for g in ek if all(commutator(g, c) in ck for c in ck1)))
    return terms


def naive_enumerate_subgroups(G) -> list[tuple[str, frozenset[int]]]:
    """The unpruned seed loop: closure of (), every (i,) and every pair
    (i, j), i < j, first seed labels.  Uses the package's `closure_indices`
    (checked against `naive_closure` in test_grp) so S5 stays fast."""
    from envchain.grp import closure_indices
    from envchain.perm import format_cycles

    n, e = G.order, G.identity_idx
    seeds = [()] + [(i,) for i in range(n) if i != e]
    seeds += [(i, j) for i in range(n) for j in range(i + 1, n) if e not in (i, j)]
    seen: dict[frozenset[int], str] = {}
    for seed in seeds:
        idxs = closure_indices(G, seed)
        if idxs not in seen:
            seen[idxs] = "<" + ",".join(format_cycles(G.elements[i]) for i in seed) + ">"
    return sorted(((lab, idxs) for idxs, lab in seen.items()), key=lambda t: sorted(t[1]))


def naive_conjugates(G, idxs: frozenset[int]) -> set[frozenset[int]]:
    """Every conjugate g^-1 H g of the subgroup H with index set `idxs`, by
    every element g of G, as index sets; `perm` arithmetic throughout, as in
    `perm.conjugate`."""
    H = [G.elements[i] for i in idxs]
    out = set()
    for g in G.elements:
        gi = g.inverse()
        out.add(frozenset(G.index(compose(compose(gi, h), g)) for h in H))
    return out


def naive_subgroup_classes(G, idx_sets: list[frozenset[int]]) -> dict[frozenset[int], frozenset[int]]:
    """Every conjugate of every index set in `idx_sets` mapped to the first
    set in `idx_sets` conjugate to it; the keys include conjugates outside
    `idx_sets`."""
    first: dict[frozenset[int], frozenset[int]] = {}
    for s in idx_sets:
        if s not in first:
            first.update(dict.fromkeys(naive_conjugates(G, s), s))
    return first


def naive_orbit_least(n: int, maps) -> list[int]:
    """The least point of each x's orbit under `maps` (lists of images),
    each orbit grown from x alone until no map adds a point."""
    out = []
    for x in range(n):
        orbit = {x}
        while True:
            new = {m[y] for m in maps for y in orbit} - orbit
            if not new:
                break
            orbit |= new
        out.append(min(orbit))
    return out
