"""Independent naive oracle: every chain notion recomputed by direct set
filtering over image tuples, with no index tables and no caching.

Deliberately duplicates none of the package's machinery so that agreement is
meaningful.  A permutation is the tuple of its images, p[x] being the image
of x, as everywhere in the package; composition is a left action:
``compose(a, b)`` applies ``b`` first, then ``a``.
"""

from __future__ import annotations

Perm = tuple[int, ...]


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def compose(a: Perm, b: Perm) -> Perm:
    """a after b:  compose(a, b)[x] == a[b[x]]."""
    assert len(a) == len(b), "permutations of different degrees"
    return tuple(a[x] for x in b)


def inverse(a: Perm) -> Perm:
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return tuple(inv)


def conjugate(h: Perm, g: Perm) -> Perm:
    """g^-1 h g."""
    return compose(compose(inverse(g), h), g)


def commutator(g: Perm, h: Perm) -> Perm:
    """[g, h] = g^-1 h^-1 g h."""
    return compose(compose(compose(inverse(g), inverse(h)), g), h)


def support(a: Perm) -> frozenset[int]:
    """The set of moved points; empty for the identity."""
    return frozenset(i for i, x in enumerate(a) if i != x)


def naive_closure(gens: set[Perm], degree: int) -> frozenset[Perm]:
    els = {identity(degree)} | set(gens)
    while True:
        new = {compose(a, b) for a in els for b in els} | {inverse(g) for g in els}
        if new <= els:
            return frozenset(els)
        els |= new


def naive_centralizer(ambient: frozenset[Perm], targets) -> frozenset[Perm]:
    return frozenset(g for g in ambient if all(compose(g, t) == compose(t, g) for t in targets))


def naive_commutator_filter(members, xs, into) -> frozenset[Perm]:
    return frozenset(g for g in members if all(commutator(g, x) in into for x in xs))


def naive_normalizer(ambient: frozenset[Perm], sub: frozenset[Perm]) -> frozenset[Perm]:
    return frozenset(g for g in ambient if {conjugate(s, g) for s in sub} == sub)


def naive_center_series(sub: frozenset[Perm]) -> list[frozenset[Perm]]:
    series = [frozenset({identity(len(next(iter(sub))))})]
    while True:
        prev = series[-1]
        nxt = frozenset(g for g in sub if all(commutator(g, x) in prev for x in sub))
        if nxt == prev:
            return series
        series.append(nxt)


def _at(series, k):
    return series[k] if k < len(series) else series[-1]


def naive_nilpotency_class(sub: frozenset[Perm]):
    series = naive_center_series(sub)
    return len(series) - 1 if series[-1] == sub else None


def naive_iterated_levels(
    within: frozenset[Perm], target: frozenset[Perm], kmax: int
) -> list[frozenset[Perm]]:
    levels = [frozenset({identity(len(next(iter(within))))})]
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
    whole: frozenset[Perm], sub: frozenset[Perm], kmax: int
) -> list[frozenset[Perm]]:
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
    every element g of G, as index sets; tuple arithmetic throughout, by
    `conjugate`."""
    H = [G.elements[i] for i in idxs]
    return {frozenset(G.index(conjugate(h, g)) for h in H) for g in G.elements}


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
