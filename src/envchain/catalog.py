"""Built-in catalog of small permutation groups used by the verify suites.

Each entry is a group file (see `grp.parse_group_file`); the generator sets
for the less obvious groups are produced from explicit constructions at import
time so the cycle strings never drift from the intended group.

`enumerate_subgroups` lists the subgroups `verify` checks, each with its
label and the first member of its conjugacy class, so that `verify` runs its
suites on one member of each class (see `suites.group_suites`).  Both of its
orbit passes, over elements under conjugation and over the seeds paired
with an element, are `grp.orbit_labels`.
"""

from __future__ import annotations

from . import DEFAULT_CAP
from .grp import (FiniteGroup, Subgroup, centralizer, closure_indices, generating_indices, orbit_labels,
                  parse_group_file)
from .perm import format_cycles, parse_cycles


def _heisenberg3_generators() -> list[tuple[int, ...]]:
    """Upper unitriangular 3x3 matrices over Z/3 acting on themselves.

    Elements are triples (a, b, c) with (a,b,c)*(a',b',c') =
    (a+a', b+b', c+c'+a*b'), indexed a-major; the generators are left
    translation by (1,0,0) and (0,1,0)."""

    def idx(v):
        return 9 * v[0] + 3 * v[1] + v[2]

    def mul(u, v):
        return ((u[0] + v[0]) % 3, (u[1] + v[1]) % 3, (u[2] + v[2] + u[0] * v[1]) % 3)

    all_elems = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    gens = []
    for g in ((1, 0, 0), (0, 1, 0)):
        images = [0] * 27
        for v in all_elems:
            images[idx(v)] = idx(mul(g, v))
        gens.append(tuple(images))
    return gens


def _quaternion_generators() -> list[tuple[int, ...]]:
    """Q8 = {1,-1,i,-i,j,-j,k,-k} acting on itself by left multiplication."""
    # index: 1,-1,i,-i,j,-j,k,-k -> 0..7
    left_i = (2, 3, 1, 0, 6, 7, 5, 4)
    left_j = (4, 5, 7, 6, 1, 0, 2, 3)
    return [left_i, left_j]


def _group_file(degree: int, generators: list[tuple[int, ...]], header: str) -> str:
    return "\n".join([f"# {header}", f"degree: {degree}", *map(format_cycles, generators)]) + "\n"


def _group_files() -> dict[str, str]:
    heis = _heisenberg3_generators()
    quat = _quaternion_generators()

    def gf(degree, cycle_texts, header):
        return _group_file(degree, [parse_cycles(t, degree) for t in cycle_texts], header)

    return {
        "A4": gf(4, ["(0 1 2)", "(1 2 3)"], "alternating group on 4 points, order 12"),
        "D16": gf(8, ["(0 1 2 3 4 5 6 7)", "(1 7)(2 6)(3 5)"], "dihedral group of order 16"),
        "D8": gf(4, ["(0 1 2 3)", "(1 3)"], "dihedral group of order 8"),
        "E8": gf(6, ["(0 1)", "(2 3)", "(4 5)"], "elementary abelian group of order 8"),
        "Heis3": _group_file(27, heis, "Heisenberg group mod 3, order 27 (regular action)"),
        "Q8": _group_file(8, quat, "quaternion group of order 8 (regular action)"),
        "S3": gf(3, ["(0 1)", "(0 1 2)"], "symmetric group on 3 points, order 6"),
        "S4": gf(4, ["(0 1)", "(0 1 2 3)"], "symmetric group on 4 points, order 24"),
        "Z4xZ2": gf(6, ["(0 1 2 3)", "(4 5)"], "direct product of cyclic groups of order 4 and 2"),
    }


CATALOG_FILES: dict[str, str] = _group_files()

def build_catalog(cap: int = DEFAULT_CAP) -> dict[str, FiniteGroup]:
    """All catalog groups, keyed by name, in sorted-name order."""
    return {name: parse_group_file(CATALOG_FILES[name], cap=cap) for name in sorted(CATALOG_FILES)}


def enumerate_subgroups(G: FiniteGroup) -> list[tuple[str, Subgroup, Subgroup]]:
    """Every subgroup generated by at most two elements, as (label, H,
    first) sorted by H's element index set: `first` is the first member of
    H's conjugacy class in that order (H itself for a class's first), and
    the label is the first seed generating H in the order (), then (i,) and
    then pairs (i, j) with i < j, each by index.

    One pass over conjugacy classes finds the list, by two facts (Holt,
    Eick and O'Brien, *Handbook of Computational Group Theory*):

    - <a, b>^g = <a^g, b^g>.  So every such subgroup is conjugate to <r> or
      to <r, s>, for r the least element of a's class and s the least of
      its orbit under x ↦ x^c (c in C_G(r)) and x ↦ xr: <r, x^c> is
      <r, x>^c and <r, xr> is <r, x>.  Only these seeds are closed, skipping
      s in <r> and s in the class of an earlier r, and the conjugation
      orbits of their closures are the list, one orbit per class.
    - <i, j> is the least-order subgroup holding i and j, and it is in the
      list.  Each element's bitmask marks the subgroups holding it, ordered
      by order, so <i> and <i, j> are the lowest bits of mask[i] and of
      mask[i] & mask[j], and the labels need no further closures.
    """
    n, e = G.order, G.identity_idx
    inv = list(map(G.inv_idx, range(n))).__getitem__

    def conj(g: int) -> list[int]:  # g^-1 x g for every x, from x·g for every x
        row = G.row(g)
        return list(map(inv, map(row.__getitem__, map(inv, row))))

    gmaps = [conj(G.index(g)) for g in G.generators]
    class_of: dict[frozenset[int], frozenset[int]] = {}  # subgroup -> the closure finding its class

    def add_class(H: frozenset[int]):
        if H not in class_of:
            class_of[H] = H
            orbit = [H]
            for K in orbit:
                for m in gmaps:
                    L = frozenset(map(m.__getitem__, K))
                    if L not in class_of:
                        class_of[L] = H
                        orbit.append(L)

    add_class(frozenset({e}))
    rep = orbit_labels(n, gmaps)
    for r in range(n):
        if rep[r] == r != e:
            add_class(closure_indices(G, (r,)))
            C = centralizer(G, (r,)).indices  # x ↦ x^c for c generating C, and x ↦ xr:
            least = orbit_labels(n, [conj(c) for c in generating_indices(G, C)] + [G.row(r)])
            for s in range(n):  # the orbit of e is <r>
                if least[s] == s != e and rep[s] >= r:
                    add_class(closure_indices(G, (r, s)))

    subs = sorted((len(H), sorted(H), H, c) for H, c in class_of.items())  # bit b: subs[b]
    masks = [0] * n
    for bit, (_, els, _, _) in enumerate(subs):
        for i in els:
            masks[i] |= 1 << bit
    seed: dict[int, tuple[int, ...]] = {0: ()}  # bit -> the first seed generating subs[bit]
    for i in range(n):
        seed.setdefault((masks[i] & -masks[i]).bit_length() - 1, (i,))
    for bit, (_, els, _, _) in enumerate(subs):
        if bit not in seed:  # not cyclic: the first pair in no smaller subgroup
            lower = (1 << bit) - 1
            seed[bit] = next((i, j) for a, i in enumerate(els) for j in els[a + 1:]
                             if not masks[i] & masks[j] & lower)
    # only the elements a label names are formatted, each once
    text = {i: format_cycles(G.element(i)) for i in {i for s in seed.values() for i in s}}
    out = [(els, c, "<" + ",".join(map(text.__getitem__, seed[bit])) + ">", Subgroup(G, H))
           for bit, (_, els, H, c) in enumerate(subs)]
    firsts: dict[frozenset[int], Subgroup] = {}
    return [(label, H, firsts.setdefault(c, H)) for _, c, label, H in sorted(out)]
