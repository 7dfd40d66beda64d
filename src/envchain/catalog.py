"""Built-in catalog of small permutation groups used by the verify suites.

Each entry is a group file (see `grp.parse_group_file`); the generator sets
for the less obvious groups are produced from explicit constructions at import
time so the cycle strings never drift from the intended group.
"""

from __future__ import annotations

from .grp import FiniteGroup, Subgroup, closure_indices, format_group_file, parse_group_file
from .perm import Permutation, format_cycles


def _heisenberg3_generators() -> list[Permutation]:
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
        gens.append(Permutation(images))
    return gens


def _quaternion_generators() -> list[Permutation]:
    """Q8 = {1,-1,i,-i,j,-j,k,-k} acting on itself by left multiplication."""
    # index: 1,-1,i,-i,j,-j,k,-k -> 0..7
    left_i = Permutation([2, 3, 1, 0, 6, 7, 5, 4])
    left_j = Permutation([4, 5, 7, 6, 1, 0, 2, 3])
    return [left_i, left_j]


def _group_files() -> dict[str, str]:
    heis = _heisenberg3_generators()
    quat = _quaternion_generators()
    from .perm import format_cycles, parse_cycles

    def gf(degree, cycle_texts, header):
        gens = [parse_cycles(t, degree) for t in cycle_texts]
        return format_group_file(degree, gens, header)

    return {
        "A4": gf(4, ["(0 1 2)", "(1 2 3)"], "alternating group on 4 points, order 12"),
        "D16": gf(8, ["(0 1 2 3 4 5 6 7)", "(1 7)(2 6)(3 5)"], "dihedral group of order 16"),
        "D8": gf(4, ["(0 1 2 3)", "(1 3)"], "dihedral group of order 8"),
        "E8": gf(6, ["(0 1)", "(2 3)", "(4 5)"], "elementary abelian group of order 8"),
        "Heis3": format_group_file(27, heis, "Heisenberg group mod 3, order 27 (regular action)"),
        "Q8": format_group_file(8, quat, "quaternion group of order 8 (regular action)"),
        "S3": gf(3, ["(0 1)", "(0 1 2)"], "symmetric group on 3 points, order 6"),
        "S4": gf(4, ["(0 1)", "(0 1 2 3)"], "symmetric group on 4 points, order 24"),
        "Z4xZ2": gf(6, ["(0 1 2 3)", "(4 5)"], "direct product of cyclic groups of order 4 and 2"),
    }


CATALOG_FILES: dict[str, str] = _group_files()

EXPECTED_ORDERS: dict[str, int] = {
    "A4": 12,
    "D16": 16,
    "D8": 8,
    "E8": 8,
    "Heis3": 27,
    "Q8": 8,
    "S3": 6,
    "S4": 24,
    "Z4xZ2": 8,
}


def build_catalog(cap: int = 20000) -> dict[str, FiniteGroup]:
    """All catalog groups, keyed by name, in sorted-name order."""
    return {name: parse_group_file(CATALOG_FILES[name], cap=cap) for name in sorted(CATALOG_FILES)}


def enumerate_subgroups(G: FiniteGroup) -> list[tuple[str, Subgroup]]:
    """Every subgroup generated by at most two elements, deduplicated.

    This covers the trivial subgroup, all cyclic subgroups, and all
    2-generated ones; labels use the lexicographically first generating seed
    that produced each subgroup.  Output is sorted by the subgroup's element
    index set, so it is deterministic.

    For a fixed i the pair seed (i, j) is skipped when j lies in a double
    coset <i> j' <i> of an earlier j': <i, a j b> = <i, j> for a, b in <i>,
    so it repeats a subgroup an earlier seed already labelled.
    """
    seen: dict[frozenset[int], str] = {}
    n = G.order
    e = G.identity_idx

    def add(seed: tuple[int, ...], idxs: frozenset[int]):
        if idxs not in seen:
            seen[idxs] = "<" + ",".join(format_cycles(G.elements[i]) for i in seed) + ">"

    seen[frozenset({e})] = "<>"
    cyclic = {i: closure_indices(G, (i,)) for i in range(n) if i != e}
    for i, idxs in cyclic.items():
        add((i,), idxs)
    for i, powers in cyclic.items():
        covered: set[int] = set()
        for j in range(i + 1, n):
            if j == e or j in covered:
                continue
            add((i, j), closure_indices(G, (i, j)))
            aj = list(map(G.row(j).__getitem__, powers))  # a·j for a in <i>
            for b in powers:
                covered.update(map(G.row(b).__getitem__, aj))
    items = [(lab, Subgroup(G, idxs)) for idxs, lab in seen.items()]
    items.sort(key=lambda t: t[1].key())
    return items
