"""Hypothesis strategies for the differential tests: small permutation groups
and index sets inside them, with helpers to move between index sets and the
image-tuple sets the naive oracle works on."""

from __future__ import annotations

from functools import cache

from hypothesis import HealthCheck, assume, settings
from hypothesis import strategies as st

from envchain.grp import _TABLE_LIMIT, FiniteGroup, closure, closure_indices
from envchain.perm import parse_cycles

# Orders up to this keep every naive filter well under a second.
MAX_ORDER = 120

DIFFERENTIAL = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


@st.composite
def groups(draw) -> FiniteGroup:
    """The group generated by 1-3 random permutations of S_n, n <= 6."""
    n = draw(st.integers(3, 6))
    gens = draw(st.lists(st.permutations(range(n)).map(tuple), min_size=1, max_size=3))
    G = closure(gens)
    assume(G.order <= MAX_ORDER)
    return G


@cache
def big_group() -> tuple[FiniteGroup, list[int]]:
    """S7, whose order 5040 lies above `_TABLE_LIMIT`, and the indices of its
    subgroup S4 x C3 (order 72) to draw index sets from, so that the naive
    oracle stays quick.  Built once."""
    G = closure([parse_cycles(c, 7) for c in ("(0 1)", "(0 1 2 3 4 5 6)")])
    assert G.order > _TABLE_LIMIT
    gens = [G.index(parse_cycles(c, 7)) for c in ("(0 1)", "(0 1 2 3)", "(4 5 6)")]
    pool = closure_indices(G, gens)
    return G, sorted(pool)


@st.composite
def groups_and_pools(draw) -> tuple[FiniteGroup, list[int] | None]:
    """A small group from `groups` with no pool (any element may be drawn),
    or, one time in three, `big_group` with its pool: both sides of the
    `_TABLE_LIMIT` guards."""
    if draw(st.integers(0, 2)) == 0:
        return big_group()
    return draw(groups()), None


def _elements(G: FiniteGroup, pool):
    return st.integers(0, G.order - 1) if pool is None else st.sampled_from(pool)


def subgroups(G: FiniteGroup, pool=None):
    """Subgroups generated by at most two random elements (of `pool`)."""
    return st.lists(_elements(G, pool), max_size=2).map(
        lambda seeds: closure_indices(G, seeds)
    )


def subsets(G: FiniteGroup, pool=None):
    """Arbitrary non-empty index sets (inside `pool`), usually not subgroups."""
    return st.frozensets(_elements(G, pool), min_size=1)


def subgroups_or_subsets(G: FiniteGroup, pool=None):
    return st.one_of(subgroups(G, pool), subsets(G, pool))


def whole(G: FiniteGroup, pool=None) -> frozenset[int]:
    """All of G, or all of the pool: what most filters run over."""
    return frozenset(range(G.order) if pool is None else pool)


def perms(G: FiniteGroup, indices) -> frozenset[tuple[int, ...]]:
    return frozenset(G.elements[i] for i in indices)


def indices(G: FiniteGroup, members) -> frozenset[int]:
    return frozenset(G.index(p) for p in members)
