"""Hypothesis strategies for the differential tests: small permutation groups
and index sets inside them, with helpers to move between index sets and the
raw permutation sets the naive oracle works on."""

from __future__ import annotations

from hypothesis import HealthCheck, assume, settings
from hypothesis import strategies as st

from envchain.grp import FiniteGroup, closure, closure_indices
from envchain.perm import Permutation

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
    gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    G = closure([Permutation(g) for g in gens])
    assume(G.order <= MAX_ORDER)
    return G


def subgroups(G: FiniteGroup):
    """Subgroups generated by one or two random elements."""
    return st.lists(st.integers(0, G.order - 1), min_size=1, max_size=2).map(
        lambda seeds: closure_indices(G, seeds)
    )


def subsets(G: FiniteGroup):
    """Arbitrary non-empty index sets, usually not subgroups."""
    return st.frozensets(st.integers(0, G.order - 1), min_size=1)


def subgroups_or_subsets(G: FiniteGroup):
    return st.one_of(subgroups(G), subsets(G))


def perms(G: FiniteGroup, indices) -> frozenset[Permutation]:
    return frozenset(G.elements[i] for i in indices)


def indices(G: FiniteGroup, members) -> frozenset[int]:
    return frozenset(G.index_of[p] for p in members)
