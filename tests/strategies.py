"""Hypothesis strategies for the differential tests: small permutation groups
and index sets inside them, with helpers to move between index sets and the
image-tuple sets the naive oracle works on, and cycle text for the lexer."""

from __future__ import annotations

import sys
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


# ASCII and Unicode whitespace, as `str.isspace` has it.
SPACES = " \t\n\r\v\f\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000"

# Parentheses, letters, ASCII digits, two digits int() treats apart (it
# reads "\u0661" and fails on "\u00b2"), the whitespace, and U+FEFF, which
# is not whitespace.
CYCLE_CHARS = "()ax0123456789\u0661\u00b2\ufeff" + SPACES


@st.composite
def cycle_texts(draw) -> str:
    """Cycle text: up to four cycles of points, each point below 13, up to
    three characters of ASCII digits and "\u0661\u00b2", or a run of ASCII
    digits around the most that int() converts; every token after a run of
    whitespace, and up to two characters of `CYCLE_CHARS` put in at random
    offsets."""
    most = sys.get_int_max_str_digits()
    point = st.one_of(st.integers(0, 12).map(str), st.text("0123456789\u0661\u00b2", min_size=1, max_size=3),
                      st.integers(most - 3, most + 3).map("7".__mul__))
    space = st.text(SPACES, max_size=2)
    cycles = draw(st.lists(st.lists(point, max_size=4), max_size=4))
    text = "".join(draw(space) + t for c in cycles for t in ("(", *c, ")")) + draw(space)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(CYCLE_CHARS)) + text[i:]
    return text
