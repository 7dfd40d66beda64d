"""Cycle notation, the tuple arithmetic of the naive oracle, and the input
check `closure` makes on image tuples.  Every writer of cycle notation in
the package (`perm.format_cycles`, `symnat.BlockPerm.cycles_text` and
`symnat.swaps_text`) goes through `envchain.format_moves`, which is checked
here (and `swaps_text` in `test_symnat`) against the naive oracle's two
walks."""

import pytest
from hypothesis import given, strategies as st

from envchain import format_moves
from envchain.grp import closure
from envchain.perm import CycleParseError, DegreeMismatchError, format_cycles, from_moves, parse_cycles, parse_moves
from envchain.symnat import BlockPerm

from naive import (commutator, compose, conjugate, identity, inverse, naive_cycles, naive_moves,
                   naive_sparse_cycles, support)
from strategies import DIFFERENTIAL, cycle_texts


def perms(degree):
    return st.permutations(range(degree)).map(tuple)


def test_identity_fixes_everything():
    e = identity(5)
    assert e == (0, 1, 2, 3, 4)
    assert support(e) == frozenset()
    assert format_cycles(e) == "()"


def test_compose_applies_right_factor_first():
    a = parse_cycles("(0 1 2)", 3)
    b = parse_cycles("(0 1)", 3)
    assert format_cycles(compose(a, b)) == "(0 2)"


def test_involution_squares_to_identity():
    t = parse_cycles("(0 1)", 2)
    assert compose(t, t) == identity(2)


def test_identity_law():
    g = parse_cycles("(0 2 1)", 4)
    e = identity(4)
    assert compose(e, g) == g
    assert compose(g, e) == g


def test_commutator_of_self_is_identity():
    g = parse_cycles("(0 1 2 3)", 4)
    assert commutator(g, g) == identity(4)


def test_commutator_example():
    g = parse_cycles("(0 1)", 3)
    h = parse_cycles("(0 2)", 3)
    assert format_cycles(commutator(g, h)) == "(0 1 2)"


def test_conjugate_relabels_cycles():
    h = parse_cycles("(0 1)", 3)
    g = parse_cycles("(0 1 2)", 3)
    # g^-1 h g sends the moved points of h through g's inverse labelling
    assert conjugate(h, g) == parse_cycles("(0 2)", 3)


def test_parse_cycles_basic():
    assert parse_cycles("(0 1)(2 3)", 4) == (1, 0, 3, 2)
    assert parse_cycles("()", 3) == identity(3)
    assert parse_cycles("  ", 3) == identity(3)


def test_parse_moves_is_the_moved_points():
    assert parse_moves("(0 1)(2 3)", 4) == {0: 1, 1: 0, 2: 3, 3: 2}
    # fixed points, one-point cycles included, are left out
    assert parse_moves("(3)(4 1)()", 10_000) == {4: 1, 1: 4}
    assert parse_moves("  ", 3) == {}
    assert from_moves(parse_moves("(0 2 1)", 4).items(), range(4)) == parse_cycles("(0 2 1)", 4)
    for text, position in (("(0 1)(1 2)", 6), ("(3)(3 1)", 4), ("(0 1", 3)):
        with pytest.raises(CycleParseError) as exc:
            parse_moves(text, 4)
        assert exc.value.position == position
    with pytest.raises(CycleParseError, match=r"^point 4 >= degree 4 \(at offset 1\)$"):
        parse_moves("(4)", 4)


def test_format_cycles_is_canonical():
    # each cycle from its least point, cycles by that point, fixed points left out
    assert format_cycles((0, 1, 2)) == "()"
    assert format_cycles(parse_cycles("(4 3)(2 0 1)", 6)) == "(0 1 2)(3 4)"
    assert format_cycles((2, 3, 0, 1)) == "(0 2)(1 3)"


def sparse_moves(lo, hi):
    """{x: image of x} for a permutation of up to 12 points drawn from
    lo..hi, its fixed points dropped."""
    return st.lists(st.integers(lo, hi), unique=True, max_size=12).flatmap(
        lambda pts: st.permutations(pts).map(lambda img: {x: y for x, y in zip(pts, img) if x != y}))


@DIFFERENTIAL
@given(st.one_of(sparse_moves(0, 20), sparse_moves(10**9, 10**18), sparse_moves(0, 10**18)))
def test_format_moves_matches_the_naive_walk(moves):
    text = naive_sparse_cycles(moves)
    assert format_moves(moves) == text
    assert BlockPerm(moves).cycles_text() == text


@DIFFERENTIAL
@given(st.integers(0, 12).flatmap(perms))
def test_format_cycles_matches_the_naive_walks(p):
    text = naive_cycles(p)
    assert format_cycles(p) == text
    assert naive_sparse_cycles({x: y for x, y in enumerate(p) if x != y}) == text


def test_format_moves_costs_the_moved_points_not_the_degree():
    # no list of 10^18 slots can be made, so this passes only when the text
    # is written from the two moved points alone
    far = 10**18
    assert BlockPerm.swap(0, far).cycles_text() == f"(0 {far})"
    assert format_moves({far + 2: far, far: far + 1, far + 1: far + 2, 10**9: 5, 5: 10**9}) == \
        f"(5 {10**9})({far} {far + 1} {far + 2})"
    assert format_moves({}) == "()"


def test_parse_cycles_errors_carry_position():
    with pytest.raises(CycleParseError) as exc:
        parse_cycles("(0 1)(1 2)", 3)
    assert exc.value.position == 6
    with pytest.raises(CycleParseError):
        parse_cycles("(0 5)", 3)
    with pytest.raises(CycleParseError):
        parse_cycles("(0 1", 3)
    with pytest.raises(CycleParseError):
        parse_cycles("0 1", 3)
    with pytest.raises(CycleParseError):
        parse_cycles("(0 x)", 3)


@pytest.mark.parametrize("text", ["(0 \u00b2)", "(0 \u0661)", "(\uff11 0)", "(0 1\u00b2)"])
def test_parse_cycles_accepts_only_ascii_digits(text):
    # int() reads U+0661 as 1 and fails on U+00B2; both are just characters here
    with pytest.raises(CycleParseError, match="unexpected character"):
        parse_cycles(text, 3)


def test_parse_cycles_point_past_the_int_digit_limit():
    with pytest.raises(CycleParseError, match="point of 5000 digits"):
        parse_cycles("(0 " + "9" * 5000 + ")", 3)
    assert parse_cycles("(0 01)", 3) == parse_cycles("(0 1)", 3)


@DIFFERENTIAL
@given(cycle_texts(), st.sampled_from([1, 3, 10, 100_000]))
def test_parse_moves_matches_the_character_loop(text, degree):
    # the lexer's one pattern against the character loop it replaced: the
    # same moves, or the same message at the same offset
    try:
        expected = naive_moves(text, degree)
    except ValueError as exc:
        message, offset = exc.args
        with pytest.raises(CycleParseError) as got:
            parse_moves(text, degree)
        assert (str(got.value), got.value.position) == (f"{message} (at offset {offset})", offset)
    else:
        assert parse_moves(text, degree) == expected


def test_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        closure([identity(3), identity(4)])


def test_not_a_bijection_rejected():
    with pytest.raises(ValueError, match="not a bijection"):
        closure([(0, 0, 1)])


@given(perms(6), perms(6), perms(6))
def test_associativity(a, b, c):
    assert compose(a, compose(b, c)) == compose(compose(a, b), c)


@given(perms(6), perms(6))
def test_inverse_of_product(a, b):
    assert inverse(compose(a, b)) == compose(inverse(b), inverse(a))


@given(perms(5), perms(5))
def test_commutator_trivial_iff_commuting(g, h):
    assert (commutator(g, h) == identity(5)) == (compose(g, h) == compose(h, g))


@given(perms(6), perms(6))
def test_support_of_product(a, b):
    assert support(compose(a, b)) <= support(a) | support(b)


@given(perms(7))
def test_cycle_roundtrip(p):
    assert parse_cycles(format_cycles(p), 7) == p


@given(perms(6))
def test_inverse_roundtrip(p):
    assert inverse(inverse(p)) == p
    assert compose(p, inverse(p)) == identity(6)
