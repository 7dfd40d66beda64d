"""Permutation arithmetic and cycle notation."""

import pytest
from hypothesis import given, strategies as st

from envchain.perm import (
    CycleParseError,
    DegreeMismatchError,
    Permutation,
    commutator,
    compose,
    conjugate,
    format_cycles,
    parse_cycles,
    support,
)


def perms(degree):
    return st.permutations(range(degree)).map(Permutation)


def test_identity_fixes_everything():
    e = Permutation.identity(5)
    assert e.is_identity()
    assert support(e) == frozenset()
    assert format_cycles(e) == "()"


def test_compose_applies_right_factor_first():
    a = parse_cycles("(0 1 2)", 3)
    b = parse_cycles("(0 1)", 3)
    assert format_cycles(compose(a, b)) == "(0 2)"


def test_involution_squares_to_identity():
    t = parse_cycles("(0 1)", 2)
    assert compose(t, t).is_identity()


def test_identity_law():
    g = parse_cycles("(0 2 1)", 4)
    e = Permutation.identity(4)
    assert compose(e, g) == g
    assert compose(g, e) == g


def test_commutator_of_self_is_identity():
    g = parse_cycles("(0 1 2 3)", 4)
    assert commutator(g, g).is_identity()


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
    p = parse_cycles("(0 1)(2 3)", 4)
    assert p.images == (1, 0, 3, 2)
    assert parse_cycles("()", 3).is_identity()
    assert parse_cycles("  ", 3).is_identity()


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


def test_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        compose(Permutation.identity(3), Permutation.identity(4))


def test_not_a_bijection_rejected():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_pad_embeds_with_fixed_points():
    p = parse_cycles("(0 1)", 2).pad(5)
    assert p.images == (1, 0, 2, 3, 4)
    with pytest.raises(DegreeMismatchError):
        p.pad(2)


@given(perms(6), perms(6), perms(6))
def test_associativity(a, b, c):
    assert compose(a, compose(b, c)) == compose(compose(a, b), c)


@given(perms(6), perms(6))
def test_inverse_of_product(a, b):
    assert compose(a, b).inverse() == compose(b.inverse(), a.inverse())


@given(perms(5), perms(5))
def test_commutator_trivial_iff_commuting(g, h):
    assert commutator(g, h).is_identity() == (compose(g, h) == compose(h, g))


@given(perms(6), perms(6))
def test_support_of_product(a, b):
    assert support(compose(a, b)) <= support(a) | support(b)


@given(perms(7))
def test_cycle_roundtrip(p):
    assert parse_cycles(format_cycles(p), 7) == p


@given(perms(6))
def test_inverse_roundtrip(p):
    assert p.inverse().inverse() == p
    assert compose(p, p.inverse()).is_identity()
