"""The symbolic block-permutation model: bit functions, the normal-form
algebra, chain levels, and the strict-descent witnesses."""

import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from envchain import LimitError
from envchain import symnat as sn
from envchain.perm import format_cycles
from naive import naive_cycles
from views import level


# --- the index map -------------------------------------------------------------


def test_f_map_cases():
    assert sn.f_map(0) == 2
    assert sn.f_map(4) == 6
    assert sn.f_map(1) == 0
    assert sn.f_map(3) == 1
    assert sn.f_map(7) == 5


def test_f_inv_cases():
    assert sn.f_pow(0, -1) == 1
    assert sn.f_pow(2, -1) == 0
    assert sn.f_pow(3, -1) == 5


def test_f_roundtrip():
    for x in range(200):
        assert sn.f_pow(sn.f_map(x), -1) == x
        assert sn.f_map(sn.f_pow(x, -1)) == x


def test_f_single_orbit_prefix():
    # walking f from 9 passes 7, 5, 3, 1, 0, 2, 4, ...
    walk = [9]
    for _ in range(8):
        walk.append(sn.f_map(walk[-1]))
    assert walk == [9, 7, 5, 3, 1, 0, 2, 4, 6]


def test_f_pow():
    assert sn.f_pow(0, 3) == 6
    assert sn.f_pow(6, -3) == 0
    assert sn.f_pow(5, 4) == 2
    assert sn.f_pow(2, -4) == 5
    assert sn.f_pow(11, 0) == 11


def test_f_pow_is_iterated_f_map():
    # the closed form against m-fold iteration of the literal f_map and of
    # its literal inverse, for m negative, zero and positive
    def literal_inv(y):
        return 1 if y == 0 else y - 2 if y % 2 == 0 else y + 2

    for x in range(120):
        forward = backward = x
        for m in range(61):
            assert sn.f_pow(x, m) == forward and sn.f_pow(x, -m) == backward
            forward, backward = sn.f_map(forward), literal_inv(backward)


# --- bit functions --------------------------------------------------------------


def raw_bitfns():
    return st.tuples(
        st.lists(st.integers(0, 1), max_size=6),
        st.lists(st.integers(0, 1), min_size=1, max_size=6),
    )


def test_bitfn_normalizes_period():
    assert sn.BitFn((), (0, 1, 0, 1)).block == (0, 1)
    assert sn.BitFn((), (1, 1, 1)).block == (1,)
    assert sn.BitFn((), (0, 1, 1, 0)).block == (0, 1, 1, 0)


def test_bitfn_absorbs_prefix():
    assert sn.BitFn((0,), (0,)) == sn.BitFn.zero()
    assert sn.BitFn((1, 0), (1, 0)).prefix == ()
    j = sn.BitFn((0, 1, 1), (0, 0, 1, 1))
    # the prefix folds into a rotation of the block
    assert j.prefix == () and j.period == 4


def test_bitfn_keeps_genuine_prefix():
    j = sn.BitFn((1,), (1, 0))
    assert j.prefix == (1,) and j.block == (1, 0)
    assert [j(x) for x in range(5)] == [1, 1, 0, 1, 0]


@given(raw_bitfns(), raw_bitfns())
def test_bitfn_equality_decision_bound(a, b):
    ja = sn.BitFn(*a)
    jb = sn.BitFn(*b)
    bound = len(a[0]) + len(b[0]) + 2 * math.lcm(len(a[1]), len(b[1]))
    agree = all(ja(x) == jb(x) for x in range(bound + 1))
    assert (ja == jb) == agree


@given(raw_bitfns())
def test_bitfn_normalization_preserves_values(raw):
    j = sn.BitFn(*raw)
    pre, blk = raw
    for x in range(len(pre) + 3 * len(blk) + 2):
        expected = pre[x] if x < len(pre) else blk[(x - len(pre)) % len(blk)]
        assert j(x) == expected


@given(raw_bitfns(), raw_bitfns())
def test_bitfn_xor_pointwise(a, b):
    ja, jb = sn.BitFn(*a), sn.BitFn(*b)
    jx = ja ^ jb
    for x in range(40):
        assert jx(x) == ja(x) ^ jb(x)


@given(
    st.tuples(st.lists(st.integers(0, 1), max_size=8), st.lists(st.integers(0, 1), min_size=1, max_size=64)),
    st.tuples(st.lists(st.integers(0, 1), max_size=8), st.lists(st.integers(0, 1), min_size=1, max_size=64)),
)
def test_bitfn_xor_pointwise_wide_periods(a, b):
    # XOR builds its result from the prefix max(len) and the period lcm; check
    # it pointwise past three full lcm periods
    ja, jb = sn.BitFn(*a), sn.BitFn(*b)
    jx = ja ^ jb
    bound = max(len(a[0]), len(b[0])) + 3 * math.lcm(len(a[1]), len(b[1]))
    for x in range(bound + 1):
        assert jx(x) == ja(x) ^ jb(x)


def test_from_fn_rejects_a_wrong_period():
    with pytest.raises(RuntimeError, match="not \\(0, 2\\) eventually periodic"):
        sn.BitFn.from_fn(lambda x: 1 if x % 3 == 0 else 0, 0, 2)


# The kernels as they were before they sampled each point once: test-local
# oracles for `BitFn.__init__`, `__xor__`, `from_fn` and `_pull_bits`.


def old_canonical(prefix, block) -> tuple[tuple, tuple]:
    pre = [int(b) for b in prefix]
    blk = [int(b) for b in block]
    p = len(blk)
    for d in range(1, p + 1):
        if p % d == 0 and all(blk[i] == blk[i % d] for i in range(p)):
            blk = blk[:d]
            break
    while pre and pre[-1] == blk[-1]:
        blk.insert(0, blk.pop())
        pre.pop()
    return tuple(pre), tuple(blk)


def old_xor(a: sn.BitFn, b: sn.BitFn) -> tuple[tuple, tuple]:
    pre = max(len(a.prefix), len(b.prefix))
    per = math.lcm(a.period, b.period)
    return old_canonical([a(x) ^ b(x) for x in range(pre)],
                         [a(x) ^ b(x) for x in range(pre, pre + per)])


def old_from_fn(fn, prefix_len: int, period: int) -> tuple[tuple, tuple]:
    pre, blk = old_canonical([fn(x) for x in range(prefix_len)],
                             [fn(prefix_len + i) for i in range(period)])
    out = sn.BitFn(pre, blk)
    for x in range(prefix_len, prefix_len + 2 * period):
        if fn(x) != out(x):
            raise RuntimeError(
                f"function is not ({prefix_len}, {period}) eventually periodic at x={x}"
            )
    return pre, blk


def old_pull_bits(b: sn.BitFn, first: sn.BlockPerm, m: int) -> tuple[tuple, tuple]:
    shift = 2 * abs(m)
    prefix_len = max(len(b.prefix) + shift, shift + 2, max(first.support, default=-1) + 1, 1)
    return old_from_fn(lambda x: b(sn.f_pow(first(x), m)), prefix_len, math.lcm(b.period, 2))


def random_raw(rng: random.Random, max_pre: int = 8, max_blk: int = 24) -> tuple[list, list]:
    """A prefix and a block; one time in three the block repeats a shorter
    one and the prefix ends like the block, so both reductions run."""
    blk = [rng.randint(0, 1) for _ in range(rng.randint(1, max_blk))]
    pre = [rng.randint(0, 1) for _ in range(rng.randint(0, max_pre))]
    if rng.randrange(3) == 0:
        d = rng.randint(1, 4)
        blk = blk[:d] * rng.randint(1, 6)
        pre += blk[-rng.randint(0, len(blk)):] if rng.randrange(2) else []
    return pre, blk


def random_blockperm(rng: random.Random) -> sn.BlockPerm:
    pts = rng.sample(range(12), rng.randint(0, 5))
    shuffled = pts[:]
    rng.shuffle(shuffled)
    return sn.BlockPerm(dict(zip(pts, shuffled)))


def test_bitfn_init_matches_the_per_point_canonical_form():
    rng = random.Random(71)
    for _ in range(3000):
        pre, blk = random_raw(rng)
        b = sn.BitFn(pre, blk)
        assert (b.prefix, b.block) == old_canonical(pre, blk)
        assert type(b.prefix) is tuple and type(b.block) is tuple
    for bad in (((2,), (0,)), ((), (0, 1, -1)), ((), ())):
        with pytest.raises(ValueError):
            sn.BitFn(*bad)


def test_bitfn_values_and_xor_match_the_per_point_forms():
    # one operand in three is the zero function, so `^` returns the other
    rng = random.Random(73)
    for _ in range(3000):
        a, b = (sn.BitFn(*random_raw(rng)) if rng.randrange(3) else sn.BitFn.zero()
                for _ in range(2))
        x = a ^ b
        assert (x.prefix, x.block) == old_xor(a, b)
        n = rng.randint(0, 40)
        assert a.values(n) == tuple(a(t) for t in range(n))


def test_from_fn_matches_the_two_pass_sampler():
    rng = random.Random(79)
    outcomes = set()
    for _ in range(2000):
        prefix_len, period = rng.randint(0, 6), rng.randint(1, 12)
        if rng.randrange(2):
            # eventually periodic as claimed, possibly with a shorter period
            j = sn.BitFn(*random_raw(rng, max_pre=prefix_len, max_blk=4))
            period = j.period * rng.randint(1, 3)
            fn = j
        else:
            # arbitrary bits over the sampled window: mostly not periodic
            bits = [rng.randint(0, 1) for _ in range(prefix_len + 2 * period)]
            if rng.randrange(2):
                bits[prefix_len + period:] = bits[prefix_len:prefix_len + period]
                bits[rng.randrange(prefix_len + period, len(bits))] ^= 1
            fn = bits.__getitem__
        try:
            expected = old_from_fn(fn, prefix_len, period)
        except RuntimeError as exc:
            with pytest.raises(RuntimeError) as got:
                sn.BitFn.from_fn(fn, prefix_len, period)
            assert str(got.value) == str(exc)
            outcomes.add("raise")
            continue
        out = sn.BitFn.from_fn(fn, prefix_len, period)
        assert (out.prefix, out.block) == expected
        outcomes.add("sample")
    assert outcomes == {"raise", "sample"}


def test_pull_bits_matches_the_per_point_sampler():
    # b is zero, `first` the identity and m zero one time in three each, so
    # the identity laws that return b run as well as the sampler
    rng = random.Random(83)
    shortcut = set()
    for _ in range(900):
        b = sn.BitFn(*random_raw(rng, max_blk=8)) if rng.randrange(3) else sn.BitFn.zero()
        first = random_blockperm(rng) if rng.randrange(3) else sn.BlockPerm.identity()
        m = rng.randint(-4, 4) if rng.randrange(3) else 0
        out = sn._pull_bits(b, first, m)
        assert (out.prefix, out.block) == old_pull_bits(b, first, m)
        shortcut.add(b.is_zero or (first.is_identity and m == 0))
    assert shortcut == {True, False}


def test_bitfn_text_roundtrip():
    def parse(text):
        pre, blk = text.split("|")
        return sn.BitFn(map(int, pre), map(int, blk))

    for text in ("|0", "|1", "|0110", "11|10", "0|1"):
        assert parse(text).to_text() == text
    assert parse("00|00").to_text() == "|0"


def test_delta_examples():
    assert sn.delta(sn.BitFn.ones()).is_zero
    assert sn.delta(sn.BitFn.zero()).is_zero
    assert sn.delta(sn.BitFn.from_pattern((0, 1, 1, 0))) == sn.BitFn.ones()


def test_delta_pointwise_matches_definition():
    rng = random.Random(5)
    for _ in range(80):
        pre = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 4)))
        blk = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 6)))
        j = sn.BitFn(pre, blk)
        d = sn.delta(j)
        for x in range(64):
            assert d(x) == j(x) ^ j(sn.f_map(x))


def test_delta_can_break_periodicity_only_at_one():
    # delta of a pure periodic function is periodic from x=2 at the latest
    j = sn.BitFn.from_pattern((1, 0, 0, 0))
    d = sn.delta(j)
    assert len(d.prefix) <= 2


# --- block permutations ----------------------------------------------------------


def test_blockperm_basics():
    s = sn.BlockPerm.swap(0, 3)
    assert s(0) == 3 and s(3) == 0 and s(7) == 7
    assert s.inverse() == s
    assert (s * s).is_identity
    assert s.support == frozenset({0, 3})
    assert s.cycles_text() == "(0 3)"
    assert sn.BlockPerm.identity().cycles_text() == "()"


def test_blockperm_compose_applies_right_first():
    a = sn.BlockPerm.swap(0, 1)
    b = sn.BlockPerm.swap(1, 2)
    assert (a * b)(1) == a(b(1)) == a(2) == 2
    assert (a * b)(2) == a(1) == 0


def test_blockperm_rejects_non_bijection():
    with pytest.raises(ValueError):
        sn.BlockPerm({0: 1})


def test_blockperm_conjugation_along_f():
    s = sn.BlockPerm.swap(0, 1)
    t = s.conj_by_fpow(1)
    assert t.support == frozenset({sn.f_map(0), sn.f_map(1)}) == frozenset({2, 0})


# --- normal-form algebra ----------------------------------------------------------


def rand_elem(rng):
    pre = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 4)))
    blk = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 8)))
    pts = rng.sample(range(12), rng.randint(0, 5))
    shuffled = pts[:]
    rng.shuffle(shuffled)
    return sn.SymElem(
        sn.BitFn(pre, blk),
        sn.BlockPerm(dict(zip(pts, shuffled))),
        rng.randint(-5, 5),
    )


def test_sym_apply_is_a_bijection_on_windows():
    rng = random.Random(11)
    for _ in range(30):
        a = rand_elem(rng)
        inv = sn.sym_inv(a)
        for x in range(100):
            assert sn.sym_apply(inv, sn.sym_apply(a, x)) == x
            assert sn.sym_apply(a, sn.sym_apply(inv, x)) == x


def test_point_action_homomorphism():
    rng = random.Random(23)
    for _ in range(120):
        a, b = rand_elem(rng), rand_elem(rng)
        ab = sn.sym_mul(a, b)
        assert all(
            sn.sym_apply(ab, x) == sn.sym_apply(a, sn.sym_apply(b, x))
            for x in range(120)
        )


def test_point_action_homomorphism_on_wide_windows():
    # `_pull_bits` sizes its sampled window from b's prefix, the f-power and
    # the largest moved block; long periods, far blocks and large powers pin
    # that rule on windows past criterion 6's x < 512
    rng = random.Random(4096)

    def wide_elem():
        pre = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 16)))
        blk = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 128)))
        pts = rng.sample(range(256), rng.randint(0, 6))
        shuffled = pts[:]
        rng.shuffle(shuffled)
        return sn.SymElem(sn.BitFn(pre, blk), sn.BlockPerm(dict(zip(pts, shuffled))),
                          rng.randint(-12, 12))

    for _ in range(30):
        a, b = wide_elem(), wide_elem()
        ab = sn.sym_mul(a, b)
        assert all(
            sn.sym_apply(ab, x) == sn.sym_apply(a, sn.sym_apply(b, x))
            for x in range(4096)
        )

def test_normal_form_associativity():
    rng = random.Random(37)
    for _ in range(120):
        a, b, c = rand_elem(rng), rand_elem(rng), rand_elem(rng)
        assert sn.sym_mul(a, sn.sym_mul(b, c)) == sn.sym_mul(sn.sym_mul(a, b), c)


def test_commutator_of_self_is_identity():
    rng = random.Random(41)
    for _ in range(30):
        a = rand_elem(rng)
        assert sn.sym_commutator(a, a).is_identity


def test_commutator_of_bits_with_f_is_delta():
    rng = random.Random(43)
    for _ in range(40):
        pre = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 4)))
        blk = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 6)))
        j = sn.BitFn(pre, blk)
        c = sn.sym_commutator(sn.SymElem.from_bits(j), sn.SymElem.f_power(1))
        assert c.sigma.is_identity and c.power == 0
        assert c.bits == sn.delta(j)


def test_block_swap_commutator_with_unbalanced_bits():
    # swapping blocks x0 and x0+2^l against bits differing there leaves
    # exactly the two within-block transpositions
    x0, l = 1, 1
    g = sn.SymElem.from_blocks(sn.BlockPerm.swap(x0, x0 + 2 ** l))
    h = sn.BitFn((0, 1, 0, 0), (0,))  # h(1) = 1, h(3) = 0
    c = sn.sym_commutator(g, sn.SymElem.from_bits(h))
    assert c.sigma.is_identity and c.power == 0
    assert c.bits == sn.BitFn((0, 1, 0, 1), (0,))
    assert format_cycles(sn.bits_to_permutation(c.bits)) == "(2 3)(6 7)"


def test_bits_elements_commute_with_each_other():
    rng = random.Random(47)
    for _ in range(20):
        p = sn.BitFn(tuple(), tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 8))))
        q = sn.BitFn(tuple(), tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 8))))
        c = sn.sym_commutator(sn.SymElem.from_bits(p), sn.SymElem.from_bits(q))
        assert c.is_identity


def test_random_periodic_bits_commute_with_every_level_member(model):
    # the whole product of block involutions is abelian, so any periodic bit
    # element passes the membership commutator test against every chain level
    rng = random.Random(53)
    levels = [level(model, k + 1) for k in (0, 1, 2)]
    for _ in range(10):
        p = sn.BitFn((), tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 8))))
        for lev in levels:
            for h in lev:
                assert sn.sym_commutator(
                    sn.SymElem.from_bits(p), sn.SymElem.from_bits(h)
                ).is_identity


def test_sym_elem_text():
    a = sn.SymElem(sn.BitFn((), (0, 1, 1, 0)), sn.BlockPerm.swap(0, 1), -2)
    assert a.to_text() == "B(|0110) P((0 1)) F^-2"
    assert sn.SymElem.identity().to_text() == "B(|0) P(()) F^0"


def test_bits_to_permutation():
    b = sn.BitFn((1, 0, 1), (0,))
    assert sn.bits_to_permutation(b) == (1, 0, 2, 3, 5, 4)
    assert sn.bits_to_permutation(b, 8) == (1, 0, 2, 3, 5, 4, 6, 7)
    assert format_cycles(sn.bits_to_permutation(b)) == "(0 1)(4 5)"
    with pytest.raises(ValueError):
        sn.bits_to_permutation(sn.BitFn.ones())


# --- identity factors ---------------------------------------------------------------
# The product returns an operand where a factor is the identity (see the
# module docstring).  These draw identity factors and f^0 one time in three
# and compare with the general paths; the XOR and `_pull_bits` laws are drawn
# in their differential tests above.


def test_blockperm_identity_laws_match_the_dict_paths():
    rng = random.Random(101)
    for _ in range(1500):
        a, b = (random_blockperm(rng) if rng.randrange(3) else sn.BlockPerm.identity()
                for _ in range(2))
        m = rng.randint(-4, 4) if rng.randrange(3) else 0
        assert a * b == sn.BlockPerm({x: a(b(x)) for x in a.support | b.support})
        assert a.inverse() == sn.BlockPerm({a(x): x for x in a.support})
        assert a.conj_by_fpow(m) == sn.BlockPerm(
            {sn.f_pow(x, m): sn.f_pow(a(x), m) for x in a.support})


def test_witness_shaped_products_act_as_composites_on_wide_windows():
    # a descent witness multiplies a block swap with pure-bits elements; both
    # are involutions, so [a, b] acts as a b a b
    rng = random.Random(103)

    def factor():
        kind = rng.randrange(3)
        if kind == 0:
            return sn.SymElem.identity()
        if kind == 1:
            x0 = rng.randrange(256)
            return sn.SymElem.from_blocks(sn.BlockPerm.swap(x0, x0 + 2 ** rng.randint(0, 7)))
        bits = [rng.randint(0, 1) for _ in range(2 ** rng.randint(0, 7))]
        return sn.SymElem.from_bits(sn.BitFn.from_pattern(bits))

    for _ in range(60):
        a, b = factor(), factor()
        assert sn.sym_inv(a) == a
        ab, c = sn.sym_mul(a, b), sn.sym_commutator(a, b)
        for x in range(2048):
            bx = sn.sym_apply(b, x)
            assert sn.sym_apply(ab, x) == sn.sym_apply(a, bx)
            assert sn.sym_apply(c, x) == sn.sym_apply(a, sn.sym_apply(b, sn.sym_apply(a, bx)))


def test_swaps_text_matches_the_permutation_text():
    rng = random.Random(107)
    for _ in range(500):
        bits = [rng.randint(0, 1) for _ in range(rng.randint(0, 40))] if rng.randrange(3) else []
        b = sn.BitFn(bits, (0,))
        p = sn.bits_to_permutation(b)
        assert sn.swaps_text(b) == format_cycles(p) == naive_cycles(p)
    with pytest.raises(ValueError):
        sn.swaps_text(sn.BitFn.ones())


# --- chain model -------------------------------------------------------------------


@pytest.fixture(scope="module")
def model():
    return sn.iterated_centralizer_model(8)


def test_level_one_is_constants(model):
    assert level(model, 1) == frozenset({sn.BitFn.zero(), sn.BitFn.ones()})


def test_level_two_exact(model):
    assert level(model, 2) == frozenset({
        sn.BitFn.zero(),
        sn.BitFn.ones(),
        sn.BitFn.from_pattern((0, 1, 1, 0)),
        sn.BitFn.from_pattern((1, 0, 0, 1)),
    })


def test_sizes_strictly_increase(model):
    sizes = model.sizes()
    assert len(sizes) == 8
    assert all(a < b for a, b in zip(sizes, sizes[1:]))


def test_levels_ascend(model):
    for i in range(model.depth):
        assert level(model, i) < level(model, i + 1)


def test_members_purely_periodic_with_dividing_period(model):
    for i in range(1, model.depth + 1):
        for b in level(model, i):
            assert not b.prefix
            assert (2 ** i) % b.period == 0


def test_nontrivial_members_hit_every_window(model):
    # a nonzero periodic function has a 1 in every period-length window
    for i in range(1, model.depth + 1):
        window = 2 ** i
        for b in level(model, i):
            if b.is_zero:
                continue
            for start in range(0, 4 * window, window):
                assert any(b(x) for x in range(start, start + window))


def test_levels_xor_closed(model):
    for i in range(1, 5):
        lev = level(model, i)
        for a in lev:
            for b in lev:
                assert (a ^ b) in lev


def test_membership_characterization(model):
    # level i+1 is exactly the 2^(i+1)-periodic functions with delta in level i
    for i in range(1, 4):
        lev = level(model, i)
        for b in level(model, i + 1):
            assert sn.delta(b) in lev


def test_model_matches_brute_force(model):
    for i in (1, 2, 3):
        assert sn.brute_force_level(i) == frozenset(model.span(i))


def old_brute_force_level(i: int) -> frozenset:
    """`brute_force_level` as it was: every pattern as a BitFn, delta by BitFn."""
    prev = frozenset({sn.BitFn.zero()}) if i == 1 else old_brute_force_level(i - 1)
    out = set()
    for bits in itertools.product((0, 1), repeat=2 ** i):
        g = sn.BitFn.from_pattern(bits)
        if sn.delta(g) in prev:
            out.add(g)
    return frozenset(out)


def test_mask_oracle_matches_the_bitfn_enumeration(model):
    # the oracle's masks and the solver's spans, each read as BitFns
    for i in (1, 2, 3):
        old = old_brute_force_level(i)
        assert frozenset(sn._from_mask(m, 2 ** i) for m in sn.brute_force_level(i)) == old
        assert level(model, i) == old


def test_brute_force_level_4_matches_solver(model):
    assert sn.brute_force_level(4) == frozenset(model.span(4))


def test_enumerated_level_runs_once_per_level(monkeypatch, capsys):
    # the oracle's levels are one `envchain._Memo`, which its recursion and
    # `brute_force_level` read: at --oracle-depth 4 each of levels 0..4 is
    # enumerated once per process, however many runs and levels read it
    from envchain import _Memo
    from envchain.cli import main

    ran = []

    def counting(i):
        ran.append(i)
        return sn._enumerated_level(i)

    monkeypatch.setattr(sn, "_LEVELS", _Memo(counting))
    for _ in range(2):
        assert main(["counterexample", "--levels", "8", "--oracle-depth", "4"]) == 0
    capsys.readouterr()
    assert sorted(ran) == list(range(sn.ORACLE_MAX_LEVEL + 1))
    assert sn.brute_force_level(sn.ORACLE_MAX_LEVEL) and len(ran) == sn.ORACLE_MAX_LEVEL + 1


def test_brute_force_bounds():
    with pytest.raises(ValueError):
        sn.brute_force_level(0)
    with pytest.raises(ValueError, match=r"\(i=5 > 4\)"):
        sn.brute_force_level(5)


def test_model_budget_error_carries_partial(monkeypatch):
    monkeypatch.setattr(sn, "MODEL_BUDGET", 100)
    with pytest.raises(sn.ModelBudgetError) as exc:
        sn.iterated_centralizer_model(8)
    assert str(exc.value) == "budget exceeded after level 3 (341 > 100 stored bits)"
    assert exc.value.partial.depth == 3


def test_model_budget_is_a_limit_error():
    # level 13 spans more bits than MODEL_BUDGET; a library caller catches
    # every resource limit as envchain.LimitError
    with pytest.raises(LimitError, match=r"^budget exceeded after level 12 "):
        sn.iterated_centralizer_model(13)


def test_model_depth_10_from_basis():
    deep = sn.iterated_centralizer_model(10)
    assert deep.sizes() == [2 ** i for i in range(1, 11)]
    for i in range(1, 11):
        prev = level(deep, i - 1)
        for mask in deep.basis(i):
            assert sn.delta(sn._from_mask(mask, 2 ** i)) in prev


def test_preimage_is_seeded_solution(model):
    # the recurrence solves delta(g) = h over the doubled block, with g(0) = 0
    for i in range(1, 6):
        P = 2 ** (i + 1)
        nxt = level(model, i + 1)
        for h in level(model, i):
            g = sn._from_mask(sn._preimage(sum(h(x) << x for x in range(P)), P), P)
            assert g(0) == 0
            assert sn.delta(g) == h
            assert g in nxt


def old_preimage(h: int, P: int) -> int:
    """`_preimage` as it was: the recurrence run one place at a time."""
    hb = [(h >> x) & 1 for x in range(P)]
    g = [0] * P
    g[1] = hb[1]
    for a in range(P // 2 - 1):
        g[2 * a + 2] = g[2 * a] ^ hb[2 * a]
        g[2 * a + 3] = g[2 * a + 1] ^ hb[2 * a + 3]
    if g[P - 2] ^ hb[P - 2] != g[0] or g[P - 1] ^ hb[1] != g[1]:
        raise RuntimeError("seeded recursion is not periodic: internal bug")
    mask = sum(bit << x for x, bit in enumerate(g))
    if sn._delta_mask(mask, P) != h | (h & 3) << P:
        raise RuntimeError("seeded recursion does not solve its system: internal bug")
    return mask


def test_preimage_matches_the_recurrence_loop(monkeypatch):
    # every input the depth-12 build gives `_preimage`
    fast, inputs = sn._preimage, []

    def spy(h, period):
        inputs.append((h, period))
        return fast(h, period)

    monkeypatch.setattr(sn, "_preimage", spy)
    sn.iterated_centralizer_model(12)
    assert len(inputs) == sum(range(12))
    for h, P in inputs:
        assert fast(h, P) == old_preimage(h, P)


def test_preimage_off_the_model_fails_as_the_loop_does():
    # random h mostly have odd weight on a parity class, where the recurrence
    # does not close up; the rest are solved like the loop solves them
    rng = random.Random(67)
    outcomes = set()
    for e in range(1, 8):
        P = 2 ** e
        for _ in range(60):
            h = rng.getrandbits(P)
            if rng.randrange(2):
                # even weight on each parity class: fix it at x = 0 and x = 1
                even = ((1 << P) - 1) // 3
                h ^= (h & even).bit_count() & 1 | ((h & even << 1).bit_count() & 1) << 1
            try:
                expected = old_preimage(h, P)
            except RuntimeError as exc:
                with pytest.raises(RuntimeError) as got:
                    sn._preimage(h, P)
                assert str(got.value) == str(exc)
                outcomes.add("raise")
                continue
            assert sn._preimage(h, P) == expected
            outcomes.add("solve")
    assert outcomes == {"raise", "solve"}


def _delta_bitfn(d: int, period: int) -> sn.BitFn:
    """The function a `_delta_mask` result gives: x = 0, 1, then one block."""
    bits = [(d >> x) & 1 for x in range(period + 2)]
    return sn.BitFn(bits[:2], bits[2:])


def test_delta_mask_matches_delta():
    # the check inside `_preimage` must be delta itself, on every basis
    # vector it meets and off the model
    deep = sn.iterated_centralizer_model(10)
    cases = [(b, 2 ** i) for i in range(1, 11) for b in deep.basis(i)]
    rng = random.Random(61)
    edges = []
    for e in range(1, 9):
        P = 2 ** e
        cases += [(rng.getrandbits(P), P) for _ in range(40)]
        # g(0) != g(P-1): f_map(1) = 0 takes x = 1 off the block's pattern,
        # which x = P+1 keeps
        top = 1 << (P - 1)
        for _ in range(10):
            m = rng.getrandbits(P)
            edges += [((m | 1) & ~top, P), ((m | top) & ~1, P)]
    for g, P in cases + edges:
        assert _delta_bitfn(sn._delta_mask(g, P), P) == sn.delta(sn._from_mask(g, P))
    assert all(sn.delta(sn._from_mask(g, P)).prefix for g, P in edges)


def test_basis_and_span(model):
    for i in range(model.depth + 1):
        span = model.span(i)
        assert len(set(span)) == 1 << len(model.basis(i))
    assert model.sizes() == [len(model.span(i)) for i in range(1, model.depth + 1)]
    for bad in (-1, model.depth + 1):
        for read in (model.basis, model.span):
            with pytest.raises(IndexError, match=f"level {bad} not computed \\(depth 8\\)"):
                read(bad)


def test_period_and_scan_key_match_bitfn(model):
    # the mask scan order of descent_witness is exactly BitFn.sort_key order
    for i in range(1, model.depth + 1):
        W = 2 ** i
        span = model.span(i)
        for m in span:
            assert sn._period(m, W) == sn._from_mask(m, W).period
        scanned = [sn._from_mask(m, W) for m in sorted(span, key=lambda m: sn._scan_key(m, W))]
        assert scanned == sorted(level(model, i), key=sn.BitFn.sort_key)


def test_period_and_scan_key_match_bitfn_off_the_model():
    # model members read the same from either end of a period, so masks from
    # outside the model are needed to pin the bit order of the key
    rng = random.Random(59)
    W = 16
    masks = [m | m << 8 for m in range(256)] + [rng.getrandbits(W) for _ in range(300)]
    for m in masks:
        assert sn._period(m, W) == sn._from_mask(m, W).period
    scanned = [sn._from_mask(m, W) for m in sorted(set(masks), key=lambda m: sn._scan_key(m, W))]
    assert scanned == sorted({sn._from_mask(m, W) for m in masks}, key=sn.BitFn.sort_key)


def test_model_rejects_a_dependent_basis(monkeypatch):
    # every preimage the constant 1: level 2 gets the constant twice
    monkeypatch.setattr(sn, "_preimage", lambda h, period: (1 << period) - 1)
    with pytest.raises(RuntimeError, match="level 2 basis is not independent: internal bug"):
        sn.iterated_centralizer_model(3)


def test_model_rejects_a_basis_missing_the_level_below(monkeypatch):
    # shifted preimages stay independent, but level 3's span misses level 2's
    # second basis vector, widened
    monkeypatch.setattr(sn, "_preimage", lambda h, period: (h << 1) & ((1 << period) - 1))
    with pytest.raises(RuntimeError, match="level 3 does not contain level 2: internal bug"):
        sn.iterated_centralizer_model(3)


# --- witnesses ----------------------------------------------------------------------


def residue_swap(x: int, l: int, i: int) -> sn.SymElem:
    """The block swap of x and x + 2^l i, two places of one residue class."""
    return sn.SymElem.from_blocks(sn.BlockPerm.swap(x, x + 2 ** l * i))


def test_gxl_generators_are_involutions():
    for i in range(1, 5):
        g = residue_swap(1, 1, i)
        assert sn.sym_mul(g, g).is_identity


def test_gxl_generators_commute_with_coarser_periodic_bits(model):
    # swaps within a residue class mod 2^l centralize everything 2^l-periodic
    for k in (0, 1, 2):
        lev = level(model, k + 1)
        l = max((b.period for b in lev), default=1).bit_length() - 1
        for x in range(2 ** l):
            for i in (1, 2):
                g = residue_swap(x, l, i)
                for h in lev:
                    assert sn.sym_commutator(g, sn.SymElem.from_bits(h)).is_identity


def test_descent_witness_k0(model):
    w = sn.descent_witness(0, 12, model)
    assert (w.kprime, w.l, w.x0) == (1, 0, 0)
    assert w.h == sn.BitFn.from_pattern((0, 1, 1, 0))
    assert w.g.sigma == sn.BlockPerm.swap(0, 1)
    assert format_cycles(sn.bits_to_permutation(w.commutator.bits)) == "(0 1)(2 3)"


def test_descent_witness_commutator_form(model):
    for k in range(0, 4):
        w = sn.descent_witness(k, 12, model)
        assert w.kprime > k
        step = 2 ** w.l
        expected = sn.BitFn.from_fn(
            lambda t: 1 if t in (w.x0, w.x0 + step) else 0, w.x0 + step + 1, 1
        )
        # [g, B(h)] is B(expected) itself: no block permutation, no power of f
        assert w.commutator == sn.SymElem.from_bits(expected)
        assert w.h(w.x0) != w.h(w.x0 + step)
        assert w.h in level(model, w.kprime + 1)


def test_descent_witness_shallow_model_not_exhausted():
    shallow = sn.iterated_centralizer_model(4)
    with pytest.raises(sn.DescentScanError) as exc:
        sn.descent_witness(2, 12, shallow)
    assert not exc.value.exhausted


def test_descent_witness_exhausted_scan(model):
    with pytest.raises(sn.DescentScanError) as exc:
        sn.descent_witness(2, 3, model)
    assert exc.value.exhausted


def test_descent_witness_empty_range_is_not_exhausted(model):
    # k' runs over k+1..scan_max; an empty range scans nothing and proves nothing
    for k, scan_max in ((3, 3), (0, 0), (2, -1)):
        with pytest.raises(sn.DescentScanError) as exc:
            sn.descent_witness(k, scan_max, model)
        assert not exc.value.exhausted
        assert str(exc.value) == f"no k' to scan for k={k}: the range {k + 1}..{scan_max} is empty"


def bitfn_descent_scan(k, scan_max, model):
    """The descent scan over sorted BitFn levels, as it ran before the scan
    read masks; returns (kprime, l, x0, h) or raises DescentScanError."""
    lev = level(model, k + 1)
    l = max(b.period for b in lev).bit_length() - 1
    step = 2 ** l
    limit = min(scan_max, model.depth - 1)
    for kp in range(k + 1, limit + 1):
        for h in sorted(level(model, kp + 1), key=sn.BitFn.sort_key):
            for x0 in range(step):
                if h(x0) != h(x0 + step):
                    return kp, l, x0, h
    raise sn.DescentScanError("", exhausted=limit == scan_max)


def test_descent_witness_matches_bitfn_scan(model):
    for k in range(7):
        try:
            expected = bitfn_descent_scan(k, 12, model)
        except sn.DescentScanError as exc:
            with pytest.raises(sn.DescentScanError) as got:
                sn.descent_witness(k, 12, model)
            assert got.value.exhausted == exc.exhausted
            continue
        w = sn.descent_witness(k, 12, model)
        assert (w.kprime, w.l, w.x0, w.h) == expected
        assert w.g.sigma == sn.BlockPerm.swap(w.x0, w.x0 + 2 ** w.l)
