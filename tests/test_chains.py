"""Chain computations and the lemma verifiers, cross-checked against the
naive oracle."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from envchain.catalog import CATALOG_FILES, build_catalog, enumerate_subgroups
from envchain.chains import (
    ek_chain,
    ek_term_data,
    iterated_centralizer_levels,
    iterated_centralizers,
    one_step_levels,
    verify_abc_lemma,
    verify_bryant_lemma,
    verify_ek_structure,
    verify_nilpotent_envelope,
)
from envchain.grp import closure, generating_indices, nilpotency_class, normalizer_indices, parse_group_file
from envchain.perm import Permutation, parse_cycles

from naive import (
    naive_ek_terms,
    naive_enumerate_subgroups,
    naive_iterated_levels,
    naive_nilpotency_class,
    naive_normalizer,
)
from strategies import DIFFERENTIAL, groups, perms, subgroups, subgroups_or_subsets


@pytest.fixture(scope="module")
def catalog():
    return build_catalog()


def subgroup(G, *texts):
    return G.generated_subgroup([parse_cycles(t, G.degree) for t in texts])


# --- iterated centralizers ----------------------------------------------------


def test_level_zero_is_trivial(catalog):
    G = catalog["S4"]
    chain = iterated_centralizers(G, subgroup(G, "(0 1)"), 3)
    assert chain.levels[0].order == 1


def test_q8_chain_of_whole_group_starts_at_center(catalog):
    Q8 = catalog["Q8"]
    chain = iterated_centralizers(Q8, Q8.full_subgroup(), 3)
    # level 1 of the whole group is its center {1, -1}
    minus_one = Permutation([1, 0, 3, 2, 5, 4, 7, 6])
    assert set(chain.levels[1].elements) == {Permutation.identity(8), minus_one}
    # Q8 has class 2, so the chain reaches the whole group at level 2
    assert chain.levels[2].order == 8


def test_s3_chain_of_a3_climbs_to_whole_group(catalog):
    # levels are 1 < A3 < S3: every commutator is even, so level 2 is all of S3
    S3 = catalog["S3"]
    A3 = subgroup(S3, "(0 1 2)")
    chain = iterated_centralizers(S3, A3, 4)
    assert [l.order for l in chain.levels] == [1, 3, 6]
    assert chain.truncated_at == 2
    assert chain.level(7).order == 6  # stationary past the truncation point


def test_chain_is_ascending(catalog):
    for name in ("S3", "D8", "Q8", "A4"):
        G = catalog[name]
        for _, H in enumerate_subgroups(G):
            chain = iterated_centralizers(G, H, 4)
            for a, b in zip(chain.levels, chain.levels[1:]):
                assert a.indices <= b.indices


def test_chain_matches_naive_oracle(catalog):
    for name in ("S3", "D8", "Q8", "Z4xZ2"):
        G = catalog[name]
        whole = frozenset(G.elements)
        for _, H in enumerate_subgroups(G):
            chain = iterated_centralizers(G, H, 3)
            expected = naive_iterated_levels(whole, frozenset(H.elements), 3)
            got = [frozenset(l.elements) for l in chain.levels]
            assert got == expected


def test_target_must_share_parent(catalog):
    G, G2 = catalog["S3"], catalog["S4"]
    with pytest.raises(ValueError):
        iterated_centralizers(G, G2.trivial_subgroup(), 2)


# --- envelope chains -----------------------------------------------------------


def test_ek_chain_s3_transposition(catalog):
    S3 = catalog["S3"]
    rep = ek_chain(S3, subgroup(S3, "(0 1)"), 3)
    assert rep.orders == (6, 2, 2, 2)
    assert rep.stable_run == 3
    assert rep.guaranteed_stable
    assert "class 1" in rep.stability_reason


def test_ek_chain_whole_group_is_constant(catalog):
    for name in ("S3", "D8", "A4"):
        G = catalog[name]
        rep = ek_chain(G, G.full_subgroup(), 3)
        assert rep.orders == (G.order,) * 4


def test_ek_chain_d8_rotations(catalog):
    D8 = catalog["D8"]
    rep = ek_chain(D8, subgroup(D8, "(0 1 2 3)"), 3)
    assert rep.orders == (8, 4, 4, 4)


def test_ek_chain_first_term_and_membership(catalog):
    for name in ("S3", "D8"):
        G = catalog[name]
        for _, H in enumerate_subgroups(G):
            rep = ek_chain(G, H, 3)
            assert rep.terms[0].is_full()
            for a, b in zip(rep.terms, rep.terms[1:]):
                assert b.indices <= a.indices
            assert all(H.indices <= t.indices for t in rep.terms)


def test_e1_is_double_centralizer(catalog):
    from envchain.grp import centralizer

    for name in ("S3", "D8", "Q8", "A4", "S4"):
        G = catalog[name]
        for _, H in enumerate_subgroups(G):
            rep = ek_chain(G, H, 1)
            assert rep.terms[1].indices == centralizer(G, centralizer(G, H)).indices


def test_ek_chain_matches_naive_oracle(catalog):
    small = ("S3", "D8", "Q8", "Z4xZ2", "E8", "A4")
    for name in small:
        G = catalog[name]
        whole = frozenset(G.elements)
        for _, H in enumerate_subgroups(G):
            got = [frozenset(t.elements) for t in ek_chain(G, H, 3).terms]
            assert got == naive_ek_terms(whole, frozenset(H.elements), 3)


def test_ek_chain_matches_naive_oracle_large_sample(catalog):
    for name in ("S4", "D16", "Heis3"):
        G = catalog[name]
        whole = frozenset(G.elements)
        subs = enumerate_subgroups(G)
        for _, H in subs[:3] + subs[-3:]:
            got = [frozenset(t.elements) for t in ek_chain(G, H, 3).terms]
            assert got == naive_ek_terms(whole, frozenset(H.elements), 3)


def test_non_nilpotent_subgroup_not_guaranteed(catalog):
    S4 = catalog["S4"]
    rep = ek_chain(S4, subgroup(S4, "(0 1)", "(0 1 2)"), 3)
    assert not rep.guaranteed_stable
    assert "not nilpotent" in rep.stability_reason


# --- verifiers -----------------------------------------------------------------


def assert_all_ok(records):
    bad = [r for r in records if r.status == "fail"]
    assert not bad, bad


def test_bryant_on_d8_rotations(catalog):
    D8 = catalog["D8"]
    H = subgroup(D8, "(0 1 2 3)")
    records = verify_bryant_lemma(D8, H, 4)
    assert_all_ok(records)
    # the class-1 containment clause really ran
    assert any(r.id == "bryant-iv" and r.status == "pass" for r in records)


def test_bryant_clause_iii_when_subgroup_is_whole_group(catalog):
    G = catalog["D16"]
    records = verify_bryant_lemma(G, G.full_subgroup(), 4)
    assert_all_ok(records)
    assert any(r.id.startswith("bryant-iii") for r in records)


def test_bryant_skips_iv_for_non_nilpotent(catalog):
    S3 = catalog["S3"]
    records = verify_bryant_lemma(S3, S3.full_subgroup(), 3)
    assert any(r.id == "bryant-iv" and r.status == "skipped" for r in records)
    assert_all_ok(records)


def test_abc_degenerate_triple(catalog):
    G = catalog["D8"]
    H = subgroup(G, "(0 1 2 3)")
    records = verify_abc_lemma(H, H, H, 2)
    assert_all_ok(records)
    assert any(r.id.startswith("abc-hypothesis") and r.status == "pass" for r in records)


def test_abc_center_triple_hypothesis_fails(catalog):
    # centralizing the center of D8 gives all of D8, not the center, so the
    # nested-groups hypothesis fails at j=1 and the clauses are skipped
    D8 = catalog["D8"]
    A = subgroup(D8, "(0 2)(1 3)")
    B = subgroup(D8, "(0 1 2 3)")
    records = verify_abc_lemma(A, B, D8.full_subgroup(), 1)
    k1 = [r for r in records if r.id == "abc-hypothesis-k1"]
    assert k1 and k1[0].status == "skipped"
    assert "hypothesis not met" in k1[0].witness


def test_abc_envelope_triples_hold(catalog):
    for name in ("D8", "S4", "Heis3"):
        G = catalog[name]
        for _, H in enumerate_subgroups(G)[:6]:
            terms, _ = ek_term_data(G, H.indices, 3)
            from envchain.grp import Subgroup

            for k in range(3):
                records = verify_abc_lemma(
                    H, Subgroup(G, terms[k + 1]), Subgroup(G, terms[k]), k
                )
                assert_all_ok(records)
                assert all(
                    r.status == "pass"
                    for r in records
                    if r.id.startswith("abc-hypothesis")
                )


def test_abc_requires_nesting(catalog):
    G = catalog["S3"]
    A = subgroup(G, "(0 1)")
    B = subgroup(G, "(0 1 2)")
    with pytest.raises(ValueError):
        verify_abc_lemma(A, B, G.full_subgroup(), 1)


def test_structure_on_d8_reflection(catalog):
    D8 = catalog["D8"]
    records = verify_ek_structure(D8, subgroup(D8, "(1 3)"), 2)
    assert_all_ok(records)


def test_structure_across_catalog(catalog):
    for name, G in catalog.items():
        for _, H in enumerate_subgroups(G)[:5]:
            assert_all_ok(verify_ek_structure(G, H, 3))


def test_nilpotent_envelope_d8_rotations(catalog):
    D8 = catalog["D8"]
    records = verify_nilpotent_envelope(D8, subgroup(D8, "(0 1 2 3)"))
    assert_all_ok(records)
    assert any(r.id == "envelope-class-exact" and r.status == "pass" for r in records)


def test_nilpotent_envelope_d16_class2_subgroup(catalog):
    D16 = catalog["D16"]
    H = subgroup(D16, "(0 2 4 6)(1 3 5 7)", "(1 7)(2 6)(3 5)")
    assert nilpotency_class(H) == 2
    records = verify_nilpotent_envelope(D16, H)
    assert_all_ok(records)
    # cross-check the stabilized envelope against a from-scratch recomputation
    terms, _ = ek_term_data(D16, H.indices, 5)
    assert terms[2] == terms[3] == terms[4] == terms[5]
    assert nilpotency_class(D16.subgroup(terms[2])) == 2


def test_nilpotent_envelope_skips_non_nilpotent(catalog):
    S3 = catalog["S3"]
    records = verify_nilpotent_envelope(S3, S3.full_subgroup())
    assert records[0].status == "skipped"


def test_nilpotent_envelope_trivial_subgroup(catalog):
    # the class-0 case runs through the abelian step: E_1 is the center
    D8 = catalog["D8"]
    records = verify_nilpotent_envelope(D8, D8.trivial_subgroup())
    assert_all_ok(records)
    assert any(r.id == "envelope-class-exact" and r.status == "skipped" for r in records)


def test_nilpotency_class_matches_naive(catalog):
    for name, G in catalog.items():
        for _, H in enumerate_subgroups(G)[:4]:
            assert nilpotency_class(H) == naive_nilpotency_class(frozenset(H.elements))


# --- subgroup enumeration --------------------------------------------------------


def test_enumerate_subgroups_pruning_matches_full_pair_loop(catalog):
    S5 = closure([parse_cycles("(0 1)", 5), parse_cycles("(0 1 2 3 4)", 5)])
    D32 = closure([parse_cycles("(" + " ".join(map(str, range(16))) + ")", 16),
                   parse_cycles("(1 15)(2 14)(3 13)(4 12)(5 11)(6 10)(7 9)", 16)])
    assert (S5.order, D32.order) == (120, 32)
    for G in [*catalog.values(), S5, D32]:
        got = [(label, H.indices) for label, H in enumerate_subgroups(G)]
        assert got == naive_enumerate_subgroups(G)


# --- fast paths against the naive oracle ------------------------------------------


def as_levels(G, levels):
    return [perms(G, l) for l in levels]


@DIFFERENTIAL
@given(st.data())
def test_iterated_levels_match_naive(data):
    # ambient and target range over non-subgroups too, where the guard on the
    # generator reduction has to fall back to the literal filter
    G = data.draw(groups())
    within = data.draw(subgroups_or_subsets(G))
    target = data.draw(subgroups_or_subsets(G))
    kmax = data.draw(st.integers(0, 4))
    levels, trunc = iterated_centralizer_levels(G, within, sorted(target), kmax)
    assert as_levels(G, levels) == naive_iterated_levels(perms(G, within), perms(G, target), kmax)
    assert trunc is None or (trunc == len(levels) - 1 and trunc < kmax)


@DIFFERENTIAL
@given(st.data())
def test_ek_term_data_matches_naive(data):
    G = data.draw(groups())
    h = data.draw(subgroups(G))
    terms, inner = ek_term_data(G, h, 3)
    whole, sub = frozenset(G.elements), perms(G, h)
    assert [perms(G, t) for t in terms] == naive_ek_terms(whole, sub, 3)
    for k, levels in enumerate(inner):
        assert as_levels(G, levels) == naive_iterated_levels(perms(G, terms[k]), sub, k + 1)


# Inputs found by search in S4 and S5 that reach each branch of the generator
# guard in `grp.commutator_filter` as `iterated_centralizer_levels` uses it.


def chain_case(degree, target_gens, within):
    G = closure([parse_cycles("(0 1)", degree),
                 parse_cycles("(" + " ".join(map(str, range(degree))) + ")", degree)])
    A = G.generated_subgroup([parse_cycles(t, degree) for t in target_gens]).indices
    W = frozenset(G.index_of[parse_cycles(t, degree)] for t in within)
    levels, _ = iterated_centralizer_levels(G, W, sorted(A), 4)
    assert as_levels(G, levels) == naive_iterated_levels(perms(G, W), perms(G, A), 4)
    return G, A, W, levels


def normalizes(G, A, level):
    return perms(G, A) <= naive_normalizer(frozenset(G.elements), perms(G, level))


def test_guard_target_not_normalizing_a_level():
    G, A, W, levels = chain_case(5, ["(0 1 3)"], ["()", "(1 3)", "(0 1 3)", "(0 3 1)", "(0 3 1 2 4)"])
    assert A <= W
    assert [len(l) for l in levels] == [1, 3, 4, 2, 1]
    assert not normalizes(G, A, levels[2]) and not normalizes(G, A, levels[3])


def test_guard_target_outside_ambient():
    # reducing to the generator (0 1 3 4 2) here would give levels of orders
    # [1, 3, 4, 2, 1] instead of [1, 3]
    G, A, W, levels = chain_case(
        5, ["(0 1 3 4 2)"],
        ["()", "(1 2)(3 4)", "(1 2 3 4)", "(1 3)", "(1 4 2 3)", "(0 3 2 1 4)", "(0 4 1 2 3)"],
    )
    assert not A <= W
    assert [len(l) for l in levels] == [1, 3]


def test_guard_previous_level_not_a_subgroup():
    G, A, W, levels = chain_case(4, ["(0 3)(1 2)"], ["()", "(0 3)", "(0 3)(1 2)"])
    # at level 2 the target is a subgroup inside every normalizer so far, but
    # level 1 is not closed
    assert generating_indices(G, A) is not None
    assert A <= W & normalizer_indices(G, W, levels[0]) & normalizer_indices(G, W, levels[1])
    assert generating_indices(G, levels[1]) is None


def test_guard_target_not_a_subgroup(catalog):
    G = catalog["S4"]
    target = sorted(G.index_of[parse_cycles(t, 4)] for t in ("(0 1)", "(1 2 3)"))
    assert generating_indices(G, frozenset(target)) is None
    whole = frozenset(range(G.order))
    levels, _ = iterated_centralizer_levels(G, whole, target, 4)
    assert as_levels(G, levels) == naive_iterated_levels(frozenset(G.elements), perms(G, target), 4)


# --- the per-group memo -----------------------------------------------------------


def fresh(name):
    return parse_group_file(CATALOG_FILES[name])


@pytest.mark.parametrize("name", ["D16", "S4", "Heis3"])
def test_level_memo_serves_any_depth_like_a_cold_run(name):
    G0 = fresh(name)
    whole = frozenset(range(G0.order))
    truncations = set()
    for _, H in enumerate_subgroups(G0):
        target = sorted(H.indices)
        cold = {k: iterated_centralizer_levels(fresh(name), whole, target, k) for k in range(6)}
        truncations.update(t for _, t in cold.values())
        for first, second in itertools.product(range(6), repeat=2):
            G = fresh(name)
            iterated_centralizer_levels(G, whole, target, first)
            assert iterated_centralizer_levels(G, whole, target, second) == cold[second]
    assert None in truncations and len(truncations) >= 3


@pytest.mark.parametrize("name", ["D16", "S4"])
def test_term_memo_serves_any_depth_like_a_cold_run(name):
    for _, H in enumerate_subgroups(fresh(name)):
        cold = {k: ek_term_data(fresh(name), H.indices, k) for k in (2, 5)}
        for first, second in ((5, 2), (2, 5)):
            G = fresh(name)
            ek_term_data(G, H.indices, first)
            assert ek_term_data(G, H.indices, second) == cold[second]


def test_memo_returns_fresh_lists():
    G = fresh("D16")
    whole = frozenset(range(G.order))
    H = subgroup(G, "(1 7)(2 6)(3 5)")
    target = sorted(H.indices)
    levels, trunc = iterated_centralizer_levels(G, whole, target, 4)
    want = (list(levels), trunc)
    levels.append(frozenset())
    levels[0] = frozenset()
    assert iterated_centralizer_levels(G, whole, target, 4) == want
    terms, inner = ek_term_data(G, H.indices, 3)
    want = (list(terms), [list(l) for l in inner])
    terms.clear()
    inner[0].append(frozenset())
    inner.pop()
    assert ek_term_data(G, H.indices, 3) == want


def per_level_filter(G, members, target, zs):
    """The one-step check as it was written before `one_step_levels`: one
    full filter of `members` for each z."""
    return [
        frozenset(x for x in members if all(G.comm_idx(x, a) in z for a in target))
        for z in zs
    ]


@DIFFERENTIAL
@given(st.data())
def test_one_step_levels_match_the_per_level_filter(data):
    # the zs need not be nested, nor subgroups, nor contain the identity
    G = data.draw(groups())
    members = data.draw(subgroups_or_subsets(G))
    target = sorted(data.draw(subgroups_or_subsets(G)))
    zs = data.draw(st.lists(subgroups_or_subsets(G), min_size=1, max_size=5))
    assert one_step_levels(G, members, target, zs) == per_level_filter(G, members, target, zs)


def test_ek_chain_in_s6_reads_no_commutator():
    # every filter on the way compares coset labels, so the n^2 commutator
    # table of S6 is never allocated
    G = closure([parse_cycles(c, 6) for c in ("(0 1)", "(0 1 2 3 4 5)")])
    for gens in (["(0 1 2 3 4 5)"], ["(0 1)", "(0 2)"], ["(0 1 2 3)", "(0 2)", "(4 5)"]):
        H = subgroup(G, *gens)
        ek_chain(G, H, 4)
        nilpotency_class(H)
    assert G._comm is None
