"""Chain computations and the lemma verifiers, cross-checked against the
naive oracle."""

import itertools
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from envchain import catalog as catalog_module
from envchain import chains, grp, suites
from envchain.catalog import build_catalog, enumerate_subgroups
from envchain.chains import (
    CheckRecord,
    ek_chain,
    ek_chain_checks,
    ek_term_data,
    iterated_centralizer_levels,
    iterated_centralizers,
)
from envchain.suites import (
    abc_lemma_by_k,
    ek_structure_by_k,
    one_step_levels,
    verify_bryant_lemma,
    verify_nilpotent_envelope,
)
from envchain.cli import main
from envchain.grp import (
    Subgroup,
    central_series_indices,
    closure,
    closure_indices,
    generating_indices,
    nilpotency_class,
    normalizer_indices,
    parse_group_file,
    series_class,
    series_level,
)
from envchain.perm import format_cycles, parse_cycles

from naive import (
    commutator,
    compose,
    conjugate,
    identity,
    naive_closure,
    naive_ek_terms,
    naive_enumerate_subgroups,
    naive_iterated_levels,
    naive_nilpotency_class,
    naive_normalizer,
    naive_subgroup_classes,
)
from strategies import DIFFERENTIAL, groups, perms, subgroups, subgroups_or_subsets
from views import catalog_file

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def catalog():
    return build_catalog()


# Each built-in group's degree, order and generators in cycle notation: the
# catalog holds generators, not group-file text, so these pin what it closes.
BUILTIN = {
    "A4": (4, 12, ["(0 1 2)", "(1 2 3)"]),
    "D16": (8, 16, ["(0 1 2 3 4 5 6 7)", "(1 7)(2 6)(3 5)"]),
    "D8": (4, 8, ["(0 1 2 3)", "(1 3)"]),
    "E8": (6, 8, ["(0 1)", "(2 3)", "(4 5)"]),
    "Heis3": (27, 27, ["(0 9 18)(1 10 19)(2 11 20)(3 13 23)(4 14 21)(5 12 22)(6 17 25)(7 15 26)(8 16 24)",
                       "(0 3 6)(1 4 7)(2 5 8)(9 12 15)(10 13 16)(11 14 17)(18 21 24)(19 22 25)(20 23 26)"]),
    "Q8": (8, 8, ["(0 2 1 3)(4 6 5 7)", "(0 4 1 5)(2 7 3 6)"]),
    "S3": (3, 6, ["(0 1)", "(0 1 2)"]),
    "S4": (4, 24, ["(0 1)", "(0 1 2 3)"]),
    "Z4xZ2": (6, 8, ["(0 1 2 3)", "(4 5)"]),
}


def test_builtin_catalog_is_pinned(catalog):
    assert list(catalog) == sorted(BUILTIN)
    for name, (degree, order, cycles) in BUILTIN.items():
        G = catalog[name]
        assert (G.degree, G.order, list(map(format_cycles, G.generators))) == (degree, order, cycles), name


@pytest.fixture(scope="module")
def s5_d32():
    """The two groups of the bench catalog."""
    S5 = closure([parse_cycles("(0 1)", 5), parse_cycles("(0 1 2 3 4)", 5)])
    D32 = closure([parse_cycles("(" + " ".join(map(str, range(16))) + ")", 16),
                   parse_cycles("(1 15)(2 14)(3 13)(4 12)(5 11)(6 10)(7 9)", 16)])
    assert (S5.order, D32.order) == (120, 32)
    return S5, D32


def subgroup(G, *texts):
    return G.generated_subgroup([parse_cycles(t, G.degree) for t in texts])


def series_map(G, *sets):
    """Each set's upper central series, keyed by the set, as `run_suites`
    hands them to the verifiers."""
    return {s: central_series_indices(G, s) for s in sets}


def run_inputs(G, hs, depth):
    """The envelope run of H = `hs` to `depth`, (terms, inner), and the
    series of H and of each term: what `run_suites` gives its verifiers.
    It reads `suites.ek_term_data` at call time, so a patched run reaches it."""
    terms, inner = suites.ek_term_data(G, hs, depth)
    return terms, inner, series_map(G, hs, *terms)


def flat(lists):
    return [r for records in lists for r in records]


# --- iterated centralizers ----------------------------------------------------


def test_level_zero_is_trivial(catalog):
    G = catalog["S4"]
    chain = iterated_centralizers(G, subgroup(G, "(0 1)"), 3)
    assert chain.levels[0].order == 1


def test_q8_chain_of_whole_group_starts_at_center(catalog):
    Q8 = catalog["Q8"]
    chain = iterated_centralizers(Q8, Subgroup(Q8, Q8.all_indices), 3)
    # level 1 of the whole group is its center {1, -1}
    minus_one = (1, 0, 3, 2, 5, 4, 7, 6)
    assert set(chain.levels[1].elements) == {identity(8), minus_one}
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
        for _, H, _ in enumerate_subgroups(G):
            chain = iterated_centralizers(G, H, 4)
            for a, b in zip(chain.levels, chain.levels[1:]):
                assert a.indices <= b.indices


def test_chain_matches_naive_oracle(catalog):
    for name in ("S3", "D8", "Q8", "Z4xZ2"):
        G = catalog[name]
        whole = frozenset(G.elements)
        for _, H, _ in enumerate_subgroups(G):
            chain = iterated_centralizers(G, H, 3)
            expected = naive_iterated_levels(whole, frozenset(H.elements), 3)
            got = [frozenset(l.elements) for l in chain.levels]
            assert got == expected


def test_target_must_share_parent(catalog):
    G, G2 = catalog["S3"], catalog["S4"]
    with pytest.raises(ValueError):
        iterated_centralizers(G, Subgroup(G2, frozenset({G2.identity_idx})), 2)


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
        rep = ek_chain(G, Subgroup(G, G.all_indices), 3)
        assert rep.orders == (G.order,) * 4


def test_ek_chain_d8_rotations(catalog):
    D8 = catalog["D8"]
    rep = ek_chain(D8, subgroup(D8, "(0 1 2 3)"), 3)
    assert rep.orders == (8, 4, 4, 4)


def test_ek_chain_checks(catalog):
    S3 = catalog["S3"]
    H = subgroup(S3, "(0 1)")
    rep = ek_chain(S3, H, 3)
    ids = ["ekchain-descending", "ekchain-contains-subgroup", "ekchain-first-term"]
    assert [(r.id, r.status, r.witness) for r in ek_chain_checks(rep)] == [
        (cid, "pass", None) for cid in ids]
    # reversed, the terms ascend from H; the chain S3 > A3 misses (0 1)
    assert [r.status for r in ek_chain_checks(rep._replace(terms=rep.terms[::-1]))] == [
        "fail", "pass", "fail"]
    K = subgroup(S3, "(0 1 2)")
    assert [r.status for r in ek_chain_checks(rep._replace(terms=(rep.terms[0], K)))] == [
        "pass", "fail", "pass"]


def test_ek_chain_first_term_and_membership(catalog):
    for name in ("S3", "D8"):
        G = catalog[name]
        for _, H, _ in enumerate_subgroups(G):
            rep = ek_chain(G, H, 3)
            assert rep.terms[0].is_full()
            for a, b in zip(rep.terms, rep.terms[1:]):
                assert b.indices <= a.indices
            assert all(H.indices <= t.indices for t in rep.terms)


def test_e1_is_double_centralizer(catalog):
    from envchain.grp import centralizer

    for name in ("S3", "D8", "Q8", "A4", "S4"):
        G = catalog[name]
        for _, H, _ in enumerate_subgroups(G):
            rep = ek_chain(G, H, 1)
            assert rep.terms[1].indices == centralizer(G, centralizer(G, H)).indices


def test_ek_chain_matches_naive_oracle(catalog):
    small = ("S3", "D8", "Q8", "Z4xZ2", "E8", "A4")
    for name in small:
        G = catalog[name]
        whole = frozenset(G.elements)
        for _, H, _ in enumerate_subgroups(G):
            got = [frozenset(t.elements) for t in ek_chain(G, H, 3).terms]
            assert got == naive_ek_terms(whole, frozenset(H.elements), 3)


def test_ek_chain_matches_naive_oracle_large_sample(catalog):
    for name in ("S4", "D16", "Heis3"):
        G = catalog[name]
        whole = frozenset(G.elements)
        subs = enumerate_subgroups(G)
        for _, H, _ in subs[:3] + subs[-3:]:
            got = [frozenset(t.elements) for t in ek_chain(G, H, 3).terms]
            assert got == naive_ek_terms(whole, frozenset(H.elements), 3)


def test_ek_chain_default_window_is_the_class_or_a_log_window(catalog):
    # max(c, 1) for nilpotent H of class c, else int(2 log2 |G|) + 2
    for G in catalog.values():
        for _, H, _ in enumerate_subgroups(G):
            c = nilpotency_class(H)
            rep = ek_chain(G, H)
            assert rep.subgroup_class == c
            assert len(rep.terms) - 1 == (int(2 * math.log2(max(G.order, 2))) + 2 if c is None else max(c, 1))
            assert rep.guaranteed_stable == (c is not None)
            assert rep == ek_chain(G, H, len(rep.terms) - 1)


def test_non_nilpotent_subgroup_not_guaranteed(catalog):
    S4 = catalog["S4"]
    rep = ek_chain(S4, subgroup(S4, "(0 1)", "(0 1 2)"), 3)
    assert not rep.guaranteed_stable
    assert "not nilpotent" in rep.stability_reason


# --- verifiers -----------------------------------------------------------------


def assert_all_ok(records):
    bad = [r for r in records if r.status == "fail"]
    assert not bad, bad


def bryant(G, hs, kmax):
    return verify_bryant_lemma(G, hs, series_map(G, hs), kmax)


def test_bryant_on_d8_rotations(catalog):
    D8 = catalog["D8"]
    H = subgroup(D8, "(0 1 2 3)")
    records = bryant(D8, H.indices, 4)
    assert_all_ok(records)
    # the class-1 containment clause really ran
    assert any(r.id == "bryant-iv" and r.status == "pass" for r in records)


def test_bryant_clause_iii_when_subgroup_is_whole_group(catalog):
    G = catalog["D16"]
    records = bryant(G, G.all_indices, 4)
    assert_all_ok(records)
    assert any(r.id.startswith("bryant-iii") for r in records)


def test_bryant_skips_iv_for_non_nilpotent(catalog):
    S3 = catalog["S3"]
    records = bryant(S3, S3.all_indices, 3)
    assert any(r.id == "bryant-iv" and r.status == "skipped" for r in records)
    assert_all_ok(records)


def test_abc_degenerate_triple(catalog):
    G = catalog["D8"]
    h = subgroup(G, "(0 1 2 3)").indices
    records = flat(abc_lemma_by_k(G, h, h, h, series_map(G, h), 2))
    assert_all_ok(records)
    assert any(r.id.startswith("abc-hypothesis") and r.status == "pass" for r in records)


def test_abc_center_triple_hypothesis_fails(catalog):
    # centralizing the center of D8 gives all of D8, not the center, so the
    # nested-groups hypothesis fails at j=1 and the clauses are skipped
    D8 = catalog["D8"]
    a = subgroup(D8, "(0 2)(1 3)").indices
    b = subgroup(D8, "(0 1 2 3)").indices
    records = flat(abc_lemma_by_k(D8, a, b, D8.all_indices, series_map(D8, b, D8.all_indices), 1))
    k1 = [r for r in records if r.id == "abc-hypothesis-k1"]
    assert k1 and k1[0].status == "skipped"
    assert "hypothesis not met" in k1[0].witness


def test_abc_envelope_triples_hold(catalog):
    for name in ("D8", "S4", "Heis3"):
        G = catalog[name]
        for _, H, _ in enumerate_subgroups(G)[:6]:
            terms, _, series = run_inputs(G, H.indices, 3)
            for k in range(3):
                records = flat(abc_lemma_by_k(G, H.indices, terms[k + 1], terms[k], series, k))
                assert_all_ok(records)
                assert all(
                    r.status == "pass"
                    for r in records
                    if r.id.startswith("abc-hypothesis")
                )


def test_abc_requires_nesting(catalog):
    G = catalog["S3"]
    a = subgroup(G, "(0 1)").indices
    b = subgroup(G, "(0 1 2)").indices
    with pytest.raises(ValueError):
        abc_lemma_by_k(G, a, b, G.all_indices, series_map(G, b, G.all_indices), 1)


# --- each lemma run once per distinct input ------------------------------------


def test_run_suites_computes_each_central_series_once(monkeypatch, capsys):
    # over the bench catalog at --kmax 4, each `run_suites` call computes
    # the series of each distinct index set among H and its envelope terms
    # once, and no other series; `nilpotency_class` would compute one too
    runs = []
    run_suites, ek_term_data_ = suites.run_suites, suites.ek_term_data

    def recording_run(G, H, *args):
        runs.append((H.indices, [], []))
        return run_suites(G, H, *args)

    def recording_terms(*args):
        terms, inner = ek_term_data_(*args)
        runs[-1][1].extend(terms)
        return terms, inner

    def recording_series(G, s):
        runs[-1][2].append(s)
        return central_series_indices(G, s)

    monkeypatch.setattr(suites, "run_suites", recording_run)
    monkeypatch.setattr(suites, "ek_term_data", recording_terms)
    for module in (grp, suites):
        monkeypatch.setattr(module, "central_series_indices", recording_series)
    bench = str(ROOT / "perfbench" / "groups" / "verify")
    assert main(["verify", "--kmax", "4", "--catalog-dir", bench]) == 0
    capsys.readouterr()
    assert len(runs) == 33
    for h, terms, computed in runs:
        assert sorted(computed, key=sorted) == sorted({h, *terms}, key=sorted)
    assert sum(len(computed) for *_, computed in runs) == 72
    # the nilpotent suite alone reads only H's series and, for H of class
    # c, E_max(c,1)'s; its envelope run, at depth max(c, 1) + 3, is made
    # only for nilpotent H, and no other term's series is computed
    runs.clear()
    assert main(["verify", "--suite", "nilpotent", "--kmax", "4", "--catalog-dir", bench]) == 0
    capsys.readouterr()
    assert len(runs) == 33
    for h, terms, computed in runs:
        read = {h, terms[len(terms) - 4]} if terms else {h}
        assert sorted(computed, key=sorted) == sorted(read, key=sorted)
    assert sum(len(computed) for *_, computed in runs) == 39


def per_k_abc(group, a, b, c, series, kmax):
    """The three-group lemma as it was written before `abc_lemma_by_k`: the
    hypothesis and every conclusion compared afresh for each (k, j), on the
    series of B and C that `series` gives."""
    a_in_c, _ = iterated_centralizer_levels(group, c, sorted(a), kmax + 1)
    b_in_c, _ = iterated_centralizer_levels(group, c, sorted(b), kmax)
    a_in_b, _ = iterated_centralizer_levels(group, b, sorted(a), kmax + 1)
    c_series, b_series = series[c], series[b]
    check = suites._set_check
    out = []
    for k in range(kmax + 1):
        hyp_break = None
        for j in range(k + 1):
            if series_level(a_in_c, j) != series_level(c_series, j):
                hyp_break = j
                break
        claim = "chain of A in C matches the central series of C up to k"
        if hyp_break is not None:
            out.append(CheckRecord(f"abc-hypothesis-k{k}", claim, "skipped",
                                   witness=f"hypothesis not met at j={hyp_break}"))
            continue
        out.append(CheckRecord(f"abc-hypothesis-k{k}", claim, "pass"))
        for j in range(k + 1):
            zc = series_level(c_series, j)
            out.append(check(group, f"abc-i-k{k}-j{j}",
                             "chain of B in C matches the central series of C",
                             series_level(b_in_c, j), zc, f"k={k} j={j}"))
            zb = series_level(b_series, j)
            out.append(check(group, f"abc-ii-k{k}-j{j}",
                             "chain of A in B is the series of B and the series of C cut to B",
                             series_level(a_in_b, j), zb, f"k={k} j={j}"))
            out.append(check(group, f"abc-ii-cut-k{k}-j{j}",
                             "central series of B is the central series of C cut to B",
                             zb, zc & b, f"k={k} j={j}"))
        out.append(check(group, f"abc-iii-k{k}",
                         "level k+1 of A in B is level k+1 of A in C cut to B",
                         series_level(a_in_b, k + 1),
                         series_level(a_in_c, k + 1) & b, f"k={k}"))
    return out


def check_abc_by_k(group, a, b, c, series, kmax=4):
    """The run at depth k, in a fresh copy of the group, is the leading k+1
    lists of the run at kmax, and flattened it is the per-(k, j) loop.
    Returns the deepest run's records."""
    deep = abc_lemma_by_k(group, a, b, c, series, kmax)
    assert len(deep) == kmax + 1
    G = closure(list(group.generators))
    for k in range(kmax + 1):
        shallow = abc_lemma_by_k(G, a, b, c, series, k)
        assert shallow == deep[:k + 1]
        assert flat(shallow) == per_k_abc(G, a, b, c, series, k)
    return flat(deep)


def shifted_below(G, c, *sets):
    """`series_map(G, c, *sets)` with every series but C's moved one term
    up, so that the hypothesis can hold while conclusion (ii) fails."""
    return {s: series if s == c else [*series[1:], s]
            for s, series in series_map(G, c, *sets).items()}


def test_abc_by_k_on_the_d8_centre_triple(catalog):
    D8 = catalog["D8"]
    a, b = subgroup(D8, "(0 2)(1 3)").indices, subgroup(D8, "(0 1 2 3)").indices
    c = D8.all_indices
    records = check_abc_by_k(D8, a, b, c, series_map(D8, b, c))
    hyp = [r for r in records if r.id.startswith("abc-hypothesis")]
    assert [r.status for r in hyp] == ["pass"] + ["skipped"] * 4
    assert {r.witness for r in hyp[1:]} == {"hypothesis not met at j=1"}


def test_abc_by_k_fails_as_the_per_k_loop(catalog):
    # a wrong series for every B < G: each failing conclusion keeps its
    # per-k witness (S3 < S4 meets the hypothesis at every k)
    fails = set()
    for name in ("D8", "S4"):
        G = catalog[name]
        c = G.all_indices
        subs = [H.indices for _, H, _ in enumerate_subgroups(G)]
        series = shifted_below(G, c, *subs)
        for a, b in itertools.product(subs, subs):
            if a <= b:
                records = check_abc_by_k(G, a, b, c, series)
                fails.update(r.id for r in records if r.status == "fail")
    # both conclusions on B's series fail, the same (clause, j) at every k
    assert {f"abc-ii-k{k}-j0" for k in range(5)} <= fails
    assert {f"abc-ii-cut-k{k}-j{k}" for k in range(5)} <= fails


@DIFFERENTIAL
@given(st.data())
def test_abc_by_k_matches_prefixes_and_the_per_k_loop(data):
    G = data.draw(groups())
    elements = st.lists(st.integers(0, G.order - 1), max_size=2)
    a = data.draw(subgroups(G))
    b = closure_indices(G, [*a, *data.draw(elements)])
    c = closure_indices(G, [*b, *data.draw(elements)])
    check_abc_by_k(G, a, b, c, series_map(G, b, c))
    check_abc_by_k(G, a, b, c, shifted_below(G, c, b))


def per_k_structure(G, H, kmax):
    """The records of `ek_structure_by_k` for k = 0..kmax up to the ascent
    check, as written before it shared passes: one literal one-step pass for
    each k."""
    terms, inner = ek_term_data(G, H.indices, kmax)
    target = sorted(H.indices)
    series = [central_series_indices(G, t) for t in terms]
    out = []
    for k in range(kmax + 1):
        for j in range(k + 1):
            out.append(suites._set_check(
                G, f"structure-centers-k{k}-j{j}",
                "chain inside an envelope term is its upper central series",
                series_level(inner[k], j), series_level(series[k], j), f"k={k} j={j}",
            ))
        zs = [series_level(series[k], i) for i in range(k + 1)]
        simplified = one_step_levels(G, terms[k], target, zs)
        for i in range(k + 1):
            out.append(suites._set_check(
                G, f"structure-simplified-k{k}-i{i}",
                "one-step commutator form matches the full chain definition",
                simplified[i], series_level(inner[k], i + 1), f"k={k} i={i}",
            ))
    return out


def test_structure_runs_one_literal_pass_per_distinct_term(s5_d32, monkeypatch):
    passes = []

    def counting(G, members, target, zs):
        passes.append(members)
        return one_step_levels(G, members, target, zs)

    monkeypatch.setattr(suites, "one_step_levels", counting)
    repeated = 0
    for G in s5_d32:
        for _, H, _ in enumerate_subgroups(G):
            passes.clear()
            got = flat(ek_structure_by_k(G, H.indices, *run_inputs(G, H.indices, 4)))
            want = per_k_structure(G, H, 4)
            assert got[:len(want)] == want
            assert got[len(want)].id == "structure-centers-ascend"
            terms, _ = ek_term_data(G, H.indices, 4)
            assert sorted(passes, key=sorted) == sorted(set(terms), key=sorted)
            repeated += len(terms) > len(set(terms))
    assert repeated > 100


def unshared(run):
    """run() with every k-list built afresh and none shared."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(suites, "_k_list", lambda kind, k, ok, build: build())
        return run()


def shared_only_when_all_pass(kind, run, kmax=4):
    """run(), lists of `kind` to depth `kmax`, holds the checks of its
    unshared form.  Each of its k-lists whose checks all pass is the one
    shared tuple of k; every other one is a list of its own, and each
    failure in it carries a witness.  Returns how many k-lists fail."""
    lists = run()
    assert [list(r) for r in lists] == [list(r) for r in unshared(run)]
    fails = 0
    for k, records in enumerate(lists[:kmax + 1]):
        shared = suites._ALL_PASS.get((kind, k))
        if all(r.status == "pass" for r in records):
            assert records is shared
        else:
            assert records is not shared and type(records) is list
            assert all(r.witness for r in records if r.status == "fail")
            fails += any(r.status == "fail" for r in records)
    return fails


def level_one_empty(group, within, target, kmax):
    """`iterated_centralizer_levels`, except that inside a proper subgroup
    level 1 is empty."""
    levels, trunc = iterated_centralizer_levels(group, within, target, kmax)
    if within == group.all_indices or len(levels) < 2:
        return levels, trunc
    return [levels[0], frozenset(), *levels[2:]], trunc


def centers_off(*args):
    """`ek_term_data` with level 0 of every inner chain emptied."""
    terms, inner = ek_term_data(*args)
    return terms, [[frozenset(), *levels[1:]] for levels in inner]


def last_one_step_level_empty(*args):
    return [*one_step_levels(*args)[:-1], frozenset()]


def patch_everywhere(mp, name, value):
    """Rebind `name` in `chains` and in `suites`, wherever it is bound, so
    every caller of it reads `value`."""
    for module in (chains, suites):
        if hasattr(module, name):
            mp.setattr(module, name, value)


def test_a_failing_k_list_is_not_the_shared_all_pass_tuple(catalog, s5_d32, monkeypatch):
    groups = [*(catalog[name] for name in ("D8", "D16", "S4", "Heis3")), s5_d32[1]]
    subs = {G: [H.indices for _, H, _ in enumerate_subgroups(G)] for G in groups}

    def structure(G, h):
        return lambda: ek_structure_by_k(G, h, *run_inputs(G, h, 4))

    # the all-pass tuples of every k exist before any list fails
    for G in groups:
        series = series_map(G, *subs[G])
        for h in subs[G]:
            assert shared_only_when_all_pass("structure", structure(G, h)) == 0
            assert shared_only_when_all_pass("abc", lambda: abc_lemma_by_k(G, h, h, h, series, 4)) == 0
    assert all(("abc", k) in suites._ALL_PASS and ("structure", k) in suites._ALL_PASS
               for k in range(5))
    # each family makes some comparisons fail: B's central series, passed
    # shifted (abc-ii, abc-ii-cut at every j), level 1 inside B or E_k
    # (abc-ii at j = 1 only, in D32 with the hypothesis holding past k = 2;
    # abc-iii at k = 0; and the structure checks), the centers alone, the
    # one-step levels alone.  (name, series, patch): a patch rebinds `name`.
    abc_families = [("shifted series", shifted_below, None),
                    ("iterated_centralizer_levels", series_map, level_one_empty)]
    structure_patches = [("iterated_centralizer_levels", level_one_empty),
                         ("ek_term_data", centers_off),
                         ("one_step_levels", last_one_step_level_empty)]
    fails = {}
    for G in groups:
        c = G.all_indices
        for name, series_of, patch in abc_families:
            series = series_of(G, c, *subs[G])
            with monkeypatch.context() as mp:
                if patch:
                    patch_everywhere(mp, name, patch)
                for a, b in itertools.product(subs[G], subs[G]):
                    if a <= b:
                        n = shared_only_when_all_pass(
                            "abc", lambda: abc_lemma_by_k(G, a, b, c, series, 4))
                        fails[name] = fails.get(name, 0) + n
        for name, patch in structure_patches:
            with monkeypatch.context() as mp:
                patch_everywhere(mp, name, patch)
                for h in subs[G]:
                    n = shared_only_when_all_pass("structure", structure(G, h))
                    fails["structure " + name] = fails.get("structure " + name, 0) + n
    assert len(fails) == 5 and min(fails.values()) > 10, fails


def structure_records(G, H, kmax):
    return flat(ek_structure_by_k(G, H.indices, *run_inputs(G, H.indices, kmax)))


def test_structure_on_d8_reflection(catalog):
    D8 = catalog["D8"]
    records = structure_records(D8, subgroup(D8, "(1 3)"), 2)
    assert_all_ok(records)


def test_structure_across_catalog(catalog):
    for name, G in catalog.items():
        for _, H, _ in enumerate_subgroups(G)[:5]:
            assert_all_ok(structure_records(G, H, 3))


def nilpotent_envelope(G, H):
    """The nilpotent suite on H, from an envelope run at depth
    max(class, 1) + 3, the least it reads."""
    terms, _, series = run_inputs(G, H.indices, max(nilpotency_class(H) or 0, 1) + 3)
    return verify_nilpotent_envelope(G, H.indices, terms, series)


def test_nilpotent_envelope_d8_rotations(catalog):
    D8 = catalog["D8"]
    records = nilpotent_envelope(D8, subgroup(D8, "(0 1 2 3)"))
    assert_all_ok(records)
    assert any(r.id == "envelope-class-exact" and r.status == "pass" for r in records)


def test_nilpotent_envelope_d16_class2_subgroup(catalog):
    D16 = catalog["D16"]
    H = subgroup(D16, "(0 2 4 6)(1 3 5 7)", "(1 7)(2 6)(3 5)")
    assert nilpotency_class(H) == 2
    records = nilpotent_envelope(D16, H)
    assert_all_ok(records)
    # cross-check the stabilized envelope against a from-scratch recomputation
    terms, _ = ek_term_data(D16, H.indices, 5)
    assert terms[2] == terms[3] == terms[4] == terms[5]
    assert nilpotency_class(D16.subgroup(terms[2])) == 2


def test_nilpotent_envelope_skips_non_nilpotent(catalog):
    S3 = catalog["S3"]
    records = nilpotent_envelope(S3, Subgroup(S3, S3.all_indices))
    assert records[0].status == "skipped"


def test_nilpotent_envelope_trivial_subgroup(catalog):
    # the class-0 case runs through the abelian step: E_1 is the center
    D8 = catalog["D8"]
    records = nilpotent_envelope(D8, Subgroup(D8, frozenset({D8.identity_idx})))
    assert_all_ok(records)
    assert any(r.id == "envelope-class-exact" and r.status == "skipped" for r in records)


def test_verifiers_read_classes_off_the_series_they_are_given(catalog):
    # a series that claims D8 has class 1 (Z_1 = D8): level 1 of its chain
    # is its centre, so the class-c containment fails
    D8 = catalog["D8"]
    g = D8.all_indices
    records = verify_bryant_lemma(D8, g, {g: [frozenset({D8.identity_idx}), g]}, 4)
    assert [(r.status, r.witness) for r in records if r.id == "bryant-iv"] == [
        ("fail", "class 1: H has elements outside level 1")]
    # a series of E_1 that stalls below it: E_1, the Klein group around a
    # reflection H, reads as not nilpotent
    h = subgroup(D8, "(1 3)").indices
    terms, _, series = run_inputs(D8, h, 4)
    assert len(terms[1]) == 4 and series_class(series[terms[1]], terms[1]) == 1
    series[terms[1]] = series[terms[1]][:1]
    got = {r.id: (r.status, r.witness) for r in verify_nilpotent_envelope(D8, h, terms, series)}
    assert got["envelope-nilpotent"] == ("fail", "class(E_1) = None, expected <= 1")
    assert got["envelope-class-exact"] == ("fail", "class(E_1) = None, expected 1")


def test_nilpotency_class_matches_naive(catalog):
    for name, G in catalog.items():
        for _, H, _ in enumerate_subgroups(G)[:4]:
            assert nilpotency_class(H) == naive_nilpotency_class(frozenset(H.elements))


# --- subgroup enumeration --------------------------------------------------------


def load_p128():
    with open(ROOT / "tests" / "data" / "P128.grp", encoding="utf-8") as fh:
        return parse_group_file(fh.read())


def test_enumerate_subgroups_pruning_matches_full_pair_loop(catalog, s5_d32):
    S5, D32 = s5_d32
    # cyclic subgroups with many generators, labels whose first seed is not
    # a seed the enumeration closes, a 2-group with 112 classes and the
    # trivial group: the regular C15 (8 generators), AGL(1, 5) (x + 1 and
    # 2x), A5, the order-128 Sylow 2-subgroup of S8 and S1
    C15 = closure([parse_cycles("(" + " ".join(map(str, range(15))) + ")", 15)])
    F20 = closure([parse_cycles("(0 1 2 3 4)", 5), parse_cycles("(1 2 4 3)", 5)])
    A5 = closure([parse_cycles("(0 1 2)", 5), parse_cycles("(0 1 2 3 4)", 5)])
    S1 = closure([], degree=1)
    assert [G.order for G in (C15, F20, A5, S1)] == [15, 20, 60, 1]
    for G in [*catalog.values(), S5, D32, C15, F20, A5, load_p128(), S1]:
        got = [(label, H.indices) for label, H, _ in enumerate_subgroups(G)]
        assert got == naive_enumerate_subgroups(G)


def test_subgroup_classes_match_conjugation_by_every_element(catalog, s5_d32):
    # `verify` runs the suites once per class, so a class must be exactly the
    # set of conjugates; the enumeration conjugates only by generators
    classes = {}
    for name, G in [*catalog.items(), *zip(("S5", "D32"), s5_d32),
                    ("P128", load_p128()), ("S1", closure([], degree=1))]:
        subs = enumerate_subgroups(G)
        sets = [H.indices for _, H, _ in subs]
        naive = naive_subgroup_classes(G, sets)
        assert [first.indices for *_, first in subs] == [naive[s] for s in sets]
        # enumerated subgroups are closed under conjugation: every conjugate
        # of one is enumerated
        assert set(naive) == set(sets)
        classes[name] = len({first for *_, first in subs})
    assert (classes["P128"], classes["S1"]) == (112, 1)


def test_enumerate_subgroups_closes_one_seed_per_pair_orbit(monkeypatch, s5_d32):
    # the seeds are <r> for each class representative r other than 1, and
    # <r, s> for s outside <r> and least in its orbit under x -> x^c (c in
    # C_G(r)) and x -> xr: at most one pair per orbit of G acting by
    # conjugation on the pairs (a, b<a>) with a != 1 and b not in <a>.  g
    # fixes (a, b<a>) iff a^g = a and b^-1 b^g = [b, g] lies in <a>, so by
    # Burnside's lemma there are (1/|G|) sum over g and over a != 1 in
    # C_G(g) of #{b not in <a> : [b, g] in <a>} / |<a>| orbits
    closures = []
    monkeypatch.setattr(catalog_module, "closure_indices",
                        lambda G, seeds: closures.append(seeds) or closure_indices(G, seeds))
    for G in [*s5_d32, load_p128()]:
        one = identity(G.degree)
        cyclic = {a: naive_closure({a}, G.degree) for a in G.elements}
        fixed = 0
        for g in G.elements:
            comms = [(b, commutator(b, g)) for b in G.elements]
            for a in G.elements:
                if a != one and compose(a, g) == compose(g, a):
                    fixed += sum(c in cyclic[a] and b not in cyclic[a] for b, c in comms) // len(cyclic[a])
        pair_orbits, rest = divmod(fixed, G.order)
        assert rest == 0
        classes = len({min(conjugate(g, x) for x in G.elements) for g in G.elements})
        closures.clear()
        enumerate_subgroups(G)
        assert len(closures) <= classes - 1 + pair_orbits


def test_enumerate_subgroups_formats_only_the_elements_its_labels_name(monkeypatch, s5_d32):
    formatted = []
    monkeypatch.setattr(catalog_module, "format_cycles",
                        lambda p: formatted.append(p) or format_cycles(p))
    for G in s5_d32:
        formatted.clear()
        named = {e for label, _, _ in enumerate_subgroups(G) for e in label[1:-1].split(",") if e}
        assert len(named) < G.order
        assert sorted(map(format_cycles, formatted)) == sorted(named)


@pytest.mark.parametrize("gens, counts", [
    (("(0 1 2)", "(1 2 3 4 5)"), (360, 491, 21)),  # A6
    (("(0 1)", "(0 1 2 3 4 5)"), (720, 1370, 52)),  # S6
])
def test_a6_and_s6_lists_are_closed_under_conjugation(gens, counts):
    G = closure([parse_cycles(t, 6) for t in gens])
    subs = enumerate_subgroups(G)
    first = {H.indices: f.indices for _, H, f in subs}
    assert (G.order, len(subs), len(set(first.values()))) == counts
    for g in G.generators:
        for H in first:
            conj = frozenset(G.index(conjugate(G.elements[h], g)) for h in H)
            assert first[conj] == first[H]


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
    W = frozenset(G.index(parse_cycles(t, degree)) for t in within)
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
    target = sorted(G.index(parse_cycles(t, 4)) for t in ("(0 1)", "(1 2 3)"))
    assert generating_indices(G, frozenset(target)) is None
    whole = frozenset(range(G.order))
    levels, _ = iterated_centralizer_levels(G, whole, target, 4)
    assert as_levels(G, levels) == naive_iterated_levels(frozenset(G.elements), perms(G, target), 4)


# --- the per-group memo -----------------------------------------------------------


def fresh(name):
    return parse_group_file(catalog_file(name))


@pytest.mark.parametrize("name", ["D16", "S4", "Heis3"])
def test_level_memo_serves_any_depth_like_a_cold_run(name):
    G0 = fresh(name)
    whole = frozenset(range(G0.order))
    truncations = set()
    for _, H, _ in enumerate_subgroups(G0):
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
    for _, H, _ in enumerate_subgroups(fresh(name)):
        cold = {k: ek_term_data(fresh(name), H.indices, k) for k in (2, 5)}
        for first, second in ((5, 2), (2, 5)):
            G = fresh(name)
            ek_term_data(G, H.indices, first)
            assert ek_term_data(G, H.indices, second) == cold[second]


def test_filter_bodies_run_once_per_distinct_input(monkeypatch, capsys):
    # every input `commutator_filter` is asked over a built-in
    # `verify --kmax 4` reaches the one filter body exactly once; the repeats
    # are answered from the group's memo.  A subgroup's normalizer is asked
    # as its (members, S, S) filter.
    asked, ran, normalizers = [], [], []

    def counting(log, f):
        def run(group, *args):
            log.append((group, *args))
            return f(group, *args)
        return run

    monkeypatch.setattr(grp, "_commutator_filter", counting(ran, grp._commutator_filter))
    wrapped = counting(asked, grp.commutator_filter)
    monkeypatch.setattr(grp, "commutator_filter", wrapped)
    monkeypatch.setattr(chains, "commutator_filter", wrapped)
    monkeypatch.setattr(chains, "normalizer_indices", counting(normalizers, normalizer_indices))
    assert main(["verify", "--kmax", "4"]) == 0
    capsys.readouterr()
    assert len(ran) == len(set(ran)) < len(asked)
    assert set(ran) == set(asked)
    subs = [(G, m, s) for G, m, s in normalizers if generating_indices(G, s) is not None]
    assert subs and {(G, m, s, s) for G, m, s in subs} <= set(asked)


def test_filter_results_are_interned(monkeypatch, capsys):
    # after built-in and bench `verify --kmax 4` runs, each group's filter
    # memo holds one object per distinct result
    seen = []
    run_suites = suites.run_suites

    def recording(G, *args):
        seen.append(G)
        return run_suites(G, *args)

    monkeypatch.setattr(suites, "run_suites", recording)
    bench = str(ROOT / "perfbench" / "groups" / "verify")
    for argv in (["verify", "--kmax", "4"], ["verify", "--kmax", "4", "--catalog-dir", bench]):
        assert main(argv) == 0
    capsys.readouterr()
    distinct = {id(G): G for G in seen}.values()
    assert len(distinct) >= 10
    for G in distinct:
        values = list(G._filters.values())
        assert len({id(v) for v in values}) == len(set(values))


@pytest.mark.parametrize("catalog, filter_bodies", [("bench", 238), ("builtin", 482)])
def test_each_memo_runs_its_body_once_per_distinct_key(monkeypatch, capsys, catalog, filter_bodies):
    # every cache of a group is an `envchain._Memo`: over `verify --suite all
    # --kmax 4`, each body runs once per key its memo holds.  The totals are
    # README's filter-body counts.
    runs = {"_commutator_filter": [], "_greedy_generators": [], "_coset_labels": []}

    def counting(name):
        body = getattr(grp, name)

        def run(group, *args):
            runs[name].append(group)
            return body(group, *args)
        return run

    # the filter body is looked up on each call; the other two are bound
    # when a group is built, inside `main`
    for name in runs:
        monkeypatch.setattr(grp, name, counting(name))
    argv = ["verify", "--suite", "all", "--kmax", "4"]
    if catalog == "bench":
        argv += ["--catalog-dir", str(ROOT / "perfbench" / "groups" / "verify")]
    assert main(argv) == 0
    capsys.readouterr()
    groups = {id(G): G for G in runs["_commutator_filter"]}.values()
    assert len(groups) >= 2
    for name, memo in (("_commutator_filter", "_filters"), ("_greedy_generators", "_gens"),
                       ("_coset_labels", "_labels")):
        for G in groups:
            assert sum(g is G for g in runs[name]) == len(getattr(G, memo)) > 0
    assert len(runs["_commutator_filter"]) == filter_bodies


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


@pytest.mark.parametrize("group, got, want, witness", [
    ("S3", {0, 1}, {0}, "k=1; unexpected {(1 2)}"),
    ("S3", {0}, {0, 2, 3}, "k=1; missing {(0 1), (0 1 2)}"),
    ("S3", {0, 1}, {0, 2}, "k=1; unexpected {(1 2)}; missing {(0 1)}"),
    # more than six elements: the first six by index, then "..."
    ("S4", set(range(9)), {0}, "k=1; unexpected {(2 3), (1 2), (1 2 3), (1 3 2), (1 3), (0 1), ...}"),
], ids=["unexpected", "missing", "both", "unexpected-seven"])
def test_set_check_failure_witness(group, got, want, witness):
    G = parse_group_file(catalog_file(group))
    record = suites._set_check(G, "id", "claim", frozenset(got), frozenset(want), "k=1")
    assert record == ("id", "claim", "fail", witness)
    assert type(record) is CheckRecord


def test_set_check_pass_is_the_pass_record():
    G = parse_group_file(catalog_file("S3"))
    record = suites._set_check(G, "id", "claim", frozenset({0, 1}), frozenset({1, 0}), "k=1")
    assert record == ("id", "claim", "pass", None)
    assert record == suites._set_check(G, "id", "claim", G.all_indices, G.all_indices, "k=2")
