"""Group engine: closure, centralizers, normalizers, central series, files."""

import gc
import random
import weakref
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from envchain import LimitError, grp
from envchain.catalog import build_catalog
from envchain.grp import (
    _TABLE_LIMIT,
    MAX_DEGREE,
    ClosureCapError,
    FiniteGroup,
    GroupFileError,
    Subgroup,
    central_series_indices,
    centralizer,
    closure,
    closure_indices,
    commutator_filter,
    generating_indices,
    is_abelian_indices,
    nilpotency_class,
    normalizer,
    normalizer_indices,
    orbit_labels,
    parse_group_file,
    upper_central_series,
)
from envchain.perm import DegreeMismatchError, format_cycles, parse_cycles

from naive import (
    commutator,
    compose,
    identity,
    inverse,
    naive_center_series,
    naive_centralizer,
    naive_closure,
    naive_commutator_filter,
    naive_normalizer,
    naive_orbit_least,
)
from strategies import (
    DIFFERENTIAL, big_group, groups, groups_and_pools, indices, perms, subgroups,
    subgroups_or_subsets, whole,
)


def make(texts, degree):
    return closure([parse_cycles(t, degree) for t in texts])


@pytest.fixture(scope="module")
def s3():
    return make(["(0 1)", "(0 1 2)"], 3)


@pytest.fixture(scope="module")
def d8():
    return make(["(0 1 2 3)", "(1 3)"], 4)


def test_closure_orders(s3, d8):
    assert make(["(0 1)"], 2).order == 2
    assert d8.order == 8
    assert s3.order == 6


def test_builtin_catalog_orders():
    assert {name: G.order for name, G in build_catalog().items()} == {
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


def test_closure_matches_naive():
    rng = random.Random(3)
    for _ in range(20):
        degree = rng.randint(2, 5)
        gens = [tuple(rng.sample(range(degree), degree)) for _ in range(rng.randint(1, 3))]
        G = closure(gens)
        assert frozenset(G.elements) == naive_closure(set(gens), degree)


@DIFFERENTIAL
@given(st.data())
def test_group_is_its_sorted_image_tuples(data):
    G = data.draw(groups())
    assert list(G.elements) == sorted(naive_closure(set(G.generators), G.degree))
    assert all(G.index(p) == i and p in G for i, p in enumerate(G.elements))
    outside = tuple(data.draw(st.permutations(range(G.degree))))
    if outside not in G.elements:
        assert outside not in G and outside not in Subgroup(G, G.all_indices)
        with pytest.raises(ValueError, match="is not in the group"):
            G.index(outside)
    wider = identity(G.degree + 1)
    assert wider not in G and wider not in Subgroup(G, G.all_indices)
    # `elements` is the stored tuple of image tuples, the same on each read
    H = closure(G.generators)
    assert type(H.elements) is tuple and all(type(p) is tuple for p in H.elements)
    assert H.elements == G.elements and H.elements is H.elements
    assert all(H.element(i) is p for i, p in enumerate(H.elements))


def test_closure_checks_each_generator_before_any_search(monkeypatch):
    monkeypatch.setattr(grp, "_bfs", lambda *a: pytest.fail("the search ran"))
    for bad in ((0, 0, 1), (1, 2, 3), (0, -1, 1), (0, 1.0, 2), (0, "1", 2), (None, 0, 1)):
        with pytest.raises(ValueError, match=r"^images .* are not a bijection of 0\.\.2$"):
            closure([(1, 0, 2), bad])
    with pytest.raises(DegreeMismatchError, match=r"^generator degree 4 != 3$"):
        closure([(1, 0, 2), (0, 1, 3, 2)])
    with pytest.raises(DegreeMismatchError, match=r"^generator degree 3 != 4$"):
        closure([(1, 0, 2)], degree=4)
    monkeypatch.undo()
    # the trivial groups of degrees 0 and 1
    for G in (closure([], degree=0), closure([()]), closure([(0,)])):
        assert (G.order, G.elements, G.comm_idx(0, 0)) == (1, (tuple(range(G.degree)),), 0)
    # elements enter as image tuples and are read back as image tuples
    G = closure([parse_cycles("(0 1 2 3)", 4), parse_cycles("(1 3)", 4)])
    H = G.generated_subgroup([(1, 2, 3, 0)])
    assert (1, 2, 3, 0) in G and (2, 3, 0, 1) in H and (3, 2, 1, 0) in G
    assert (0, 2, 1, 3) not in G and (0, 3, 2, 1) not in H and (1, 2, 3, 0) in H
    assert G.index((1, 2, 3, 0)) in H.indices
    with pytest.raises(ValueError, match=r"^element \(1 2\) is not in the group$"):
        G.index((0, 2, 1, 3))


def test_closure_cap(d8):
    with pytest.raises(ClosureCapError) as exc:
        closure(d8.generators, cap=5)
    assert exc.value.cap == 5
    assert exc.value.reached == 6
    with pytest.raises(ClosureCapError) as exc:
        closure(d8.generators, cap=1)  # the identity and both generators
    assert exc.value.reached == 3


def test_closure_storage_bound(d8, monkeypatch):
    # D8 on 4 points stores 8 x 4 = 32 image entries: at a bound of 32 it
    # closes, below it the cap-like stop names the bound and the degree
    monkeypatch.setattr(grp, "MAX_ENTRIES", 32)
    assert closure(d8.generators).order == 8
    monkeypatch.setattr(grp, "MAX_ENTRIES", 31)
    with pytest.raises(ClosureCapError) as exc:
        closure(d8.generators)
    assert isinstance(exc.value, LimitError)
    assert (exc.value.cap, exc.value.reached) == (7, 8)
    assert str(exc.value) == ("closure exceeded the bound of 31 stored image entries "
                              "(order x degree) at degree 4 (at least 8 elements)")
    # a smaller cap is named as the cap
    with pytest.raises(ClosureCapError, match=r"^closure exceeded cap 5 \(at least 6 elements\)$"):
        closure(d8.generators, cap=5)


def test_subgroup_elements_and_repr_build_no_parent_elements():
    G = make(["(0 1)", "(0 1 2 3 4 5)"], 6)
    H = G.generated_subgroup([parse_cycles("(0 1 2 3)", 6), parse_cycles("(0 2)", 6)])
    text = repr(H)
    elements = H.elements
    # the members are the parent's own stored tuples, none made anew
    assert all(p is G.elements[i] for p, i in zip(elements, sorted(H.indices)))
    first = ",".join(format_cycles(p) for p in elements[:4])
    assert text == f"Subgroup(order=8, {{{first}...}})"


@DIFFERENTIAL
@given(st.data())
def test_orbit_labels_match_naive(data):
    # coset rows: right multiplication by a subgroup's generators, whose
    # orbits are its left cosets; conjugation maps: its classes under them
    G = data.draw(groups())
    n = G.order
    H = data.draw(subgroups(G))
    gens = generating_indices(G, H)
    rows = [G.row(t) for t in gens]
    conj = [[G.conj_idx(x, c) for x in range(n)]
            for c in data.draw(st.lists(st.integers(0, n - 1), max_size=3))]
    for maps in (rows, conj, rows + conj, []):
        assert orbit_labels(n, maps) == naive_orbit_least(n, maps)
    lab = grp._coset_labels(G, H)
    assert list(lab) == orbit_labels(n, rows)
    assert all(lab[g] == min(G.mul_idx(g, h) for h in H) for g in range(n))


def test_closure_deterministic_order(s3):
    again = make(["(0 1)", "(0 1 2)"], 3)
    assert again.elements == s3.elements
    assert list(again.elements) == sorted(again.elements)


def test_centralizer_examples(s3):
    e = identity(3)
    assert centralizer(s3, [e]).indices == frozenset(range(6))
    # the centralizer of everything is the center; S3 is centerless
    assert centralizer(s3, s3.elements).order == 1
    t = parse_cycles("(0 1)", 3)
    assert set(centralizer(s3, [t]).elements) == {e, t}


def test_centralizer_matches_naive(s3, d8):
    for G in (s3, d8):
        els = frozenset(G.elements)
        for g in G.elements:
            got = frozenset(centralizer(G, [g]).elements)
            assert got == naive_centralizer(els, [g])


def test_centralizer_of_generators_equals_centralizer_of_subgroup(d8):
    r = parse_cycles("(0 1 2 3)", 4)
    H = d8.generated_subgroup([r])
    assert centralizer(d8, [r]).indices == centralizer(d8, H).indices


def test_normalizer_examples(s3):
    triv = Subgroup(s3, frozenset({s3.identity_idx}))
    assert normalizer(s3, triv).order == 6
    a3 = s3.generated_subgroup([parse_cycles("(0 1 2)", 3)])
    assert normalizer(s3, a3).order == 6
    h = s3.generated_subgroup([parse_cycles("(0 1)", 3)])
    assert normalizer(s3, h).indices == h.indices


def test_normalizer_matches_naive_and_contains_centralizer(d8):
    els = frozenset(d8.elements)
    for i in range(d8.order):
        H = d8.generated_subgroup([i])
        got = frozenset(normalizer(d8, H).elements)
        assert got == naive_normalizer(els, frozenset(H.elements))
        assert centralizer(d8, H).indices <= normalizer(d8, H).indices


def test_subgroup_closure_property(d8):
    # centralizers and normalizers are subgroups
    for i in range(d8.order):
        for sub in (centralizer(d8, [i]), normalizer(d8, d8.generated_subgroup([i]))):
            idx = sub.indices
            assert d8.identity_idx in idx
            assert all(d8.inv_idx(a) in idx for a in idx)
            assert all(d8.mul_idx(a, b) in idx for a in idx for b in idx)


def test_upper_central_series_abelian():
    G = make(["(0 1)", "(2 3)"], 4)
    series = upper_central_series(G)
    assert [s.order for s in series] == [1, 4]
    assert nilpotency_class(G) == 1


def test_upper_central_series_d8(d8):
    series = upper_central_series(d8)
    assert [s.order for s in series] == [1, 2, 8]
    r2 = parse_cycles("(0 2)(1 3)", 4)
    assert set(series[1].elements) == {identity(4), r2}
    assert nilpotency_class(d8) == 2


def test_upper_central_series_s3(s3):
    series = upper_central_series(s3)
    assert [s.order for s in series] == [1]
    assert nilpotency_class(s3) is None


def test_series_matches_naive(d8, s3):
    for G in (d8, s3):
        got = [frozenset(s.elements) for s in upper_central_series(G)]
        assert got == naive_center_series(frozenset(G.elements))


def test_series_terms_normal_in_group(d8):
    for Z in upper_central_series(d8):
        assert normalizer(d8, Z).order == d8.order


def test_nilpotency_class_trivial():
    assert nilpotency_class(closure([], degree=3)) == 0


def test_center_is_first_series_term():
    from envchain.grp import center

    for G in build_catalog().values():
        series = upper_central_series(G)
        z1 = series[1] if len(series) > 1 else series[0]
        assert center(G).indices == z1.indices
        assert centralizer(G, G.elements).indices == z1.indices


def test_double_centralizer_of_abelian_is_abelian(d8, s3):
    for G in (d8, s3):
        for i in range(G.order):
            H = G.generated_subgroup([i])
            if not is_abelian_indices(G, H.indices):
                continue
            assert is_abelian_indices(G, centralizer(G, centralizer(G, H)).indices)


def assert_tables_agree(G, pairs):
    """mul_idx, inv_idx and comm_idx against composing the permutations."""
    els = G.elements
    for i, j in pairs:
        a, b = els[i], els[j]
        assert els[G.mul_idx(i, j)] == compose(a, b)
        assert els[G.inv_idx(i)] == inverse(a)
        assert els[G.comm_idx(i, j)] == commutator(a, b)


def assert_stored_entries_agree(G):
    """Every built product row and every filled commutator entry against
    composing the permutations."""
    n, els = G.order, G.elements
    for j, r in enumerate(G._rows):
        if r is not None:
            assert [els[k] for k in r] == [compose(a, els[j]) for a in els]
    for ij, k in enumerate(G._comm or ()):
        if k != -1:
            assert els[k] == commutator(els[ij // n], els[ij % n])


def test_tables_match_permutation_arithmetic():
    groups = list(build_catalog().values())
    groups.append(make(["(0 1)", "(0 1 2 3 4)"], 5))
    groups.append(closure([], degree=1))  # one-point itemgetter edge case
    for G in groups:
        assert_tables_agree(G, [(i, j) for i in range(G.order) for j in range(G.order)])
        assert None not in G._rows and -1 not in G._comm
        assert_stored_entries_agree(G)


def test_tables_match_permutation_arithmetic_s6():
    G = make(["(0 1)", "(0 1 2 3 4 5)"], 6)
    assert G.order == 720
    rng = random.Random(6)
    assert_tables_agree(G, [(rng.randrange(720), rng.randrange(720)) for _ in range(20000)])


def test_fallback_above_table_limit():
    G = make(["(0 1)", "(0 1 2 3 4 5 6)"], 7)
    assert G.order == 5040 > _TABLE_LIMIT
    rng = random.Random(7)
    assert_tables_agree(G, [(rng.randrange(5040), rng.randrange(5040)) for _ in range(2000)])
    assert G._rows is None and G._comm is None
    j = rng.randrange(5040)
    assert G.row(j) == [G.mul_idx(i, j) for i in range(5040)]


def test_tables_fill_one_entry_per_read():
    G = make(["(0 1)", "(0 1 2 3 4 5)"], 6)
    G.mul_idx(5, 700)
    assert [j for j, r in enumerate(G._rows) if r is not None] == [700]
    assert G._comm is None  # allocated on the first commutator read
    G.comm_idx(5, 700)
    assert sum(k != -1 for k in G._comm) == 1
    assert sum(r is not None for r in G._rows) <= 3  # rows of h, g and gh
    assert_stored_entries_agree(G)


@DIFFERENTIAL
@given(st.data())
def test_tables_fill_in_any_order(data):
    G = data.draw(groups())
    n, els = G.order, G.elements
    reads = data.draw(st.lists(
        st.tuples(st.sampled_from("mric"), st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=1, max_size=300,
    ))
    for op, i, j in reads:
        a, b = els[i], els[j]
        if op == "m":
            assert els[G.mul_idx(i, j)] == compose(a, b)
        elif op == "r":
            assert els[G.row(j)[i]] == compose(a, b)
        elif op == "i":
            assert els[G.inv_idx(i)] == inverse(a)
        else:
            assert els[G.comm_idx(i, j)] == commutator(a, b)
    assert_stored_entries_agree(G)


def test_tables_check_products_against_the_element_set():
    # closed under inverses, not under products: (0 2)(0 1) is a 3-cycle, and
    # the rows of t and u hold u·t and t·u, so whichever product a fresh
    # group reads first raises
    e, t, u = (parse_cycles(x, 3) for x in ("()", "(0 1)", "(0 2)"))
    reads = (
        lambda G, t, u: G.mul_idx(t, t),
        lambda G, t, u: G.mul_idx(t, u),
        lambda G, t, u: G.row(t),
        lambda G, t, u: G.comm_idx(u, t),
    )
    for read in reads:
        G = FiniteGroup(3, [t, u], [e, t, u])
        for _ in range(2):  # a row that raised is not stored
            with pytest.raises(KeyError):
                read(G, G.index(t), G.index(u))
        assert G._rows == [None] * 3


def test_group_file_roundtrip():
    text = "# dihedral\ndegree: 4\n(0 1 2 3)\n(1 3)  # reflection\n"
    G = parse_group_file(text)
    assert G.order == 8 and G.degree == 4


REACH = Path(__file__).resolve().parent / "data" / "reach"


@pytest.mark.parametrize("path, order, degree", [
    ("d8x3/D8x3.grp", 512, 12),
    ("c2x9/C2x9.grp", 512, 18),
    ("c2x10/C2x10.grp", 1024, 20),
])
def test_reach_probe_files_close_to_their_orders(path, order, degree):
    G = parse_group_file((REACH / path).read_text())
    assert (G.order, G.degree) == (order, degree)


def read_group_file(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """`grp.read_group_file` with its generators built into a list."""
    degree, gens = grp.read_group_file(text)
    return degree, list(gens)


def test_group_file_keeps_each_generator_once(monkeypatch):
    # first occurrences in file order; (1 0) spells the same generator as (0 1)
    text = "degree: 3\n(0 1)\n()\n(0 1)\n(1 0)\n(0 1 2)\n()\n"
    assert read_group_file(text) == (3, [(1, 0, 2), (0, 1, 2), (1, 2, 0)])
    # as do a rotated cycle, one-point cycles and cycles in another order
    text = "degree: 5\n(0 1 2)\n(3)(1 2 0)\n(2 0 1) (4)\n(3 4)(0 1)\n(1 0)(4 3)(2)\n(0)(1)\n"
    assert read_group_file(text) == (5, [(1, 2, 0, 3, 4), (1, 0, 2, 4, 3), (0, 1, 2, 3, 4)])
    # 6 image entries hold 2 elements at degree 3: a third distinct
    # generator is kept, so the closure stops, and no fourth is
    monkeypatch.setattr(grp, "MAX_ENTRIES", 6)
    text = "degree: 3\n(0 1)\n(1 2)\n(0 2)\n(0 1 2)\n"
    assert read_group_file(text)[1] == [(1, 0, 2), (0, 2, 1), (2, 1, 0)]
    with pytest.raises(ClosureCapError, match=r"\(at least 4 elements\)$"):
        parse_group_file(text)
    # lines past the last kept generator are still read and checked
    with pytest.raises(GroupFileError) as exc:
        grp.read_group_file(text + "(0 5)\n")
    assert exc.value.line == 6
    # a second degree line is read as a generator line, and rejected
    with pytest.raises(GroupFileError) as exc:
        grp.read_group_file("degree: 3\n(0 1)\ndegree: 3\n")
    assert exc.value.line == 3


@pytest.mark.parametrize("space", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_group_file_line_ends_only_at_a_newline(space):
    # str.splitlines also ends a line at these; one generator per line, so
    # (0 1) and (2 3) are one generator of order 2
    assert parse_group_file(f"degree: 4\n(0 1){space}(2 3)\n").order == 2
    with pytest.raises(GroupFileError) as exc:
        parse_group_file(f"degree: 4\n(0 1){space}(2 3)\n(0 5)\n")
    assert exc.value.line == 3
    # "\r\n" and "\r" end a line, as universal newlines read them
    assert parse_group_file("degree: 4\r\n(0 1)\r(2 3)\r\n").order == 4
    with pytest.raises(GroupFileError) as exc:
        parse_group_file("degree: 4\r\n(0 1)\r(2 3)\r\n(0 5)\n")
    assert exc.value.line == 4


def test_group_file_errors():
    with pytest.raises(GroupFileError) as exc:
        parse_group_file("(0 1)\n")
    assert exc.value.line == 1
    with pytest.raises(GroupFileError) as exc:
        parse_group_file("degree: 3\n(0 5)\n")
    assert exc.value.line == 2
    with pytest.raises(GroupFileError):
        parse_group_file("degree: x\n")
    with pytest.raises(GroupFileError):
        parse_group_file("# only comments\n")


@pytest.mark.parametrize("body", ["1_0", "\u0663", "\uff14", "4\u00b2", "+-4", "+", "", "9" * 5000])
def test_group_file_degree_ascii_digits_only(body):
    # int() alone reads "1_0" as 10 and U+0663 as 3
    with pytest.raises(GroupFileError, match="bad degree") as exc:
        parse_group_file(f"degree: {body}\n")
    assert exc.value.line == 1


def test_group_file_degree_sign():
    assert parse_group_file("degree: +4\n(0 1)\n").degree == 4
    with pytest.raises(GroupFileError, match="degree must be positive, got -3"):
        parse_group_file("degree: -3\n")


def test_group_file_degree_bound():
    assert parse_group_file(f"degree: {MAX_DEGREE}\n(0 1)\n").order == 2
    with pytest.raises(GroupFileError) as exc:
        parse_group_file(f"# too wide\n\ndegree: {MAX_DEGREE + 1}\n(0 1)\n")
    assert exc.value.line == 3
    assert "exceeds the limit" in str(exc.value)


# --- generating sets and the filters that use them ---------------------------


def cycles(G, *texts):
    return frozenset(G.index(parse_cycles(t, G.degree)) for t in texts)


def test_generating_indices_generates_and_is_memoized(d8):
    whole = frozenset(range(d8.order))
    gens = generating_indices(d8, whole)
    assert closure_indices(d8, gens) == whole
    assert list(gens) == sorted(gens) and len(gens) <= 3
    assert generating_indices(d8, whole) is gens
    assert generating_indices(d8, frozenset({d8.identity_idx})) == ()


def test_group_with_filled_memos_is_freed_when_dropped():
    # the memos hold their group weakly, so reference counting alone frees
    # it: no cycle waits for the collector
    G = make(["(0 1 2 3)", "(1 3)"], 4)
    center = central_series_indices(G, G.all_indices)[0]
    normalizer_indices(G, G.all_indices, center)
    assert G._gens and G._labels and G._filters
    dropped = weakref.ref(G)
    gc.disable()
    try:
        del G
        assert dropped() is None
    finally:
        gc.enable()


def test_generating_indices_none_for_non_subgroups(s3):
    assert generating_indices(s3, cycles(s3, "()", "(0 1)", "(0 1 2)")) is None
    assert generating_indices(s3, cycles(s3, "(0 1)")) is None  # no identity


# Non-subgroups on which filtering over the greedy generators would go wrong,
# found by search; the literal filter must run on them.
S3_NOT_CLOSED = ("(1 2)", "(0 2 1)", "(0 2)")
S4_NOT_CLOSED = ("(0 2 3 1)", "(0 2)(1 3)", "(0 3)", "(0 3)(1 2)")


def test_normalizer_of_non_subgroup_is_literal(s3):
    sub = cycles(s3, *S3_NOT_CLOSED)
    assert generating_indices(s3, sub) is None
    got = normalizer_indices(s3, frozenset(range(s3.order)), sub)
    assert perms(s3, got) == naive_normalizer(frozenset(s3.elements), perms(s3, sub))


def test_central_series_memo_returns_fresh_lists():
    G = make(["(0 1 2 3)", "(1 3)"], 4)
    whole = frozenset(range(G.order))
    for _ in range(2):  # the computing call, then the memo hit
        series = central_series_indices(G, whole)
        assert [len(z) for z in series] == [1, 2, 8]
        series.append(frozenset())


def test_central_series_of_non_subgroup_is_literal():
    S4 = make(["(0 1)", "(0 1 2 3)"], 4)
    sub = cycles(S4, *S4_NOT_CLOSED)
    assert generating_indices(S4, sub) is None
    got = [perms(S4, z) for z in central_series_indices(S4, sub)]
    assert got == naive_center_series(perms(S4, sub))


@DIFFERENTIAL
@given(st.data())
def test_central_series_matches_naive(data):
    G, pool = data.draw(groups_and_pools())
    sub = data.draw(subgroups_or_subsets(G, pool))
    got = [perms(G, z) for z in central_series_indices(G, sub)]
    assert got == naive_center_series(perms(G, sub))


@DIFFERENTIAL
@given(st.data())
def test_normalizer_matches_naive(data):
    # besides the drawn sets: a cyclic subgroup, which is seldom normal
    G, pool = data.draw(groups_and_pools())
    g = data.draw(st.sampled_from(pool or range(G.order)))
    for sub in (data.draw(subgroups_or_subsets(G, pool)), closure_indices(G, [g])):
        for among in (data.draw(subgroups_or_subsets(G, pool)), whole(G, pool)):
            got = normalizer_indices(G, among, sub)
            assert got == indices(G, naive_normalizer(perms(G, among), perms(G, sub)))


@DIFFERENTIAL
@given(st.data())
def test_normalizer_of_subgroup_is_its_commutator_filter(data):
    # g^-1 s g lies in S iff [g, s^-1] does: one memo entry, one object
    G, pool = data.draw(groups_and_pools())
    sub = data.draw(subgroups(G, pool))
    assert generating_indices(G, sub) is not None
    for among in (data.draw(subgroups_or_subsets(G, pool)), whole(G, pool)):
        assert normalizer_indices(G, among, sub) is commutator_filter(G, among, sub, sub)


def test_commutator_filter_needs_xs_to_normalize_into():
    # xs = <(1 2), (2 3)> and into = <(0 1), (2 3)> are both subgroups, but
    # xs does not normalize into; testing only the generators of xs would
    # also keep (0 3)(1 2).
    S4 = make(["(0 1)", "(0 1 2 3)"], 4)
    xs = closure_indices(S4, cycles(S4, "(1 2)", "(2 3)"))
    into = closure_indices(S4, cycles(S4, "(0 1)", "(2 3)"))
    assert generating_indices(S4, xs) is not None
    assert generating_indices(S4, into) is not None
    got = commutator_filter(S4, frozenset(range(S4.order)), xs, into)
    assert got == cycles(S4, "()")


def test_commutator_filter_non_subgroup_xs_needs_its_generators_to_normalize_into():
    # xs = {(0 1 2), (0 2 1)} is not a subgroup; its greedy generator
    # (0 1 2) stands for it in a target it normalizes, but it does not
    # normalize <(0 1)(2 3)>, where testing it alone would also keep
    # (0 1 3), (1 3 2) and (0 2)(1 3).
    S4 = make(["(0 1)", "(0 1 2 3)"], 4)
    whole = frozenset(range(S4.order))
    xs = cycles(S4, "(0 1 2)", "(0 2 1)")
    assert generating_indices(S4, xs) is None
    into = closure_indices(S4, cycles(S4, "(0 1)(2 3)"))
    got = commutator_filter(S4, whole, xs, into)
    assert got == cycles(S4, "()", "(0 1 2)", "(0 2 1)")
    v4 = closure_indices(S4, cycles(S4, "(0 1)(2 3)", "(0 2)(1 3)"))
    want = naive_commutator_filter(frozenset(S4.elements), perms(S4, xs), perms(S4, v4))
    assert commutator_filter(S4, whole, xs, v4) == indices(S4, want)


@DIFFERENTIAL
@given(st.data())
def test_commutator_filter_matches_naive(data):
    # besides the drawn sets: the trivial target (a centralizer), the whole
    # target, whose coset labels are all equal, and a cyclic subgroup, which
    # xs (often not a subgroup) seldom normalizes
    G, pool = data.draw(groups_and_pools())
    xs = data.draw(subgroups_or_subsets(G, pool))
    trivial = frozenset({G.identity_idx})
    cyclic = closure_indices(G, [data.draw(st.sampled_from(pool or range(G.order)))])
    for into in (data.draw(subgroups_or_subsets(G, pool)), trivial, whole(G, pool), cyclic):
        for among in (data.draw(subgroups_or_subsets(G, pool)), whole(G, pool)):
            got = commutator_filter(G, among, xs, into)
            want = naive_commutator_filter(perms(G, among), perms(G, xs), perms(G, into))
            assert got == indices(G, want)


def test_commutator_filter_into_non_subgroup_is_literal(s3):
    # {(), (0 1 2)} is not closed; coset labels of the subgroup its greedy
    # generators span (A3) would keep all of S3, since [S3, S3] = A3
    whole = frozenset(range(s3.order))
    into = cycles(s3, "()", "(0 1 2)")
    assert generating_indices(s3, into) is None
    got = commutator_filter(s3, whole, whole, into)
    assert got == cycles(s3, "()", "(0 1 2)")
    els = frozenset(s3.elements)
    assert perms(s3, got) == naive_commutator_filter(els, els, perms(s3, into))


@st.composite
def filter_calls(draw):
    """A small group and an interleaved list of commutator-filter calls
    (members, xs, into) and normalizer calls (members, sub), all drawn from a
    few index sets, so that calls share inputs: equal members and xs with a
    different into, and a filter (members, sub, sub) beside a normalizer
    (members, sub)."""
    G = draw(groups())
    pick = st.sampled_from(draw(st.lists(subgroups_or_subsets(G), min_size=1, max_size=3)) + [whole(G)])
    calls = st.one_of(st.tuples(pick, pick, pick), st.tuples(pick, pick))
    return G, draw(st.lists(calls, min_size=1, max_size=12))


@DIFFERENTIAL
@given(filter_calls())
def test_filter_memos_answer_as_a_fresh_group(case):
    # one group serves every call from its memos; a group rebuilt from the
    # same generators has the same indices and answers each call cold
    G, calls = case
    for args in calls:
        f = commutator_filter if len(args) == 3 else normalizer_indices
        assert f(G, *args) == f(closure(G.generators), *args)


@DIFFERENTIAL
@given(st.data())
def test_closure_indices_matches_naive(data):
    G, pool = data.draw(groups_and_pools())
    drawn = data.draw(st.lists(st.sampled_from(pool or range(G.order)), max_size=3))
    cases = [drawn]
    if pool is None:
        # the generators give the whole group, past the half-order stop; the
        # words of even length in them give a subgroup of index 1 or 2, the
        # sharpest case for that stop
        gens = [G.index(g) for g in G.generators]
        cases += [gens, [G.mul_idx(a, b) for a in gens for b in gens]]
    for seeds in cases:
        assert perms(G, closure_indices(G, seeds)) == naive_closure(perms(G, seeds), G.degree)


def test_closure_above_table_limit_stops_at_half_the_group(monkeypatch):
    # every order takes the one breadth-first walk, capped at half the
    # group: S7 lies above the limit, and its generators give its own index set
    G, _ = big_group()
    assert closure_indices(G, [G.index(g) for g in G.generators]) is G.all_indices
    # S4 and S5 with the limit lowered store no rows; at the real limit they do
    rng = random.Random(55)
    for limit in (0, _TABLE_LIMIT):
        monkeypatch.setattr(grp, "_TABLE_LIMIT", limit)
        for texts, degree in ((["(0 1)", "(0 1 2 3)"], 4), (["(0 1)", "(0 1 2 3 4)"], 5)):
            G = make(texts, degree)
            assert (G._rows is None) == (limit == 0)
            gens = [G.index(g) for g in G.generators]
            assert closure_indices(G, gens) is G.all_indices
            # words of even length give A_n, of index 2: the sharpest case for the stop
            cases = [[G.mul_idx(a, b) for a in gens for b in gens]]
            cases += [[rng.randrange(G.order) for _ in range(rng.randint(1, 2))] for _ in range(30)]
            for seeds in cases:
                got = closure_indices(G, seeds)
                assert perms(G, got) == naive_closure(perms(G, seeds), degree)
                assert (got is G.all_indices) == (len(got) == G.order)


def test_closure_reads_only_its_seeds_rows():
    # the walk multiplies on the right, a·g, which reads the row of g alone:
    # a fresh group builds rows for the distinct non-identity seeds and no other
    rng = random.Random(31)
    for texts, degree in ((["(0 1)", "(0 1 2 3 4 5)"], 6), (["(0 1 2)", "(1 2 3 4 5)"], 6)):
        for _ in range(10):
            G = make(texts, degree)
            seeds = [rng.randrange(G.order) for _ in range(rng.randint(1, 3))]
            seeds += [seeds[0], G.identity_idx]
            closure_indices(G, seeds)
            assert {j for j, r in enumerate(G._rows) if r is not None} == set(seeds) - {G.identity_idx}
