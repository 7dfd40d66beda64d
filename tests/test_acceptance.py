"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every tolerance is exact; the stated runtime envelopes are
asserted where the criterion names one.
"""

import random
import time

import pytest

from envchain import symnat as sn
from envchain.catalog import build_catalog, enumerate_subgroups
from envchain.chains import ek_term_data
from envchain.cli import main
from envchain.grp import Subgroup, central_series_indices, nilpotency_class, series_level
from envchain.perm import format_cycles
from views import level


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} [{name}]: {status}{suffix}")
    assert ok, f"criterion {num} [{name}] failed: {detail}"


@pytest.fixture(scope="module")
def catalog():
    return build_catalog()


@pytest.fixture(scope="module")
def model9():
    return sn.iterated_centralizer_model(9)


def test_criterion_1_lemma_suite(capsys):
    start = time.perf_counter()
    code = main(["verify", "--suite", "all", "--kmax", "4"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    with capsys.disabled():
        summary = [l for l in out.splitlines() if l.startswith("summary:")]
        report(
            1,
            "lemma suite over full catalog",
            code == 0 and "fail=0" in (summary[0] if summary else ""),
            f"{summary[0] if summary else 'no summary'}; {elapsed:.1f}s",
        )
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s"


def test_criterion_2_nilpotent_envelopes(catalog):
    start = time.perf_counter()
    violations = []
    checked = 0
    for gname, G in catalog.items():
        for label, H, _ in enumerate_subgroups(G):
            c = nilpotency_class(H)
            if c is None:
                continue
            checked += 1
            step = max(c, 1)  # class-0 subgroups go through the abelian step
            terms, _ = ek_term_data(G, H.indices, step + 3)
            e_class = nilpotency_class(Subgroup(G, terms[step]))
            if c >= 1:
                class_ok = e_class == c
            else:
                class_ok = e_class is not None and e_class <= 1
            stable_ok = terms[step] == terms[step + 1] == terms[step + 2] == terms[step + 3]
            if not (class_ok and stable_ok):
                violations.append((gname, label, c, e_class, stable_ok))
    elapsed = time.perf_counter() - start
    report(
        2,
        "nilpotent envelope class and stabilization",
        not violations,
        f"{checked} nilpotent subgroups, {len(violations)} violations; {elapsed:.1f}s",
    )
    assert elapsed < 60.0


def test_criterion_3_counterexample_chain():
    start = time.perf_counter()
    model = sn.iterated_centralizer_model(8)
    elapsed = time.perf_counter() - start
    level1_ok = level(model, 1) == frozenset({sn.BitFn.zero(), sn.BitFn.ones()})
    sizes = model.sizes()
    strict_ok = len(sizes) == 8 and all(a < b for a, b in zip(sizes, sizes[1:]))
    periodic_ok = all(
        not b.prefix and (2 ** i) % b.period == 0
        for i in range(1, 9)
        for b in level(model, i)
    )
    report(
        3,
        "counterexample chain reproduction",
        level1_ok and strict_ok and periodic_ok,
        f"sizes={sizes}; {elapsed:.2f}s",
    )
    assert elapsed < 10.0, f"model build took {elapsed:.2f}s"


def test_criterion_4_oracle_equivalence(model9):
    mismatches = [
        i for i in (1, 2, 3) if sn.brute_force_level(i) != frozenset(model9.span(i))
    ]
    report(
        4,
        "basis-form model equals brute-force enumeration",
        not mismatches,
        f"checked levels 1..3 (2+16+256 candidates), mismatches={mismatches}",
    )


def test_criterion_5_descent_witnesses(model9):
    results = []
    problems = []
    for k in range(5):
        try:
            w = sn.descent_witness(k, 12, model9)
        except sn.DescentScanError as exc:
            problems.append(f"k={k}: {exc}")
            continue
        step = 2 ** w.l
        expected = sn.SymElem.from_bits(
            sn.BitFn.from_fn(lambda t: 1 if t in (w.x0, w.x0 + step) else 0,
                             w.x0 + step + 1, 1)
        )
        if w.commutator != expected:
            problems.append(f"k={k}: commutator mismatch")
        results.append((k, w.kprime))
        if k == 0:
            if not (
                w.g.sigma == sn.BlockPerm.swap(0, 1)
                and w.h == sn.BitFn.from_pattern((0, 1, 1, 0))
                and format_cycles(sn.bits_to_permutation(w.commutator.bits)) == "(0 1)(2 3)"
            ):
                problems.append(f"k=0: concrete witness mismatch: {w}")
    report(
        5,
        "strict-descent witnesses for k=0..4",
        not problems,
        f"(k, k') pairs: {results}" + (f"; problems={problems}" if problems else ""),
    )


def test_criterion_6_symbolic_algebra_soundness():
    rng = random.Random(20260810)

    def rand_elem():
        pre = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 4)))
        blk = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 8)))
        pts = rng.sample(range(16), rng.randint(0, 6))
        shuffled = pts[:]
        rng.shuffle(shuffled)
        return sn.SymElem(
            sn.BitFn(pre, blk), sn.BlockPerm(dict(zip(pts, shuffled))), rng.randint(-6, 6)
        )

    hom_failures = 0
    for _ in range(1000):
        a, b = rand_elem(), rand_elem()
        ab = sn.sym_mul(a, b)
        if any(
            sn.sym_apply(ab, x) != sn.sym_apply(a, sn.sym_apply(b, x))
            for x in range(512)
        ):
            hom_failures += 1
    assoc_failures = 0
    for _ in range(1000):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        if sn.sym_mul(a, sn.sym_mul(b, c)) != sn.sym_mul(sn.sym_mul(a, b), c):
            assoc_failures += 1
    report(
        6,
        "symbolic algebra soundness",
        hom_failures == 0 and assoc_failures == 0,
        f"1000 pairs on x<512: {hom_failures} failures; 1000 triples: {assoc_failures} failures",
    )


def test_criterion_7_definition_fidelity(catalog):
    violations = []
    instances = 0
    for gname, G in catalog.items():
        for label, H, _ in enumerate_subgroups(G):
            instances += 1
            target = sorted(H.indices)
            terms, inner = ek_term_data(G, H.indices, 4)
            for k in range(5):
                series = central_series_indices(G, terms[k])
                for i in range(k + 1):
                    zi = series_level(series, i)
                    simplified = frozenset(
                        x for x in terms[k]
                        if all(G.comm_idx(x, a) in zi for a in target)
                    )
                    if simplified != series_level(inner[k], i + 1):
                        violations.append((gname, label, k, i))
    report(
        7,
        "simplified chain form equals full definition",
        not violations,
        f"{instances} catalog instances, i<=k<=4; violations={violations[:3]}",
    )
