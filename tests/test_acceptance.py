"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; sizes and tolerances are fixed here, not calibrated.
"""

import time

import pytest

from weakindex import catalog
from weakindex.automata import DetAutomaton, IndexPair, State, Transition, index_of
from weakindex.classifier import (
    BorelLevel,
    borel_rank,
    classify,
    weak_alt_index,
    weak_alt_level,
)
from weakindex.errors import (
    EmptyLanguage,
    IndexTooHigh,
    NonWeaklyRecognizable,
    PreconditionViolated,
    UnsupportedGapConstruction,
)
from weakindex.games import brute_force_solve, solve_parity, solve_weak
from weakindex.graphs import condensation
from weakindex.patterns import (
    brute_force_patterns,
    edge_tops,
    find_flower,
    find_replicated_flower,
    find_split,
    find_weak_flower,
    loop_ranks,
    replicated_set,
)
from weakindex.productivity import trim
from weakindex.rng import SplitMix64
from weakindex.semantics import (
    SamplerParams,
    alt_accepts,
    bounded_equiv,
    run_reduction,
    sample_regular_tree,
    skurczynski,
    skurczynski_member_oracle,
    w_member,
)
from weakindex.transforms import restrict, weaken, weaken_02, weaken_13, weaken_14

from conftest import random_det, random_game, random_weak

INDICES = [IndexPair(0, 0), IndexPair(0, 1), IndexPair(0, 2), IndexPair(0, 3),
           IndexPair(1, 1), IndexPair(1, 2), IndexPair(1, 3)]

RANK_STYLES = ((0, 1, 2, 3), (1, 2), (0, 1), (0, 1, 2), (2, 3), (0,), (1, 2, 3))


def _trimmed_stream(seed, max_states=5, mixed_bands=False):
    rng = SplitMix64(seed)
    while True:
        ranks = RANK_STYLES[rng.below(len(RANK_STYLES))] if mixed_bands else (0, 1, 2, 3)
        try:
            yield trim(random_det(rng, max_states, rank_weights=ranks))
        except EmptyLanguage:
            continue


def test_criterion_1_pattern_oracle_equivalence():
    total = 10_000
    stream = _trimmed_stream(31337)
    t0 = time.perf_counter()
    for k in range(total):
        a = next(stream)
        assert len(a.states) <= 6
        inv = brute_force_patterns(a)
        tops = loop_ranks(a)
        for q in a.states:
            assert set(tops[q]) == set(inv.loop_tops[q]), (k, q)
        et = edge_tops(a)
        for key in et:
            assert set(et[key]) == set(inv.edge_tops[key]), (k, key)
        assert replicated_set(a) == set(inv.replicated), k
        assert (find_split(a) is not None) == inv.has_split(), k
        for i in INDICES:
            assert (find_flower(a, i) is not None) == inv.has_flower(i), (k, i)
            assert (find_weak_flower(a, i) is not None) == inv.has_weak_flower(i), (k, i)
            assert ((find_replicated_flower(a, i, weak=False) is not None)
                    == inv.has_replicated_flower_strong(i)), (k, i)
            assert ((find_replicated_flower(a, i, weak=True) is not None)
                    == inv.has_replicated_flower_weak(i)), (k, i)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"pattern oracle run took {elapsed:.1f}s"
    print(f"\ncriterion 1 PASS: {total} automata, all detectors match brute force "
          f"({elapsed:.1f}s)")


def test_criterion_2_game_solvers_match_brute_force():
    total = 10_000
    rng = SplitMix64(2024)
    t0 = time.perf_counter()
    for k in range(total):
        condition = "parity" if k % 2 == 0 else "weak"
        g = random_game(rng, max_positions=7, max_rank=3, condition=condition)
        fast = solve_parity(g) if condition == "parity" else solve_weak(g)
        slow = brute_force_solve(g)
        assert fast.winner == slow.winner, (k, g)
    elapsed = time.perf_counter() - t0
    print(f"\ncriterion 2 PASS: {total} games, solvers match brute force "
          f"({elapsed:.1f}s)")


def _loopy_sccs(a):
    succ = {q: sorted({t.target for t in a.transitions if t.source == q})
            for q in a.states}
    sccs, _, _ = condensation(sorted(a.states), succ)
    return [c for c in sccs if len(c) > 1 or c[0] in succ[c[0]]]


def _admissible_pool(count, seed, max_states=5):
    stream = _trimmed_stream(seed, max_states=max_states, mixed_bands=True)
    return [next(stream) for _ in range(count)]


def test_criterion_3_state_bounds():
    pool = [trim(catalog.get(name)) for name in catalog.CATALOG]
    pool += _admissible_pool(100, seed=515)
    counts = {"restrict": 0, "w02": 0, "w13": 0, "w14": 0}
    for a in pool:
        n = len(a.states)
        try:
            out = weaken_02(a)
            assert len(out.states) == 2 * n + 1, a
            counts["w02"] += 1
        except IndexTooHigh:
            pass
        try:
            out = weaken_13(a)
            assert len(out.states) == 3 * n + 1, a
            counts["w13"] += 1
        except (IndexTooHigh, PreconditionViolated):
            pass
        try:
            out, _ = weaken_14(a)
            bound = 1 + sum(2 * len(x) ** 2 + 7 * n for x in _loopy_sccs(a))
            assert len(out.states) <= bound, a
            counts["w14"] += 1
        except PreconditionViolated:
            pass
    # restrict bound on weak automata: weakened catalog plus random weak
    weak_pool = []
    for name in catalog.CATALOG:
        try:
            weak_pool.append(weaken(catalog.get(name))[0])
        except (UnsupportedGapConstruction, NonWeaklyRecognizable):
            pass
    rng = SplitMix64(626)
    weak_pool += [random_weak(rng, max_states=5) for _ in range(100)]
    for w in weak_pool:
        r = restrict(w)
        assert len(r.states) == index_of(w).ranks_used() * len(w.states), w
        assert r.is_restricted()
        counts["restrict"] += 1
    assert counts["w02"] >= 10 and counts["w13"] >= 10 and counts["w14"] >= 50
    print(f"\ncriterion 3 PASS: exact budgets 2n+1, 3n+1, quadratic bound, "
          f"(kappa-iota+1)n; admissible counts {counts}")


def test_criterion_4_construction_soundness():
    params = SamplerParams(seed=42, max_nodes=8, alphabet=("a", "b"), count=1000)
    t0 = time.perf_counter()
    catalog_pool = [trim(catalog.get(name)) for name in catalog.CATALOG]
    pool = catalog_pool + _admissible_pool(50, seed=4242)
    checked = {"w02": 0, "w13": 0, "w14": 0, "dispatch": 0, "restrict": 0}

    for a in pool:
        try:
            out = weaken_02(a)
            assert bounded_equiv(a, out, params) is None, ("weaken_02", a)
            checked["w02"] += 1
        except IndexTooHigh:
            pass
        try:
            out = weaken_13(a)
            assert bounded_equiv(a, out, params) is None, ("weaken_13", a)
            checked["w13"] += 1
        except (IndexTooHigh, PreconditionViolated):
            pass
        try:
            out, _ = weaken_14(a)
            assert bounded_equiv(a, out, params) is None, ("weaken_14", a)
            checked["w14"] += 1
        except PreconditionViolated:
            pass
        try:
            out, _ = weaken(a)
            assert bounded_equiv(a, out, params) is None, ("weaken", a)
            checked["dispatch"] += 1
        except (UnsupportedGapConstruction, NonWeaklyRecognizable):
            pass

    weak_pool = []
    for a in catalog_pool:
        try:
            weak_pool.append(weaken(a)[0])
        except (UnsupportedGapConstruction, NonWeaklyRecognizable):
            pass
    rng = SplitMix64(737)
    weak_pool += [random_weak(rng, max_states=5) for _ in range(50)]
    for w in weak_pool:
        r = restrict(w)
        assert bounded_equiv(w, r, params) is None, ("restrict", w)
        checked["restrict"] += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"construction soundness took {elapsed:.1f}s"
    assert all(v >= 5 for v in checked.values()), checked
    print(f"\ncriterion 4 PASS: zero mismatches over 1000 samples each, "
          f"checked {checked} ({elapsed:.1f}s)")


LADDER_IMPLICATIONS = (
    ("pi1", "pi2"), ("pi2", "pi3"),
    ("sigma1", "sigma2"), ("sigma2", "sigma3"),
    ("sigma1", "pi2"), ("pi1", "sigma2"), ("sigma3", "pi3"),
)


def test_criterion_5_hierarchy_coincidence():
    stream = _trimmed_stream(9090, mixed_bands=True)
    total = 2000
    for k in range(total):
        a = next(stream)
        borel = borel_rank(a)
        assert weak_alt_index(a) == weak_alt_level(borel.minimal), k
        for lo, hi in LADDER_IMPLICATIONS:
            assert not borel.bits[lo] or borel.bits[hi], (k, borel.bits)
    for name in catalog.CATALOG:
        a = trim(catalog.get(name))
        borel = borel_rank(a)
        assert weak_alt_index(a) == weak_alt_level(borel.minimal)
    print(f"\ncriterion 5 PASS: weak_alt_index follows the hierarchy "
          f"coincidence and bits are antitone on {total} automata + catalog")


def test_criterion_6_reduction_property():
    rng = SplitMix64(606060)
    trees = sample_regular_tree(SamplerParams(seed=61, max_nodes=6,
                                              alphabet=("a", "b"), count=5))
    pairs = 0
    while pairs < 500:
        a = random_weak(rng, max_states=4)
        for t in trees:
            inst = run_reduction(a, t)
            assert alt_accepts(a, t) == w_member(inst.tree, inst.band), (a, t)
            pairs += 1
    print(f"\ncriterion 6 PASS: reduction property holds on {pairs} pairs")


def test_criterion_7_skurczynski_fixtures():
    trees = sample_regular_tree(SamplerParams(seed=71, max_nodes=7,
                                              alphabet=("a", "b"), count=200))
    for n in (1, 2, 3):
        lo_idx, hi_idx = IndexPair(0, n), IndexPair(1, n + 1)
        lo, hi = skurczynski(lo_idx), skurczynski(hi_idx)
        assert index_of(lo) == lo_idx
        assert index_of(hi) == hi_idx
        for t in trees:
            member_lo = alt_accepts(lo, t)
            assert member_lo == skurczynski_member_oracle(lo_idx, t), (n, t)
            member_hi = alt_accepts(hi, t)
            assert member_hi == skurczynski_member_oracle(hi_idx, t), (n, t)
            assert member_hi == (not member_lo), (n, t)
    print("\ncriterion 7 PASS: Skurczynski fixtures exact for n <= 3 "
          "on 200 trees each, with pointwise duality")


CATALOG_EXPECTED = {
    "all_a": (BorelLevel.PI1, {(0, 1)}, None),
    "ex_b_left": (BorelLevel.SIGMA1, {(1, 2)}, None),
    "inf_b_left": (BorelLevel.PI2, {(0, 2)}, None),
    "fin_b_left": (BorelLevel.SIGMA2, {(1, 3)}, None),
    "spine_fin_b": (BorelLevel.PI3, {(0, 3)}, "unsupported"),
    "split_min": (BorelLevel.NON_BOREL, None, "non-weak"),
}


def test_criterion_8_catalog_classifications():
    for name, (level, walt, construction) in CATALOG_EXPECTED.items():
        report = classify(catalog.get(name))
        assert report.borel.minimal is level, name
        if walt is None:
            assert report.weak_alt is None, name
        else:
            assert {(i.iota, i.kappa) for i in report.weak_alt} == walt, name
        if construction == "unsupported":
            with pytest.raises(UnsupportedGapConstruction) as exc:
                weaken(catalog.get(name))
            assert tuple(exc.value.attainable_index) == (0, 3), name
        elif construction == "non-weak":
            with pytest.raises(NonWeaklyRecognizable):
                weaken(catalog.get(name))
    print("\ncriterion 8 PASS: catalog classifications match the frozen table")


def test_criterion_9_scale_smoke():
    rng = SplitMix64(3)
    ranks = (0, 0, 0, 0, 1, 1, 2, 2, 2, 3)
    a = None
    while a is None:
        names = [f"q{i}" for i in range(1000)]
        states = {q: State("A", ranks[rng.below(len(ranks))]) for q in names}
        trans = [Transition(q, x, d, names[rng.below(1000)])
                 for q in names for x in ("a", "b") for d in (0, 1)]
        cand = DetAutomaton(alphabet=("a", "b"), states=states, initial="q0",
                            transitions=tuple(trans), acceptance="parity")
        try:
            trim(cand)
            a = cand
        except EmptyLanguage:
            continue
    report = classify(a)
    assert report.trimmed is not None and len(report.trimmed.states) > 100
    assert report.classify_seconds < 10.0, report.classify_seconds
    print(f"\ncriterion 9 PASS: 1000-state automaton classified as "
          f"{report.borel.minimal} in {report.classify_seconds:.2f}s post-trim "
          f"(trim {report.trim_seconds:.2f}s)")
