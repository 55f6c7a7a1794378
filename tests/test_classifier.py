import hashlib
import json

import pytest

from weakindex import catalog, classifier
from weakindex.automata import (
    DetAutomaton,
    IndexPair,
    State,
    Transition,
    index_of,
    make_automaton,
)
from weakindex.classifier import (
    BIT_NAMES,
    BorelLevel,
    borel_rank,
    classify,
    det_index,
    relabel_to,
    weak_alt_level,
    weak_det_index,
)
from weakindex.errors import EmptyLanguage, ValidationError
from weakindex.graphs import tarjan_scc
from weakindex.patterns import brute_force_patterns, find_flower, find_weak_flower
from weakindex.productivity import trim
from weakindex.rng import SplitMix64
from weakindex.semantics import SamplerParams, alt_accepts, det_accepts, sample_regular_tree

from conftest import criterion_5_stream, large_inputs, random_trimmed

# the ladder from nontrivial to trivial: each later bit is implied
LADDER = ("pi1", "pi2"), ("sigma1", "sigma2"), ("pi2", "pi3"), ("sigma2", "sigma3"), \
    ("pi1", "sigma2"), ("sigma1", "pi2"), ("sigma3", "pi3")


EXPECTED = {
    "all_a": (BorelLevel.PI1, {(0, 1)}),
    "ex_b_left": (BorelLevel.SIGMA1, {(1, 2)}),
    "inf_b_left": (BorelLevel.PI2, {(0, 2)}),
    "fin_b_left": (BorelLevel.SIGMA2, {(1, 3)}),
    "spine_fin_b": (BorelLevel.PI3, {(0, 3)}),
    "split_min": (BorelLevel.NON_BOREL, None),
}


def test_catalog_borel_and_weak_alt():
    for name, (level, walt) in EXPECTED.items():
        report = classify(catalog.get(name))
        assert report.borel.minimal is level, name
        assert str(report.borel) == str(report.borel.minimal), name
        if walt is None:
            assert report.weak_alt is None
        else:
            assert {(i.iota, i.kappa) for i in report.weak_alt} == walt, name


def test_catalog_det_indices():
    assert classify(catalog.all_a()).det_index == IndexPair(0, 1)
    assert classify(catalog.inf_b_left()).det_index == IndexPair(1, 2)
    assert classify(catalog.fin_b_left()).det_index == IndexPair(0, 1)


def test_catalog_weak_det():
    r = classify(catalog.all_a())
    assert r.weak_det[0] == IndexPair(0, 1)
    assert len(r.weak_det[1].states) == 2
    assert classify(catalog.ex_b_left()).weak_det[0] == IndexPair(1, 2)
    # both loop parities share an SCC: no weak deterministic automaton
    assert classify(catalog.inf_b_left()).weak_det is None


def test_empty_and_universal_reports():
    empty = make_automaton(("a",), {"q": ("A", 1)}, "q",
                           [("q", "a", 0, "q"), ("q", "a", 1, "q")], deterministic=True)
    r = classify(empty)
    assert r.borel.minimal is BorelLevel.SIGMA0
    assert r.det_index == IndexPair(1, 1)
    assert {(i.iota, i.kappa) for i in r.weak_alt} == {(1, 1)}

    universal = make_automaton(("a",), {"q": ("A", 0)}, "q",
                               [("q", "a", 0, "q"), ("q", "a", 1, "q")], deterministic=True)
    r = classify(universal)
    assert r.borel.minimal is BorelLevel.PI0
    assert r.det_index == IndexPair(0, 0)
    assert {(i.iota, i.kappa) for i in r.weak_alt} == {(0, 0)}


@pytest.mark.parametrize("analysis", [borel_rank, det_index, weak_det_index])
def test_analyses_refuse_an_untrimmed_automaton(analysis):
    # an accepting `_bot` is not the trimmed normal form's rejecting sink
    a = make_automaton(("a",), {"_bot": ("A", 0)}, "_bot",
                       [("_bot", "a", 0, "_bot"), ("_bot", "a", 1, "_bot")], deterministic=True)
    with pytest.raises(ValidationError) as err:
        analysis(a)
    assert str(err.value) == f"{analysis.__name__} expects a trimmed automaton"


def test_ladder_bits_antitone():
    rng = SplitMix64(2001)
    for _ in range(250):
        a = random_trimmed(rng)
        bits = borel_rank(a).bits
        for lo, hi in LADDER:
            assert not bits[lo] or bits[hi], (bits, a)


def test_fig4_mapping_table():
    table = {
        BorelLevel.SIGMA0: {(1, 1)},
        BorelLevel.PI0: {(0, 0)},
        BorelLevel.DELTA1: {(0, 1), (1, 2)},
        BorelLevel.SIGMA1: {(1, 2)},
        BorelLevel.PI1: {(0, 1)},
        BorelLevel.DELTA2: {(0, 2), (1, 3)},
        BorelLevel.SIGMA2: {(1, 3)},
        BorelLevel.PI2: {(0, 2)},
        BorelLevel.DELTA3: {(0, 3), (1, 4)},
        BorelLevel.PI3: {(0, 3)},
    }
    for level, want in table.items():
        got = weak_alt_level(level)
        assert {(i.iota, i.kappa) for i in got} == want
    assert weak_alt_level(BorelLevel.NON_BOREL) is None


def _closed_walk_parities_agree(a, b):
    """Soundness core of relabelings: every closed walk has tops of equal
    parity under the two rank functions (so languages coincide)."""
    succ = {q: set() for q in a.states}
    for t in a.transitions:
        succ[t.source].add(t.target)
    adj = {q: sorted(s) for q, s in succ.items()}
    pairs = set()
    ranks_a = sorted(a.ranks())
    ranks_b = sorted(b.ranks())
    for ra in ranks_a:
        for rb in ranks_b:
            keep = [q for q in sorted(a.states)
                    if a.rank(q) <= ra and b.rank(q) <= rb]
            keep_set = set(keep)
            sub = {q: [w for w in adj[q] if w in keep_set] for q in keep}
            for comp in tarjan_scc(keep, sub):
                if len(comp) == 1 and comp[0] not in sub[comp[0]]:
                    continue
                if any(a.rank(q) == ra for q in comp) and any(b.rank(q) == rb for q in comp):
                    pairs.add((ra, rb))
    return all(ra % 2 == rb % 2 for ra, rb in pairs)


def test_det_index_soundness():
    rng = SplitMix64(3003)
    trees = sample_regular_tree(SamplerParams(seed=12, max_nodes=6,
                                              alphabet=("a", "b"), count=30))
    for _ in range(100):
        a = random_trimmed(rng)
        index, relabeled = det_index(a)
        # the relabeled automaton stays inside the claimed band
        assert index_of(relabeled) == index or index_of(relabeled).ranks_used() <= index.ranks_used()
        # no dual flower at the claimed index
        assert find_flower(relabeled, index.dual()) is None
        # structural proof of language preservation
        assert _closed_walk_parities_agree(a, relabeled)
        for t in trees:
            assert det_accepts(a, t) == det_accepts(relabeled, t)


def test_det_index_minimality():
    rng = SplitMix64(3113)
    for _ in range(120):
        a = random_trimmed(rng)
        index, _ = det_index(a)
        # every strictly smaller index candidate is blocked by a dual flower
        for smaller_kappa in range(index.kappa - index.iota):
            for iota in (0, 1):
                cand = IndexPair(iota, iota + smaller_kappa)
                assert find_flower(a, cand.dual()) is not None, (a, index, cand)


def test_det_index_thousand_tree_agreement():
    trees = sample_regular_tree(SamplerParams(seed=13, max_nodes=8,
                                              alphabet=("a", "b"), count=1000))
    rng = SplitMix64(1313)
    pool = [trim(catalog.get(n)) for n in ("all_a", "inf_b_left", "fin_b_left")]
    pool += [random_trimmed(rng) for _ in range(3)]
    for a in pool:
        index, relabeled = det_index(a)
        assert find_flower(relabeled, index.dual()) is None
        for t in trees:
            assert det_accepts(a, t) == det_accepts(relabeled, t)


def test_relabel_to_one_two_matches_spec_route():
    a = trim(catalog.inf_b_left())
    rel = relabel_to(a, IndexPair(1, 2))
    assert index_of(rel) == IndexPair(1, 2)
    assert len(rel.states) == len(a.states)


def test_weak_det_soundness():
    rng = SplitMix64(4004)
    trees = sample_regular_tree(SamplerParams(seed=21, max_nodes=6,
                                              alphabet=("a", "b"), count=30))
    found = 0
    while found < 60:
        a = random_trimmed(rng)
        res = weak_det_index(a)
        if res is None:
            # justification: some SCC must carry both loop parities
            from weakindex.patterns import loop_ranks
            from weakindex.graphs import condensation
            tops = loop_ranks(a)
            succ = {q: sorted({t.target for t in a.transitions if t.source == q})
                    for q in a.states}
            sccs, _, _ = condensation(sorted(a.states), succ)
            assert any(len({r % 2 for q in comp for r in tops[q]}) == 2
                       for comp in sccs)
            continue
        found += 1
        index, out = res
        assert out.is_restricted(), "weak-deterministic shape is rank-monotone"
        assert out.acceptance == "weak"
        assert index_of(out) == index
        for t in trees:
            assert det_accepts(a, t) == alt_accepts(out, t)


def test_weak_det_minimality():
    rng = SplitMix64(4040)
    found = 0
    while found < 60:
        a = random_trimmed(rng)
        res = weak_det_index(a)
        if res is None:
            continue
        found += 1
        index = res[0]
        for smaller in range(index.kappa - index.iota):
            for iota in (0, 1):
                cand = IndexPair(iota, iota + smaller)
                assert find_weak_flower(a, cand.dual()) is not None


def _index_order():
    """(0,0), (1,1), (0,1), (1,2), (0,2), ...: the order in which the least
    index is sought."""
    level = 0
    while True:
        yield IndexPair(0, level)
        yield IndexPair(1, level + 1)
        level += 1


def _first_without(has_pattern, stop: IndexPair):
    """Check the candidates up to `stop` against the oracle predicate: every
    earlier candidate's dual has the pattern, the dual of `stop` has none."""
    for cand in _index_order():
        if cand == stop:
            return not has_pattern(cand.dual())
        if not has_pattern(cand.dual()):
            return False


def _layered_trimmed(rng: SplitMix64, max_states: int = 6, max_rank: int = 5):
    """Next trimmed automaton whose moves never lead to a lower-numbered
    state: its SCCs are single states in a chain, the shape that gives
    weak-deterministic indices above (0,1)."""
    while True:
        n = 1 + rng.below(max_states)
        names = [f"q{i}" for i in range(n)]
        states = {q: State("A", rng.below(max_rank + 1)) for q in names}
        trans = [Transition(q, x, d, names[i + rng.below(n - i)])
                 for i, q in enumerate(names) for x in ("a", "b") for d in (0, 1)]
        try:
            return trim(DetAutomaton(alphabet=("a", "b"), states=states, initial="q0",
                                     transitions=tuple(trans), acceptance="parity"))
        except EmptyLanguage:
            continue


def test_indices_match_brute_force_oracle():
    """Both deterministic indices against the subset enumerator, which
    shares no code with the chain lengths they are read from."""
    rng = SplitMix64(5151)
    pool = [trim(catalog.get(name)) for name in catalog.CATALOG]
    pool += [random_trimmed(rng, max_rank=(3, 4, 5)[k % 3]) for k in range(300)]
    pool += [_layered_trimmed(rng) for _ in range(150)]
    weak_seen = set()
    for k, a in enumerate(pool):
        inv = brute_force_patterns(a)
        index, _ = det_index(a)
        assert _first_without(inv.has_flower, index), (k, index)
        res = weak_det_index(a)
        if res is None:
            # an SCC with loops of both parities carries weak flowers of any length
            assert inv.has_weak_flower(IndexPair(0, len(a.states) + 2)), k
            continue
        assert _first_without(inv.has_weak_flower, res[0]), (k, res[0])
        weak_seen.add(res[0])
    assert {IndexPair(0, 2), IndexPair(1, 3)} <= weak_seen, weak_seen


def test_report_rendering_and_json():
    r = classify(catalog.inf_b_left())
    text = r.render()
    assert "borel: Pi^0_2" in text
    assert "weak_alt_index: (0,2)" in text
    d = r.to_json_dict()
    assert d["borel"] == "Pi^0_2"
    assert d["det_index"] == [1, 2]
    assert d["weak_det_index"] is None
    assert d["weak_alt_index"] == [[0, 2]]
    assert set(BIT_NAMES) == set(d["bits"])
    wit = r.render(witnesses=True)
    assert "blocked" in wit


def test_report_rendering_is_deterministic():
    # timings stay on the report and in --json, never in the text
    first, second = classify(catalog.inf_b_left()), classify(catalog.inf_b_left())
    assert first.render() == second.render()
    assert first.render(witnesses=True) == second.render(witnesses=True)
    assert "seconds" not in first.render(witnesses=True)
    assert {"trim_seconds", "classify_seconds"} <= set(first.to_json_dict())


# -- classify does not relabel ---------------------------------------------------------

C9_RANKS = (0, 0, 0, 0, 1, 1, 2, 2, 2, 3)  # criterion 9's scale generator
# sha256 of `_report_text` over `_report_inputs`, recorded when classify
# still built a relabeled automaton for every report
REPORTS_SHA256 = "a7eacec553c0d7ee24c4871a96cd706aa8384a4cbbb36c87b6d8857fba76d1dc"


def _report_inputs():
    """The catalog and the first 300-state automaton of criterion 9's shape
    with a nonempty language."""
    inputs = [catalog.get(name) for name in sorted(catalog.CATALOG)]
    rng = SplitMix64(3003)
    names = [f"q{i}" for i in range(300)]
    while True:
        states = {q: State("A", C9_RANKS[rng.below(len(C9_RANKS))]) for q in names}
        trans = [Transition(q, x, d, names[rng.below(300)])
                 for q in names for x in "ab" for d in (0, 1)]
        a = DetAutomaton(alphabet=("a", "b"), states=states, initial="q0",
                         transitions=tuple(trans), name="seeded300")
        try:
            trim(a)
        except EmptyLanguage:
            continue
        return inputs + [a]


def _report_text(report) -> str:
    d = report.to_json_dict()
    del d["trim_seconds"], d["classify_seconds"]
    return json.dumps(d, sort_keys=True) + "\n" + report.render(witnesses=True)


def test_classify_gives_the_same_reports_without_relabeling(monkeypatch):
    def refuse(a, target):
        raise AssertionError("classify relabeled its input")

    monkeypatch.setattr(classifier, "relabel_to", refuse)
    digest = hashlib.sha256()
    for a in _report_inputs():
        digest.update(_report_text(classify(a)).encode())
    assert digest.hexdigest() == REPORTS_SHA256


def test_borel_bits_fail_exactly_where_a_verified_witness_blocks_them():
    # sigma0 and pi0 are decided without patterns; every other bit is
    # false exactly when borel_rank built a witness for it
    inputs = [trim(catalog.get(name)) for name in sorted(catalog.CATALOG)]
    for a in inputs + criterion_5_stream(500) + [trim(a) for a in large_inputs()]:
        borel = borel_rank(a)
        blocked = {b for b in BIT_NAMES if not borel.bits[b]} - {"sigma0", "pi0"}
        assert set(borel.witnesses) == blocked
        for w in borel.witnesses.values():
            w.verify(a)
