import hashlib
import json

import pytest

from weakindex import catalog, transforms
from weakindex.automata import (
    IndexPair,
    Transition,
    TreeAutomaton,
    _in_order,
    index_of,
    make_automaton,
)
from weakindex.classifier import classify, relabel_to
from weakindex.errors import (
    IndexTooHigh,
    NonWeaklyRecognizable,
    PreconditionViolated,
    UnsupportedGapConstruction,
    ValidationError,
)
from weakindex.formats import serialize_automaton
from weakindex.graphs import condensation
from weakindex.productivity import trim
from weakindex.rng import SplitMix64
from weakindex.semantics import (
    SamplerParams,
    alt_accepts,
    bounded_equiv,
    sample_regular_tree,
)
from weakindex.transforms import (
    conjunction,
    restrict,
    weaken,
    weaken_02,
    weaken_13,
    weaken_14,
)

from conftest import criterion_5_stream, large_inputs, random_trimmed, random_weak

PARAMS = SamplerParams(seed=42, max_nodes=8, alphabet=("a", "b"), count=200)


def spot_trees(count=40, seed=11):
    return sample_regular_tree(SamplerParams(seed=seed, max_nodes=7,
                                             alphabet=("a", "b"), count=count))


# -- restrict -----------------------------------------------------------------


def test_restrict_single_rank_is_isomorphic_copy():
    a = make_automaton(("a",), {"q": ("A", 0)}, "q",
                       [("q", "a", 0, "q"), ("q", "a", 1, "q")], acceptance="weak")
    r = restrict(a)
    assert len(r.states) == 1
    assert r.acceptance == "parity"
    with pytest.raises(ValidationError, match="^restrict expects weak acceptance$"):
        restrict(r)


def test_restrict_two_rank_structure():
    rng = SplitMix64(77)
    checked = 0
    while checked < 25:
        a = random_weak(rng, max_rank=1)
        idx = index_of(a)
        if idx.ranks_used() != 2:
            continue
        checked += 1
        r = restrict(a)
        assert len(r.states) == 2 * len(a.states)
        assert r.is_restricted()


def test_restrict_preserves_language():
    rng = SplitMix64(177)
    trees = spot_trees()
    for _ in range(40):
        a = random_weak(rng)
        r = restrict(a)
        assert r.is_restricted()
        assert len(r.states) == index_of(a).ranks_used() * len(a.states)
        for t in trees:
            assert alt_accepts(a, t) == alt_accepts(r, t)


# -- weaken_02 -----------------------------------------------------------------


def test_weaken_02_inf_b_left_seven_states():
    a = relabel_to(trim(catalog.inf_b_left()), IndexPair(1, 2))
    out = weaken_02(a)
    assert len(out.states) == 2 * 3 + 1
    assert index_of(out) == IndexPair(0, 2)
    assert out.acceptance == "weak"
    assert bounded_equiv(a, out, PARAMS) is None


def test_weaken_02_one_state_rank_two():
    a = make_automaton(("a",), {"q": ("A", 2)}, "q",
                       [("q", "a", 0, "q"), ("q", "a", 1, "q")], deterministic=True)
    out = weaken_02(a)
    assert len(out.states) == 3
    for t in sample_regular_tree(SamplerParams(seed=5, max_nodes=5,
                                               alphabet=("a",), count=10)):
        assert alt_accepts(out, t)


def test_weaken_02_rejects_wrong_band():
    a = trim(catalog.fin_b_left())  # ranks {0,1}: even below odd
    with pytest.raises(IndexTooHigh):
        weaken_02(a)


# -- weaken_13 -----------------------------------------------------------------


def test_weaken_13_fin_b_left_ten_states():
    a = trim(catalog.fin_b_left())
    out = weaken_13(a)
    assert len(out.states) == 3 * 3 + 1
    assert index_of(out) == IndexPair(1, 3)
    assert bounded_equiv(a, out, PARAMS) is None


def test_weaken_13_all_accepting_single_state():
    a = make_automaton(("a",), {"q": ("A", 0)}, "q",
                       [("q", "a", 0, "q"), ("q", "a", 1, "q")], deterministic=True)
    out = weaken_13(a)
    assert len(out.states) == 4


def test_weaken_13_precondition():
    a = trim(catalog.spine_fin_b())
    with pytest.raises(PreconditionViolated) as exc:
        weaken_13(a)
    assert exc.value.witness is not None


# -- weaken_14 -----------------------------------------------------------------


def test_weaken_14_catalog_budget_and_equivalence():
    for name in ("all_a", "ex_b_left", "inf_b_left", "fin_b_left"):
        a = trim(catalog.get(name))
        out, trace = weaken_14(a)
        n = len(a.states)
        succ = {q: sorted({t.target for t in a.transitions if t.source == q})
                for q in a.states}
        sccs, _, _ = condensation(sorted(a.states), succ)
        loopy = [c for c in sccs if len(c) > 1 or c[0] in succ[c[0]]]
        bound = 1 + sum(2 * len(x) ** 2 + 7 * n for x in loopy)
        assert len(out.states) <= bound, name
        assert trace.output_states == len(out.states)
        assert bounded_equiv(a, out, PARAMS) is None, name


def test_weaken_14_precondition():
    a = trim(catalog.split_min())
    with pytest.raises(PreconditionViolated):
        weaken_14(a)


# -- conjunction ----------------------------------------------------------------


def test_weaken_14_parts_are_emitted_in_table_order(monkeypatch):
    """Every table `weaken_14` builds, each B_X part and the conjunction,
    reaches the constructor already in order, so the constructor keeps it
    after one pass instead of sorting it."""
    emitted = []

    def recording(**fields):
        emitted.append(_in_order(tuple(fields["transitions"])))
        return TreeAutomaton(**fields)

    monkeypatch.setattr(transforms, "TreeAutomaton", recording)
    built = 0
    for a in criterion_5_stream(300):
        try:
            weaken_14(a)
        except PreconditionViolated:
            continue
        built += 1
    assert all(emitted) and len(emitted) - built > 300, (emitted.count(False), len(emitted))


def test_conjunction_single_automaton():
    a, _ = weaken(catalog.all_a())
    c = conjunction([a])
    assert len(c.states) == len(a.states) + 1
    for t in spot_trees(20):
        assert alt_accepts(c, t) == alt_accepts(a, t)


def test_conjunction_empty_list_is_universal():
    c = conjunction([], alphabet=("a", "b"))
    for t in spot_trees(10):
        assert alt_accepts(c, t)
    with pytest.raises(ValidationError, match="^empty conjunction needs an explicit alphabet$"):
        conjunction([])


def test_conjunction_intersects():
    a1, _ = weaken(catalog.ex_b_left())
    a2, _ = weaken(catalog.fin_b_left())
    c = conjunction([a1, a2])
    for t in spot_trees(40):
        assert alt_accepts(c, t) == (alt_accepts(a1, t) and alt_accepts(a2, t))


def test_conjunction_alphabet_mismatch():
    a = make_automaton(("a",), {"q": ("A", 0)}, "q",
                       [("q", "a", 0, "q"), ("q", "a", 1, "q")], acceptance="weak")
    b, _ = weaken(catalog.all_a())
    with pytest.raises(ValidationError):
        conjunction([a, b])


# -- full dispatch -----------------------------------------------------------------


def test_weaken_dispatch_catalog_routes():
    out, trace = weaken(catalog.all_a())
    assert len(out.states) == 2
    assert index_of(out) == IndexPair(0, 1)
    assert out.acceptance == "weak"

    with pytest.raises(NonWeaklyRecognizable):
        weaken(catalog.split_min())

    with pytest.raises(UnsupportedGapConstruction) as exc:
        weaken(catalog.spine_fin_b())
    assert tuple(exc.value.attainable_index) == (0, 3)


@pytest.mark.parametrize("rank, name, how", [(1, "reject_all", "empty_language"),
                                              (0, "accept_all", "universal_language")])
def test_weaken_level_zero_gives_one_state_weak_automata(rank, name, how):
    a = make_automaton(("a", "b"), {"q": ("A", rank)}, "q",
                       [("q", x, d, "q") for x in ("a", "b") for d in (0, 1)],
                       deterministic=True)
    out, trace = weaken(a)
    assert (trace.construction, trace.output_states, out.name) == (how, 1, name)
    assert out.acceptance == "weak" and index_of(out) == IndexPair(rank, rank)
    assert out.transitions == tuple(Transition(out.initial, x, d, out.initial)
                                    for x in ("a", "b") for d in (0, 1))
    if rank == 1:
        assert out == classify(a).weak_det[1]
    assert bounded_equiv(a, out, PARAMS) is None


def test_weaken_dispatch_random_equivalence():
    rng = SplitMix64(5005)
    params = SamplerParams(seed=42, max_nodes=8, alphabet=("a", "b"), count=120)
    done = 0
    while done < 25:
        a = random_trimmed(rng)
        try:
            out, trace = weaken(a)
        except (UnsupportedGapConstruction, NonWeaklyRecognizable):
            done += 1
            continue
        assert bounded_equiv(a, out, params) is None, a
        done += 1


def test_state_budget_exactness_random():
    rng = SplitMix64(6006)
    seen02 = seen13 = 0
    while seen02 < 20 or seen13 < 20:
        a = random_trimmed(rng)
        n = len(a.states)
        if seen02 < 20:
            try:
                out = weaken_02(a)
                assert len(out.states) == 2 * n + 1
                seen02 += 1
            except IndexTooHigh:
                pass
        if seen13 < 20:
            try:
                out = weaken_13(a)
                assert len(out.states) == 3 * n + 1
                seen13 += 1
            except (IndexTooHigh, PreconditionViolated):
                pass


# -- weaken's outputs, pinned -------------------------------------------------------

# sha256 of `_construction_text` over the catalog, criterion 5's stream and
# the four large inputs (weaken), and over the head of that stream (each
# construction, and restrict of its output), recorded before the
# constructions emitted their tables in final order and before weaken
# stopped building the witnesses it does not raise
WEAKEN_SHA256 = "6ff3ad7aadd7854d822593b172ec63133d4ff1e47b180910d31969eadfc0361d"
CONSTRUCTIONS_SHA256 = "c53605cf4db32018a5b549a7320a4b665393566cb6c193a16ab36261359a6124"


def _construction_text(build, a) -> str:
    try:
        out = build(a)
    except (IndexTooHigh, NonWeaklyRecognizable, PreconditionViolated,
            UnsupportedGapConstruction) as e:
        witness = getattr(e, "witness", None)
        return json.dumps([type(e).__name__, str(e), witness and witness.to_dict()]) + "\n"
    out, trace = out if isinstance(out, tuple) else (out, None)
    text = serialize_automaton(out)
    if trace is not None:
        text = trace.render() + text
    if build is not weaken:
        text += serialize_automaton(restrict(out))
    return text


def test_weaken_outputs_are_pinned():
    inputs = [catalog.get(name) for name in sorted(catalog.CATALOG)]
    digest = hashlib.sha256()
    for a in inputs + criterion_5_stream(2000) + large_inputs():
        digest.update(_construction_text(weaken, a).encode())
    assert digest.hexdigest() == WEAKEN_SHA256


def test_construction_outputs_are_pinned():
    digest = hashlib.sha256()
    for a in criterion_5_stream(300):
        for build in (weaken_02, weaken_13, weaken_14):
            digest.update(_construction_text(build, a).encode())
    assert digest.hexdigest() == CONSTRUCTIONS_SHA256
