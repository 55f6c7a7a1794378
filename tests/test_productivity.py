import hashlib
import tracemalloc

import pytest

from weakindex import catalog
from weakindex.automata import BOT, DetAutomaton, State, Transition, _table, make_automaton
from weakindex.classifier import classify
from weakindex.errors import EmptyLanguage, ValidationError
from weakindex.formats import serialize_automaton
from weakindex.games import check_strategy, solve_parity
from weakindex.productivity import (
    is_empty,
    is_trimmed,
    is_universal,
    nonempty_states,
    productive_states,
    trim,
)
from weakindex.rng import SplitMix64
from weakindex.semantics import SamplerParams, det_accepts, sample_regular_tree
from weakindex.trees import constant_tree

from conftest import emptiness_game, random_det


def one_state(rank):
    return make_automaton(
        ("a",), {"q": ("A", rank)}, "q",
        [("q", "a", 0, "q"), ("q", "a", 1, "q")], deterministic=True)


def test_all_a_nonempty_states():
    a = catalog.all_a()
    assert nonempty_states(a) == {"p"}


def test_all_odd_cycles_empty():
    a = make_automaton(
        ("a",), {"x": ("A", 1), "y": ("A", 3)}, "x",
        [("x", "a", 0, "y"), ("x", "a", 1, "y"),
         ("y", "a", 0, "x"), ("y", "a", 1, "x")], deterministic=True)
    assert nonempty_states(a) == set()
    assert is_empty(a)


def test_all_a_productivity_fixpoint():
    info = productive_states(catalog.all_a())
    assert set(info.productive) == {"p"}
    assert set(info.nonempty) == {"p"}


def test_empty_initial_gives_no_productive_states():
    a = one_state(1)
    info = productive_states(a)
    assert set(info.productive) == set()


def test_sibling_empty_blocks_descendants():
    # on letter a, q0 branches to (good, dead): the dead sibling makes the
    # transition unproductive, so `good` is reachable only through letter b
    a = make_automaton(
        ("a", "b"),
        {"q0": ("A", 0), "good": ("A", 0), "dead": ("A", 1), "only_b": ("A", 0)},
        "q0",
        [("q0", "a", 0, "good"), ("q0", "a", 1, "dead"),
         ("q0", "b", 0, "only_b"), ("q0", "b", 1, "only_b"),
         ("good", "a", 0, "good"), ("good", "a", 1, "good"),
         ("good", "b", 0, "good"), ("good", "b", 1, "good"),
         ("dead", "a", 0, "dead"), ("dead", "a", 1, "dead"),
         ("dead", "b", 0, "dead"), ("dead", "b", 1, "dead"),
         ("only_b", "a", 0, "only_b"), ("only_b", "a", 1, "only_b"),
         ("only_b", "b", 0, "only_b"), ("only_b", "b", 1, "only_b")],
        deterministic=True)
    info = productive_states(a)
    assert "dead" not in info.productive
    assert "good" not in info.productive  # reachable only beside the dead sibling
    assert "only_b" in info.productive


def test_trim_all_a_unchanged():
    a = catalog.all_a()
    t = trim(a)
    assert t.states == a.states
    assert set(t.transitions) == set(a.transitions)


def test_trim_merges_two_sinks():
    trans = [
        ("q", "a", 0, "q"), ("q", "a", 1, "q"),
        ("q", "b", 0, "s1"), ("q", "b", 1, "s2"),
    ]
    for s in ("s1", "s2"):
        for letter in ("a", "b"):
            trans += [(s, letter, 0, s), (s, letter, 1, s)]
    a = make_automaton(("a", "b"),
                       {"q": ("A", 0), "s1": ("A", 1), "s2": ("A", 3)},
                       "q", trans, deterministic=True)
    t = trim(a)
    assert set(t.states) == {"q", BOT}
    assert t.states[BOT].rank == 1
    assert t.pair("q", "b") == (BOT, BOT)


def test_trim_raises_on_empty_language():
    with pytest.raises(EmptyLanguage):
        trim(one_state(1))


def test_trim_idempotent_and_structural():
    rng = SplitMix64(808)
    done = 0
    while done < 120:
        a = random_det(rng)
        try:
            t = trim(a)
        except EmptyLanguage:
            continue
        done += 1
        assert is_trimmed(t)
        t2 = trim(t)
        assert t2.states == t.states
        assert set(t2.transitions) == set(t.transitions)


def test_trim_preserves_language_on_samples():
    rng = SplitMix64(909)
    params = SamplerParams(seed=3, max_nodes=6, alphabet=("a", "b"), count=25)
    trees = sample_regular_tree(params)
    done = 0
    while done < 40:
        a = random_det(rng, max_states=6)
        try:
            t = trim(a)
        except EmptyLanguage:
            continue
        done += 1
        for tree in trees:
            assert det_accepts(a, tree) == det_accepts(t, tree)


def test_is_empty_is_universal_trivia():
    assert is_universal(one_state(0))
    assert not is_empty(one_state(0))
    assert is_empty(one_state(1))
    a = catalog.all_a()
    assert not is_empty(a)
    assert not is_universal(a)
    # membership spot-check backing the "neither" verdict
    assert det_accepts(a, constant_tree("a"))
    assert not det_accepts(a, constant_tree("b"))


def test_nonempty_matches_emptiness_game():
    # the int arena's position layout depends on |Sigma|, so vary it; the
    # string-keyed `emptiness_game` under `solve_parity` is the reference,
    # and since `solve_parity` runs the frames trim does, `check_strategy`
    # certifies its regions apart from them
    rng = SplitMix64(5150)
    for letters in (("a",), ("a", "b"), ("a", "b", "c")):
        for max_states in (5, 12):
            for _ in range(40):
                a = random_det(rng, max_states, letters)
                g = emptiness_game(a)
                sol = solve_parity(g)
                assert check_strategy(g, sol), a
                ne = nonempty_states(a)
                for q in a.states:
                    assert (sol.winner[f"s:{q}"] == "E") == (q in ne), (a, q)


C9_RANKS = (0, 0, 0, 0, 1, 1, 2, 2, 2, 3)  # criterion 9's scale generator
RANK_STYLES = ((0, 1, 2, 3), (1, 2), (0, 1), (0, 1, 2), (2, 3), (0,), (1, 2, 3))
# sha256 of the serialized trims of `_trim_inputs`, recorded before trim
# was rebuilt on the emptiness arena's int positions
TRIMS_SHA256 = "d25494ea16c805b38914605a87384a87d8f999e31fcfc670bf5a3d789ef1f3b6"


def _det(rng, n, ranks):
    names = [f"q{i}" for i in range(n)]
    states = {q: State("A", ranks[rng.below(len(ranks))]) for q in names}
    trans = [Transition(q, x, d, names[rng.below(n)]) for q in names for x in "ab" for d in (0, 1)]
    return DetAutomaton(alphabet=("a", "b"), states=states, initial="q0",
                        transitions=tuple(trans))


def _trim_inputs():
    """(input, trimmed) pairs: the two cli_large input shapes, and the
    criterion-5 stream of small automata over mixed rank bands."""
    draws = [(SplitMix64(61), lambda rng: _det(rng, 1000, C9_RANKS), 2),
             (SplitMix64(62), lambda rng: _det(rng, 2000, (1, 2)), 2),
             (SplitMix64(9090), lambda rng: random_det(
                 rng, 5, rank_weights=RANK_STYLES[rng.below(len(RANK_STYLES))]), 300)]
    for rng, draw, count in draws:
        while count:
            a = draw(rng)
            try:
                t = trim(a)
            except EmptyLanguage:
                continue
            count -= 1
            yield a, t


def test_trim_equals_the_validating_constructor():
    digest = hashlib.sha256()
    for a, t in _trim_inputs():
        ref = DetAutomaton(alphabet=t.alphabet, states=dict(t.states), initial=t.initial,
                           transitions=t.transitions, name=t.name)
        assert t == ref
        assert t.transitions == ref.transitions and t.states == ref.states
        assert list(t.states) == sorted(t.states)
        assert t._memo == {} and is_trimmed(t)
        digest.update(serialize_automaton(t).encode())
    assert digest.hexdigest() == TRIMS_SHA256


def test_productivity_keeps_no_table_on_its_input():
    # trim numbers its input only to build the trimmed automaton; a table
    # kept already is read, not built again
    rng = SplitMix64(5151)
    for _ in range(40):
        a = random_det(rng, 8)
        before = nonempty_states(a), productive_states(a), is_empty(a)
        try:
            trim(a)
        except EmptyLanguage:
            pass
        assert a._memo == {}
        table = _table(a)
        assert _table(a, keep=False) is table
        assert (nonempty_states(a), productive_states(a), is_empty(a)) == before


def test_classify_keeps_little_memory():
    # the seed-1 criterion-9 input of the benchmark's cli_large workload
    # (stream 1*64 + 1): 1000 states, 978 after trim.  An automaton holds
    # its moves once, in `transitions`; a string-keyed copy of them per
    # automaton made one classify keep about 1.3 MB here
    rng = SplitMix64(65)
    while True:
        a = _det(rng, 1000, C9_RANKS)
        if not is_empty(a):
            break
    tracemalloc.start()
    try:
        report = classify(a)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(report.trimmed.states) == 978
    assert kept < 1_000_000


def test_trim_refuses_a_productive_bot():
    a = make_automaton(("a",), {BOT: ("A", 0)}, BOT,
                       [(BOT, "a", 0, BOT), (BOT, "a", 1, BOT)], deterministic=True)
    with pytest.raises(ValidationError, match="reserved"):
        trim(a)


def test_trim_of_a_trimmed_automaton_keeps_an_empty_bot():
    # `_bot` is an input state here, merged into the new sink
    t = trim(catalog.all_a())
    assert BOT in t.states
    t2 = trim(t)
    assert serialize_automaton(t2) == serialize_automaton(t)
