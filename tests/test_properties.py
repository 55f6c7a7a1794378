"""Property tests with Hypothesis, derandomized so every run checks the
same examples."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from weakindex.automata import DetAutomaton, State, Transition, TreeAutomaton  # noqa: E402
from weakindex.formats import parse_automaton, serialize_automaton  # noqa: E402

IDS = ("q0", "q1", "q_2", "_", "_bot", "_top", "p", "é1", "S10")
LETTERS = ("a", "b", "c")
NAMES = st.text(alphabet="abxyz019_", max_size=6)


@st.composite
def automata(draw):
    """Deterministic automata (total tables, strong parity) and alternating
    ones (epsilon moves, duplicate moves, weak or parity acceptance)."""
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=5, unique=True))
    alphabet = tuple(draw(st.lists(st.sampled_from(LETTERS), min_size=1, unique=True)))
    ranks = st.integers(min_value=0, max_value=5)
    target = st.sampled_from(ids)
    name = draw(NAMES)
    if draw(st.booleans()):
        states = {q: State("A", draw(ranks)) for q in ids}
        ts = [Transition(q, x, d, draw(target)) for q in ids for x in alphabet for d in (0, 1)]
        return DetAutomaton(alphabet=alphabet, states=states, initial=ids[0],
                            transitions=tuple(ts), acceptance="parity", name=name)
    states = {q: State(draw(st.sampled_from("EA")), draw(ranks)) for q in ids}
    move = st.builds(Transition, st.sampled_from(ids), st.sampled_from(alphabet),
                     st.sampled_from((0, 1, None)), target)
    ts = draw(st.lists(move, max_size=12))
    ts += ts[: draw(st.integers(min_value=0, max_value=len(ts)))]
    return TreeAutomaton(alphabet=alphabet, states=states, initial=ids[0],
                         transitions=tuple(ts),
                         acceptance=draw(st.sampled_from(("parity", "weak"))), name=name)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(automata())
def test_serialize_parse_round_trip(a):
    text = serialize_automaton(a)
    b = parse_automaton(text)
    assert type(b) is type(a)
    for f in ("alphabet", "states", "initial", "transitions", "acceptance", "name"):
        assert getattr(b, f) == getattr(a, f), f
    assert serialize_automaton(b) == text
