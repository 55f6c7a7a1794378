"""Property tests with Hypothesis, derandomized so every run checks the
same examples."""

import contextlib
import io
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from weakindex.automata import DetAutomaton, State, Transition, TreeAutomaton  # noqa: E402
from weakindex.cli import main  # noqa: E402
from weakindex.errors import ValidationError  # noqa: E402
from weakindex.formats import (  # noqa: E402
    parse_automaton,
    parse_regular_tree,
    serialize_automaton,
    serialize_regular_tree,
)
from weakindex.trees import Node, RegularTree  # noqa: E402

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


# Lines of both file formats with their tokens drawn from small pools, so
# that some files parse and reach the commands' later stages.
TOKENS = ("a", "b", "p", "q", "n0", "n1", "0", "1", "2", "e", "A", "E", "-1", "x:y")
LINE_HEADS = ("alphabet", "start", "state", "trans", "acceptance parity", "acceptance weak",
              "deterministic", "name", "mode", "rank", "arity", "root", "node", "#")
LINES = st.builds(lambda head, toks: " ".join((head, *toks)), st.sampled_from(LINE_HEADS),
                  st.lists(st.sampled_from(TOKENS), max_size=6))


@st.composite
def tree_texts(draw):
    """Regular-tree files of arity 2, some with unreachable nodes."""
    k = draw(st.integers(min_value=1, max_value=3))
    child = st.integers(min_value=0, max_value=k - 1)
    nodes = [f"node n{i} {draw(st.sampled_from(LETTERS))} n{draw(child)} n{draw(child)}"
             for i in range(k)]
    return "\n".join(["arity 2", "root n0", *nodes])


FILE_BYTES = st.one_of(
    st.binary(max_size=200),
    st.lists(LINES, max_size=10).map("\n".join),
    automata().map(serialize_automaton),
    tree_texts()).map(lambda data: data if isinstance(data, bytes) else data.encode())
FILE_COMMANDS = (["classify", "--json", "{0}"], ["weaken", "{0}"], ["patterns", "{0}"],
                 ["dot", "{0}"], ["member", "{0}", "{1}"], ["compare", "{0}", "{1}", "--samples", "3"])


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(FILE_BYTES, FILE_BYTES)
def test_cli_exit_codes_hold_for_arbitrary_files(first, second):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("first", "second")]
        for path, data in zip(paths, (first, second)):
            with open(path, "wb") as f:
                f.write(data)
        for command in FILE_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([arg.format(*paths) for arg in command])
            assert 0 <= code <= 5, (command, code)
            assert "Traceback" not in out.getvalue() + err.getvalue(), command


TREE_FIELDS = st.one_of(st.text(max_size=4), st.sampled_from(("E:2", "a", "n0", "a b", "#")),
                        st.integers(), st.none())


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(TREE_FIELDS, TREE_FIELDS, TREE_FIELDS)
def test_every_tree_that_constructs_round_trips(root, label, other):
    """A tree with two nodes, whose ids and labels are drawn from any text,
    ints and None, either raises `ValidationError` or comes back equal
    from its serialized text."""
    try:
        t = RegularTree(2, {root: Node(label, (other, root)), other: Node("a", (root, other))},
                        root)
    except ValidationError:
        return
    assert parse_regular_tree(serialize_regular_tree(t)) == t
