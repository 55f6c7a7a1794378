import pytest

from weakindex.automata import (
    DetAutomaton,
    IndexPair,
    State,
    Transition,
    TreeAutomaton,
    _table,
    dual_index,
    index_leq,
    index_of,
    make_automaton,
    normalize_ranks,
    transition_sort_key,
)
from weakindex.classifier import det_index, relabel_to
from weakindex.errors import FormatError, ValidationError
from weakindex.formats import parse_automaton, serialize_automaton
from weakindex.productivity import trim
from weakindex import catalog
from weakindex.rng import SplitMix64
from weakindex.semantics import SamplerParams
from weakindex.trees import Node, RegularTree

from conftest import random_det, random_trimmed, random_weak


ONE_STATE = """
alphabet a
start q
state q mode A rank 0
trans q a 0 q
trans q a 1 q
acceptance parity
deterministic
"""


def test_parse_one_state_identity_case():
    a = parse_automaton(ONE_STATE)
    assert isinstance(a, DetAutomaton)
    assert a.initial == "q"
    assert len(a.states) == 1
    assert a.pair("q", "a") == ("q", "q")


def test_parse_all_a_catalog_text():
    text = serialize_automaton(catalog.all_a())
    a = parse_automaton(text)
    assert isinstance(a, DetAutomaton)
    assert len(a.states) == 2
    assert a.pair("p", "b") == ("_bot", "_bot")


def test_parse_missing_start_is_an_error():
    with pytest.raises(FormatError, match="start"):
        parse_automaton("alphabet a\nstate q mode A rank 0\nacceptance parity\n")


def test_parse_reports_line_numbers():
    bad = "alphabet a\nstart q\nstate q mode A rank x\nacceptance parity\n"
    with pytest.raises(FormatError, match="line 3"):
        parse_automaton(bad)


def test_parse_unknown_state_is_semantic_error():
    bad = ONE_STATE.replace("trans q a 0 q", "trans q a 0 zz")
    with pytest.raises(FormatError, match="zz"):
        parse_automaton(bad)


def test_parse_non_total_deterministic_table():
    bad = "\n".join(ln for ln in ONE_STATE.splitlines() if "a 1" not in ln)
    with pytest.raises(FormatError, match="total"):
        parse_automaton(bad)


def test_serialize_round_trip_catalog():
    for name in catalog.CATALOG:
        a = catalog.get(name)
        b = parse_automaton(serialize_automaton(a))
        assert b.states == a.states
        assert set(b.transitions) == set(a.transitions)
        assert b.initial == a.initial
        assert isinstance(b, DetAutomaton)


def test_serialize_sorts_transitions():
    a = catalog.all_a()
    text = serialize_automaton(a)
    lines = [l for l in text.splitlines() if l.startswith("trans")]
    assert lines == sorted(lines)


def test_zero_transition_automaton_serializes():
    a = TreeAutomaton(alphabet=("a",), states={"q": State("E", 1)}, initial="q",
                      transitions=(), acceptance="parity")
    b = parse_automaton(serialize_automaton(a))
    assert b.transitions == ()


def test_round_trip_random_automata():
    rng = SplitMix64(11)
    for _ in range(60):
        a = random_det(rng)
        b = parse_automaton(serialize_automaton(a))
        assert b.states == a.states and set(b.transitions) == set(a.transitions)
    for _ in range(60):
        a = random_weak(rng)
        b = parse_automaton(serialize_automaton(a))
        assert b.states == a.states and set(b.transitions) == set(a.transitions)
        assert b.acceptance == "weak"


def _with_ranks(ranks):
    states = {f"q{i}": ("A", r) for i, r in enumerate(ranks)}
    trans = []
    names = list(states)
    for q in names:
        for d in (0, 1):
            trans.append((q, "a", d, names[0]))
    return make_automaton(("a",), states, "q0", trans)


def test_index_of_examples():
    assert index_of(_with_ranks([1, 2])) == IndexPair(1, 2)
    assert index_of(_with_ranks([2, 3])) == IndexPair(0, 1)
    assert index_of(_with_ranks([0, 1, 2])) == IndexPair(0, 2)


def test_index_of_invariant_under_even_shift():
    rng = SplitMix64(5)
    for _ in range(40):
        a = random_det(rng)
        shifted = a.with_states({q: State(st.mode, st.rank + 2)
                                 for q, st in a.states.items()})
        assert index_of(a) == index_of(shifted)


def test_dual_index_paper_values():
    assert dual_index(IndexPair(0, 2)) == IndexPair(1, 3)
    assert dual_index(IndexPair(1, 3)) == IndexPair(0, 2)
    assert dual_index(IndexPair(0, 0)) == IndexPair(1, 1)


def test_dual_is_involution_and_incomparable():
    for iota in (0, 1):
        for kappa in range(iota, 6):
            i = IndexPair(iota, kappa)
            assert dual_index(dual_index(i)) == i
            assert index_leq(i, dual_index(i)) == "incomparable"


def test_index_leq_examples():
    assert index_leq(IndexPair(0, 1), IndexPair(1, 2)) == "incomparable"
    assert index_leq(IndexPair(0, 0), IndexPair(0, 1)) == "less"
    assert index_leq(IndexPair(1, 2), IndexPair(1, 2)) == "equal"
    assert index_leq(IndexPair(0, 3), IndexPair(0, 1)) == "greater"


def test_index_pair_one_zero_not_constructible():
    with pytest.raises(ValidationError):
        IndexPair(1, 0)
    with pytest.raises(ValidationError, match="^index iota must be 0 or 1, got 2$"):
        IndexPair(2, 3)


def test_validation_unknown_initial():
    with pytest.raises(ValidationError):
        TreeAutomaton(alphabet=("a",), states={"q": State("A", 0)}, initial="zz",
                      transitions=(), acceptance="parity")


def test_validation_rejects_epsilon_in_deterministic():
    with pytest.raises(ValidationError):
        DetAutomaton(alphabet=("a",), states={"q": State("A", 0)}, initial="q",
                     transitions=(
                         __import__("weakindex.automata", fromlist=["Transition"])
                         .Transition("q", "a", None, "q"),),
                     acceptance="parity")


# -- construction checks -----------------------------------------------------------


def _old_totality_error(states, alphabet, transitions):
    """The key-by-key scan of a deterministic table: first failing state in
    declaration order, universality before its missing keys."""
    keys = {(t.source, t.letter, t.direction) for t in transitions}
    for sid, st in states.items():
        if st.mode != "A":
            return f"state {sid}: deterministic automata are all-universal"
        for x in sorted(set(alphabet)):
            for d in (0, 1):
                if (sid, x, d) not in keys:
                    return f"missing transition ({sid},{x},{d}): table not total"
    return None


def test_constructor_order_is_transition_sort_key():
    rng = SplitMix64(41)
    for i in range(150):
        if i % 3 == 0:
            a = random_det(rng)
        else:
            a = random_weak(rng)
            if i % 3 == 2:  # alternating parity automaton with the same moves
                a = TreeAutomaton(alphabet=a.alphabet, states=a.states, initial=a.initial,
                                  transitions=a.transitions, acceptance="parity")
        ts = a.transitions[::-1] + a.transitions[: rng.below(len(a.transitions) + 1)]
        if i % 3 != 0:
            ts += tuple(Transition(t.source, t.letter, None, t.target) for t in ts[:2])
        b = type(a)(alphabet=a.alphabet, states=a.states, initial=a.initial,
                    transitions=ts, acceptance=a.acceptance)
        assert b.transitions == tuple(sorted(set(ts), key=transition_sort_key))


@pytest.mark.parametrize("sid", ["q_1", "_", "_bot", "é1"])
def test_state_id_accepted(sid):
    a = TreeAutomaton(alphabet=("a",), states={sid: State("A", 0)}, initial=sid,
                      transitions=(Transition(sid, "a", 0, sid),))
    assert a.rank(sid) == 0


@pytest.mark.parametrize("sid", ["", "q-1", "q 1", "q.1"])
def test_state_id_rejected(sid):
    with pytest.raises(ValidationError, match="bad state id"):
        TreeAutomaton(alphabet=("a",), states={"q": State("A", 0), sid: State("A", 0)},
                      initial="q", transitions=())


P = Transition("p", "a", 0, "p"), Transition("p", "a", 1, "p")
AUTOMATON_FIELDS = {"alphabet": ("a",), "states": {"p": State("A", 0)}, "initial": "p",
                    "transitions": P}
CONSTRUCTOR_FIELDS = {
    RegularTree: {"arity": 2, "nodes": {"n": Node("a", ("n", "n"))}, "root": "n"},
    SamplerParams: {"seed": 1, "max_nodes": 3, "alphabet": ("a",), "count": 1},
}
TOKEN = "a non-empty string free of whitespace and '#'"


@pytest.mark.parametrize("kind, fields, message", [
    (TreeAutomaton, {"alphabet": ()}, "empty alphabet"),
    (TreeAutomaton, {"states": {}}, "automaton has no states"),
    (TreeAutomaton, {"acceptance": "buchi"}, "unknown acceptance 'buchi'"),
    (TreeAutomaton, {"transitions": (Transition("p", "a", 2, "p"),)}, "bad direction 2"),
    # a field of a type that does not sort or compare is named, not a TypeError
    (TreeAutomaton, {"transitions": (Transition("p", 1, 0, "p"), Transition("p", "a", 0, "p"))},
     "transition on unknown letter 1"),
    (TreeAutomaton, {"transitions": (Transition("p", "a", 0, 3), Transition("p", "a", 0, "p"))},
     "transition to unknown state 3"),
    (TreeAutomaton, {"transitions": (Transition("p", "a", "0", "p"), Transition("p", "a", 1, "p"))},
     "bad direction '0'"),
    (DetAutomaton, {"states": {"p": State("A", 0), 3: State("A", 0)},
                    "transitions": P + (Transition(3, "a", 0, "p"), Transition(3, "a", 1, "p"))},
     "bad state id 3"),
    (TreeAutomaton, {"states": {"p": State("A", 0), 3: State("A", 0)}}, "bad state id 3"),
    (TreeAutomaton, {"states": {"p": State("A", "0")}}, "state p: rank '0' is not an integer"),
    (DetAutomaton, {"states": {"p": State("A", "0")}}, "state p: rank '0' is not an integer"),
    # letters that do not sort together, and a rank the fast pass would order
    (TreeAutomaton, {"alphabet": ("a", 1)}, "alphabet letter 1 is not a string"),
    (TreeAutomaton, {"states": {"p": State("A", 1.5)}}, "state p: rank 1.5 is not an integer"),
    (DetAutomaton, {"states": {"p": State("A", 1.5)}}, "state p: rank 1.5 is not an integer"),
    # letters that sort together but are not strings
    (TreeAutomaton, {"alphabet": (1, 2)}, "alphabet letter 1 is not a string"),
    # letters that would not survive a round trip through the text format
    (TreeAutomaton, {"alphabet": ("a", "a b")}, f"alphabet letter 'a b' is not {TOKEN}"),
    (TreeAutomaton, {"alphabet": ("a", "")}, f"alphabet letter '' is not {TOKEN}"),
    (TreeAutomaton, {"alphabet": ("a", "b#")}, f"alphabet letter 'b#' is not {TOKEN}"),
    # tree node ids and labels, and sampler letters, are tokens of the text formats
    (RegularTree, {"nodes": {"n": Node("a b", ("n", "n"))}},
     f"node 'n': label 'a b' is not {TOKEN}"),
    (RegularTree, {"nodes": {"n": Node("", ("n", "n"))}}, f"node 'n': label '' is not {TOKEN}"),
    (RegularTree, {"nodes": {"n": Node("a#", ("n", "n"))}}, f"node 'n': label 'a#' is not {TOKEN}"),
    (RegularTree, {"nodes": {"n": Node(3, ("n", "n"))}}, f"node 'n': label 3 is not {TOKEN}"),
    (RegularTree, {"nodes": {1: Node("a", (1, 1))}, "root": 1}, f"node id 1 is not {TOKEN}"),
    (RegularTree, {"nodes": {"n\tm": Node("a", ("n\tm", "n\tm"))}, "root": "n\tm"},
     f"node id 'n\\tm' is not {TOKEN}"),
    (SamplerParams, {"alphabet": ("a", 1)}, f"alphabet letter 1 is not {TOKEN}"),
    (SamplerParams, {"alphabet": ("a", "b c")}, f"alphabet letter 'b c' is not {TOKEN}"),
    (SamplerParams, {"alphabet": ("#",)}, f"alphabet letter '#' is not {TOKEN}"),
    # a bool is an int to isinstance, but the text format has no rank True
    (TreeAutomaton, {"states": {"p": State("A", True)}}, "state p: rank True is not an integer"),
    (DetAutomaton, {"states": {"p": State("A", True)}}, "state p: rank True is not an integer"),
])
def test_constructor_names_the_bad_field(kind, fields, message):
    args = {**CONSTRUCTOR_FIELDS.get(kind, AUTOMATON_FIELDS), **fields}
    with pytest.raises(ValidationError) as err:
        kind(**args)
    assert str(err.value) == message


def test_integer_ranks_round_trip_and_bools_are_refused():
    """Every automaton that constructs serializes to text that parses back
    to it; a rank True used to construct and then fail to parse."""
    moves = [("p", "a", 0, "p"), ("p", "a", 1, "p")]
    for rank in (0, 1, 7):
        a = make_automaton(("a",), {"p": ("A", rank)}, "p", moves, deterministic=True)
        assert parse_automaton(serialize_automaton(a)) == a
    for rank in (True, False):
        with pytest.raises(ValidationError, match=f"^state p: rank {rank} is not an integer$"):
            make_automaton(("a",), {"p": ("A", rank)}, "p", moves, deterministic=True)


def test_non_total_table_names_first_missing_key():
    rng = SplitMix64(43)
    checked = 0
    for _ in range(300):
        a = random_det(rng)
        states = dict(a.states)
        if rng.below(3) == 0:
            q = f"q{rng.below(len(states))}"
            states[q] = State("E", states[q].rank)
        ts = [t for t in a.transitions if rng.below(6)]
        expected = _old_totality_error(states, a.alphabet, ts)
        if expected is None:
            continue
        checked += 1
        with pytest.raises(ValidationError) as info:
            DetAutomaton(alphabet=a.alphabet, states=states, initial=a.initial,
                         transitions=tuple(ts))
        assert str(info.value) == expected
    assert checked > 200


# -- with_states: relabelings share the parent's transitions -----------------------


def _relabelings():
    rng = SplitMix64(47)
    parents = [catalog.get(name) for name in catalog.CATALOG]
    parents += [random_trimmed(rng, max_states=6) for _ in range(40)]
    for a in parents:
        yield a, det_index(a)[1]
        for target in (IndexPair(0, 3), IndexPair(1, 4)):
            yield a, relabel_to(a, target)
        lifted = a.with_states({q: State(st.mode, st.rank + 4) for q, st in a.states.items()})
        yield lifted, normalize_ranks(lifted)


def test_with_states_shares_tables_and_equals_a_fresh_automaton():
    for parent, b in _relabelings():
        assert b.transitions is parent.transitions
        assert b._memo == {} and b._memo is not parent._memo
        fresh = DetAutomaton(alphabet=b.alphabet, states=b.states, initial=b.initial,
                             transitions=b.transitions, acceptance=b.acceptance, name=b.name)
        assert type(b) is type(fresh)
        for f in ("alphabet", "states", "initial", "transitions", "acceptance", "name"):
            assert getattr(b, f) == getattr(fresh, f), f
        for q in b.states:
            for x in b.alphabet:
                assert b.moves(q, x) == fresh.moves(q, x)
                for d in (0, 1):
                    assert b.step(q, x, d) == fresh.step(q, x, d)


def test_with_states_of_an_alternating_automaton_shares_moves():
    rng = SplitMix64(53)
    for _ in range(40):
        a = random_weak(rng)
        b = a.with_states({q: State(st.mode, st.rank + 2) for q, st in a.states.items()})
        assert type(b) is TreeAutomaton and b.transitions is a.transitions
        assert b == TreeAutomaton(alphabet=a.alphabet, states=b.states, initial=a.initial,
                                  transitions=a.transitions, acceptance=a.acceptance)


BAD_STATE_TABLES = {
    "negative_rank": (lambda s, q: {**s, q: State("A", -1)}, "negative rank"),
    "bad_mode": (lambda s, q: {**s, q: State("X", 0)}, "bad mode"),
    "existential": (lambda s, q: {**s, q: State("E", 0)}, "all-universal"),
    "bad_id": (lambda s, q: {("q-1" if p == q else p): st for p, st in s.items()},
               "bad state id"),
    "missing_id": (lambda s, q: {p: st for p, st in s.items() if p != q}, "state ids"),
    "extra_id": (lambda s, q: {**s, "extra": State("A", 0)}, "state ids"),
}


@pytest.mark.parametrize("case", sorted(BAD_STATE_TABLES))
def test_with_states_validates_the_new_state_table(case):
    change, match = BAD_STATE_TABLES[case]
    rng = SplitMix64(59)
    automata = [catalog.get(name) for name in catalog.CATALOG]
    automata += [random_trimmed(rng) for _ in range(20)]
    for a in automata:
        with pytest.raises(ValidationError, match=match):
            a.with_states(change(a.states, a.initial))


# -- the one numbering ---------------------------------------------------------------


def _numbering_inputs():
    rng = SplitMix64(61)
    for name in sorted(catalog.CATALOG):
        yield catalog.get(name)
        yield trim(catalog.get(name))
    for letters in (("a",), ("a", "b"), ("a", "b", "c")):
        for max_states in (3, 9):
            for _ in range(30):
                a = random_det(rng, max_states, letters)
                yield a
                yield a.with_states({q: State("A", st.rank + 1) for q, st in a.states.items()})
    for _ in range(60):
        yield random_weak(rng)
    # epsilon moves and moves listed twice
    yield make_automaton(
        ("a", "b"), {"x": ("E", 0), "y": ("A", 1), "z": ("E", 2)}, "y",
        [("y", "a", None, "x"), ("y", "a", None, "x"), ("x", "a", 0, "z"),
         ("x", "b", None, "x"), ("z", "a", 1, "y"), ("z", "a", 1, "y"), ("z", "b", 0, "x")],
        acceptance="weak")


def test_table_is_the_sorted_numbering_of_states_and_transitions():
    count = 0
    for a in _numbering_inputs():
        ids = sorted(a.states)
        table = _table(a)
        assert table is _table(a)
        assert table.ids == ids
        assert table.index == {q: ids.index(q) for q in a.states}
        assert table.rank == [a.rank(q) for q in ids]
        assert table.owner == [int(a.mode(q) == "A") for q in ids]
        assert table.target == [ids.index(t.target) for t in a.transitions]
        # the sorted `transitions` are the only copy of the moves
        assert set(vars(a)) == {"alphabet", "states", "initial", "transitions",
                                "acceptance", "name", "_memo"}
        for q in ids:
            for letter in a.alphabet:
                assert a.moves(q, letter) == [(t.direction, t.target) for t in a.transitions
                                              if (t.source, t.letter) == (q, letter)]
        if isinstance(a, DetAutomaton):
            # the 2|Sigma|-block layout that trim, pattern search and step read
            delta = {(t.source, t.letter, t.direction): t.target for t in a.transitions}
            k = len(a.alphabet)
            for i, q in enumerate(ids):
                for x, letter in enumerate(a.alphabet):
                    for d in (0, 1):
                        assert table.target[2 * k * i + 2 * x + d] == \
                            table.index[delta[(q, letter, d)]]
                        assert a.step(q, letter, d) == delta[(q, letter, d)]
        count += 1
    assert count == 12 + 360 + 61
