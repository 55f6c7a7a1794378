import pytest

from weakindex import catalog
from weakindex.errors import FormatError, ValidationError
from weakindex.formats import (
    automaton_to_dot,
    parse_automaton,
    parse_regular_tree,
    serialize_automaton,
    serialize_regular_tree,
    to_dot,
    tree_to_dot,
)
from weakindex.trees import Node, RegularTree, parse_wlabel


def test_regular_tree_round_trip():
    text = "arity 2\nroot n\nnode n a n n\n"
    t = parse_regular_tree(text)
    assert t.label("n") == "a"
    assert serialize_regular_tree(t) == text
    t2 = parse_regular_tree(serialize_regular_tree(t))
    assert t2.nodes == t.nodes


def test_regular_tree_dangling_id():
    with pytest.raises(FormatError, match="zz"):
        parse_regular_tree("arity 2\nroot n\nnode n a n zz\n")


def test_regular_tree_arity_mismatch():
    with pytest.raises(FormatError, match="child ids"):
        parse_regular_tree("arity 3\nroot n\nnode n a n n\n")
    with pytest.raises(ValidationError, match="^node 'n' has 2 children, expected 3$"):
        RegularTree(3, {"n": Node("a", ("n", "n"))}, "n")


def test_regular_tree_unreachable_nodes_rejected():
    with pytest.raises(FormatError, match="nreachable"):
        parse_regular_tree("arity 2\nroot n\nnode n a n n\nnode m b m m\n")


@pytest.mark.parametrize("text, message, line", [
    ("arity 2\nroot n0\nroot n1\nnode n0 a n0 n0\nnode n1 a n1 n1\n",
     "directive 'root' given twice", 3),
    ("arity 2\nroot n\nnode n a n n\narity 2\n", "directive 'arity' given twice", 4),
    ("arity 2\nroot n\nnode n a n n\narity x\n", "bad arity 'x'", 4),  # a malformed repeat
    # other malformed files; the constructor's errors carry no line
    ("arity 2\nroot\nnode n a n n\n", "expected: root <id>", 2),
    ("root n\nnode n a n n\narity 2\n", "arity must be declared before nodes", 2),
    ("arity 2\nroot n\nnode n a n n\nnode n b n n\n", "node 'n' declared twice", 4),
    ("arity 2\nnode n a n n\n", "missing section: root", None),
    ("arity 2\nroot n\n", "missing section: node declarations", None),
    ("arity 1\nroot n\nnode n a n\n", "arity must be >= 2, got 1", None),
    ("arity 2\nroot m\nnode n a n n\n", "root 'm' not declared", None),
])
def test_regular_tree_header_given_twice(text, message, line):
    with pytest.raises(FormatError) as exc:
        parse_regular_tree(text)
    assert exc.value.line == line
    assert str(exc.value) == (message if line is None else f"line {line}: {message}")


def test_three_ary_w_tree_parses():
    t = parse_regular_tree("""
arity 3
root r
node r E:0 r x x
node x A:2 x x r
""")
    lab = parse_wlabel(t.label("x"))
    assert lab.owner == "A" and lab.rank == 2


def test_wlabel_validation():
    with pytest.raises(ValidationError):
        parse_wlabel("plain")
    with pytest.raises(ValidationError):
        parse_wlabel("X:1")
    with pytest.raises(ValidationError, match="^not an owner:rank label: 'E:x'$"):
        parse_wlabel("E:x")
    with pytest.raises(ValidationError, match="^negative rank in label 'A:-1'$"):
        parse_wlabel("A:-1")


def test_dot_two_node_digraph():
    dot = automaton_to_dot(catalog.all_a())
    assert dot.count("shape=box") == 2
    assert '"p" [shape=box label="p:0" peripheries=2];' in dot


def test_dot_epsilon_edges_dashed():
    from weakindex.transforms import weaken
    w, _ = weaken(catalog.inf_b_left())  # the (0,2) construction uses eps moves
    dot = automaton_to_dot(w)
    assert "style=dashed" in dot


def test_dot_regular_tree():
    t = parse_regular_tree("arity 2\nroot n\nnode n a n m\nnode m b m m\n")
    dot = tree_to_dot(t)
    assert '"n" -> "m" [label="1"];' in dot
    assert to_dot(t) == dot


def test_dot_output_is_deterministic():
    a = catalog.spine_fin_b()
    assert automaton_to_dot(a) == automaton_to_dot(parse_automaton(serialize_automaton(a)))


def test_to_dot_rejects_other_types():
    with pytest.raises(TypeError):
        to_dot(42)


# -- automaton parse errors ---------------------------------------------------------

# a valid file with a comment, blank lines and a trailing comment; each row
# below replaces one line of it (or appends one) and pins the error
HEADER = ["# a one-state automaton", "", "name one", "alphabet a  # letters",
          "start q", "   ", "state q mode A rank 0"]
BODY = ["trans q a 0 q", "trans q a 1 q#no space before the comment", "acceptance parity",
        "deterministic"]


def _text(lines, newline="\n"):
    return newline.join(lines) + newline


@pytest.mark.parametrize("change, message, line", [
    ({3: "alphabet"}, "alphabet needs at least one symbol", 4),
    ({3: "alphabet # a"}, "alphabet needs at least one symbol", 4),
    ({4: "start"}, "start needs exactly one state id", 5),
    ({4: "start q r"}, "start needs exactly one state id", 5),
    ({6: "state q mode A"}, "expected: state <id> mode <E|A> rank <n>", 7),
    ({6: "state q mode A rank 0 x"}, "expected: state <id> mode <E|A> rank <n>", 7),
    ({6: "state q kind A rank 0"}, "expected: state <id> mode <E|A> rank <n>", 7),
    ({6: "state q mode A level 0"}, "expected: state <id> mode <E|A> rank <n>", 7),
    ({6: "state q mode X rank 0"}, "bad mode 'X'", 7),
    ({6: "state q mode A rank x"}, "rank missing or not a number: 'x'", 7),
    ({7: "state q mode E rank 1"}, "state 'q' declared twice", 8),
    ({7: "trans q a 0"}, "expected: trans <src> <letter> <0|1|e> <tgt>", 8),
    ({7: "trans q a 0 q q"}, "expected: trans <src> <letter> <0|1|e> <tgt>", 8),
    ({7: "trans q a 2 q"}, "bad direction '2' (expected 0, 1 or e)", 8),
    ({7: "trans q a E q"}, "bad direction 'E' (expected 0, 1 or e)", 8),
    ({9: "acceptance"}, "expected: acceptance <parity|weak>", 10),
    ({9: "acceptance buchi"}, "expected: acceptance <parity|weak>", 10),
    ({9: "acceptance weak parity"}, "expected: acceptance <parity|weak>", 10),
    ({10: "Deterministic"}, "unknown directive 'Deterministic'", 11),
    ({2: "name"}, "name takes exactly one token", 3),
    ({2: "name two words"}, "name takes exactly one token", 3),
    ({3: "# alphabet a"}, "missing section: alphabet", None),
    ({4: ""}, "missing section: start", None),
    ({6: "#"}, "missing section: state declarations", None),
    ({9: " "}, "missing section: acceptance", None),
    # the constructor's errors carry no line
    ({4: "start r"}, "initial state 'r' not declared", None),
    ({7: "trans q b 0 q"}, "transition on unknown letter 'b'", None),
    ({8: "trans q a 1 r"}, "transition to unknown state 'r'", None),
    ({7: "trans q a e q"}, "epsilon transition Transition(source='q', letter='a', "
                           "direction=None, target='q') in deterministic automaton", None),
    ({1: "state r mode A rank 0", 8: "trans q a 0 r"},
     "duplicate transition for ('q', 'a', 0)", None),
    ({8: "trans q a 0 q"}, "missing transition (q,a,1): table not total", None),  # deduplicated
    ({8: "# trans q a 1 q"}, "missing transition (q,a,1): table not total", None),
    # a header line given twice is refused at its second occurrence
    ({5: "alphabet b"}, "directive 'alphabet' given twice", 6),
    ({5: "alphabet a"}, "directive 'alphabet' given twice", 6),
    ({5: "start q"}, "directive 'start' given twice", 6),
    ({10: "acceptance weak"}, "directive 'acceptance' given twice", 11),
    ({9: "deterministic"}, "directive 'deterministic' given twice", 11),
    ({1: "name two"}, "directive 'name' given twice", 3),
    ({10: "name one"}, "directive 'name' given twice", 11),
    ({5: "alphabet"}, "alphabet needs at least one symbol", 6),  # a malformed repeat
    ({10: "deterministic yes please"}, "deterministic takes no tokens", 11),
    ({8: "trans r a 1 q"}, "transition from unknown state 'r'", None),
    ({9: "acceptance weak"}, "deterministic automata use strong parity acceptance", None),
])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_parse_automaton_errors(change, message, line, newline):
    lines = HEADER + BODY
    for k, text in change.items():
        lines[k] = text
    with pytest.raises(FormatError) as exc:
        parse_automaton(_text(lines, newline))
    assert exc.value.line == line
    assert str(exc.value) == (message if line is None else f"line {line}: {message}")


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_parse_automaton_skips_comments_and_blank_lines(newline):
    a = parse_automaton(_text(HEADER + BODY, newline))
    assert a.name == "one" and a.alphabet == ("a",) and a.initial == "q"
    assert [t[:] for t in a.transitions] == [("q", "a", 0, "q"), ("q", "a", 1, "q")]
    # the first error in file order wins, after comments and blank lines
    lines = HEADER + ["trans q a x q", "bogus"] + BODY
    with pytest.raises(FormatError, match="^line 8: bad direction 'x'"):
        parse_automaton(_text(lines, newline))


@pytest.mark.parametrize("name", ["", "one", "all_a_weak02", "a-b.c", "ünï"])
def test_automaton_names_round_trip(name):
    a = catalog.all_a()
    a = type(a)(alphabet=a.alphabet, states=a.states, initial=a.initial,
                transitions=a.transitions, name=name)
    assert parse_automaton(serialize_automaton(a)).name == name


@pytest.mark.parametrize("name", ["two words", "x#y", " lead", "tab\there", "line\nbreak",
                                  "#"])
def test_automaton_names_with_whitespace_or_hash_are_refused(name):
    a = catalog.all_a()
    with pytest.raises(ValidationError, match="^bad automaton name"):
        type(a)(alphabet=a.alphabet, states=a.states, initial=a.initial,
                transitions=a.transitions, name=name)
