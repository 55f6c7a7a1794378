"""Line-oriented textual formats and DOT export.

Automaton format (`#` starts a comment):

    alphabet a b
    start p
    state p mode A rank 0
    trans p a 0 p
    acceptance parity
    deterministic        # optional flag, verified on parse

Regular-tree format:

    arity 2
    root n0
    node n0 a n0 n1

W-instance trees use labels of the form E:2 / A:1.

Every line but `state`, `trans` and `node` may appear once; a repeated
one is a `FormatError` at its second occurrence.
"""

from __future__ import annotations

from .automata import DetAutomaton, State, Transition, TreeAutomaton
from .errors import FormatError, ValidationError
from .trees import Node, RegularTree


def _tokenized_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line.split()


_DIRECTIONS = {"0": 0, "1": 1, "e": None}


def parse_automaton(text: str) -> TreeAutomaton:
    """Parse the automaton format; returns a DetAutomaton when flagged.
    One loop over the lines, `trans` and `state` lines tested first."""
    alphabet: list[str] = []
    start: str | None = None
    states: dict[str, State] = {}
    transitions: list[Transition] = []
    acceptance: str | None = None
    deterministic = False
    name = ""
    new = tuple.__new__

    for ln, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw[:raw.index("#")]
        toks = raw.split()
        if not toks:
            continue
        kw = toks[0]
        if kw == "trans":
            if len(toks) != 5:
                raise FormatError("expected: trans <src> <letter> <0|1|e> <tgt>", ln)
            try:
                d = _DIRECTIONS[toks[3]]
            except KeyError:
                raise FormatError(f"bad direction {toks[3]!r} (expected 0, 1 or e)", ln) from None
            transitions.append(new(Transition, (toks[1], toks[2], d, toks[4])))
        elif kw == "state":
            if len(toks) != 6 or toks[2] != "mode" or toks[4] != "rank":
                raise FormatError("expected: state <id> mode <E|A> rank <n>", ln)
            sid, mode, rank_tok = toks[1], toks[3], toks[5]
            if mode not in ("E", "A"):
                raise FormatError(f"bad mode {mode!r}", ln)
            try:
                rank = int(rank_tok)
            except ValueError:
                raise FormatError(f"rank missing or not a number: {rank_tok!r}", ln) from None
            if sid in states:
                raise FormatError(f"state {sid!r} declared twice", ln)
            states[sid] = new(State, (mode, rank))
        elif kw == "alphabet":
            if len(toks) < 2:
                raise FormatError("alphabet needs at least one symbol", ln)
            if alphabet:
                raise FormatError(f"directive {kw!r} given twice", ln)
            alphabet = toks[1:]
        elif kw == "start":
            if len(toks) != 2:
                raise FormatError("start needs exactly one state id", ln)
            if start is not None:
                raise FormatError(f"directive {kw!r} given twice", ln)
            start = toks[1]
        elif kw == "acceptance":
            if len(toks) != 2 or toks[1] not in ("parity", "weak"):
                raise FormatError("expected: acceptance <parity|weak>", ln)
            if acceptance is not None:
                raise FormatError(f"directive {kw!r} given twice", ln)
            acceptance = toks[1]
        elif kw == "deterministic":
            if len(toks) != 1:
                raise FormatError("deterministic takes no tokens", ln)
            if deterministic:
                raise FormatError(f"directive {kw!r} given twice", ln)
            deterministic = True
        elif kw == "name":
            if len(toks) != 2:
                raise FormatError("name takes exactly one token", ln)
            if name:
                raise FormatError(f"directive {kw!r} given twice", ln)
            name = toks[1]
        else:
            raise FormatError(f"unknown directive {kw!r}", ln)

    if not alphabet:
        raise FormatError("missing section: alphabet")
    if start is None:
        raise FormatError("missing section: start")
    if not states:
        raise FormatError("missing section: state declarations")
    if acceptance is None:
        raise FormatError("missing section: acceptance")

    cls = DetAutomaton if deterministic else TreeAutomaton
    try:
        return cls(
            alphabet=tuple(alphabet),
            states=states,
            initial=start,
            transitions=tuple(transitions),
            acceptance=acceptance,
            name=name,
        )
    except ValidationError as e:
        raise FormatError(str(e)) from e


def serialize_automaton(a: TreeAutomaton) -> str:
    """Canonical text: states sorted by id, transitions lexicographically."""
    lines = []
    if a.name:
        lines.append(f"name {a.name}")
    lines.append("alphabet " + " ".join(a.alphabet))
    lines.append(f"start {a.initial}")
    lines += [f"state {sid} mode {st.mode} rank {st.rank}"
              for sid, st in sorted(a.states.items())]
    lines += [f"trans {p} {x} {'e' if d is None else d} {q}" for p, x, d, q in a.transitions]
    lines.append(f"acceptance {a.acceptance}")
    if isinstance(a, DetAutomaton):
        lines.append("deterministic")
    return "\n".join(lines) + "\n"


def parse_regular_tree(text: str) -> RegularTree:
    arity: int | None = None
    root: str | None = None
    nodes: dict[str, Node] = {}

    for ln, toks in _tokenized_lines(text):
        kw = toks[0]
        if kw == "arity":
            if len(toks) != 2:
                raise FormatError("expected: arity <N>", ln)
            try:
                value = int(toks[1])
            except ValueError:
                raise FormatError(f"bad arity {toks[1]!r}", ln) from None
            if arity is not None:
                raise FormatError(f"directive {kw!r} given twice", ln)
            arity = value
        elif kw == "root":
            if len(toks) != 2:
                raise FormatError("expected: root <id>", ln)
            if root is not None:
                raise FormatError(f"directive {kw!r} given twice", ln)
            root = toks[1]
        elif kw == "node":
            if arity is None:
                raise FormatError("arity must be declared before nodes", ln)
            if len(toks) != 3 + arity:
                raise FormatError(
                    f"expected: node <id> <label> and exactly {arity} child ids", ln
                )
            nid, label = toks[1], toks[2]
            if nid in nodes:
                raise FormatError(f"node {nid!r} declared twice", ln)
            nodes[nid] = Node(label, tuple(toks[3:]))
        else:
            raise FormatError(f"unknown directive {kw!r}", ln)

    if arity is None:
        raise FormatError("missing section: arity")
    if root is None:
        raise FormatError("missing section: root")
    if not nodes:
        raise FormatError("missing section: node declarations")
    try:
        return RegularTree(arity, nodes, root)
    except ValidationError as e:
        raise FormatError(str(e)) from e


def serialize_regular_tree(t: RegularTree) -> str:
    lines = [f"arity {t.arity}", f"root {t.root}"]
    for nid in sorted(t.nodes):
        node = t.nodes[nid]
        lines.append(f"node {nid} {node.label} " + " ".join(node.children))
    return "\n".join(lines) + "\n"


def _dot_quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def automaton_to_dot(a: TreeAutomaton) -> str:
    """One node per state (box = universal, diamond = existential)."""
    lines = ["digraph automaton {", "  rankdir=LR;"]
    for sid in sorted(a.states):
        st = a.states[sid]
        shape = "box" if st.mode == "A" else "diamond"
        extra = " peripheries=2" if sid == a.initial else ""
        lines.append(
            f"  {_dot_quote(sid)} [shape={shape} label={_dot_quote(f'{sid}:{st.rank}')}{extra}];"
        )
    for t in a.transitions:
        if t.direction is None:
            label, style = "e", " style=dashed"
        else:
            label, style = f"{t.letter},{t.direction}", ""
        lines.append(
            f"  {_dot_quote(t.source)} -> {_dot_quote(t.target)} "
            f"[label={_dot_quote(label)}{style}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def tree_to_dot(t: RegularTree) -> str:
    lines = ["digraph tree {"]
    for nid in sorted(t.nodes):
        node = t.nodes[nid]
        extra = " peripheries=2" if nid == t.root else ""
        lines.append(
            f"  {_dot_quote(nid)} [shape=circle label={_dot_quote(f'{nid}:{node.label}')}{extra}];"
        )
    for nid in sorted(t.nodes):
        for k, c in enumerate(t.nodes[nid].children):
            lines.append(f"  {_dot_quote(nid)} -> {_dot_quote(c)} [label={_dot_quote(str(k))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_dot(x) -> str:
    if isinstance(x, TreeAutomaton):
        return automaton_to_dot(x)
    if isinstance(x, RegularTree):
        return tree_to_dot(x)
    raise TypeError(f"cannot export {type(x).__name__} to DOT")
