"""Automaton constructions: weak-to-restricted conversion, the three
weakening constructions with their exact state budgets, conjunction, and
the index-minimal weakening dispatch.

State budgets (n input states): restrict gives (kappa-iota+1)*n states,
the (0,2) construction 2n+1, the (1,3) construction 3n+1, and the (1,4)
construction at most 1 + sum over loop SCCs X of (2|X|^2 + 7n).
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import (
    BOT,
    DetAutomaton,
    EXISTENTIAL,
    IndexPair,
    State,
    TOP,
    Transition,
    TreeAutomaton,
    UNIVERSAL,
    _one_state,
    _sink_moves,
    index_of,
    normalize_ranks,
)
from .classifier import (
    BorelLevel,
    _ladder,
    _minimal_level,
    _relabel_component,
    relabel_to,
    weak_det_index,
)
from .errors import (
    EmptyLanguage,
    IndexTooHigh,
    NonWeaklyRecognizable,
    PreconditionViolated,
    UnsupportedGapConstruction,
    ValidationError,
)
from .graphs import has_cycle_inside, reachable_from
from .patterns import _replicated, _tops, _view, find_replicated_flower
from .productivity import trim


@dataclass(frozen=True)
class ConstructionTrace:
    construction: str
    input_states: int
    output_states: int
    components: tuple[str, ...] = ()

    def render(self) -> str:
        lines = [f"# construction: {self.construction}",
                 f"# input states: {self.input_states}",
                 f"# output states: {self.output_states}"]
        lines += [f"# {c}" for c in self.components]
        return "\n".join(lines) + "\n"


# -- Lemma 1: weak acceptance to rank-monotone strong parity --------------------


def restrict(a: TreeAutomaton) -> TreeAutomaton:
    """One copy of the automaton per band rank; the copy number tracks the
    highest rank seen, so ranks never decrease along transitions.

    Copies are emitted in the order of their names, each in `a`'s table
    order, which is the final order unless a move group's targets change
    order under their new names; the constructor sorts only then."""
    if a.acceptance != "weak":
        raise ValidationError("restrict expects weak acceptance")
    a = normalize_ranks(a)
    band = sorted(index_of(a).band(), key=lambda i: f"r{i}_")
    name = {(i, q): f"r{i}_{q}" for i in band for q in a.states}
    states = {name[i, q]: State(st.mode, i) for i in sorted(band) for q, st in a.states.items()}
    rank = {q: st.rank for q, st in a.states.items()}
    transitions = [Transition(name[i, t.source], t.letter, t.direction,
                              name[max(i, rank[t.target]), t.target])
                   for i in band for t in a.transitions]
    return TreeAutomaton(alphabet=a.alphabet, states=states,
                         initial=name[rank[a.initial], a.initial],
                         transitions=tuple(transitions), acceptance="parity",
                         name=f"{a.name}_restricted" if a.name else "restricted")


# -- (1,2) -> weak (0,2) ----------------------------------------------------------


def _shift_into_band(a: DetAutomaton, low: int, high: int) -> DetAutomaton:
    """Even shift landing all ranks inside [low, high]; IndexTooHigh otherwise."""
    ranks = sorted(a.ranks())
    for base in range(low - 1, high + 1):
        shift = base - ranks[0]
        if shift % 2 == 0 and all(low <= r + shift <= high for r in ranks):
            return a if shift == 0 else a.with_states(
                {q: State(st.mode, st.rank + shift) for q, st in a.states.items()})
    raise IndexTooHigh(
        f"ranks {ranks} do not fit band [{low},{high}] under an even shift")


def weaken_02(a: DetAutomaton) -> TreeAutomaton:
    """Equivalent weak (0,2)-automaton with exactly 2n+1 states.

    Copy one (rank 0) simulates the input; at any node Adam may demand,
    via the epsilon move into copy two (rank 1), that every path from here
    reaches a rank-2 state, which jumps to the accepting sink.  The table
    is emitted in its final order: the sink, then each copy in `a`'s order.
    """
    a = _shift_into_band(a, 1, 2)
    c1 = {q: f"c1_{q}" for q in a.states}
    c2 = {q: f"c2_{q}" for q in a.states}
    states: dict[str, State] = {}
    for q in a.states:
        states[c1[q]], states[c2[q]] = State(UNIVERSAL, 0), State(UNIVERSAL, 1)
    states[TOP] = State(UNIVERSAL, 2)
    rank = {q: st.rank for q, st in a.states.items()}
    new = tuple.__new__  # a Transition from its fields, without namedtuple's __new__
    copy1: list[Transition] = []
    copy2: list[Transition] = []
    ts = a.transitions
    for (p, letter, _, q0), (_, _, _, q1) in zip(ts[::2], ts[1::2]):  # p's moves on letter
        copy1 += (new(Transition, (c1[p], letter, 0, c1[q0])),
                  new(Transition, (c1[p], letter, 1, c1[q1])),
                  new(Transition, (c1[p], letter, None, c2[p])))
        if rank[p] == 1:
            copy2 += (new(Transition, (c2[p], letter, 0, c2[q0])),
                      new(Transition, (c2[p], letter, 1, c2[q1])))
        else:
            copy2.append(new(Transition, (c2[p], letter, None, TOP)))
    return TreeAutomaton(alphabet=a.alphabet, states=states, initial=c1[a.initial],
                         transitions=tuple(_sink_moves(TOP, a.alphabet) + copy1 + copy2),
                         acceptance="weak",
                         name=f"{a.name}_weak02" if a.name else "weak02")


# -- (0,1) -> weak (1,3) ------------------------------------------------------------


def weaken_13(a: DetAutomaton) -> TreeAutomaton:
    """Equivalent weak (1,3)-automaton with exactly 3n+1 states.

    Requires the absence of a weak (1,2)-flower replicated by an accepting
    loop; under it, odd states occur finitely often on accepting runs, so
    an existential guess point (copy two) can commit each path to "no odd
    states from here on" (copy three).
    """
    witness = find_replicated_flower(a, IndexPair(1, 2), weak=True)
    if witness is not None:
        raise PreconditionViolated(
            "input has a weak (1,2)-flower replicated by an accepting loop", witness)
    a = _shift_into_band(a, 0, 1)
    tops, v = _tops(a).loop, _view(a)
    rank_in = {q: v.rank[i] if tops[i] >> v.level[i] & 1 or q == BOT else 0
               for i, q in enumerate(v.ids)}

    # the table in its final order: the sink, then each copy in `a`'s order
    c1, c2, c3 = ({q: f"{c}_{q}" for q in a.states} for c in ("c1", "c2", "c3"))
    states: dict[str, State] = {}
    for q in a.states:
        states[c1[q]], states[c2[q]], states[c3[q]] = (
            State(UNIVERSAL, 1), State(EXISTENTIAL, 1), State(UNIVERSAL, 2))
    states[BOT] = State(UNIVERSAL, 3)
    transitions = _sink_moves(BOT, a.alphabet)
    transitions += [Transition(c1[p], letter, d, c2[q]) for p, letter, d, q in a.transitions]
    transitions += [Transition(c2[q], letter, None, c[q]) for q in sorted(a.states)
                    for letter in a.alphabet for c in (c1, c3)]
    for p, letter, d, q in a.transitions:  # (letter, 0) then (letter, 1) per state
        if rank_in[p] == 0:
            transitions.append(Transition(c3[p], letter, d, c3[q]))
        elif d:
            transitions.append(Transition(c3[p], letter, None, BOT))
    return TreeAutomaton(alphabet=a.alphabet, states=states, initial=c2[a.initial],
                         transitions=tuple(transitions), acceptance="weak",
                         name=f"{a.name}_weak13" if a.name else "weak13")


# -- any det without replicated (0,1)-flower -> weak (1,4) ----------------------------


def weaken_14(a: DetAutomaton) -> tuple[TreeAutomaton, ConstructionTrace]:
    """Equivalent weak (1,4)-automaton, quadratically many states.

    One conjunct B_X per strongly connected component X with a loop,
    accepting the trees on which every run path entering X leaves it or is
    accepting.  Components replicated by an accepting loop use the doubled
    (0,2)-style checker shifted to ranks 2..4; the others combine a
    guessing copy, an X-avoidance checker, and per-even-rank checkers with
    existential rank-r searchers.
    """
    witness = find_replicated_flower(a, IndexPair(0, 1), weak=False)
    if witness is not None:
        raise PreconditionViolated("input has a (0,1)-flower replicated by an "
                                   "accepting loop", witness)

    rep, v = _replicated(a), _view(a)
    loopy = sorted((comp for comp in v.sccs if has_cycle_inside(comp, v.succ)),
                   key=lambda c: c[0])

    n = len(a.states)
    parts: list[TreeAutomaton] = []
    notes: list[str] = []
    for comp in loopy:
        names = [v.ids[i] for i in comp]
        if not rep.isdisjoint(comp):
            part = _bx_replicated(a, comp)
            notes.append(f"B[{'+'.join(names)}]: replicated, {len(part.states)} states "
                         f"(bound |X|+n+1 = {len(comp) + n + 1})")
        else:
            part = _bx_guess(a, set(names))
            bound = 2 * len(comp) * (len(comp) + 2) + 3 * n
            notes.append(f"B[{'+'.join(names)}]: guessed, {len(part.states)} states "
                         f"(bound 2|X|(|X|+2)+3n = {bound})")
        parts.append(part)
    out = conjunction(parts, alphabet=a.alphabet)
    trace = ConstructionTrace(
        construction="weaken_14", input_states=n, output_states=len(out.states),
        components=tuple(notes))
    return out, trace


def _bx_replicated(a: DetAutomaton, comp: list[int]) -> TreeAutomaton:
    """B_X for a component X (state indices) replicated by an accepting loop:
    outside states rank 4 after X and 2 before it, X doubled over ranks 2..4."""
    v = _view(a)
    xrank = {v.ids[i]: r for i, r in _relabel_component(a, comp, IndexPair(1, 2)).items()}
    x = set(xrank)
    exits = sorted({w for i in comp for w in v.succ[i]} - set(comp))
    after = {v.ids[i] for i in reachable_from(exits, v.succ)} - x

    def entry(q):
        return f"c1_{q}" if q in x else f"o_{q}"

    states: dict[str, State] = {}
    for q in a.states:
        if q in x:
            states[f"c1_{q}"], states[f"c2_{q}"] = State(UNIVERSAL, 2), State(UNIVERSAL, 3)
        else:
            states[f"o_{q}"] = State(UNIVERSAL, 4 if q in after else 2)
    states[TOP] = State(UNIVERSAL, 4)
    transitions = _sink_moves(TOP, a.alphabet)
    transitions += [Transition(f"c1_{q}", letter, None, f"c2_{q}")
                    for q in x for letter in a.alphabet]
    transitions += [Transition(f"c2_{q}", letter, None, TOP)
                    for q in x if xrank[q] == 2 for letter in a.alphabet]
    for p, letter, d, q in a.transitions:
        transitions.append(Transition(entry(p), letter, d, entry(q)))
        if p in x and xrank[p] == 1 and q in x:
            transitions.append(Transition(f"c2_{p}", letter, d, f"c2_{q}"))
    return TreeAutomaton(alphabet=a.alphabet, states=states, initial=entry(a.initial),
                         transitions=tuple(transitions), acceptance="weak")


def _bx_guess(a: DetAutomaton, x: set[str]) -> TreeAutomaton:
    """B_X for a non-replicated component: guessing copy (rank 1), the
    X-avoidance checker (rank 2 / sink 3), and per even rank r a checker
    following the unique X-branch with a (3,4) searcher for recurrence."""
    even_ranks = sorted({a.rank(q) for q in x if a.rank(q) % 2 == 0})
    states: dict[str, State] = {}
    for q in a.states:
        states[f"g_{q}"], states[f"gp_{q}"] = State(UNIVERSAL, 1), State(EXISTENTIAL, 1)
    transitions = [Transition(f"gp_{q}", letter, None, f"g_{q}")
                   for q in a.states for letter in a.alphabet]
    transitions += [Transition(f"g_{p}", letter, d, f"gp_{q}") for p, letter, d, q in a.transitions]

    # C_{A\X}: stay outside X forever
    outside = [q for q in a.states if q not in x]
    for q in outside:
        states[f"na_{q}"] = State(UNIVERSAL, 2)
    states["na" + BOT] = State(UNIVERSAL, 3)
    transitions += [Transition(f"gp_{q}", letter, None, f"na_{q}")
                    for q in outside for letter in a.alphabet]
    transitions += _sink_moves("na" + BOT, a.alphabet)
    transitions += [Transition(f"na_{p}", letter, d, f"na_{q}" if q not in x else "na" + BOT)
                    for p, letter, d, q in a.transitions if p not in x]

    # C_{X,r} for each even rank r used in X
    for r in even_ranks:
        bot_r = f"bot{r}_"
        top_r = f"top{r}_"
        states[bot_r] = State(UNIVERSAL, 3)
        states[top_r] = State(UNIVERSAL, 4)
        transitions += _sink_moves(bot_r, a.alphabet) + _sink_moves(top_r, a.alphabet)
        for q in x:
            states[f"m{r}_{q}"] = State(UNIVERSAL, 2)
            states[f"s{r}_{q}"] = State(EXISTENTIAL, 3)
            for letter in a.alphabet:
                if a.rank(q) <= r:
                    transitions.append(Transition(f"gp_{q}", letter, None, f"m{r}_{q}"))
                if a.rank(q) == r:
                    transitions.append(Transition(f"s{r}_{q}", letter, None, top_r))
        for q in x:
            for letter in a.alphabet:
                q0, q1 = a.pair(q, letter)
                inside = [d for d, tgt in ((0, q0), (1, q1)) if tgt in x]
                tgt = (q0, q1)[inside[0]] if len(inside) == 1 else None
                if tgt is None or a.rank(tgt) > r:
                    # zero or two X-branches, or a rank above r: the shape is violated
                    transitions += (Transition(f"m{r}_{q}", letter, d, bot_r) for d in (0, 1))
                else:
                    transitions.append(Transition(f"m{r}_{q}", letter, inside[0], f"m{r}_{tgt}"))
                    transitions.append(Transition(f"m{r}_{q}", letter, inside[0], f"s{r}_{tgt}"))
                if a.rank(q) != r:
                    # searcher keeps walking inside X looking for rank r
                    transitions += (Transition(f"s{r}_{q}", letter, d, f"s{r}_{t}")
                                    for d, t in ((0, q0), (1, q1)) if t in x)
    return TreeAutomaton(alphabet=a.alphabet, states=states, initial=f"gp_{a.initial}",
                         transitions=tuple(transitions), acceptance="weak")


# -- conjunction ---------------------------------------------------------------------


def conjunction(automata: list[TreeAutomaton], alphabet=None) -> TreeAutomaton:
    """Fresh universal initial state with epsilon moves to every conjunct."""
    if not automata:
        if alphabet is None:
            raise ValidationError("empty conjunction needs an explicit alphabet")
        states = {"_conj": State(UNIVERSAL, 0)}
        return TreeAutomaton(alphabet=tuple(alphabet), states=states, initial="_conj",
                             transitions=_sink_moves("_conj", sorted(set(alphabet))),
                             acceptance="weak")
    base = set(automata[0].alphabet)
    if (any(set(b.alphabet) != base for b in automata[1:])
            or alphabet is not None and set(alphabet) != base):
        raise ValidationError("conjunction inputs must share the alphabet")
    # the table in its final order: `_conj`'s moves, then each conjunct's
    # table, conjuncts in the order of their names
    order = sorted(range(len(automata)), key=lambda i: f"j{i}_")
    names = [{q: f"j{i}_{q}" for q in b.states} for i, b in enumerate(automata)]
    states: dict[str, State] = {}
    min_rank = min(st.rank for b in automata for st in b.states.values())
    states["_conj"] = State(UNIVERSAL, min_rank)
    for name, b in zip(names, automata):
        states.update((name[q], st) for q, st in b.states.items())
    transitions = [Transition("_conj", letter, None, names[i][automata[i].initial])
                   for letter in sorted(base) for i in order]
    for i in order:
        name = names[i]
        transitions += [Transition(name[p], letter, d, name[q])
                        for p, letter, d, q in automata[i].transitions]
    return TreeAutomaton(alphabet=tuple(sorted(base)), states=states, initial="_conj",
                         transitions=tuple(transitions), acceptance="weak")


# -- full weakening dispatch ------------------------------------------------------------


def weaken(a: DetAutomaton) -> tuple[TreeAutomaton, ConstructionTrace]:
    """Equivalent weak automaton of minimal index.

    Dispatch on the trimmed input's Borel level: level zero gives one-state
    automata; the first level reuses the weak-deterministic relabeling;
    Pi^0_2 and Sigma^0_2 relabel and apply the (0,2)/(1,3) constructions;
    Delta^0_3 applies the (1,4) construction.  Proper Pi^0_3 languages are
    weakly recognizable with index (0,3) but that construction is out of
    scope; non-Borel languages are not weakly recognizable at all.
    """
    n = len(a.states)

    def done(out: TreeAutomaton, how: str, components=()) -> tuple[TreeAutomaton, ConstructionTrace]:
        trace = ConstructionTrace(construction=how, input_states=n,
                                  output_states=len(out.states), components=tuple(components))
        return out, trace

    try:
        trimmed = trim(a)
    except EmptyLanguage:
        return done(_one_state(a.alphabet, "r", 1, "reject_all"), "empty_language")
    bits, blocked = _ladder(trimmed)
    level = _minimal_level(bits)
    if level is BorelLevel.PI0:
        return done(_one_state(a.alphabet, "t", 0, "accept_all"), "universal_language")
    if level in (BorelLevel.DELTA1, BorelLevel.SIGMA1, BorelLevel.PI1):
        index, out = weak_det_index(trimmed)
        return done(out, f"weak_det_relabel_{index.iota}_{index.kappa}")
    if level in (BorelLevel.DELTA2, BorelLevel.PI2):
        out = weaken_02(relabel_to(trimmed, IndexPair(1, 2)))
        return done(out, "relabel_12_then_weaken_02")
    if level is BorelLevel.SIGMA2:
        out = weaken_13(relabel_to(trimmed, IndexPair(0, 1)))
        return done(out, "relabel_01_then_weaken_13")
    if level is BorelLevel.DELTA3:
        out, trace = weaken_14(trimmed)
        return done(out, "weaken_14", trace.components)
    if level is BorelLevel.PI3:
        raise UnsupportedGapConstruction((0, 3))
    raise NonWeaklyRecognizable(blocked["pi3"]())  # the only witness weaken builds
