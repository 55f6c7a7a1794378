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
from .graphs import has_cycle_inside
from .patterns import _reached, _replicated, _tops, _view, find_replicated_flower
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
    s0, s1 = State(UNIVERSAL, 0), State(UNIVERSAL, 1)  # State records are shared
    states: dict[str, State] = {}
    for q in a.states:
        states[c1[q]], states[c2[q]] = s0, s1
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
            part = _bx_guess(a, comp)
            bound = 2 * len(comp) * (len(comp) + 2) + 3 * n
            notes.append(f"B[{'+'.join(names)}]: guessed, {len(part.states)} states "
                         f"(bound 2|X|(|X|+2)+3n = {bound})")
        parts.append(part)
    out = conjunction(parts, alphabet=a.alphabet)
    trace = ConstructionTrace(
        construction="weaken_14", input_states=n, output_states=len(out.states),
        components=tuple(notes))
    return out, trace


def _blocks(a: DetAutomaton, i: int):
    """(letter, left target, right target) per letter of state index i,
    in table order, read off the view's targets."""
    v = _view(a)
    lo, hi = i * v.width, (i + 1) * v.width
    return zip(a.alphabet, v.target[lo:hi:2], v.target[lo + 1:hi:2])


def _bx_replicated(a: DetAutomaton, comp: list[int]) -> TreeAutomaton:
    """B_X for a component X (state indices) replicated by an accepting loop:
    outside states rank 4 after X and 2 before it, X doubled over ranks 2..4.

    The table is emitted in its final order: the sink `_top`, then the
    copies `c1_`, `c2_` and `o_`, each in state order."""
    v = _view(a)
    ids, x = v.ids, set(comp)
    xrank = _relabel_component(a, comp, IndexPair(1, 2))
    exits = sorted({w for i in comp for w in v.succ[i]} - x)
    after = {i for c, ok in enumerate(_reached(v, exits)) if ok for i in v.sccs[c]} - x
    entry = [f"c1_{q}" if i in x else f"o_{q}" for i, q in enumerate(ids)]

    c1, c2, o2, o4 = (State(UNIVERSAL, r) for r in (2, 3, 2, 4))
    states: dict[str, State] = {}
    for i, q in enumerate(ids):
        if i in x:
            states[f"c1_{q}"], states[f"c2_{q}"] = c1, c2
        else:
            states[f"o_{q}"] = o4 if i in after else o2
    states[TOP] = State(UNIVERSAL, 4)
    transitions = _sink_moves(TOP, a.alphabet)
    for i in comp:
        p, stay = entry[i], f"c2_{ids[i]}"
        for letter, q0, q1 in _blocks(a, i):
            transitions += (Transition(p, letter, 0, entry[q0]),
                            Transition(p, letter, 1, entry[q1]),
                            Transition(p, letter, None, stay))
    for i in comp:
        p = f"c2_{ids[i]}"
        if xrank[i] == 2:
            transitions += (Transition(p, letter, None, TOP) for letter in a.alphabet)
            continue
        for letter, q0, q1 in _blocks(a, i):
            transitions += (Transition(p, letter, d, f"c2_{ids[q]}")
                            for d, q in ((0, q0), (1, q1)) if q in x)
    for i in range(len(ids)):
        if i not in x:
            for letter, q0, q1 in _blocks(a, i):
                transitions += (Transition(entry[i], letter, 0, entry[q0]),
                                Transition(entry[i], letter, 1, entry[q1]))
    return TreeAutomaton(alphabet=a.alphabet, states=states, initial=entry[v.index[a.initial]],
                         transitions=tuple(transitions), acceptance="weak")


def _bx_guess(a: DetAutomaton, comp: list[int]) -> TreeAutomaton:
    """B_X for a non-replicated component X (state indices): guessing copy
    (rank 1), the X-avoidance checker (rank 2 / sink 3), and per even rank
    r a checker following the unique X-branch with a (3,4) searcher for
    recurrence.

    The table is emitted in its final order, its sources in name order:
    the sinks `bot{r}_`, the copies `g_` and `gp_`, the checkers `m{r}_`,
    the avoidance checker `na_` with its sink, the searchers `s{r}_` and
    the sinks `top{r}_`, the ranks r in the order of their names."""
    v = _view(a)
    ids, rank, x = v.ids, v.rank, set(comp)
    evens = sorted({rank[i] for i in comp if rank[i] % 2 == 0}, key=lambda r: f"{r}_")
    na_bot = "na" + BOT
    states: dict[str, State] = {}
    for q in ids:
        states[f"g_{q}"], states[f"gp_{q}"] = State(UNIVERSAL, 1), State(EXISTENTIAL, 1)
    for i, q in enumerate(ids):
        if i not in x:
            states[f"na_{q}"] = State(UNIVERSAL, 2)
    states[na_bot] = State(UNIVERSAL, 3)
    for r in evens:
        states[f"bot{r}_"], states[f"top{r}_"] = State(UNIVERSAL, 3), State(UNIVERSAL, 4)
        for i in comp:
            states[f"m{r}_{ids[i]}"], states[f"s{r}_{ids[i]}"] = (State(UNIVERSAL, 2),
                                                                  State(EXISTENTIAL, 3))

    transitions: list[Transition] = []
    for r in evens:
        transitions += _sink_moves(f"bot{r}_", a.alphabet)
    # the guessing copy: g_ follows the automaton, gp_ may start the checkers
    for i, q in enumerate(ids):
        for letter, q0, q1 in _blocks(a, i):
            transitions += (Transition(f"g_{q}", letter, 0, f"gp_{ids[q0]}"),
                            Transition(f"g_{q}", letter, 1, f"gp_{ids[q1]}"))
    for i, q in enumerate(ids):
        starts = [f"g_{q}"]
        starts += [f"m{r}_{q}" for r in evens if rank[i] <= r] if i in x else [f"na_{q}"]
        transitions += (Transition(f"gp_{q}", letter, None, t)
                        for letter in a.alphabet for t in starts)
    # C_{X,r} for each even rank r used in X
    for r in evens:
        bot_r = f"bot{r}_"
        for i in comp:
            p = f"m{r}_{ids[i]}"
            for letter, q0, q1 in _blocks(a, i):
                inside = [d for d, t in ((0, q0), (1, q1)) if t in x]
                t = (q0, q1)[inside[0]] if len(inside) == 1 else None
                if t is None or rank[t] > r:
                    # zero or two X-branches, or a rank above r: the shape is violated
                    transitions += (Transition(p, letter, d, bot_r) for d in (0, 1))
                else:
                    transitions += (Transition(p, letter, inside[0], f"m{r}_{ids[t]}"),
                                    Transition(p, letter, inside[0], f"s{r}_{ids[t]}"))
    # C_{A\X}: stay outside X forever; its sink sorts among the states' names
    outside = {f"na_{q}": i for i, q in enumerate(ids) if i not in x}
    for p in sorted(outside.keys() | {na_bot}):
        if p == na_bot:
            transitions += _sink_moves(na_bot, a.alphabet)
        if p not in outside:
            continue
        for letter, q0, q1 in _blocks(a, outside[p]):
            transitions += (Transition(p, letter, d, na_bot if q in x else f"na_{ids[q]}")
                            for d, q in ((0, q0), (1, q1)))
    # the searchers keep walking inside X looking for rank r
    for r in evens:
        for i in comp:
            p = f"s{r}_{ids[i]}"
            if rank[i] == r:
                transitions += (Transition(p, letter, None, f"top{r}_") for letter in a.alphabet)
                continue
            for letter, q0, q1 in _blocks(a, i):
                transitions += (Transition(p, letter, d, f"s{r}_{ids[q]}")
                                for d, q in ((0, q0), (1, q1)) if q in x)
    for r in evens:
        transitions += _sink_moves(f"top{r}_", a.alphabet)
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
