"""Emptiness, universality, productive states and the trimming normal form.

A trimmed deterministic automaton has every state productive except for
the one all-rejecting sink `_bot`, and every transition either leads to
two productive states or sends both branches to `_bot`.

Emptiness, productivity and trim read the automaton's one numbering,
`automata._table`: its state indices and its target index per transition,
in the 2|Sigma| blocks of a deterministic table.  The emptiness game is
solved on that table's states, with Adam's (state, letter) pairs left
implicit in its blocks, so no arena is built; the one list built beside
the table is each state's entering moves.  They leave no memory on the
automaton: the table is kept only if it was already, and that list is
transient.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .automata import BOT, DetAutomaton, State, Transition, UNIVERSAL, _memo, _sink_moves, _table
from .errors import EmptyLanguage, ValidationError
from .games import _solve_frames, _table_attractor
from .patterns import _reached, _tops, _view


@dataclass(frozen=True)
class ProductivityInfo:
    nonempty: frozenset[str]
    productive: frozenset[str]


def _productivity(a: DetAutomaton):
    """Trim's one pass over ints: `a`'s `_table` (kept only if it was kept
    already) and, per state index, whether L(A, q) is nonempty and whether
    q is productive.

    Nonemptiness is decided by the emptiness game, solved for its winners
    only: Eve picks a letter, Adam picks a direction, ranks come from
    states, and Eve wins from q exactly when she can build a tree whose run
    from q accepts.  The game is solved on the table itself
    (`games._table_attractor`): the states are Eve's positions, and Adam's
    positions, the pairs (q, letter x), stay implicit in the table's
    2|Sigma| blocks, pair j = q·|Sigma| + x moving to `target[2j]` and
    `target[2j + 1]`.  The one adjacency built is `pred`, the indices into
    `target` that enter each state.  The productive flags are the fixpoint
    of `productive_states`, run on the same target indices.
    """
    table = _table(a, keep=False)
    _, index, rank, _, target = table
    n, width = len(rank), 2 * len(a.alphabet)
    pred: list[list[int]] = [[] for _ in range(n)]
    for i, w in enumerate(target):
        pred[w].append(i)
    size = n + len(target) // 2
    win = bytearray(size)
    _solve_frames((width, rank, target, pred), _table_attractor, win, bytearray(b"\x01") * size)
    nonempty = [not w for w in win[:n]]
    productive = [False] * n
    i0 = index[a.initial]
    if nonempty[i0]:
        productive[i0] = True
        queue = [i0]
        for i in queue:  # the queue grows while it is read
            for j in range(i * width, i * width + width, 2):
                q1, q2 = target[j], target[j + 1]
                if nonempty[q1] and nonempty[q2]:
                    for q in (q1, q2):
                        if not productive[q]:
                            productive[q] = True
                            queue.append(q)
    return table, nonempty, productive


def nonempty_states(a: DetAutomaton) -> set[str]:
    """States q with L(A,q) nonempty, by solving the emptiness game on int
    positions (see `_productivity`)."""
    table, nonempty, _ = _productivity(a)
    return {q for q, ok in zip(table.ids, nonempty) if ok}


def productive_states(a: DetAutomaton) -> ProductivityInfo:
    """Least fixpoint of: q0 productive when nonempty; both children of a
    productive state are productive when both are nonempty."""
    table, nonempty, productive = _productivity(a)
    return ProductivityInfo(nonempty=frozenset(q for q, ok in zip(table.ids, nonempty) if ok),
                            productive=frozenset(q for q, ok in zip(table.ids, productive) if ok))


def trim(a: DetAutomaton) -> DetAutomaton:
    """Merge all non-productive states into the `_bot` sink (rank 1).

    Language is unchanged.  Raises EmptyLanguage when the initial state is
    empty, in which case the normal form is undefined.

    One pass over ints (`_productivity`): the emptiness game is solved on
    the table for its winners only, and the productive states are found on
    the table's target indices.  A productive state keeps its block of 2|Sigma|
    parent transitions (see `DetAutomaton`), except that a pair with an
    empty target is redirected, both branches, to `_bot`, so the table
    comes out in its final block layout.  Whether a whole block is kept is
    read off one byte mask of productive targets, a slice per state.
    """
    (ids, index, _, _, target), nonempty, productive = _productivity(a)
    if not nonempty[index[a.initial]]:
        raise EmptyLanguage("initial state recognizes the empty language")
    kept = [i for i in range(len(ids)) if productive[i]]
    if BOT in a.states and productive[index[BOT]]:
        raise ValidationError(f"state name {BOT!r} is reserved for the sink but is productive")

    width = 2 * len(a.alphabet)
    trans = a.transitions
    transitions: list[Transition] = []
    need_bot = False
    mask, whole = bytes(map(productive.__getitem__, target)), b"\x01" * width
    for i in kept:
        lo = i * width
        if mask[lo:lo + width] == whole:  # every target productive
            transitions += trans[lo:lo + width]
            continue
        for j in range(lo, lo + width, 2):
            if productive[target[j]] and productive[target[j + 1]]:
                transitions += trans[j:j + 2]
            else:
                need_bot = True
                p, letter = trans[j].source, trans[j].letter
                transitions += (Transition(p, letter, 0, BOT), Transition(p, letter, 1, BOT))
    names = [ids[i] for i in kept]
    if need_bot:  # `_bot`'s block goes in its place in sorted order
        at = bisect_left(names, BOT)
        names.insert(at, BOT)
        transitions[at * width:at * width] = _sink_moves(BOT, a.alphabet)
    return DetAutomaton(
        alphabet=a.alphabet,
        states={q: State(UNIVERSAL, 1) if q == BOT else a.states[q] for q in names},
        initial=a.initial,
        transitions=tuple(transitions),
        acceptance="parity",
        name=a.name,
    )


def is_trimmed(a: DetAutomaton) -> bool:
    """Structural check of the normal form (used by pattern preconditions),
    made once per automaton on its table."""
    def build():
        _, index, rank, _, target = _table(a)
        bot, width = index.get(BOT), 2 * len(a.alphabet)
        if bot is None:  # no pair can go to it
            return True
        if rank[bot] % 2 == 0:
            return False
        for j in range(0, len(target), 2):
            to_bot = target[j] == bot
            if to_bot != (target[j + 1] == bot) or (j // width == bot and not to_bot):
                return False
        return True
    return _memo(a, "trimmed", build)


def is_empty(a: DetAutomaton) -> bool:
    return a.initial not in nonempty_states(a)


def is_universal(a: DetAutomaton) -> bool:
    """True when no reachable cycle of the transition graph has odd top rank.

    In the one-player game where Adam picks letters and directions, such a
    cycle is exactly a play violating the parity condition.  It is decided
    on the condensation, by the SCCs reachable from the initial state.
    """
    v, scc = _view(a), _tops(a).scc
    reached = _reached(v, [v.index[a.initial]])
    return not any(ok and scc[c][1] for c, ok in enumerate(reached))
