"""Emptiness, universality, productive states and the trimming normal form.

A trimmed deterministic automaton has every state productive except for
the one all-rejecting sink `_bot`, and every transition either leads to
two productive states or sends both branches to `_bot`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import BOT, DetAutomaton, State, Transition, UNIVERSAL
from .errors import EmptyLanguage, ValidationError
from .games import ADAM, EVE, Game, _arena, _zielonka_full
from .graphs import reachable_from
from .patterns import _memo, _succ, loop_ranks


@dataclass(frozen=True)
class ProductivityInfo:
    nonempty: frozenset[str]
    productive: frozenset[str]


def emptiness_game(a: DetAutomaton) -> Game:
    """Eve picks a letter, Adam picks a direction; ranks come from states.

    Eve wins from position q exactly when L(A,q) is nonempty: she builds a
    tree, Adam challenges one path of the unique run.
    """
    positions: dict[str, tuple[str, int]] = {}
    edges = []
    for q, st in a.states.items():
        positions[f"s:{q}"] = (EVE, st.rank)
        for letter in a.alphabet:
            mid = f"m:{q}:{letter}"
            positions[mid] = (ADAM, st.rank)
            edges.append((f"s:{q}", mid))
            for d in (0, 1):
                edges.append((mid, f"s:{a.step(q, letter, d)}"))
    return Game(positions=positions, edges=tuple(edges),
                initial=f"s:{a.initial}", condition="parity")


def nonempty_states(a: DetAutomaton) -> set[str]:
    """States q with L(A,q) nonempty, by solving the emptiness game.

    The arena is `emptiness_game`'s on int positions, built from the step
    table: the i-th state in sorted order is Eve's position i, and the
    pair (q_i, letter x) is Adam's position n + i*|Sigma| + x.
    """
    ids = sorted(a.states)
    index = {q: i for i, q in enumerate(ids)}
    n, k = len(ids), len(a.alphabet)
    delta = a._delta
    owner = [0] * n + [1] * (n * k)
    rank = [a.states[q].rank for q in ids]
    rank += [r for r in rank for _ in range(k)]
    succ = [list(range(n + i * k, n + i * k + k)) for i in range(n)]
    succ += [[index[delta[q, x, 0]], index[delta[q, x, 1]]] for q in ids for x in a.alphabet]
    eve = _zielonka_full(_arena(owner, rank, succ))[0][0]
    return {q for i, q in enumerate(ids) if i in eve}


def productive_states(a: DetAutomaton) -> ProductivityInfo:
    """Least fixpoint of: q0 productive when nonempty; both children of a
    productive state are productive when both are nonempty."""
    nonempty = nonempty_states(a)
    productive: set[str] = set()
    if a.initial in nonempty:
        productive.add(a.initial)
        queue = [a.initial]
        while queue:
            p = queue.pop()
            for letter in a.alphabet:
                q1, q2 = a.pair(p, letter)
                if q1 in nonempty and q2 in nonempty:
                    for q in (q1, q2):
                        if q not in productive:
                            productive.add(q)
                            queue.append(q)
    return ProductivityInfo(nonempty=frozenset(nonempty), productive=frozenset(productive))


def trim(a: DetAutomaton) -> DetAutomaton:
    """Merge all non-productive states into the `_bot` sink (rank 1).

    Language is unchanged.  Raises EmptyLanguage when the initial state is
    empty, in which case the normal form is undefined.
    """
    info = productive_states(a)
    if a.initial not in info.nonempty:
        raise EmptyLanguage("initial state recognizes the empty language")
    productive = set(info.productive)
    if BOT in productive:
        raise ValidationError(f"state name {BOT!r} is reserved for the sink but is productive")

    need_bot = False
    transitions: list[Transition] = []
    for p in sorted(productive):
        for letter in a.alphabet:
            q1, q2 = a.pair(p, letter)
            if q1 in productive and q2 in productive:
                transitions.append(Transition(p, letter, 0, q1))
                transitions.append(Transition(p, letter, 1, q2))
            else:
                need_bot = True
                transitions.append(Transition(p, letter, 0, BOT))
                transitions.append(Transition(p, letter, 1, BOT))
    states = {p: a.states[p] for p in productive}
    if need_bot:
        states[BOT] = State(UNIVERSAL, 1)
        for letter in a.alphabet:
            transitions.append(Transition(BOT, letter, 0, BOT))
            transitions.append(Transition(BOT, letter, 1, BOT))
    return DetAutomaton(
        alphabet=a.alphabet,
        states=states,
        initial=a.initial,
        transitions=tuple(transitions),
        acceptance="parity",
        name=a.name,
    )


def is_trimmed(a: DetAutomaton) -> bool:
    """Structural check of the normal form (used by pattern preconditions),
    made once per automaton."""
    def build():
        productive = set(a.states) - {BOT}
        for p in productive:
            for letter in a.alphabet:
                q1, q2 = a.pair(p, letter)
                both_prod = q1 in productive and q2 in productive
                both_bot = q1 == BOT and q2 == BOT
                if not (both_prod or both_bot):
                    return False
        if BOT in a.states:
            if a.states[BOT].rank % 2 == 0:
                return False
            for letter in a.alphabet:
                if a.pair(BOT, letter) != (BOT, BOT):
                    return False
        return True
    return _memo(a, "trimmed", build)


def is_empty(a: DetAutomaton) -> bool:
    return a.initial not in nonempty_states(a)


def is_universal(a: DetAutomaton) -> bool:
    """True when no reachable cycle of the transition graph has odd top rank.

    In the one-player game where Adam picks letters and directions, such a
    cycle is exactly a play violating the parity condition.
    """
    tops = loop_ranks(a)
    return not any(r % 2 for q in reachable_from([a.initial], _succ(a)) for r in tops[q])
