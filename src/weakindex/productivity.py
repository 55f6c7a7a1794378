"""Emptiness, universality, productive states and the trimming normal form.

A trimmed deterministic automaton has every state productive except for
the one all-rejecting sink `_bot`, and every transition either leads to
two productive states or sends both branches to `_bot`.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

from .automata import BOT, DetAutomaton, State, Transition, UNIVERSAL
from .errors import EmptyLanguage, ValidationError
from .games import ADAM, EVE, Game, _strong_winners
from .graphs import reachable_from
from .patterns import _memo, _tops, _view


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


def _emptiness(a: DetAutomaton):
    """Solve `emptiness_game` on int positions, in one pass over the step
    table: (ids, target, nonempty).

    The i-th state in sorted order is Eve's position i, and the pair
    (q_i, letter x) is Adam's position n + i*|Sigma| + x.  `target[j]` is
    the index of the state that Adam's position n + j // 2 moves to in
    direction j % 2.  Every position has a move, so the arena is its own
    totalization.  `nonempty[i]` says whether L(A, q_i) is nonempty.
    """
    ids = sorted(a.states)
    index = {q: i for i, q in enumerate(ids)}
    n, k = len(ids), len(a.alphabet)
    delta = a._delta
    target = [index[delta[q, x, d]] for q in ids for x in a.alphabet for d in (0, 1)]
    rank = [a.states[q].rank for q in ids]
    rank += [r for r in rank for _ in range(k)]
    succ = [range(n + i * k, n + i * k + k) for i in range(n)]
    succ += [target[j:j + 2] for j in range(0, len(target), 2)]
    pred: list[list[int]] = [[] for _ in range(n)]
    pred += [[i] for i in range(n) for _ in range(k)]
    for j, w in enumerate(target):
        pred[w].append(n + j // 2)
    win = _strong_winners(([0] * n + [1] * (n * k), rank, succ, pred))
    return ids, target, [not w for w in win[:n]]


def nonempty_states(a: DetAutomaton) -> set[str]:
    """States q with L(A,q) nonempty, by solving the emptiness game.

    The arena is `emptiness_game`'s on int positions (see `_emptiness`),
    solved for its winners only by `games._strong_winners`.
    """
    ids, _, nonempty = _emptiness(a)
    return {q for q, ok in zip(ids, nonempty) if ok}


def _productive(a: DetAutomaton, target: list[int], nonempty: list[bool], i0: int):
    """Productive flags by state index: the fixpoint of `productive_states`,
    run on the emptiness arena's target indices."""
    width = 2 * len(a.alphabet)
    productive = [False] * len(nonempty)
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
    return productive


def productive_states(a: DetAutomaton) -> ProductivityInfo:
    """Least fixpoint of: q0 productive when nonempty; both children of a
    productive state are productive when both are nonempty."""
    ids, target, nonempty = _emptiness(a)
    productive = _productive(a, target, nonempty, ids.index(a.initial))
    return ProductivityInfo(nonempty=frozenset(q for q, ok in zip(ids, nonempty) if ok),
                            productive=frozenset(q for q, ok in zip(ids, productive) if ok))


def trim(a: DetAutomaton) -> DetAutomaton:
    """Merge all non-productive states into the `_bot` sink (rank 1).

    Language is unchanged.  Raises EmptyLanguage when the initial state is
    empty, in which case the normal form is undefined.

    One pass over ints: the emptiness arena is solved for its winners
    only, and the productive states are found on its target indices.  A
    productive state keeps its block of 2|Sigma| parent transitions (see
    `DetAutomaton`), except that a pair with an empty target is
    redirected, both branches, to `_bot`.
    """
    ids, target, nonempty = _emptiness(a)
    i0 = ids.index(a.initial)
    if not nonempty[i0]:
        raise EmptyLanguage("initial state recognizes the empty language")
    productive = _productive(a, target, nonempty, i0)
    kept = [i for i in range(len(ids)) if productive[i]]
    if BOT in a.states and productive[ids.index(BOT)]:
        raise ValidationError(f"state name {BOT!r} is reserved for the sink but is productive")

    width = 2 * len(a.alphabet)
    trans = a.transitions
    transitions: list[Transition] = []
    need_bot = False
    for i in kept:
        lo = i * width
        if all(productive[q] for q in target[lo:lo + width]):
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
    if need_bot:
        insort(names, BOT)
        transitions += [Transition(BOT, letter, d, BOT) for letter in a.alphabet for d in (0, 1)]
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
    v, tops = _view(a), _tops(a).loop
    return not any(tops[i] & v.parity[1] for i in reachable_from([v.index[a.initial]], v.succ))
