"""Core data model: tree automata, index arithmetic, validation.

Automata are alternating parity/weak tree automata over binary trees.
Deterministic automata are a validated sub-shape (`DetAutomaton`) with a
total transition table and only universal states.  All values are
immutable after construction and safe to share.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import product
from operator import eq, itemgetter, lt
from typing import Iterable, NamedTuple, Optional

from .errors import ValidationError
from .graphs import _loop_comps, _sccs
from .trees import _TOKEN, _is_token

EXISTENTIAL = "E"
UNIVERSAL = "A"

# direction of a transition: 0 = left, 1 = right, None = epsilon
Direction = Optional[int]

BOT = "_bot"  # reserved id for the all-rejecting sink
TOP = "_top"  # reserved id for the all-accepting sink


class Transition(NamedTuple):
    source: str
    letter: str
    direction: Direction
    target: str


class State(NamedTuple):
    mode: str  # EXISTENTIAL or UNIVERSAL
    rank: int


def transition_sort_key(t: Transition):
    """Table order: epsilon moves (direction None) after directions 0 and 1."""
    return (t.source, t.letter, 2 if t.direction is None else t.direction, t.target)


def _in_order(ts: tuple) -> bool:
    """Whether the transitions `ts` strictly increase in `transition_sort_key`'s
    order, so are sorted and free of duplicates: one C-level pass over them,
    or over their keys (built for epsilon moves only) if they do not compare."""
    try:
        return all(map(lt, ts, ts[1:]))
    except TypeError:
        keys = [t if t[2] is not None else (t[0], t[1], 2, t[3]) for t in ts]
    try:
        return all(map(lt, keys, keys[1:]))
    except TypeError:  # a field of a bad type, which sorting reports
        return False


@dataclass(frozen=True)
class IndexPair:
    """Mostowski-Rabin index (iota, kappa) with iota in {0,1}, kappa >= iota."""

    iota: int
    kappa: int

    def __post_init__(self):
        if not (type(self.iota) is int and self.iota in (0, 1)):  # not a bool
            raise ValidationError(f"index iota must be 0 or 1, got {self.iota!r}")
        if type(self.kappa) is not int:
            raise ValidationError(f"index kappa must be an integer, got {self.kappa!r}")
        if self.kappa < self.iota:
            raise ValidationError(f"index ({self.iota},{self.kappa}) is not constructible")

    def dual(self) -> "IndexPair":
        if self.iota == 0:
            return IndexPair(1, self.kappa + 1)
        return IndexPair(0, self.kappa - 1)

    def ranks_used(self) -> int:
        return self.kappa - self.iota + 1

    def band(self) -> range:
        return range(self.iota, self.kappa + 1)

    def __str__(self):
        return f"({self.iota},{self.kappa})"


def dual_index(i: IndexPair) -> IndexPair:
    return i.dual()


def index_leq(i: IndexPair, j: IndexPair) -> str:
    """Compare two indices: 'less', 'equal', 'greater' or 'incomparable'.

    An index is greater than another when it uses more ranks; equal rank
    counts with different iota are incomparable (dual indices).
    """
    a, b = i.ranks_used(), j.ranks_used()
    if a < b:
        return "less"
    if a > b:
        return "greater"
    return "equal" if i.iota == j.iota else "incomparable"


@dataclass(frozen=True)
class TreeAutomaton:
    """Alternating tree automaton over binary input trees.

    acceptance 'parity': highest rank visited infinitely often is even.
    acceptance 'weak':   highest rank visited at least once is even.
    """

    alphabet: tuple[str, ...]
    states: dict[str, State]
    initial: str
    transitions: tuple[Transition, ...]
    acceptance: str = "parity"
    name: str = ""

    def __post_init__(self):
        letters = tuple(self.alphabet)
        for x in letters:
            if not isinstance(x, str):
                raise ValidationError(f"alphabet letter {x!r} is not a string")
            if not _is_token(x):
                raise ValidationError(f"alphabet letter {x!r} is not {_TOKEN}")
        object.__setattr__(self, "alphabet", tuple(sorted(set(letters))))
        # a table of Transitions in its final order, as producers emit it, is
        # kept after one pass (the block layout of a DetAutomaton, else
        # _in_order); any other is deduplicated and sorted, in
        # transition_sort_key's order, plain tuple order unless a move is epsilon
        ts = tuple(self.transitions)
        typed = {Transition}.issuperset(map(type, ts))
        blocks = typed and self._in_blocks(ts)
        if not (blocks or typed and _in_order(ts)):
            ts = dict.fromkeys(ts)
            epsilon = any(t.direction is None for t in ts)
            try:
                ts = tuple(sorted(ts, key=transition_sort_key) if epsilon else sorted(ts))
            except TypeError:  # a field of a bad type: kept unsorted for _validate to name
                ts = tuple(ts)
        object.__setattr__(self, "transitions", ts)
        self._validate(blocks)
        # memo space for derived analyses; sound because values are immutable
        object.__setattr__(self, "_memo", {})

    def _in_blocks(self, ts: tuple) -> bool:
        return False  # the block layout is a `DetAutomaton`'s

    def _validate(self, blocks: bool):
        if not self.alphabet:
            raise ValidationError("empty alphabet")
        if not self.states:
            raise ValidationError("automaton has no states")
        if self.initial not in self.states:
            raise ValidationError(f"initial state {self.initial!r} not declared")
        if self.acceptance not in ("parity", "weak"):
            raise ValidationError(f"unknown acceptance {self.acceptance!r}")
        if "#" in self.name or any(map(str.isspace, self.name)):
            raise ValidationError(f"bad automaton name {self.name!r}: "
                                  "whitespace or '#' would not survive the text format")
        self._check_states()
        if blocks:  # the layout holds every source, letter and direction
            if self.states.keys() >= set(map(itemgetter(3), self.transitions)):
                return
        else:
            sources, letters, directions, targets = (
                map(set, zip(*self.transitions)) if self.transitions else (set(),) * 4)
            if (self.states.keys() >= sources and self.states.keys() >= targets
                    and set(self.alphabet) >= letters and {0, 1, None} >= directions):
                return
        # some transition is bad: report the first one in table order
        for t in self.transitions:
            if t.source not in self.states:
                raise ValidationError(f"transition from unknown state {t.source!r}")
            if t.target not in self.states:
                raise ValidationError(f"transition to unknown state {t.target!r}")
            if t.letter not in self.alphabet:
                raise ValidationError(f"transition on unknown letter {t.letter!r}")
            if t.direction not in (0, 1, None):
                raise ValidationError(f"bad direction {t.direction!r}")

    def _check_states(self):
        states = self.states
        try:  # a pass per field; the loop below names the first fault
            if ("".join(states).replace("_", "a").isalnum() and "" not in states
                    and {EXISTENTIAL, UNIVERSAL}.issuperset(map(itemgetter(0), states.values()))
                    and {int}.issuperset(map(type, map(itemgetter(1), states.values())))
                    and min(map(itemgetter(1), states.values())) >= 0):
                return
        except TypeError:
            pass
        for sid, st in states.items():
            if not (isinstance(sid, str) and sid.replace("_", "a").isalnum()):
                raise ValidationError(f"bad state id {sid!r}")
            if st.mode not in (EXISTENTIAL, UNIVERSAL):
                raise ValidationError(f"state {sid}: bad mode {st.mode!r}")
            if type(st.rank) is not int:  # as the fast path: a bool is refused
                raise ValidationError(f"state {sid}: rank {st.rank!r} is not an integer")
            if st.rank < 0:
                raise ValidationError(f"state {sid}: negative rank")

    # -- queries ---------------------------------------------------------

    def rank(self, sid: str) -> int:
        return self.states[sid].rank

    def mode(self, sid: str) -> str:
        return self.states[sid].mode

    def _outgoing(self, sid: str, letter: str) -> tuple[Transition, ...]:
        """The transitions of `sid` on `letter`: a slice of the sorted `transitions`."""
        ts = self.transitions
        try:
            lo = hi = bisect_left(ts, (sid, letter))  # compares source and letter only
        except TypeError:  # a key that is not a pair of strings
            return ()
        while hi < len(ts) and ts[hi].source == sid and ts[hi].letter == letter:
            hi += 1
        return ts[lo:hi]

    def moves(self, sid: str, letter: str) -> list[tuple[Direction, str]]:
        return [(t.direction, t.target) for t in self._outgoing(sid, letter)]

    def ranks(self) -> set[int]:
        return {st.rank for st in self.states.values()}

    def is_restricted(self) -> bool:
        """True when ranks never decrease along transitions."""
        return all(self.rank(t.source) <= self.rank(t.target) for t in self.transitions)

    def with_states(self, states: dict[str, State], name: str = "") -> "TreeAutomaton":
        """Same automaton with a new state table over the same ids (used by
        relabelings).  Only the new state table is checked; the checked
        `transitions` are shared with `self` and the memo starts empty."""
        new = object.__new__(type(self))
        new.__dict__.update(vars(self), states=states, name=name or self.name, _memo={})
        new._check_states()
        if states.keys() != self.states.keys():
            raise ValidationError("with_states must keep the state ids")
        return new


@dataclass(frozen=True)
class DetAutomaton(TreeAutomaton):
    """Deterministic automaton: all states universal, total binary table.

    May carry the designated all-rejecting sink `_bot` (odd rank, total
    self-loops).  The constructor checks that `transitions` is one block
    of 2|Sigma| moves per state, in sorted state order, each in (letter,
    direction) order: a total table free of epsilon moves and duplicates.
    A table given in that layout is kept as it is, since the layout also
    proves it sorted and its sources, letters and directions declared.
    `_table` numbers the blocks, `trim` reuses them, `step` bisects them.
    """

    def _in_blocks(self, ts: tuple) -> bool:
        try:
            layout = product(sorted(self.states), self.alphabet, (0, 1))
            return (len(ts) == 2 * len(self.states) * len(self.alphabet)
                    and all(map(eq, map(itemgetter(0, 1, 2), ts), layout)))
        except TypeError:  # ids that do not sort
            return False

    def _validate(self, blocks: bool):
        super()._validate(blocks)
        if self.acceptance != "parity":
            raise ValidationError("deterministic automata use strong parity acceptance")
        if not (blocks or self._in_blocks(self.transitions)):
            # name the first fault: an epsilon move or a duplicate key in
            # table order, else the first missing key in declaration order,
            # unless `_check_universal` finds an existential state before it
            keys = set()
            for t in self.transitions:
                if t.direction is None:
                    raise ValidationError(f"epsilon transition {t} in deterministic automaton")
                if t[:3] in keys:
                    raise ValidationError(f"duplicate transition for {t[:3]}")
                keys.add(t[:3])
            for sid, x, d in product(self.states, self.alphabet, (0, 1)):
                if self.states[sid].mode != UNIVERSAL:
                    break
                if (sid, x, d) not in keys:
                    raise ValidationError(f"missing transition ({sid},{x},{d}): table not total")
        self._check_universal()

    def _check_universal(self):
        for sid, st in self.states.items():
            if st.mode != UNIVERSAL:
                raise ValidationError(f"state {sid}: deterministic automata are all-universal")

    def with_states(self, states: dict[str, State], name: str = "") -> "DetAutomaton":
        new = super().with_states(states, name)
        new._check_universal()
        return new

    def step(self, sid: str, letter: str, direction: int) -> str:
        out = self._outgoing(sid, letter)
        if out and direction in (0, 1):
            return out[direction].target
        raise KeyError((sid, letter, direction))

    def pair(self, sid: str, letter: str) -> tuple[str, str]:
        return (self.step(sid, letter, 0), self.step(sid, letter, 1))

    def as_alternating(self) -> TreeAutomaton:
        return TreeAutomaton(
            alphabet=self.alphabet,
            states=self.states,
            initial=self.initial,
            transitions=self.transitions,
            acceptance="parity",
            name=self.name,
        )


def _memo(a, key, build):
    cache = a._memo
    if key not in cache:
        cache[key] = build()
    return cache[key]


class _Table(NamedTuple):
    """An automaton's numbering, the one every int view reads.

    State i is the i-th id in sorted order, so sorting states, or taking
    the least, agrees on both sides.  `target[j]` is the index of
    `a.transitions[j].target`; for a `DetAutomaton` that is one block of
    2|Sigma| moves per state, so move (i, x, d) is target[2|Sigma|*i + 2x + d].
    """

    ids: list[str]
    index: dict[str, int]
    rank: list[int]
    owner: list[int]  # 0 = Eve (existential), 1 = Adam (universal)
    target: list[int]


def _table(a: TreeAutomaton, keep: bool = True) -> _Table:
    """`a`'s `_Table`, built once and kept in `a._memo`.  With `keep` false
    a table not kept yet is built and left to the caller: trim numbers its
    input only to build the trimmed automaton."""
    def build():
        ids = sorted(a.states)
        index = {q: i for i, q in enumerate(ids)}
        states = [a.states[q] for q in ids]
        return _Table(ids, index, [st.rank for st in states],
                      [0 if st.mode == EXISTENTIAL else 1 for st in states],
                      [index[t.target] for t in a.transitions])
    return _memo(a, "table", build) if keep else a._memo.get("table") or build()


def _graph(a: TreeAutomaton):
    """`a`'s move graph on its `_table` numbering, built once and kept in
    `a._memo`: (succ, sccs), `succ[i]` state i's distinct successors,
    ascending, over every letter, both directions and epsilon moves, and
    `sccs` its strongly connected components by `graphs._sccs`, in
    topological order (sources first).  The pattern view condenses it
    further; membership reads only these two.  The
    transitions are sorted by source, so a state's moves are one slice of
    them: for a `DetAutomaton` its block of 2|Sigma|, else found by bisection."""
    def build():
        ids, _, _, _, target = _table(a)
        ts = a.transitions
        if isinstance(a, DetAutomaton):
            bounds = range(0, len(ts) + 1, 2 * len(a.alphabet))
        else:  # (q,) sorts before q's transitions and after those of smaller ids
            bounds = [bisect_left(ts, (q,)) for q in ids] + [len(ts)]
        succ = [sorted(set(target[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]
        return succ, _sccs(succ)[::-1]
    return _memo(a, "graph", build)


def _loops(a: TreeAutomaton) -> list[tuple[int, int, list[int]]]:
    """`graphs._loop_comps` on `a`'s `_graph` and `_table` ranks, built once
    and kept in `a._memo`: the one list of `a`'s loop components by top rank."""
    return _memo(a, "loops", lambda: _loop_comps(*_graph(a), _table(a).rank))


def _sink_moves(q: str, alphabet: tuple[str, ...]) -> list[Transition]:
    """The moves of a sink `q`, to itself on every letter and direction, in
    table order for a sorted alphabet."""
    return [Transition(q, letter, d, q) for letter in alphabet for d in (0, 1)]


def _one_state(alphabet: tuple[str, ...], q: str, rank: int, name: str) -> TreeAutomaton:
    """The weak automaton of the one universal sink `q` of `rank`."""
    return TreeAutomaton(alphabet=alphabet, states={q: State(UNIVERSAL, rank)}, initial=q,
                         transitions=tuple(_sink_moves(q, alphabet)), acceptance="weak",
                         name=name)


def index_of(a: TreeAutomaton) -> IndexPair:
    """Index after scaling ranks down by the largest even shift.

    The automaton itself is not mutated; only the index is reported.
    """
    lo, hi = min(a.ranks()), max(a.ranks())
    shift = lo - (lo % 2)
    return IndexPair(lo - shift, hi - shift)


def normalize_ranks(a: TreeAutomaton) -> TreeAutomaton:
    """Shift all ranks down by the largest even amount (min becomes 0 or 1)."""
    lo = min(a.ranks())
    shift = lo - (lo % 2)
    if shift == 0:
        return a
    states = {sid: State(st.mode, st.rank - shift) for sid, st in a.states.items()}
    return a.with_states(states)


def make_automaton(
    alphabet: Iterable[str],
    states: dict[str, tuple[str, int]],
    initial: str,
    transitions: Iterable[tuple],
    acceptance: str = "parity",
    deterministic: bool = False,
    name: str = "",
) -> TreeAutomaton:
    """Convenience constructor from plain tuples."""
    st = {sid: State(m, r) for sid, (m, r) in states.items()}
    tr = tuple(Transition(*t) for t in transitions)
    cls = DetAutomaton if deterministic else TreeAutomaton
    return cls(
        alphabet=tuple(alphabet),
        states=st,
        initial=initial,
        transitions=tr,
        acceptance=acceptance,
        name=name,
    )
