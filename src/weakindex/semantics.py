"""Ground-truth membership, the run-to-weak-game reduction, weak game
language membership, Skurczynski fixtures, sampling, bounded equivalence.

Membership of a regular tree in an automaton's language is decided on the
finite product of automaton and tree graph, solved under the automaton's
acceptance condition.  Automata enter it through their one numbering,
`automata._table`, from which `_view` derives letter ids and one flat
list of moves by (state, letter id); trees enter it as int views
(labels, children, root), whose labels the product search maps to letter
ids once.  The search indexes its positions (state, node) in a flat list
of |Q|*nn slots, or in a dict for products above `_LIST_INDEX_SLOTS`.
An automaton is read, once, on a rank vector that never decreases along
a move (a strong automaton's cycle ranks, a weak automaton's (state,
highest rank so far) expansion, see `_vector`), so that a play is lost
only inside a looping component of odd rank or at a state where Eve is
stuck (Emerson & Lei, SCP 1987).  A state that can reach neither, or
from which Eve can force every play out of such states (her attractor),
is not live and accepts every tree.  `_search` builds, once per
automaton, the one table (start, ranks, moves, owner per slot) its
queries run on, or none when its start is not live, so that every query
is answered without a search.  With no existential state the table is
the vector cut to live states or, for a strong automaton with no cycle
ranks, copies of it over guessed odd loop tops, and one nested
depth-first search (`_nested_accepts`) decides on it with no product
arrays.  With one, `eve_wins_arrays` decides on the table's product
arrays: by the linear weak layering on the vector cut where Eve has
already won, or, with no cycle ranks, by the strong solver on the
automaton's own view (`_plain`).  `bounded_equiv` indexes each tree
once and runs both automata on that view; it takes the fixed battery
and the samples as views and builds a `RegularTree` only for the
counterexample it returns.  Cycle ranks and odd loop tops read the
loop components of the pattern view's move graph, `automata._loops`, the
one list the pattern view's loop tops read too.  The run reduction folds
the same product search into its tree.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import islice
from typing import Optional

from .automata import (
    DetAutomaton,
    EXISTENTIAL,
    IndexPair,
    State,
    Transition,
    TreeAutomaton,
    UNIVERSAL,
    _graph,
    _loops,
    _table,
    index_of,
    normalize_ranks,
)
from .errors import ValidationError
from .games import ADAM, EVE, Game, eve_wins_arrays
from .graphs import _sccs, has_cycle_inside
from .rng import _words
from .trees import _TOKEN, Node, RegularTree, _is_token, parse_wlabel


# -- membership --------------------------------------------------------------


def _check_letters(a: TreeAutomaton, labels):
    bad = set(labels).difference(a.alphabet)
    if bad:
        raise ValidationError(f"tree labels outside alphabet: {sorted(bad)}")


def _check_labels(a: TreeAutomaton, t: RegularTree):
    _check_letters(a, t.labels())
    if t.arity != 2:
        raise ValidationError("automaton inputs are binary trees")


def _view(a: TreeAutomaton):
    """Membership's view of an automaton, on its `_table` numbering: (state
    index, letter id in alphabet order, moves, owner per state with 0 = Eve,
    rank per state).  `moves[q * |Sigma| + x]` lists the (direction, target
    index) pairs of state q on letter id x in transition order.  Built once
    and kept in `a._memo`.
    """
    view = a._memo.get("membership_view")
    if view is None:
        _, index, rank, owner, target = _table(a)
        letter = {x: i for i, x in enumerate(a.alphabet)}
        width = len(letter)
        moves: list[list] = [[] for _ in range(len(index) * width)]
        for t, q in zip(a.transitions, target):
            moves[index[t.source] * width + letter[t.letter]].append((t.direction, q))
        view = a._memo["membership_view"] = (index, letter, moves, owner, rank)
    return view


def _tree_view(t: RegularTree):
    """Int view of a tree: (labels, children, root) with nodes in sorted-name
    order, children[i] holding child indices."""
    names = sorted(t.nodes)
    nidx = {n: i for i, n in enumerate(names)}
    nodes = [t.nodes[n] for n in names]
    return ([node.label for node in nodes],
            [tuple(nidx[c] for c in node.children) for node in nodes],
            nidx[t.root])


def _tree_of(view, names=None) -> RegularTree:
    """The binary tree of a view, node i named `names[i]`, by default `n{i}`."""
    labels, children, root = view
    if names is None:
        names = [f"n{i}" for i in range(len(labels))]
    return RegularTree(2, {names[i]: Node(label, (names[c0], names[c1]))
                           for i, (label, (c0, c1)) in enumerate(zip(labels, children))},
                       names[root])


# The product search indexes position (state q, node v) at slot q * nn + v
# of a list of -1s while the product has at most this many slots, and in a
# dict that reads -1 the same way past it: `weakindex member` takes trees of
# any size.
_LIST_INDEX_SLOTS = 1 << 12


def _product(a: TreeAutomaton, view, table=None):
    """Product positions (state, node) reachable from (start, root), as
    (states, nodes, succ) in breadth-first order: the one product search
    of the membership engine.  Position i is (`states[i]`, `nodes[i]`),
    and `succ[i]` lists the positions its moves enter.

    The states and moves are those of `table`, a membership table of `a`
    from `_search`, by default `a`'s own view, `_plain(a)`.  A move listed
    twice is listed twice in `succ`, and a position with no move is a dead
    end.  Every position is reachable from position 0.  Positions are
    numbered in search order, so the result does not depend on how the
    view numbers its nodes.
    """
    q0, rank, moves, _ = _plain(a) if table is None else table
    letter = _view(a)[1]
    labels, children, root = view
    nn = len(labels)
    width = len(letter)
    row = [letter[x] for x in labels]
    slots = len(rank) * nn
    index = [-1] * slots if slots <= _LIST_INDEX_SLOTS else defaultdict(lambda: -1)
    index[q0 * nn + root] = 0
    states, nodes = [q0], [root]
    succ: list[list[int]] = []
    for i, si in enumerate(states):  # breadth-first: `states` grows while it is read
        ni = nodes[i]
        kids = children[ni]
        out = []
        for d, qi in moves[si * width + row[ni]]:
            n2 = ni if d is None else kids[d]
            code = qi * nn + n2
            j = index[code]
            if j < 0:
                j = index[code] = len(states)
                states.append(qi)
                nodes.append(n2)
            out.append(j)
        succ.append(out)
    return states, nodes, succ


def _product_arrays(a: TreeAutomaton, view, table=None):
    """The positions of `_product(a, view, table)` as an int game (owner,
    rank, succ): a position has its state's rank in the table, and the
    owner the table gives its (state, letter id) slot.  On a `_search`
    table a slot won by Eve is a position where Adam is stuck.
    """
    if table is None:
        table = _plain(a)
    states, nodes, succ = _product(a, view, table)
    _, rank, _, owner = table
    letter = _view(a)[1]
    width, row = len(letter), [letter[x] for x in view[0]]
    return ([owner[q * width + row[v]] for q, v in zip(states, nodes)],
            [rank[q] for q in states], succ)


def _reach(succ, comps, flags):
    """Per state of the move graph `succ`, 1 iff it can reach a flagged
    component: `comps` are components of `succ`, sinks first, and
    `flags` holds one flag per component, in that order, so each component
    reads its successors' marks once they are set.  The one sinks-first
    pass of liveness (`_vector`) and of `_search`'s copies."""
    marks = bytearray(len(succ))
    for comp, flag in zip(comps, flags):
        if flag or any(marks[p] for q in comp for p in succ[q]):
            for q in comp:
                marks[q] = 1
    return marks


def _stuck(moves, owner, width: int):
    """Per state, 1 iff it is existential and has no move on some letter."""
    return bytearray(not owner[q] and not all(moves[q * width:(q + 1) * width])
                     for q in range(len(owner)))


def _attract(live, moves, owner, width: int):
    """Clear, in place, the `live` flag of every state from which Eve can
    force a play into states that are not live whatever letter each
    position reads: an existential state with, on every letter, a move to
    such a state, or a universal one whose moves on every letter all lead
    to such states, repeated to the least fixed point (Eve's attractor).
    From those states too Eve wins on every tree.  Linear in the moves:
    `need[q]` counts what still keeps q out, Adam's moves into live states
    or Eve's letters with no move out of them."""
    need = [0] * len(live)
    waiting = [[] for _ in live]  # per live state, the (state, letter) slots it holds up
    for q, flag in enumerate(live):
        if not flag:
            continue
        for x in range(q * width, (q + 1) * width):
            held = [p for _, p in moves[x] if live[p]]
            if owner[q]:
                need[q] += len(held)
            elif len(held) == len(moves[x]):
                need[q] += 1
            else:
                continue
            for p in held:
                waiting[p].append(x)
    counted = bytearray(len(moves))  # Eve's slots already let through
    todo = [q for q, flag in enumerate(live) if flag and not need[q]]
    while todo:
        p = todo.pop()
        live[p] = 0
        for x in waiting[p]:
            q = x // width
            if owner[q] or not counted[x]:
                counted[x] = 1
                need[q] -= 1
                if not need[q]:
                    todo.append(q)


def _cycle_ranks(a: TreeAutomaton):
    """(cycle ranks, move graph, its components sinks first) of `a`, or
    None if one of its components has loops of both parities.

    The graph and its components are `automata._graph`'s, which the
    pattern view reads too, and the parities of each component's loop
    tops are those of its entries in `automata._loops`.  A state in
    component c, in topological order, gets 2c plus the parity of its
    component's loop tops (0 with no loop).  Cycle ranks never decrease
    along a move, and every closed walk in a component has a top of its
    parity, so read as a weak automaton on its cycle ranks the automaton
    keeps its language (Emerson & Lei, SCP 1987).
    """
    succ, sccs = _graph(a)
    parities = bytearray(len(sccs))  # per component, bit b set if a loop top has parity b
    for c, r, _ in _loops(a):
        parities[c] |= 1 << (r & 1)
    if 3 in parities:
        return None
    ranks = [0] * len(succ)
    for c, comp in enumerate(sccs):
        for q in comp:
            ranks[q] = 2 * c + (parities[c] >> 1)
    return ranks, succ, sccs[::-1]


def _expansion(moves, rank, width: int, q0: int):
    """(moves, ranks, states, succ) of the (state, highest rank so far)
    expansion: pair (q, m) moves where q does, to (p, max(m, rank p)), and
    has rank m; `states[j]` is the state of pair j and `succ[j]` its
    distinct successors, in the order of its moves.  The pairs reachable
    from (q0, rank q0) are numbered in one breadth-first search from it,
    which is pair 0."""
    pairs = [(q0, rank[q0])]
    index = {pairs[0]: 0}
    out_moves, succ = [], []
    for q, m in pairs:  # breadth-first: `pairs` grows while it is read
        for x in range(q * width, (q + 1) * width):
            out = []
            for d, p in moves[x]:
                r = rank[p]
                pair = (p, r if r > m else m)
                j = index.get(pair)
                if j is None:
                    j = index[pair] = len(pairs)
                    pairs.append(pair)
                out.append((d, j))
            out_moves.append(out)
        succ.append(list(dict.fromkeys(j for out in out_moves[-width:] for _, j in out)))
    return out_moves, [m for _, m in pairs], [q for q, _ in pairs], succ


def _vector(a: TreeAutomaton):
    """(start, ranks, moves, live, owner) of `a` read on a rank vector that
    never decreases along a move, or None if it has none.  Built once and
    kept in `a._memo`.

    - A weak automaton: its (state, highest rank so far) expansion, by
      `_expansion` from the initial state.  When no move lowers a rank,
      every pair is (q, rank q), and the expansion is the automaton on its
      own ranks, cut to the states its initial state reaches.
    - A strong automaton: its cycle ranks, if it has them (else None).
    `start` is the initial state of the vector, `moves[q * |Sigma| + x]`
    lists the (direction, state) moves of state q on letter id x, and
    `owner[q]` is 0 if q is existential.  The ranks are constant on each
    component of the vector's move graph, so a play is lost only inside a
    looping component of odd rank (Emerson & Lei, SCP 1987) or where Eve
    is stuck.  `live[q]` is 0 only if Eve wins from q on every tree: q can
    reach no looping component of odd rank and no existential state with
    no move on some letter, counting every letter, both directions and
    epsilon moves (`_reach`), or Eve can force every play from q into such
    states (`_attract`).  With no existential state the attractor clears
    no flag, so `live[q]` is then 1 iff q can reach a looping component of
    odd rank.
    """
    memo = a._memo
    if "membership_vector" in memo:
        return memo["membership_vector"]

    def build():  # nested, as in `_search`: a memo hit makes no closure
        sidx, letter, moves, owner, rank = _view(a)
        width = len(letter)
        if a.acceptance == "weak":
            moves, ranks, states, succ = _expansion(moves, rank, width, sidx[a.initial])
            owner = [owner[q] for q in states]
            start, found = 0, (ranks, succ, _sccs(succ))
        else:
            start, found = sidx[a.initial], _cycle_ranks(a)
        if found is None:
            return None
        ranks, succ, comps = found
        stuck = _stuck(moves, owner, width)
        live = _reach(succ, comps, (ranks[c[0]] & 1 and has_cycle_inside(c, succ)
                                    or any(stuck[q] for q in c) for c in comps))
        if 0 in owner:
            _attract(live, moves, owner, width)
        return start, ranks, moves, live, owner
    vector = memo["membership_vector"] = build()
    return vector


def _plain(a: TreeAutomaton):
    """`a`'s own `_view` as a membership table (start, ranks, moves,
    owner): its initial state, its ranks and moves, and per (state, letter
    id) slot its state's owner."""
    sidx, letter, moves, owner, rank = _view(a)
    return sidx[a.initial], rank, moves, bytearray(o for o in owner for _ in letter)


def _search(a: TreeAutomaton):
    """(start, ranks, moves, owner), the table on which `_accepts` decides
    the memberships of `a`, or None if its language holds every tree.
    Its moves and owners are listed per (state s, letter id x) slot
    s * |Sigma| + x, as `_view`'s moves are.  Built once, kept in `a._memo`.

    With a `_vector`, the table is None if the vector's start is not live;
    else its states and owners are the vector's, and its moves lead only
    into live states: a move into a state that is not live would only lose
    for Adam.  With no existential state a state's rank is 1 iff its
    vector rank is odd.  Otherwise the ranks are the vector's, and an
    existential slot with a move into a state that is not live is won by
    Eve, who takes that move: the slot gets owner 1 and no move, a dead
    end where Adam is stuck.  A universal slot with no move into a live
    state is a dead end Adam loses, an existential slot with no move one
    Eve loses (`_stuck`).

    Without one, an automaton with an existential state gets its own view,
    `_plain(a)`.  One with none gets copies of itself over guessed odd
    loop tops, every slot Adam's.  An odd loop top is a state q of odd
    rank r that lies on a cycle of the subgraph ranked at most r: a
    rank-r state of an entry (c, r, comp) of `automata._loops` with r
    odd.  The states are copies:
    - copy 0 is `a` itself, states 0..|Q|-1 as `_view` numbers them, with
      its moves cut to states that can reach an odd loop top (`_reach`);
    - each entry with odd r gives a copy of its component, numbered
      after the copies before it in `_loops`' order, that keeps only the
      moves inside that component;
    - an odd loop top q of copy 0 moves first, by epsilon on every letter,
      to its own state in the copy of its component at rank(q).
    A state of the copy of a component at r has rank 1 iff its rank is r;
    every state of copy 0 has rank 0.  `start` is the initial state in copy 0, and the table is
    None if it reaches no odd loop top.
    """
    memo = a._memo
    if "membership_search" in memo:
        return memo["membership_search"]

    def build():  # nested, so that a memo hit creates none of its comprehensions' cells
        sidx, letter, moves, owner, rank = _view(a)
        width = len(letter)
        existential = 0 in owner
        vector = _vector(a)
        if vector is not None:
            start, ranks, moves, live, owner = vector
            if not live[start]:
                return None
            kept = [[(d, p) for d, p in out if live[p]] for out in moves]
            if not existential:
                return start, bytearray(r & 1 for r in ranks), kept, bytearray([1]) * len(moves)
            slot_owner = bytearray(o for o in owner for _ in letter)
            for x, out in enumerate(moves):
                if not slot_owner[x] and len(kept[x]) < len(out):  # Eve moves where she wins
                    slot_owner[x], kept[x] = 1, []
            return start, ranks, kept, slot_owner
        if existential:
            return _plain(a)
        succ, sccs = _graph(a)
        n = len(rank)
        jump = [-1] * n  # per odd loop top of copy 0, its state in the copy of its rank
        accepting, copy_moves = bytearray(n), []
        for _, r, comp in _loops(a):
            if not r & 1:
                continue
            place = {q: len(accepting) + k for k, q in enumerate(comp)}
            for q in comp:
                accepting.append(rank[q] == r)
                if rank[q] == r:
                    jump[q] = place[q]
                copy_moves += ([(d, place[p]) for d, p in moves[x] if p in place]
                               for x in range(q * width, (q + 1) * width))
        sinks_first = sccs[::-1]
        reach = _reach(succ, sinks_first,
                       (any(jump[q] >= 0 for q in comp) for comp in sinks_first))
        start = sidx[a.initial]
        if not reach[start]:
            return None
        kept = []
        for q in range(n):
            first = [(None, jump[q])] if jump[q] >= 0 else []
            kept += (first + [(d, p) for d, p in moves[x] if reach[p]]
                     for x in range(q * width, (q + 1) * width))
        kept += copy_moves
        return start, accepting, kept, bytearray([1]) * len(kept)
    table = memo["membership_search"] = build()
    return table


def _nested_accepts(a: TreeAutomaton, view) -> bool:
    """Membership of the tree `view` in `a`, an automaton with no
    existential state, decided by a nested depth-first search over the
    positions (state, node) of its `_search` table, stepping moves as
    `_product` does: the one search of a membership in which Adam moves
    alone.  A position is accepting iff its state's rank in the table is 1.

    Adam wins iff the product of `a` and the tree has a reachable cycle
    that breaks `a`'s condition.  On a `_vector` that is a cycle of odd
    rank, all of whose positions are accepting.  Without one it is a cycle
    whose top rank r is odd.  Such a cycle runs through an odd loop top q
    of rank r and stays inside q's component at r, so it is reached in
    copy 0, entered at q in copy r and closed there through an accepting
    position; a cycle through an accepting position of copy r is one of
    the product with top r.  Either way Adam wins iff some accepting cycle
    is reachable, and the search finds one as the nested depth-first
    search of Courcoubetis, Vardi, Wolper and Yannakakis (FMSD 1992) does,
    in the colours of Schwoon and Esparza (TACAS 2005): the blue search
    marks the positions on its path cyan and those it has finished blue,
    and on finishing an accepting position runs a red search from it
    through blue positions, which it turns red.  A move from the blue
    search into a cyan position closes a cycle, accepting if either end
    is; a move of a red search into a cyan position closes one through
    the accepting position it started from.  Either returns at once.  On
    a vector every cycle holds a move of the blue search into a cyan
    position, so the blue search alone finds an accepting one.  Each
    position is searched at most once in blue and once in red.  A dead
    end is a leaf: Adam, stuck there, loses.  Position (s, v) has slot
    s * nn + v in a bytearray while there are at most `_LIST_INDEX_SLOTS`
    slots, else in a dict.
    """
    table = _search(a)
    if table is None:
        return True
    start, accepting, moves, _ = table
    letter = _view(a)[1]
    labels, children, root = view
    nn = len(labels)
    width = len(letter)
    row = [letter[x] for x in labels]
    slots = len(accepting) * nn
    color = bytearray(slots) if slots <= _LIST_INDEX_SLOTS else defaultdict(int)
    key = start * nn + root
    color[key] = 1  # 1 cyan, 2 blue, 3 red
    blue = [(key, start, root, iter(moves[start * width + row[root]]))]
    while blue:
        key, s, v, out = blue[-1]
        for d, p in out:
            w = v if d is None else children[v][d]
            k = p * nn + w
            c = color[k]
            if not c:
                color[k] = 1
                blue.append((k, p, w, iter(moves[p * width + row[w]])))
                break
            if c == 1 and (accepting[s] or accepting[p]):
                return False
        else:
            blue.pop()
            if not accepting[s]:
                color[key] = 2
                continue
            red = [(v, iter(moves[s * width + row[v]]))]  # (s, v) stays cyan meanwhile
            while red:
                u, rest = red[-1]
                for d, p in rest:
                    w = u if d is None else children[u][d]
                    k = p * nn + w
                    c = color[k]
                    if c == 1:
                        return False
                    if c == 2:
                        color[k] = 3
                        red.append((w, iter(moves[p * width + row[w]])))
                        break
                else:
                    red.pop()
            color[key] = 3
    return True


def _accepts(a: TreeAutomaton, view) -> bool:
    """Membership of the tree `view` in the language of `a`, on its one
    `_search` table:
    - With no table, the tree is accepted at once, with no search.
    - An automaton with no existential state is decided by the nested
      depth-first search `_nested_accepts`, which builds no product
      arrays: on its `_vector` (weak, or strong with loops of one parity
      in each component) cut to live states, else on copies over guessed
      odd loop tops.
    - Any other is decided by `eve_wins_arrays` on the table's product
      arrays.  With a `_vector`, the table is the vector cut where Eve has
      already won, solved under the weak condition: linear weak layering,
      also for a strong automaton.  Without one, it is `a`'s own view,
      solved by the strong solver, a winner-only solve at position 0.
    """
    table = _search(a)
    if table is None:
        return True
    if 0 not in _view(a)[3]:
        return _nested_accepts(a, view)
    return eve_wins_arrays(*_product_arrays(a, view, table), weak=_vector(a) is not None)


def alt_accepts(a: TreeAutomaton, t: RegularTree) -> bool:
    """Eve wins the acceptance game on the product of automaton and tree."""
    _check_labels(a, t)
    return _accepts(a, _tree_view(t))


def det_accepts(a: DetAutomaton, t: RegularTree) -> bool:
    """Deterministic membership: the unique run must have no reachable cycle
    with odd top rank; the product game is all-Adam.  `_accepts` decides it
    by the nested search on the automaton's `_search` table: its cycle
    ranks, or copies over guessed odd loop tops if a component of the
    automaton has loops of both parities."""
    _check_labels(a, t)
    return _accepts(a, _tree_view(t))


def product_game(a: TreeAutomaton, t: RegularTree) -> Game:
    """The acceptance game as a public Game value (inspection, tests): the
    positions of `_product` on `a`'s view, position (q, v) named `q@v`."""
    _check_labels(a, t)
    states, nodes, succ = _product(a, _tree_view(t))
    ids, _, rank, owner, _ = _table(a)
    names = sorted(t.nodes)
    pid = [f"{ids[q]}@{names[v]}" for q, v in zip(states, nodes)]
    return Game(positions={p: ((EVE, ADAM)[owner[q]], rank[q]) for p, q in zip(pid, states)},
                edges=tuple((pid[i], pid[j]) for i, out in enumerate(succ) for j in out),
                initial=pid[0],
                condition=a.acceptance if a.acceptance in ("parity", "weak") else "parity")


# -- run reduction to weak game languages -------------------------------------


@dataclass(frozen=True)
class WInstance:
    """A weak-game-language instance: N-ary tree over owner:rank labels."""

    tree: RegularTree
    band: IndexPair


def run_reduction(a: TreeAutomaton, t: RegularTree) -> WInstance:
    """Fold the acceptance game of a weak automaton on t into an N-ary tree.

    Positions with missing moves are padded with self-looping children
    whose rank is the smallest rank of the owner's losing parity at or
    above the band top.  Such a pad dominates every rank a play can
    otherwise see, so taking it always loses for the owner: extra options
    are never attractive, and a dead end forces its owner into the pad,
    which is exactly the stuck rule.  The band may widen by one.  The game
    is `_product_arrays`' search, and its position i becomes node `n{i}`.
    """
    if a.acceptance != "weak":
        raise ValidationError("run_reduction expects weak acceptance")
    _check_labels(a, t)
    a = normalize_ranks(a)
    idx = index_of(a)
    iota, kappa = idx.iota, idx.kappa
    owner, rank, succ = _product_arrays(a, _tree_view(t))
    arity = max(2, max(map(len, succ)))

    pads: dict[int, str] = {}
    nodes: dict[str, Node] = {}
    top_rank = kappa
    for i, (o, r, kids) in enumerate(zip(owner, rank, succ)):
        mode = "EA"[o]
        kids = [f"n{j}" for j in kids]
        if len(kids) < arity:
            pad = kappa if kappa % 2 == 1 - o else kappa + 1
            top_rank = max(top_rank, pad)
            if pad not in pads:
                pid = pads[pad] = f"pad_{mode}_{pad}"
                nodes[pid] = Node(f"{mode}:{pad}", (pid,) * arity)
            kids += [pads[pad]] * (arity - len(kids))
        nodes[f"n{i}"] = Node(f"{mode}:{r}", tuple(kids))
    return WInstance(tree=RegularTree(arity, nodes, "n0"), band=IndexPair(iota, top_rank))


def w_member(t: RegularTree, band: IndexPair) -> bool:
    """Eve wins the weak parity game read directly off the labeled tree graph."""
    labels, succ, root = _tree_view(t)
    owner, rank = [], []
    for i, label in enumerate(labels):
        lab = parse_wlabel(label)
        if not (band.iota <= lab.rank <= band.kappa):
            raise ValidationError(
                f"node {sorted(t.nodes)[i]} rank {lab.rank} outside band [{band.iota},{band.kappa}]")
        owner.append(0 if lab.owner == "E" else 1)
        rank.append(lab.rank)
    return eve_wins_arrays(owner, rank, succ, weak=True, position=root)


# -- Skurczynski fixtures ------------------------------------------------------


def skurczynski(index: IndexPair) -> TreeAutomaton:
    """Weak automaton for the canonical hard language of the given index.

    (0,1) accepts exactly the all-a tree; (1,n+1) is the complement of
    (0,n), with owners swapped and ranks shifted by one; (0,n+1) walks the
    leftmost path and spawns the (1,n+1) automaton into every right
    subtree.  Unfolded, (0,n) is a chain of n-1 `spine` states, the one at
    depth k named with k `c_` prefixes, ranked k and dualized k times,
    whose right moves enter the next depth; the all-a check of (0,1) sits
    at depth n-1.  It is built in that one pass, deepest state first.
    """
    flip = index.iota  # (1, n+1) dualizes (0, n) once more
    n = index.kappa - flip
    if n < 1:
        raise ValidationError("skurczynski indices of the sigma side start at (1,2)" if flip
                              else "skurczynski indices start at (0,1)")
    states: dict[str, State] = {}

    def at(depth, name, rank):
        shift = depth + flip  # dualizations: each swaps owners and adds one to ranks
        states["c_" * depth + name] = State(EXISTENTIAL if shift % 2 else UNIVERSAL, rank + shift)
        return "c_" * depth + name

    w, rej = at(n - 1, "w", 0), at(n - 1, "rej", 1)
    trans = []
    for d in (0, 1):
        trans += [Transition(w, "a", d, w), Transition(w, "b", d, rej),
                  Transition(rej, "a", d, rej), Transition(rej, "b", d, rej)]
    inner = w
    for depth in range(n - 2, -1, -1):
        spine = at(depth, "spine", 0)
        for letter in ("a", "b"):
            trans += [Transition(spine, letter, 0, spine), Transition(spine, letter, 1, inner)]
        inner = spine
    return TreeAutomaton(alphabet=("a", "b"), states=states, initial=inner,
                         transitions=tuple(trans), acceptance="weak",
                         name=f"skurczynski_{index.iota}_{index.kappa}")


def skurczynski_member_oracle(index: IndexPair, t: RegularTree) -> bool:
    """Direct recursive evaluation of the language definitions.

    On a regular tree the leftmost path cycles, so the family of right
    subtrees spawned along it is finite and the recursion terminates.
    """
    if t.arity != 2:
        raise ValidationError("oracle expects binary trees")
    if index.iota == 0 and index.kappa == 1:
        return all(t.nodes[n].label == "a" for n in t.nodes)
    if index.iota == 1:
        return not skurczynski_member_oracle(IndexPair(0, index.kappa - 1), t)
    # (0, n) with n >= 2: every right subtree along the leftmost path
    inner = IndexPair(1, index.kappa)
    node = t.root
    visited = set()
    while node not in visited:
        visited.add(node)
        right = t.child(node, 1)
        if not skurczynski_member_oracle(inner, t.rerooted(right)):
            return False
        node = t.child(node, 0)
    return True


# -- sampling ------------------------------------------------------------------


@dataclass(frozen=True)
class SamplerParams:
    seed: int
    max_nodes: int
    alphabet: tuple[str, ...]
    count: int

    def __post_init__(self):
        for field in ("seed", "max_nodes", "count"):
            value = getattr(self, field)
            if type(value) is not int:  # not a bool
                raise ValidationError(f"{field} must be an integer, got {value!r}")
        if self.count < 1:
            raise ValidationError("count must be >= 1")
        if self.max_nodes < 1:
            raise ValidationError("max_nodes must be >= 1")
        if not self.alphabet:
            raise ValidationError("alphabet must be nonempty")
        for x in self.alphabet:
            if not _is_token(x):
                raise ValidationError(f"alphabet letter {x!r} is not {_TOKEN}")


def _sample_views(p: SamplerParams):
    """The trees of `sample_regular_tree` as views; node i is the tree's `n{i}`.

    Node count is uniform in [1, max_nodes]; a random tree skeleton keeps
    every node reachable, remaining child slots are wired uniformly.  Child
    s of node i is slot 2i + s, and the free slots stay in slot order, so
    each skeleton step is a pop and two appends.  A draw below n is the
    next word of `SplitMix64(p.seed)` modulo n, which is what
    `SplitMix64.below(n)` returns; the words come from `rng._words`.
    """
    words = _words(p.seed)
    draw = words.__next__
    letters = tuple(p.alphabet)
    width = len(letters)
    for _ in range(p.count):
        k = 1 + draw() % p.max_nodes
        labels = [letters[w % width] for w in islice(words, k)]
        slots = [-1] * (2 * k)
        free = [0, 1]
        for j, w in enumerate(islice(words, k - 1), 1):
            slots[free.pop(w % len(free))] = j
            free += (2 * j, 2 * j + 1)
        slots = [draw() % k if c < 0 else c for c in slots]
        yield labels, list(zip(slots[::2], slots[1::2])), 0


def sample_regular_tree(p: SamplerParams) -> list[RegularTree]:
    """Deterministic pseudo-random binary regular trees (splitmix64 stream)."""
    return [_tree_of(v) for v in _sample_views(p)]


# -- bounded equivalence --------------------------------------------------------


def _battery_views(alphabet):
    """The trees of `deterministic_battery` as (node names, view), nodes in
    sorted-name order, so each view is its tree's `_tree_view`.

    A constant tree is the one node `n`.  A perturbation tree names each
    node at depth at most two `p` plus its path, and everything below is
    the one node `rest`; its nodes are perturbed in breadth-first order.
    All perturbation views share one children table.
    """
    letters = sorted(set(alphabet))
    for base in letters:
        yield ("n",), ([base], [(0, 0)], 0)
    spots = ("", "0", "1", "00", "01", "10", "11")
    names = tuple(sorted("p" + path for path in spots)) + ("rest",)
    at = {name: i for i, name in enumerate(names)}
    rest = at["rest"]
    children = [tuple(at.get(name + s, rest) for s in "01") for name in names]
    for base in letters:
        for other in letters:
            if other == base:
                continue
            for spot in spots:
                labels = [base] * len(names)
                labels[at["p" + spot]] = other
                yield names, (labels, children, 0)


def deterministic_battery(alphabet) -> list[RegularTree]:
    """All-constant trees plus single-letter perturbations near the root."""
    return [_tree_of(view, names) for names, view in _battery_views(alphabet)]


def bounded_equiv(a: TreeAutomaton, b: TreeAutomaton, p: SamplerParams) -> Optional[RegularTree]:
    """Compare memberships on the fixed battery plus sampled trees.

    Each tree is indexed once and both automata run on that view; the
    automata's alphabets are equal sorted tuples, so they give the letters
    the same ids.  Returns None on pass, or the first mismatching tree,
    the only one built as a `RegularTree`.  Sampled labels are drawn from
    `p.alphabet`, so they are checked against the automata's alphabet per
    tree only if `p.alphabet` has a letter outside it.  Every call walks
    the whole battery and all `p.count` samples, also when both automata
    accept every tree: each of those memberships is then answered at once
    (`_accepts`), and a call costs what its trees cost, not whether the
    pair happens to hold every tree.
    """
    if set(a.alphabet) != set(b.alphabet):
        raise ValidationError("bounded_equiv needs a shared alphabet")
    per_tree = not set(p.alphabet) <= set(a.alphabet)
    for names, view in _battery_views(a.alphabet):
        if _accepts(a, view) != _accepts(b, view):
            return _tree_of(view, names)
    for view in _sample_views(p):
        if per_tree:
            _check_letters(a, view[0])
        if _accepts(a, view) != _accepts(b, view):
            return _tree_of(view)
    return None
