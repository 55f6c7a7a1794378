"""Shared deterministic random generators and reference searches for the test suite."""

from __future__ import annotations

import pytest

from weakindex.automata import DetAutomaton, State, Transition, TreeAutomaton
from weakindex.errors import EmptyLanguage
from weakindex.games import ADAM, EVE, Game
from weakindex.patterns import _view
from weakindex.productivity import trim
from weakindex.rng import SplitMix64
from weakindex.semantics import _view as membership_view

LETTERS = ("a", "b")


def random_game(rng: SplitMix64, max_positions: int = 7, max_rank: int = 3,
                condition: str = "parity") -> Game:
    n = 1 + rng.below(max_positions)
    positions = {}
    for i in range(n):
        positions[f"p{i}"] = ("E" if rng.below(2) == 0 else "A", rng.below(max_rank + 1))
    edges = []
    for i in range(n):
        deg = (0, 1, 1, 1, 2, 2, 2, 2, 3)[rng.below(9)]
        for _ in range(deg):
            edges.append((f"p{i}", f"p{rng.below(n)}"))
    return Game(positions=positions, edges=tuple(edges), initial="p0",
                condition=condition)


def emptiness_game(a: DetAutomaton) -> Game:
    """Eve picks a letter, Adam picks a direction; ranks come from states.

    Eve wins from position q exactly when L(A,q) is nonempty: she builds a
    tree, Adam challenges one path of the unique run.  The string-keyed
    reference for the int arena of `productivity._productivity`.
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


def random_det(rng: SplitMix64, max_states: int = 5, letters=LETTERS,
               max_rank: int = 3, rank_weights=None) -> DetAutomaton:
    n = 1 + rng.below(max_states)
    names = [f"q{i}" for i in range(n)]
    if rank_weights is None:
        ranks = list(range(max_rank + 1))
    else:
        ranks = rank_weights
    states = {q: State("A", ranks[rng.below(len(ranks))]) for q in names}
    trans = [Transition(q, a, d, names[rng.below(n)])
             for q in names for a in letters for d in (0, 1)]
    return DetAutomaton(alphabet=tuple(letters), states=states, initial="q0",
                        transitions=tuple(trans), acceptance="parity")


RANK_STYLES = ((0, 1, 2, 3), (1, 2), (0, 1), (0, 1, 2), (2, 3), (0,), (1, 2, 3))
C9_RANKS = (0, 0, 0, 0, 1, 1, 2, 2, 2, 3)  # criterion 9's scale generator


def criterion_5_stream(count: int):
    """The first `count` automata of criterion 5's stream: small, trimmed,
    over mixed rank bands."""
    rng, out = SplitMix64(9090), []
    while len(out) < count:
        ranks = RANK_STYLES[rng.below(len(RANK_STYLES))]
        try:
            out.append(trim(random_det(rng, 5, rank_weights=ranks)))
        except EmptyLanguage:
            continue
    return out


def _nonempty_det(rng: SplitMix64, n: int, ranks) -> DetAutomaton:
    """The next n-state automaton over `ranks` with a nonempty language,
    untrimmed, drawn as the benchmark's cli_large workload draws them."""
    names = [f"q{i}" for i in range(n)]
    while True:
        states = {q: State("A", ranks[rng.below(len(ranks))]) for q in names}
        trans = [Transition(q, x, d, names[rng.below(n)])
                 for q in names for x in LETTERS for d in (0, 1)]
        a = DetAutomaton(alphabet=LETTERS, states=states, initial="q0",
                         transitions=tuple(trans))
        try:
            trim(a)
        except EmptyLanguage:
            continue
        return a


def large_inputs():
    """Two 1000-state automata of criterion 9's shape and two 2000-state ones
    over ranks {1, 2}, with nonempty languages: the two input shapes of the
    benchmark's cli_large workload, untrimmed."""
    out = []
    for seed, n, ranks in ((61, 1000, C9_RANKS), (62, 2000, (1, 2))):
        rng = SplitMix64(seed)
        out += [_nonempty_det(rng, n, ranks) for _ in range(2)]
    return out


def cli_large_input(seed: int, stream: int) -> DetAutomaton:
    """The first input of one stream of the benchmark's cli_large workload at
    `seed`, untrimmed: stream 1 draws 1000 states over criterion 9's ranks,
    stream 2 draws 2000 states over ranks {1, 2}."""
    n, ranks = {1: (1000, C9_RANKS), 2: (2000, (1, 2))}[stream]
    return _nonempty_det(SplitMix64(seed * 64 + stream), n, ranks)


def random_trimmed(rng: SplitMix64, max_states: int = 5, letters=LETTERS,
                   max_rank: int = 3) -> DetAutomaton:
    """Next random deterministic automaton with a nonempty language, trimmed."""
    while True:
        try:
            return trim(random_det(rng, max_states, letters, max_rank))
        except EmptyLanguage:
            continue


def random_weak(rng: SplitMix64, max_states: int = 4, letters=LETTERS,
                max_rank: int = 3) -> TreeAutomaton:
    """Random alternating automaton with weak acceptance; may have stuck
    positions (no move for a letter), which the acceptance game resolves."""
    n = 1 + rng.below(max_states)
    names = [f"q{i}" for i in range(n)]
    states = {q: State("E" if rng.below(2) == 0 else "A", rng.below(max_rank + 1))
              for q in names}
    trans = []
    for q in names:
        for a in letters:
            k = rng.below(4)  # 0..3 moves per (state, letter)
            for _ in range(k):
                d = (0, 1, None)[rng.below(3)]
                trans.append(Transition(q, a, d, names[rng.below(n)]))
    return TreeAutomaton(alphabet=tuple(letters), states=states, initial="q0",
                         transitions=tuple(trans), acceptance="weak")


def ref_bfs(a: DetAutomaton, allowed, sources, goals):
    """The reference for `patterns._bfs`: a full breadth-first search that
    tests each node for a goal when it is dequeued."""
    v = _view(a)
    target, width = v.target, v.width
    parent = {s: -1 for s in sorted(set(sources)) if s in allowed}
    queue = list(parent)
    for x in queue:  # the queue grows while it is read
        if x in goals:
            path: list[int] = []
            while parent[x] >= 0:
                path.append(parent[x])
                x = parent[x] // width
            return path[::-1]
        for j in range(x * width, x * width + width):
            w = target[j]
            if w not in parent and w in allowed:
                parent[w] = j
                queue.append(w)
    return None


def ref_universal_weak_accepts(a: TreeAutomaton, view, ranks=None) -> bool:
    """The reference for `semantics._nested_accepts` on an automaton with a
    `_vector`: membership of the tree `view` in `a` read as a weak
    automaton with no existential state on `ranks` (by default its own),
    by a depth-first search over triples (state, node, m), m the highest
    rank seen so far, with no states skipped.  Adam wins iff a move closes
    a cycle on the search path into a triple with odd m; a dead end is a
    leaf, which Adam loses."""
    sidx, letter, moves, _, own = membership_view(a)
    ranks = own if ranks is None else ranks
    labels, children, root = view
    width = len(letter)
    row = [letter[x] for x in labels]
    q0 = sidx[a.initial]
    start = (q0, root, ranks[q0])
    color = {start: 1}  # 1 while on the search path, 2 once finished
    path = [(start, iter(moves[q0 * width + row[root]]))]
    while path:
        key, out = path[-1]
        _, v, m = key
        for d, q in out:
            w = v if d is None else children[v][d]
            k = (q, w, max(m, ranks[q]))
            c = color.get(k)
            if c is None:
                color[k] = 1
                path.append((k, iter(moves[q * width + row[w]])))
                break
            if c == 1 and k[2] % 2:
                return False
        else:
            color[key] = 2
            path.pop()
    return True


def ref_tarjan(nodes: list, succ: dict) -> list[list]:
    """The reference for `graphs._sccs` and `tarjan_scc`: Tarjan's algorithm
    on dict-keyed `index` and `low` and an `on_stack` set, iterative.
    Components in reverse topological order, each sorted."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    sccs: list[list] = []
    counter = [0]

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succ.get(root, ())))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ.get(w, ()))))
                    advanced = True
                    break
                if w in on_stack:
                    if index[w] < low[v]:
                        low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
    return sccs


def ref_has_cycle_inside(comp, succ):
    return len(comp) > 1 or comp[0] in succ.get(comp[0], ())


def ref_has_top_cycle(nodes, succ, rank, parity):
    """Whether the subgraph induced by `nodes`, on the successor dict
    `succ` and ranks `rank[v]`, has a cycle whose top rank has `parity`:
    at each such rank r, ascending, `ref_tarjan` on the nodes ranked at
    most r, to a component that supports a cycle and holds a node of
    rank r.  The reference for the loop tops of `graphs._loop_comps`."""
    for r in sorted({rank[v] for v in nodes if rank[v] % 2 == parity}):
        sub = [v for v in nodes if rank[v] <= r]
        keep = set(sub)
        adj = {v: [w for w in succ[v] if w in keep] for v in sub}
        for comp in ref_tarjan(sub, adj):
            if ref_has_cycle_inside(comp, adj) and any(rank[v] == r for v in comp):
                return True
    return False


def ref_sample_views(p):
    """The reference for `semantics._sample_views`: the same trees drawn
    one scalar `SplitMix64.below` step at a time."""
    below = SplitMix64(p.seed).below
    letters = tuple(p.alphabet)
    width = len(letters)
    for _ in range(p.count):
        k = 1 + below(p.max_nodes)
        labels = [letters[below(width)] for _ in range(k)]
        slots = [-1] * (2 * k)
        free = [0, 1]
        for j in range(1, k):
            slots[free.pop(below(len(free)))] = j
            free += (2 * j, 2 * j + 1)
        slots = [below(k) if c < 0 else c for c in slots]
        yield labels, list(zip(slots[::2], slots[1::2])), 0


@pytest.fixture
def rng():
    return SplitMix64(20240809)
