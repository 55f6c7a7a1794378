"""Detection of loops, flowers, weak flowers, splits and replication.

All detectors expect a trimmed deterministic automaton and return explicit
witnesses.  The workhorse is the rank-restricted SCC method of
`graphs._loop_comps`, run once per automaton by `automata._loops`: a loop
through p with top rank exactly r exists iff, in the subgraph of states
ranked <= r, p's strongly connected component supports a cycle and holds
a state of rank r.

Everything runs on one int view of the automaton (`_view`), which reads
its numbering from `automata._table` and its move graph and components
from `automata._graph`, shared with `semantics`, and condenses them by
`graphs._condensation`.  It is kept in `a._memo` with what derives from
it, once each: the loop tops of states and transitions as bitmasks with
one bit per distinct rank and each SCC's smallest loops (`_tops`), the
witness loops, the replicated set and the weak chain lengths.  Searches
run on state and transition indices and map back to ids only to build a
witness.  A brute-force enumerator over strongly connected state subsets
serves as the independent oracle.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .automata import BOT, DetAutomaton, IndexPair, Transition, _graph, _loops, _memo, _table
from .errors import GameTooLarge, ValidationError
from .graphs import _condensation, has_cycle_inside, reachable_from

INF = float("inf")
_Build = Callable[[], object]  # builds a witness once a check has decided it exists


# -- witnesses -------------------------------------------------------------


@dataclass(frozen=True)
class Loop:
    """Closed transition path; accepting iff its top rank is even."""

    transitions: tuple[Transition, ...]
    top_rank: int

    def states(self) -> set[str]:
        return {t.source for t in self.transitions}

    @property
    def accepting(self) -> bool:
        return self.top_rank % 2 == 0

    def verify(self, a: DetAutomaton):
        if not self.transitions:
            raise ValidationError("empty loop")
        _verify_path(a, self.transitions + self.transitions[:1])  # closes up
        if max(a.rank(q) for q in self.states()) != self.top_rank:
            raise ValidationError("loop top rank mismatch")

    def render(self) -> str:
        steps = " ".join(f"{t.source}-{t.letter},{t.direction}->" for t in self.transitions)
        return f"[{steps}{self.transitions[0].source} top={self.top_rank}]"

    def to_dict(self) -> dict:
        return {"top_rank": self.top_rank,
                "transitions": [_trans_dict(t) for t in self.transitions]}


def _trans_dict(t: Transition) -> dict:
    return {"source": t.source, "letter": t.letter,
            "direction": "e" if t.direction is None else t.direction,
            "target": t.target}


def _verify_path(a: DetAutomaton, path: tuple[Transition, ...]):
    """Consecutive transitions chain, and each is one of `a`'s moves."""
    for t, nxt in zip(path, path[1:]):
        if t.target != nxt.source:
            raise ValidationError("path transitions do not chain")
    for t in path:
        if t not in a._outgoing(t.source, t.letter):
            raise ValidationError(f"path uses unknown transition {t}")


@dataclass(frozen=True)
class FlowerWitness:
    """Strong flowers share a pivot state; weak flowers chain via paths."""

    kind: str  # 'strong' | 'weak'
    index: IndexPair
    loops: tuple[Loop, ...]
    pivot: Optional[str] = None
    paths: tuple[tuple[Transition, ...], ...] = ()

    def verify(self, a: DetAutomaton):
        i = self.index
        if len(self.loops) != i.ranks_used():
            raise ValidationError("flower has wrong number of loops")
        for loop in self.loops:
            loop.verify(a)
        if self.kind == "strong":
            for j, loop in zip(i.band(), self.loops):
                if loop.top_rank % 2 != j % 2:
                    raise ValidationError(f"loop {j} has top of wrong parity")
                if self.pivot not in loop.states():
                    raise ValidationError("loop misses the pivot")
            tops = [l.top_rank for l in self.loops]
            if any(x >= y for x, y in zip(tops, tops[1:])):
                raise ValidationError("flower tops do not strictly increase")
        elif self.kind == "weak":
            for j, loop in zip(i.band(), self.loops):
                if loop.accepting != (j % 2 == 0):
                    raise ValidationError(f"weak flower loop {j} has wrong acceptance")
            if len(self.paths) != len(self.loops) - 1:
                raise ValidationError("weak flower needs a path between consecutive loops")
            for k, path in enumerate(self.paths):
                _verify_path(a, path)
                src = self.loops[k].states()
                dst = self.loops[k + 1].states()
                if path:
                    if path[0].source not in src or path[-1].target not in dst:
                        raise ValidationError("connecting path endpoints are off-loop")
                elif not (src & dst):
                    raise ValidationError("consecutive loops neither touch nor connect")
        else:
            raise ValidationError(f"unknown flower kind {self.kind!r}")

    def render(self) -> str:
        head = f"{self.kind} {self.index}-flower"
        if self.pivot:
            head += f" at {self.pivot}"
        return head + ": " + " ; ".join(l.render() for l in self.loops)

    def to_dict(self) -> dict:
        return {"kind": self.kind,
                "index": [self.index.iota, self.index.kappa],
                "pivot": self.pivot,
                "loops": [l.to_dict() for l in self.loops],
                "paths": [[_trans_dict(t) for t in p] for p in self.paths]}


@dataclass(frozen=True)
class SplitWitness:
    state: str
    letter: str
    loop0: Loop  # through (state, letter, 0)
    loop1: Loop  # through (state, letter, 1)

    def verify(self, a: DetAutomaton):
        for d, loop in ((0, self.loop0), (1, self.loop1)):
            loop.verify(a)
            first = loop.transitions[0]
            if (first.source, first.letter, first.direction) != (self.state, self.letter, d):
                raise ValidationError("split loop does not start with the split edge")
        tops = (self.loop0.top_rank, self.loop1.top_rank)
        if tops[0] % 2 == tops[1] % 2 or max(tops) % 2 == 0:
            raise ValidationError("split tops must differ in parity with the highest odd")

    def render(self) -> str:
        return (f"split at ({self.state},{self.letter}): "
                f"{self.loop0.render()} vs {self.loop1.render()}")

    def to_dict(self) -> dict:
        return {"kind": "split", "state": self.state, "letter": self.letter,
                "loop0": self.loop0.to_dict(), "loop1": self.loop1.to_dict()}


@dataclass(frozen=True)
class ReplicationWitness:
    loop: Loop  # accepting, closing at path[0].source via the sibling direction
    path: tuple[Transition, ...]  # branches off the loop and reaches `state`
    state: str

    def verify(self, a: DetAutomaton):
        self.loop.verify(a)
        if not self.loop.accepting:
            raise ValidationError("replicating loop must be accepting")
        if not self.path:
            raise ValidationError("replication path must start with a branching edge")
        _verify_path(a, self.path)
        first = self.loop.transitions[0]
        branch = self.path[0]
        if branch.source != first.source or branch.letter != first.letter:
            raise ValidationError("replication path must branch at the loop edge")
        if branch.direction == first.direction:
            raise ValidationError("replication path must take the other direction")
        if self.path[-1].target != self.state:
            raise ValidationError("replication path does not reach the state")

    def render(self) -> str:
        return f"{self.state} replicated by {self.loop.render()}"

    def to_dict(self) -> dict:
        return {"kind": "replication", "state": self.state,
                "loop": self.loop.to_dict(),
                "path": [_trans_dict(t) for t in self.path]}


@dataclass(frozen=True)
class ReplicatedFlowerWitness:
    flower: FlowerWitness
    replication: ReplicationWitness

    def verify(self, a: DetAutomaton):
        self.flower.verify(a)
        self.replication.verify(a)

    def render(self) -> str:
        return self.flower.render() + " | " + self.replication.render()

    def to_dict(self) -> dict:
        return {"kind": "replicated_flower", "flower": self.flower.to_dict(),
                "replication": self.replication.to_dict()}


# -- the int view ------------------------------------------------------------


class _View(NamedTuple):
    """An automaton on ints, built once and kept in `a._memo`.

    `ids`, `index`, `rank` and `target` are `automata._table`'s numbering.
    Transition j is `a.transitions[j]`: a checked table is one block of
    `width` = 2|Sigma| moves per state (see `DetAutomaton`), so j's source
    is j // width and its sibling, the same letter in the other direction,
    is j ^ 1.
    """

    ids: list[str]
    index: dict[str, int]
    rank: list[int]
    ranks: list[int]  # the distinct ranks, ascending: bit k of a mask is ranks[k]
    level: list[int]  # per state, the position of its rank in `ranks`
    parity: tuple[int, int]  # the masks of the even and of the odd ranks
    width: int
    target: list[int]  # per transition
    succ: list[list[int]]  # `automata._graph`: per state, its distinct successors, ascending
    sccs: list[list[int]]  # the condensation: SCCs in topological order,
    scc_of: list[int]  # each state's SCC
    edges: list[set[int]]  # and the SCC successor sets


def _view(a: DetAutomaton) -> _View:
    def build():
        ids, index, rank, _, target = _table(a)
        ranks = sorted(set(rank))
        bit = {r: k for k, r in enumerate(ranks)}
        parity = tuple(sum(1 << k for k, r in enumerate(ranks) if r % 2 == b) for b in (0, 1))
        succ, sccs = _graph(a)
        return _View(ids, index, rank, ranks, [bit[r] for r in rank], parity,
                     2 * len(a.alphabet), target, succ, *_condensation(succ, sccs))
    return _memo(a, "view", build)


def _ranks_of(a: DetAutomaton, mask: int) -> list[int]:
    """The ranks whose bits are set in `mask`, ascending."""
    return [r for k, r in enumerate(_view(a).ranks) if mask >> k & 1]


class _Tops(NamedTuple):
    """Exact top ranks of loops, as masks: bit k stands for the view's `ranks[k]`."""

    loop: list[int]  # per state, of the loops through it
    edge: list[int]  # per transition, of the loops starting with it
    # per SCC of the whole graph and per top parity: the smallest such top r
    # of a loop inside it, and the smallest rank-r state of the first
    # component of its rank <= r part that carries one; None if there is none
    scc: list[list[Optional[tuple[int, int]]]]


def _tops(a: DetAutomaton) -> _Tops:
    """The loop tops of `a`'s states and transitions and each SCC's
    smallest loops, read off the components of `automata._loops`: a loop
    with top r runs through the states of a component at r, and starts
    with a transition iff both its ends lie in one."""
    def build():
        v = _view(a)
        width, target, rank = v.width, v.target, v.rank
        tops = _Tops([0] * len(v.ids), [0] * len(target), [[None, None] for _ in v.sccs])
        loop, edge = tops.loop, tops.edge
        for c, r, comp in _loops(a):
            first = next(i for i in comp if rank[i] == r)
            slot = tops.scc[c]
            if slot[r % 2] is None:
                slot[r % 2] = (r, first)
            bit, inside = 1 << v.level[first], set(comp)
            for i in comp:
                loop[i] |= bit
                lo = i * width
                for j, w in enumerate(target[lo:lo + width], lo):
                    if w in inside:
                        edge[j] |= bit
        return tops
    return _memo(a, "tops", build)


def loop_ranks(a: DetAutomaton) -> dict[str, set[int]]:
    """Per state, the set of exact top ranks achievable on loops through it."""
    return {q: set(_ranks_of(a, m)) for q, m in zip(_view(a).ids, _tops(a).loop)}


def edge_tops(a: DetAutomaton) -> dict[tuple[str, str, int], set[int]]:
    """Per transition (p, letter, d): exact top ranks of loops starting with it."""
    return {t[:3]: set(_ranks_of(a, m)) for t, m in zip(a.transitions, _tops(a).edge)}


# -- witness materialization ------------------------------------------------


def _bfs(a: DetAutomaton, allowed, sources: list[int], goals, cap=INF) -> Optional[list[int]]:
    """Shortest path inside `allowed`, as transition indices, of at most
    `cap` transitions; ties go to the smaller source and then to the earlier
    transition.  Sources that are goals are checked first; then levels are
    searched in FIFO order, so the first goal discovered, with its parent, is
    the one a full search would dequeue, and the search returns there."""
    v = _view(a)
    target, width = v.target, v.width
    parent = {s: -1 for s in sorted(set(sources)) if s in allowed}
    if any(s in goals for s in parent):
        return []
    level, depth = list(parent), 0
    while level and depth < cap:
        depth += 1
        nxt = []
        for x in level:
            for j in range(x * width, x * width + width):
                w = target[j]
                if w not in parent and w in allowed:
                    parent[w] = j
                    if w in goals:
                        path: list[int] = []
                        while parent[w] >= 0:
                            path.append(parent[w])
                            w = parent[w] // width
                        return path[::-1]
                    nxt.append(w)
        level = nxt
    return None


def _closed_walk(a: DetAutomaton, comp: set[int], pivot: int, via: int, top: int) -> Loop:
    """Nonempty closed walk pivot ~> via ~> pivot inside comp; top rank = top.
    For via == pivot, the shortest one: each search back from a successor
    after the first is capped to find only a strictly shorter walk."""
    v = _view(a)
    if via == pivot:
        best: Optional[list[int]] = None
        for j in range(pivot * v.width, pivot * v.width + v.width):
            w = v.target[j]
            if w not in comp:
                continue
            if w == pivot:
                best = [j]
                break
            rest = _bfs(a, comp, [w], {pivot}, INF if best is None else len(best) - 2)
            if rest is not None:
                best = [j] + rest
        if best is None:
            raise ValidationError(f"no cycle through {v.ids[pivot]} in its component")
    else:
        p1 = _bfs(a, comp, [pivot], {via})
        p2 = _bfs(a, comp, [via], {pivot})
        if p1 is None or p2 is None:
            raise ValidationError("component is not strongly connected")
        best = p1 + p2
    return Loop(tuple(a.transitions[j] for j in best), top)


def _loop_comp(a: DetAutomaton, i: int, r: int) -> tuple[set[int], int]:
    """(comp, via): state i's component among the loops with top rank
    exactly r, the entry of `automata._loops` (sorted by SCC and rank) that
    holds i, and its smallest rank-r state.  The loop tops of i hold r."""
    loops, v = _loops(a), _view(a)
    k = bisect_left(loops, (v.scc_of[i], r))
    while i not in loops[k][2]:
        k += 1
    return set(loops[k][2]), next(q for q in loops[k][2] if v.rank[q] == r)


def _pivot_loop(a: DetAutomaton, pivot: int, r: int) -> Loop:
    """Loop through pivot with top rank exactly r, inside pivot's component
    of the rank <= r part and through its smallest rank-r state.  Kept in
    `a._memo`: the Borel bits ask for many of the same loops."""
    def build():
        comp, via = _loop_comp(a, pivot, r)
        return _closed_walk(a, comp, pivot, via, r)
    return _memo(a, ("loop", pivot, r), build)


def _edge_loop(a: DetAutomaton, j: int, r: int) -> Loop:
    """Loop starting with transition j, whose edge tops hold r, and top rank
    exactly r.  Every path from j's target back to its source in the rank
    <= r part stays inside their common component, so the search does too."""
    v = _view(a)
    p, q = j // v.width, v.target[j]
    allowed, via = _loop_comp(a, p, r)
    path = [j] + _bfs(a, allowed, [q], {via}) + _bfs(a, allowed, [via], {p})
    return Loop(tuple(a.transitions[k] for k in path), r)


def _scc_loop(a: DetAutomaton, ci: int, parity: int) -> Optional[Loop]:
    """Smallest-top loop of the given top parity inside SCC `ci`."""
    found = _tops(a).scc[ci][parity]
    return None if found is None else _pivot_loop(a, found[1], found[0])


# -- flowers ----------------------------------------------------------------


def _greedy_chain(v: _View, mask: int, start_parity: int) -> list[int]:
    """Longest chain of the ranks in `mask` with alternating parities,
    starting at `start_parity`; taking each rank as early as possible makes
    every prefix the smallest chain of its length."""
    need = start_parity
    chain: list[int] = []
    while low := mask & v.parity[need]:
        low &= -low  # the least rank of the needed parity
        chain.append(v.ranks[low.bit_length() - 1])
        mask &= -(low << 1)  # keep only the larger ranks
        need ^= 1
    return chain


def _flower(a: DetAutomaton, i: IndexPair, pivots) -> Optional[_Build]:
    """`find_flower` with the pivot taken from `pivots`, ascending state
    indices."""
    v, loop = _view(a), _tops(a).loop
    n, tried = i.ranks_used(), set()  # the chain depends on the mask only
    for p in pivots:
        if loop[p] in tried:
            continue
        tried.add(loop[p])
        chain = _greedy_chain(v, loop[p], i.iota % 2)[:n]
        if len(chain) == n:
            return lambda: FlowerWitness(kind="strong", index=i, pivot=v.ids[p],
                                         loops=tuple(_pivot_loop(a, p, r) for r in chain))
    return None


def find_flower(a: DetAutomaton, i: IndexPair) -> Optional[FlowerWitness]:
    """Strong (iota,kappa)-flower: loops through one pivot, tops strictly
    increasing with parities matching their positions."""
    build = _flower(a, i, range(len(_view(a).ids)))
    return build and build()


def _chain_dp(a: DetAutomaton):
    """Longest alternating loop chains over the condensation, counted from
    the front.

    g[ci][parity] = sup length of a chain whose first loop lies in scc ci
    with a top of that parity; INF once an SCC holding both parities is
    involved (it alternates unboundedly).  desc[ci][parity] is the maximum
    of g over ci and its descendants.
    """
    def build():
        edges = _view(a).edges
        scc_loops = _tops(a).scc
        n = len(edges)
        g = [[-INF, -INF] for _ in range(n)]
        desc = [[-INF, -INF] for _ in range(n)]
        for ci in range(n - 1, -1, -1):
            post = [-INF, -INF]
            for cj in edges[ci]:
                for b in (0, 1):
                    if desc[cj][b] > post[b]:
                        post[b] = desc[cj][b]
            caps = [b for b in (0, 1) if scc_loops[ci][b] is not None]
            if len(caps) == 2:
                g[ci][0] = g[ci][1] = INF
            elif len(caps) == 1:
                b = caps[0]
                cont = post[1 - b]
                g[ci][b] = INF if cont == INF else 1 + max(0, cont)
            for b in (0, 1):
                desc[ci][b] = max(g[ci][b], post[b])
        return g, desc
    return _memo(a, "chain_dp", build)


def _find_host(ci, b, k, g, edges):
    """First scc (breadth-first from ci, itself included) whose g is >= k."""
    queue = [ci]
    seen = {ci}
    for cj in queue:  # the queue grows while it is read
        if g[cj][b] >= k:
            return cj
        for ck in sorted(edges[cj]):
            if ck not in seen:
                seen.add(ck)
                queue.append(ck)
    return None


def _weak_flower_of(a: DetAutomaton, i: IndexPair, loops) -> FlowerWitness:
    """The weak flower of `loops`, with shortest paths between consecutive
    loops, empty where they touch."""
    index = _view(a).index
    paths = []
    for l1, l2 in zip(loops, loops[1:]):
        path = _bfs(a, range(len(index)), [index[q] for q in l1.states()],
                    {index[q] for q in l2.states()})
        if path is None:
            raise ValidationError("chain loops are not connected")
        paths.append(tuple(a.transitions[j] for j in path))
    return FlowerWitness(kind="weak", index=i, loops=loops, paths=tuple(paths))


def _materialize_chain(a, host, parity, length):
    """Loops of an alternating chain of `length` starting in scc `host`."""
    edges = _view(a).edges
    g, _ = _chain_dp(a)
    loops = []
    cur, b, k = host, parity, length
    while k > 0:
        if loops:
            cur = _find_host(cur, b, k, g, edges)
            if cur is None:
                raise ValidationError("chain materialization failed")
        loop = _scc_loop(a, cur, b)
        if loop is None:
            raise ValidationError("chain loop materialization failed")
        loops.append(loop)
        b ^= 1
        k -= 1
    return tuple(loops)


def _weak_flower(a: DetAutomaton, i: IndexPair) -> Optional[_Build]:
    """`find_weak_flower`, decided on the chain lengths."""
    n = i.ranks_used()
    start_parity = i.iota % 2
    g, _ = _chain_dp(a)
    for ci in range(len(g)):
        if g[ci][start_parity] >= n:
            return lambda: _weak_flower_of(a, i, _materialize_chain(a, ci, start_parity, n))
    return None


def find_weak_flower(a: DetAutomaton, i: IndexPair) -> Optional[FlowerWitness]:
    """Weak (iota,kappa)-flower: loops each reachable from the previous,
    accepting exactly at even positions."""
    build = _weak_flower(a, i)
    return build and build()


# -- replication -------------------------------------------------------------


def _reached(v: _View, starts) -> list[bool]:
    """Per SCC of `v`, whether it is reachable from a state in `starts`:
    one pass over the condensation, whose edges all go forward."""
    mark = [False] * len(v.sccs)
    for i in starts:
        mark[v.scc_of[i]] = True
    for c, ok in enumerate(mark):
        if ok:
            for d in v.edges[c]:
                mark[d] = True
    return mark


def _replicated(a: DetAutomaton) -> set[int]:
    """`replicated_set` as state indices: the states of the SCCs reachable
    from the sibling of a move that starts an accepting loop."""
    def build():
        v = _view(a)
        starts = {v.target[j ^ 1] for j, m in enumerate(_tops(a).edge) if m & v.parity[0]}
        rep = {i for c, ok in enumerate(_reached(v, starts)) if ok for i in v.sccs[c]}
        return rep - {v.index.get(BOT)}
    return _memo(a, "replicated", build)


def replicated_set(a: DetAutomaton) -> set[str]:
    """Productive states reachable from the branch-off of an accepting loop."""
    ids = _view(a).ids
    return {ids[i] for i in _replicated(a)}


def replication_witness_for(a: DetAutomaton, q: str) -> Optional[ReplicationWitness]:
    """Witness for one replicated state; None when `q` is not replicated.
    The SCCs that reach q's are marked in one backward pass over the
    condensation, and the first move closing an accepting loop whose
    sibling lies in one of them is taken."""
    v = _view(a)
    goal = v.index[q]
    back, g = [False] * len(v.sccs), v.scc_of[goal]
    back[g] = True
    for c in range(g - 1, -1, -1):  # no SCC after q's reaches it
        back[c] = any(back[d] for d in v.edges[c])
    for j, m in enumerate(_tops(a).edge):
        m &= v.parity[0]
        start = v.target[j ^ 1]
        if m and back[v.scc_of[start]]:
            loop = _edge_loop(a, j, v.ranks[(m & -m).bit_length() - 1])  # the smallest even top
            path = [j ^ 1] + _bfs(a, range(len(v.ids)), [start], {goal})
            return ReplicationWitness(loop=loop, path=tuple(a.transitions[k] for k in path),
                                      state=q)
    return None


def _replicate(a: DetAutomaton, flower: FlowerWitness) -> ReplicatedFlowerWitness:
    """`flower` with the replication of its pivot, or of its first loop's least state."""
    anchor = flower.pivot or min(flower.loops[0].states())
    return ReplicatedFlowerWitness(flower=flower, replication=replication_witness_for(a, anchor))


def _replicated_flower(a: DetAutomaton, i: IndexPair, weak: bool) -> Optional[_Build]:
    """`find_replicated_flower`, decided on the masks, the chain lengths and
    the replicated set.  The replicated set is a union of whole SCCs, `_bot`
    aside, which trim leaves a sink SCC of its own, so a weak flower's first
    loop is the smallest one of its parity in an SCC of that set."""
    rep = _replicated(a)
    if not rep:
        return None
    if not weak:
        build = _flower(a, i, sorted(rep))
        return build and (lambda: _replicate(a, build()))
    n, b = i.ranks_used(), i.iota % 2  # b: the first loop's top parity
    v = _view(a)
    g, desc = _chain_dp(a)
    for ci, comp in enumerate(v.sccs):
        if n > 1 and desc[ci][1 - b] < n - 1:
            continue
        if comp[0] in rep and _tops(a).scc[ci][b]:
            def build():
                host = _find_host(ci, 1 - b, n - 1, g, v.edges) if n > 1 else None
                loops = (_scc_loop(a, ci, b),) + _materialize_chain(a, host, 1 - b, n - 1)
                return _replicate(a, _weak_flower_of(a, i, loops))
            return build
    return None


def find_replicated_flower(a: DetAutomaton, i: IndexPair,
                           weak: bool) -> Optional[ReplicatedFlowerWitness]:
    """A flower replicated by an accepting loop.

    For strong flowers this means a replicated pivot (replication spreads
    around every loop through it); for weak flowers the first loop must be
    replicated, which makes the whole flower restartable in incomparable
    subtrees.  Later loops are unrestricted and may sit at the sink.
    """
    build = _replicated_flower(a, i, weak)
    return build and build()


def _above(hi: int, lo: int) -> bool:
    """Some rank in mask `hi` is larger than some rank in mask `lo`."""
    return bool(hi and lo) and hi.bit_length() > (lo & -lo).bit_length()


def _split(a: DetAutomaton) -> Optional[_Build]:
    """`find_split`, decided on the edge tops."""
    v, edge = _view(a), _tops(a).edge
    even, odd = v.parity
    for j in range(0, len(edge), 2):
        m0, m1 = edge[j], edge[j + 1]
        if _above(m0 & odd, m1 & even) or _above(m1 & odd, m0 & even):
            def build():  # the split at moves j and j + 1, with the smallest tops
                _, r0, r1 = min((max(r0, r1), r0, r1) for r0 in _ranks_of(a, m0)
                                for r1 in _ranks_of(a, m1)
                                if r0 % 2 != r1 % 2 and max(r0, r1) % 2 == 1)
                t = a.transitions[j]
                return SplitWitness(state=t.source, letter=t.letter,
                                    loop0=_edge_loop(a, j, r0), loop1=_edge_loop(a, j + 1, r1))
            return build
    return None


def find_split(a: DetAutomaton) -> Optional[SplitWitness]:
    """Two loops through one (state, letter) in opposite directions whose
    tops have different parity, the higher odd."""
    build = _split(a)
    return build and build()


# -- brute force oracle -------------------------------------------------------


class PatternInventory:
    """Exact pattern predicates from exhaustive strongly-connected-subset
    enumeration; the independent oracle for the fast detectors."""

    def __init__(self, a: DetAutomaton):
        self.automaton = a
        states = sorted(a.states)
        self.states = states
        succ = {q: {a.step(q, c, d) for c in a.alphabet for d in (0, 1)} for q in states}
        self.reach = {q: reachable_from([q], succ) for q in states}
        self.subsets: list[tuple[frozenset[str], int]] = []  # cyclic s.c. subsets
        for size in range(1, len(states) + 1):
            for combo in itertools.combinations(states, size):
                s = frozenset(combo)
                if has_cycle_inside(combo, succ) and self._strongly_connected(s, succ):
                    self.subsets.append((s, max(a.rank(q) for q in s)))
        self.loop_tops = {q: frozenset(m for s, m in self.subsets if q in s)
                          for q in states}
        self.edge_tops = {}
        for t in a.transitions:
            tops = set()
            for s, m in self.subsets:
                if t.source in s and t.target in s:
                    tops.add(m)
            self.edge_tops[(t.source, t.letter, t.direction)] = frozenset(tops)
        self.replicated = self._compute_replicated()

    def _strongly_connected(self, s: frozenset, succ) -> bool:
        first = next(iter(s))
        inside = {q: [w for w in succ[q] if w in s] for q in s}
        pred = {q: [p for p in s if q in inside[p]] for q in s}
        return reachable_from([first], inside) >= s and reachable_from([first], pred) >= s

    def _compute_replicated(self) -> frozenset[str]:
        a = self.automaton
        productive = set(a.states) - {BOT}
        rep: set[str] = set()
        for t in a.transitions:
            tops = self.edge_tops[(t.source, t.letter, t.direction)]
            if any(r % 2 == 0 for r in tops):
                sib = a.step(t.source, t.letter, 1 - t.direction)
                rep |= self.reach[sib] & productive
        return frozenset(rep)

    # -- predicates --

    def has_flower(self, i: IndexPair, pivot_in: Optional[frozenset] = None) -> bool:
        n = i.ranks_used()
        for p in self.states:
            tops = sorted(self.loop_tops[p])
            for combo in itertools.combinations(tops, n):
                if all(r % 2 == j % 2 for r, j in zip(combo, i.band())):
                    if pivot_in is None or p in pivot_in:
                        return True
        return False

    def has_replicated_flower_strong(self, i: IndexPair) -> bool:
        """Literal form: some choice of pivot loops whose union touches the
        replicated set."""
        n = i.ranks_used()
        for p in self.states:
            subsets_p = [(s, m) for s, m in self.subsets if p in s]
            tops = sorted({m for _, m in subsets_p})
            for combo in itertools.combinations(tops, n):
                if not all(r % 2 == j % 2 for r, j in zip(combo, i.band())):
                    continue
                # each rank level may or may not offer a replicated-touching loop
                ok_plain = all(any(m == r for _, m in subsets_p) for r in combo)
                if not ok_plain:
                    continue
                touched = any(
                    any(m == r and (s & self.replicated) for s, m in subsets_p)
                    for r in combo)
                if touched:
                    return True
        return False

    def _chain_exists(self, i: IndexPair, first_replicated: bool) -> bool:
        band = list(i.band())
        usable = self.subsets

        def fits(si: int, j: int) -> bool:
            _, m = usable[si]
            return m % 2 == band[j] % 2

        memo: dict[tuple[int, int], bool] = {}

        def ok(si: int, j: int) -> bool:
            if (si, j) in memo:
                return memo[(si, j)]
            memo[(si, j)] = False  # cycle guard
            if not fits(si, j):
                return False
            if j == len(band) - 1:
                memo[(si, j)] = True
                return True
            s_here = usable[si][0]
            res = False
            for sj in range(len(usable)):
                if fits(sj, j + 1):
                    s_next = usable[sj][0]
                    if any(s_next & self.reach[q] for q in s_here):
                        if ok(sj, j + 1):
                            res = True
                            break
            memo[(si, j)] = res
            return res

        for si in range(len(usable)):
            if first_replicated and not (usable[si][0] & self.replicated):
                continue
            if ok(si, 0):
                return True
        return False

    def has_weak_flower(self, i: IndexPair) -> bool:
        return self._chain_exists(i, first_replicated=False)

    def has_replicated_flower_weak(self, i: IndexPair) -> bool:
        return self._chain_exists(i, first_replicated=True)

    def has_split(self) -> bool:
        for t in self.automaton.transitions:
            if t.direction != 0:
                continue
            t0 = self.edge_tops[(t.source, t.letter, 0)]
            t1 = self.edge_tops[(t.source, t.letter, 1)]
            for r0 in t0:
                for r1 in t1:
                    if r0 % 2 != r1 % 2 and max(r0, r1) % 2 == 1:
                        return True
        return False


def brute_force_patterns(a: DetAutomaton, budget: int = 7) -> PatternInventory:
    """Exhaustive pattern inventory; guarded to `budget` states."""
    if len(a.states) > budget:
        raise GameTooLarge(f"{len(a.states)} states exceeds the brute-force budget {budget}")
    return PatternInventory(a)
