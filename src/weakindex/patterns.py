"""Detection of loops, flowers, weak flowers, splits and replication.

All detectors expect a trimmed deterministic automaton and return explicit
witnesses.  The workhorse is the rank-restricted SCC method: a loop
through p with top rank exactly r exists iff, in the subgraph of states
ranked <= r, p's strongly connected component supports a cycle and holds a
state of rank r.  A brute-force enumerator over strongly connected state
subsets serves as the independent oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .automata import BOT, DetAutomaton, IndexPair, Transition
from .errors import GameTooLarge, ValidationError
from .graphs import condensation, has_cycle_inside, reachable_from, tarjan_scc

INF = float("inf")


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
        for t, nxt in zip(self.transitions, self.transitions[1:]):
            if t.target != nxt.source:
                raise ValidationError("loop transitions do not chain")
        if self.transitions[-1].target != self.transitions[0].source:
            raise ValidationError("loop is not closed")
        known = _trans_set(a)
        for t in self.transitions:
            if t not in known:
                raise ValidationError(f"loop uses unknown transition {t}")
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
    for t, nxt in zip(path, path[1:]):
        if t.target != nxt.source:
            raise ValidationError("path transitions do not chain")
    known = _trans_set(a)
    for t in path:
        if t not in known:
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


# -- graph scaffolding -----------------------------------------------------


def _memo(a, key, build):
    cache = a._memo
    if key not in cache:
        cache[key] = build()
    return cache[key]


def _succ(a: DetAutomaton) -> dict[str, list[str]]:
    def build():
        out: dict[str, set[str]] = {q: set() for q in a.states}
        for t in a.transitions:
            out[t.source].add(t.target)
        return {q: sorted(s) for q, s in out.items()}
    return _memo(a, "succ", build)


def _pred(a: DetAutomaton) -> dict[str, list[str]]:
    def build():
        out: dict[str, set[str]] = {q: set() for q in a.states}
        for t in a.transitions:
            out[t.target].add(t.source)
        return {q: sorted(s) for q, s in out.items()}
    return _memo(a, "pred", build)


def _out_trans(a: DetAutomaton) -> dict[str, list[Transition]]:
    def build():
        out: dict[str, list[Transition]] = {q: [] for q in a.states}
        for t in a.transitions:
            out[t.source].append(t)
        return out
    return _memo(a, "out_trans", build)


def _trans_set(a: DetAutomaton) -> frozenset[Transition]:
    return _memo(a, "trans_set", lambda: frozenset(a.transitions))


def _condensation(a: DetAutomaton):
    """SCCs of the transition graph in topological order, state -> SCC index,
    and the SCC successor sets."""
    return _memo(a, "condensation", lambda: condensation(sorted(a.states), _succ(a)))


def _restricted(succ: dict[str, list[str]], keep: set[str]) -> dict[str, list[str]]:
    return {q: [w for w in succ[q] if w in keep] for q in keep}


class _RankSCCs(NamedTuple):
    comps: list[list[str]]  # Tarjan order
    comp_of: dict[str, int]
    top: list[bool]  # the component carries a loop whose top rank is exactly r


def _rank_sccs(a: DetAutomaton, r: int) -> _RankSCCs:
    """SCCs of the subgraph of states ranked <= r.

    Each lies inside one SCC of the whole graph, so edges between different
    whole SCCs are dropped before the search.  Tarjan then explores each
    whole SCC on its own from its smallest state, and the components inside
    it come out in the same order as from a search of that SCC alone.
    """
    def build():
        succ = _succ(a)
        _, scc_of, _ = _condensation(a)
        keep = sorted(q for q in a.states if a.rank(q) <= r)
        adj = {q: [w for w in succ[q] if a.rank(w) <= r and scc_of[w] == scc_of[q]]
               for q in keep}
        comps = tarjan_scc(keep, adj)
        comp_of = {q: i for i, comp in enumerate(comps) for q in comp}
        top = [has_cycle_inside(comp, adj) and any(a.rank(q) == r for q in comp)
               for comp in comps]
        return _RankSCCs(comps, comp_of, top)
    return _memo(a, ("rank_sccs", r), build)


def productive_set(a: DetAutomaton) -> set[str]:
    """On a trimmed automaton the productive states are everything but `_bot`."""
    return set(a.states) - {BOT}


def loop_ranks(a: DetAutomaton) -> dict[str, set[int]]:
    """Per state, the set of exact top ranks achievable on loops through it."""
    def build():
        result: dict[str, set[int]] = {q: set() for q in a.states}
        for r in sorted(a.ranks()):
            rs = _rank_sccs(a, r)
            for comp, top in zip(rs.comps, rs.top):
                if top:
                    for q in comp:
                        result[q].add(r)
        return result
    return _memo(a, "loop_ranks", build)


def edge_tops(a: DetAutomaton) -> dict[tuple[str, str, int], set[int]]:
    """Per transition (p, letter, d): exact top ranks of loops starting with it."""
    def build():
        result = {(t.source, t.letter, t.direction): set() for t in a.transitions}
        for r in sorted(a.ranks()):
            rs = _rank_sccs(a, r)
            for t in a.transitions:
                c = rs.comp_of.get(t.source)
                if c is not None and rs.top[c] and rs.comp_of.get(t.target) == c:
                    result[(t.source, t.letter, t.direction)].add(r)
        return result
    return _memo(a, "edge_tops", build)


def _scc_loops(a: DetAutomaton) -> list[list[Optional[tuple[int, list[str]]]]]:
    """Per SCC of the whole graph and per top parity: the smallest such top
    r of a loop inside the SCC, with the first component of its rank <= r
    part that carries one; None when the SCC has no loop of that parity."""
    def build():
        sccs, scc_of, _ = _condensation(a)
        best: list[list] = [[None, None] for _ in sccs]
        for r in sorted(a.ranks()):
            rs = _rank_sccs(a, r)
            for comp, top in zip(rs.comps, rs.top):
                slot = best[scc_of[comp[0]]]
                if top and slot[r % 2] is None:
                    slot[r % 2] = (r, comp)
        return best
    return _memo(a, "scc_loops", build)


# -- witness materialization ------------------------------------------------


def _bfs_trans(a: DetAutomaton, allowed: set[str], sources: list[str],
               goals: set[str]) -> Optional[list[Transition]]:
    """Shortest transition path inside `allowed`; deterministic tie-break."""
    out = _out_trans(a)
    parent: dict[str, Optional[Transition]] = {}
    queue: list[str] = []
    for s in sorted(set(sources)):
        if s in allowed:
            parent[s] = None
            queue.append(s)
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        if v in goals:
            path: list[Transition] = []
            cur = v
            while parent[cur] is not None:
                t = parent[cur]
                path.append(t)
                cur = t.source
            return list(reversed(path))
        for t in out[v]:
            if t.target in allowed and t.target not in parent:
                parent[t.target] = t
                queue.append(t.target)
    return None


def _closed_walk(a: DetAutomaton, comp: set[str], pivot: str, via: str, top: int) -> Loop:
    """Nonempty closed walk pivot ~> via ~> pivot inside comp; top rank = top."""
    if via == pivot:
        out = _out_trans(a)
        best: Optional[list[Transition]] = None
        for t in out[pivot]:
            if t.target not in comp:
                continue
            if t.target == pivot:
                best = [t]
                break
            rest = _bfs_trans(a, comp, [t.target], {pivot})
            if rest is not None and (best is None or len(rest) + 1 < len(best)):
                best = [t] + rest
        if best is None:
            raise ValidationError(f"no cycle through {pivot} in its component")
        return Loop(tuple(best), top)
    p1 = _bfs_trans(a, comp, [pivot], {via})
    p2 = _bfs_trans(a, comp, [via], {pivot})
    if p1 is None or p2 is None:
        raise ValidationError("component is not strongly connected")
    return Loop(tuple(p1 + p2), top)


def _pivot_loop(a: DetAutomaton, pivot: str, r: int) -> Loop:
    """Loop through pivot with top rank exactly r (materialized witness)."""
    rs = _rank_sccs(a, r)
    comp = rs.comps[rs.comp_of[pivot]]
    via = min(q for q in comp if a.rank(q) == r)
    return _closed_walk(a, set(comp), pivot, via, r)


def _edge_loop(a: DetAutomaton, first: Transition, r: int) -> Loop:
    """Loop starting with `first` and top rank exactly r."""
    sub = {q for q in a.states if a.rank(q) <= r}
    p, q = first.source, first.target
    reach_q = reachable_from([q], _restricted(_succ(a), sub))
    reach_p = reachable_from([p], _restricted(_pred(a), sub))
    candidates = [s for s in reach_q & reach_p if a.rank(s) == r]
    if not candidates:
        raise ValidationError("edge loop materialization failed")
    via = min(candidates)
    part1 = [] if via == q else _bfs_trans(a, sub, [q], {via})
    part2 = [] if via == p else _bfs_trans(a, sub, [via], {p})
    return Loop(tuple([first] + list(part1) + list(part2)), r)


def _scc_loop(a: DetAutomaton, ci: int, parity: int) -> Optional[Loop]:
    """Smallest-top loop of the given top parity inside SCC `ci`."""
    found = _scc_loops(a)[ci][parity]
    if found is None:
        return None
    r, comp = found
    via = min(q for q in comp if a.rank(q) == r)
    return _closed_walk(a, set(comp), via, via, r)


def _loop_with_parity(a: DetAutomaton, node_set: set[str], parity: int) -> Optional[Loop]:
    """Smallest-top loop of the given top parity inside the induced subgraph;
    `_scc_loop` gives the same loop when `node_set` is a whole SCC."""
    succ = _succ(a)
    ranks = sorted({a.rank(q) for q in node_set if a.rank(q) % 2 == parity})
    for r in ranks:
        sub = {q for q in node_set if a.rank(q) <= r}
        adj = _restricted(succ, sub)
        for comp in tarjan_scc(sorted(sub), adj):
            withr = [q for q in comp if a.rank(q) == r]
            if withr and has_cycle_inside(comp, adj):
                via = min(withr)
                return _closed_walk(a, set(comp), via, via, r)
    return None


# -- flowers ----------------------------------------------------------------


def _greedy_chain(sorted_ranks: list[int], start_parity: int) -> list[int]:
    """Longest chain of `sorted_ranks` with alternating parities, starting at
    `start_parity`; taking each rank as early as possible makes every prefix
    the smallest chain of its length."""
    need = start_parity
    chain: list[int] = []
    for r in sorted_ranks:
        if r % 2 == need:
            chain.append(r)
            need ^= 1
    return chain


def find_flower(a: DetAutomaton, i: IndexPair,
                pivots: Optional[set[str]] = None) -> Optional[FlowerWitness]:
    """Strong (iota,kappa)-flower: loops through one pivot, tops strictly
    increasing with parities matching their positions."""
    tops = loop_ranks(a)
    n = i.ranks_used()
    scan = sorted(pivots) if pivots is not None else sorted(a.states)
    for p in scan:
        chain = _greedy_chain(sorted(tops[p]), i.iota % 2)
        if len(chain) >= n:
            loops = tuple(_pivot_loop(a, p, r) for r in chain[:n])
            return FlowerWitness(kind="strong", index=i, pivot=p, loops=loops)
    return None


def _chain_dp(a: DetAutomaton):
    """Longest alternating loop chains over the condensation, counted from
    the front.

    g[ci][parity] = sup length of a chain whose first loop lies in scc ci
    with a top of that parity; INF once an SCC holding both parities is
    involved (it alternates unboundedly).  desc[ci][parity] is the maximum
    of g over ci and its descendants.
    """
    def build():
        _, _, edges = _condensation(a)
        scc_loops = _scc_loops(a)
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
    head = 0
    while head < len(queue):
        cj = queue[head]
        head += 1
        if g[cj][b] >= k:
            return cj
        for ck in sorted(edges[cj]):
            if ck not in seen:
                seen.add(ck)
                queue.append(ck)
    return None


def _connect_loops(a: DetAutomaton, loops):
    paths = []
    for l1, l2 in zip(loops, loops[1:]):
        if l1.states() & l2.states():
            paths.append(())
            continue
        path = _bfs_trans(a, set(a.states), sorted(l1.states()), l2.states())
        if path is None:
            raise ValidationError("chain loops are not connected")
        paths.append(tuple(path))
    return tuple(paths)


def _materialize_chain(a, host, parity, length):
    """Loops of an alternating chain of `length` starting in scc `host`."""
    _, _, edges = _condensation(a)
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


def find_weak_flower(a: DetAutomaton, i: IndexPair) -> Optional[FlowerWitness]:
    """Weak (iota,kappa)-flower: loops each reachable from the previous,
    accepting exactly at even positions."""
    n = i.ranks_used()
    start_parity = i.iota % 2
    g, _ = _chain_dp(a)
    for ci in range(len(g)):
        if g[ci][start_parity] >= n:
            loops = _materialize_chain(a, ci, start_parity, n)
            return FlowerWitness(kind="weak", index=i, loops=loops,
                                 paths=_connect_loops(a, loops))
    return None


# -- replication -------------------------------------------------------------


def _replicating_edges(a: DetAutomaton, et=None) -> list[tuple[Transition, int]]:
    """Transitions that close an accepting loop, with the smallest even top."""
    if et is None:
        et = edge_tops(a)
    found = []
    for t in a.transitions:
        evens = [r for r in et[(t.source, t.letter, t.direction)] if r % 2 == 0]
        if evens:
            found.append((t, min(evens)))
    return found


def replicated_set(a: DetAutomaton) -> set[str]:
    """Productive states reachable from the branch-off of an accepting loop."""
    def build():
        succ = _succ(a)
        starts = set()
        for t, _ in _replicating_edges(a):
            starts.add(a.step(t.source, t.letter, 1 - t.direction))
        return reachable_from(sorted(starts), succ) & productive_set(a)
    return _memo(a, "replicated_set", build)


def replication_witness_for(a: DetAutomaton, q: str) -> Optional[ReplicationWitness]:
    """Witness for one replicated state; None when `q` is not replicated."""
    back = reachable_from([q], _pred(a))
    for t, r in _replicating_edges(a):
        sib = Transition(t.source, t.letter, 1 - t.direction,
                         a.step(t.source, t.letter, 1 - t.direction))
        if sib.target in back:
            loop = _edge_loop(a, t, r)
            rest = [] if sib.target == q else _bfs_trans(a, set(a.states), [sib.target], {q})
            return ReplicationWitness(loop=loop, path=tuple([sib] + list(rest)), state=q)
    return None


def find_replicated_flower(a: DetAutomaton, i: IndexPair,
                           weak: bool) -> Optional[ReplicatedFlowerWitness]:
    """A flower replicated by an accepting loop.

    For strong flowers this means a replicated pivot (replication spreads
    around every loop through it); for weak flowers the first loop must be
    replicated, which makes the whole flower restartable in incomparable
    subtrees.  Later loops are unrestricted and may sit at the sink.
    """
    rep = replicated_set(a)
    if not rep:
        return None
    if weak:
        n = i.ranks_used()
        start_parity = i.iota % 2
        sccs, _, edges = _condensation(a)
        g, desc = _chain_dp(a)
        for ci, comp in enumerate(sccs):
            if n > 1 and desc[ci][1 - start_parity] < n - 1:
                continue
            first_nodes = set(comp) & rep
            if len(first_nodes) == len(comp):
                first = _scc_loop(a, ci, start_parity)
            else:
                first = _loop_with_parity(a, first_nodes, start_parity)
            if first is None:
                continue
            if n == 1:
                loops = (first,)
            else:
                nxt = _find_host(ci, 1 - start_parity, n - 1, g, edges)
                rest = _materialize_chain(a, nxt, 1 - start_parity, n - 1)
                loops = (first,) + rest
            flower = FlowerWitness(kind="weak", index=i, loops=loops,
                                   paths=_connect_loops(a, loops))
            anchor = min(flower.loops[0].states())
            return ReplicatedFlowerWitness(flower=flower,
                                           replication=replication_witness_for(a, anchor))
        return None
    flower = find_flower(a, i, pivots=rep)
    if flower is None:
        return None
    return ReplicatedFlowerWitness(flower=flower,
                                   replication=replication_witness_for(a, flower.pivot))


def find_split(a: DetAutomaton) -> Optional[SplitWitness]:
    """Two loops through one (state, letter) in opposite directions whose
    tops have different parity, the higher odd."""
    et = edge_tops(a)
    for p in sorted(a.states):
        for letter in a.alphabet:
            t0 = sorted(et.get((p, letter, 0), ()))
            t1 = sorted(et.get((p, letter, 1), ()))
            best = None
            for r0 in t0:
                for r1 in t1:
                    if r0 % 2 != r1 % 2 and max(r0, r1) % 2 == 1:
                        cand = (max(r0, r1), r0, r1)
                        if best is None or cand < best:
                            best = cand
            if best is not None:
                _, r0, r1 = best
                e0 = Transition(p, letter, 0, a.step(p, letter, 0))
                e1 = Transition(p, letter, 1, a.step(p, letter, 1))
                return SplitWitness(state=p, letter=letter,
                                    loop0=_edge_loop(a, e0, r0),
                                    loop1=_edge_loop(a, e1, r1))
    return None


# -- brute force oracle -------------------------------------------------------


class PatternInventory:
    """Exact pattern predicates from exhaustive strongly-connected-subset
    enumeration; the independent oracle for the fast detectors."""

    def __init__(self, a: DetAutomaton):
        self.automaton = a
        states = sorted(a.states)
        self.states = states
        succ = _succ(a)
        self.reach = {q: reachable_from([q], succ) for q in states}
        self.subsets: list[tuple[frozenset[str], int]] = []  # cyclic s.c. subsets
        self._sc_cache: dict[frozenset, bool] = {}
        for size in range(1, len(states) + 1):
            for combo in itertools.combinations(states, size):
                s = frozenset(combo)
                if self._strongly_connected(s, succ) and self._has_cycle(s, succ):
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
        if s in self._sc_cache:
            return self._sc_cache[s]
        first = next(iter(s))
        fwd = reachable_from([first], {q: [w for w in succ[q] if w in s] for q in s})
        ok = fwd >= s
        if ok:
            pred: dict[str, list[str]] = {q: [] for q in s}
            for q in s:
                for w in succ[q]:
                    if w in s:
                        pred[w].append(q)
            bwd = reachable_from([first], pred)
            ok = bwd >= s
        self._sc_cache[s] = ok
        return ok

    def _has_cycle(self, s: frozenset, succ) -> bool:
        if len(s) > 1:
            return True
        q = next(iter(s))
        return q in succ[q]

    def _compute_replicated(self) -> frozenset[str]:
        a = self.automaton
        productive = productive_set(a)
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
