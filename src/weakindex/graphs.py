"""Graph helpers on one SCC kernel: Tarjan's strongly connected components,
the condensation, reachability and the components of loops by top rank.

`_sccs` is the one SCC pass (Tarjan, SIAM J. Comput. 1972), iterative so
large graphs do not hit the recursion limit.  It runs on int nodes 0..n-1
and a successor list per node, keeps `index` and `low` in lists, marks its
stack in a bytearray and cuts each component off it in one slice, sorted.
Every internal pass calls it on ints, and `automata._graph` runs it once
on each automaton's move graph; the pattern view condenses that, by
`_condensation`.  `_loop_comps` is the one rank-restricted pass: per
looping SCC and per rank r of its nodes, the components of loops with top
r, found by `_rank_sccs` on that SCC's subgraph ranked at most r.  It runs
once per automaton, by `automata._loops`, for the pattern view's loop tops
and witness loops, the cycle ranks and the odd loop tops of
`semantics._search`, and on each graph `games.check_strategy` builds.
`tarjan_scc` and `condensation` keep their contract, any hashable nodes
and a successor dict that may lack keys, by numbering the nodes and
calling the kernel.
"""

from __future__ import annotations


def _sccs(succ, roots=None) -> list[list[int]]:
    """Strongly connected components of the graph on nodes 0..len(succ)-1,
    in reverse topological order, each sorted.

    `succ[v]` lists v's successors.  The search starts from each node of
    `roots` in order (all nodes by default) not yet reached, and takes
    successors in list order, so only the nodes reachable from `roots`
    appear, and the output is fixed by `roots` and the lists' order.
    """
    n = len(succ)
    index = [0] * n  # 0 until reached; then the order of reaching, from 1
    low = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    out: list[list[int]] = []
    count = 0
    for root in range(n) if roots is None else roots:
        if index[root]:
            continue
        count += 1
        index[root] = low[root] = count
        on_stack[root] = 1
        stack.append(root)  # the stack is empty between roots
        work = [(root, iter(succ[root]), 0)]  # a node, its moves left, its place on the stack
        while work:
            v, moves, at = work[-1]
            for w in moves:
                iw = index[w]
                if not iw:
                    count += 1
                    index[w] = low[w] = count
                    on_stack[w] = 1
                    work.append((w, iter(succ[w]), len(stack)))
                    stack.append(w)
                    break
                if iw < low[v] and on_stack[w]:
                    low[v] = iw
            else:  # v's moves are done
                work.pop()
                lv = low[v]
                if lv == index[v]:  # v is its component's root
                    comp = stack[at:]
                    del stack[at:]
                    for w in comp:
                        on_stack[w] = 0
                    comp.sort()
                    out.append(comp)
                elif lv < low[work[-1][0]]:  # v is not a root, so it has a parent
                    low[work[-1][0]] = lv
    return out


def _condensation(succ, sccs):
    """(SCCs in topological order, each node's SCC, the SCC successor sets)
    of the graph on nodes 0..len(succ)-1, given `sccs`, its SCCs in
    topological order (sources first) as `_sccs(succ)[::-1]` finds them."""
    comp_of = [0] * len(succ)
    for c, comp in enumerate(sccs):
        for v in comp:
            comp_of[v] = c
    edges: list[set[int]] = [set() for _ in sccs]
    for v, ws in enumerate(succ):
        c = comp_of[v]
        for w in ws:
            d = comp_of[w]
            if c != d:
                edges[c].add(d)
    return sccs, comp_of, edges


def tarjan_scc(nodes: list, succ: dict) -> list[list]:
    """Strongly connected components in reverse topological order, each sorted.

    The search starts from each of `nodes` in order and follows `succ`, so a
    node missing from `succ` has no successor and one reached only through
    `succ` is searched too.  The nodes are numbered in that order and the
    search is `_sccs`'s; the output is deterministic given deterministic
    `nodes` and adjacency ordering.
    """
    ids = list(dict.fromkeys(nodes))
    roots = range(len(ids))  # `nodes`; the loop below adds those reached only through `succ`
    num = {v: i for i, v in enumerate(ids)}
    isucc: list[list[int]] = []
    for v in ids:  # the list grows while it is read
        out = []
        for w in succ.get(v, ()):
            i = num.get(w)
            if i is None:
                i = num[w] = len(ids)
                ids.append(w)
            out.append(i)
        isucc.append(out)
    return [sorted(ids[i] for i in comp) for comp in _sccs(isucc, roots)]


def condensation(nodes: list, succ: dict):
    """Returns (sccs in topological order, node->scc index, scc successor sets)."""
    sccs = tarjan_scc(nodes, succ)[::-1]  # topological order (sources first)
    comp_of = {v: i for i, comp in enumerate(sccs) for v in comp}
    edges: list[set[int]] = [set() for _ in sccs]
    for v in comp_of:  # every node the search numbered, also those reached only through `succ`
        for w in succ.get(v, ()):
            if comp_of[v] != comp_of[w]:
                edges[comp_of[v]].add(comp_of[w])
    return sccs, comp_of, edges


def reachable_from(starts, succ: dict) -> set:
    seen = set(starts)
    stack = list(starts)
    while stack:
        for w in succ.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def has_cycle_inside(comp: list, succ) -> bool:
    """A set of nodes supports a loop iff it has >= 2 nodes or a self-loop.
    `succ[v]` lists v's successors: a list on int nodes, or a dict holding v."""
    if len(comp) > 1:
        return True
    v = comp[0]
    return v in succ[v]


def _rank_sccs(nodes, succ, rank, r):
    """(sub, adj, comps): `sub` the int nodes of `nodes` ranked at most r,
    in `nodes` order; `adj[i]` the moves `succ[sub[i]]` into `sub` and
    `comps` the components `_sccs(adj)`, both by place in `sub`.  It builds
    nothing larger than `sub` and its moves."""
    sub = [v for v in nodes if rank[v] <= r]
    num = {v: i for i, v in enumerate(sub)}
    adj = [[num[w] for w in succ[v] if w in num] for v in sub]
    return sub, adj, _sccs(adj)


def _loop_comps(succ, sccs, rank) -> list[tuple[int, int, list[int]]]:
    """(c, r, comp) for each SCC `sccs[c]` that supports a cycle, each rank
    r of its nodes, ascending, and each component `comp` (sorted) of its
    subgraph ranked at most r that supports a cycle and holds a node of
    rank r: the nodes of the loops with top r.  At the SCC's top rank that
    is the whole SCC; below it `_rank_sccs` searches the SCC alone, and
    the components come in the order of that search."""
    out = []
    for c, scc in enumerate(sccs):
        if not has_cycle_inside(scc, succ):
            continue
        ranks = sorted({rank[v] for v in scc})
        for r in ranks[:-1]:
            sub, adj, comps = _rank_sccs(scc, succ, rank, r)
            for comp in comps:
                if has_cycle_inside(comp, adj) and any(rank[sub[i]] == r for i in comp):
                    out.append((c, r, [sub[i] for i in comp]))
        out.append((c, ranks[-1], scc))
    return out
