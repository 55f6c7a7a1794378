"""Small graph helpers: iterative Tarjan SCC, condensation, reachability,
and the rank-restricted check for a cycle with a top rank of given parity."""

from __future__ import annotations


def tarjan_scc(nodes: list, succ: dict) -> list[list]:
    """Strongly connected components in reverse topological order.

    Iterative so large automata do not hit the recursion limit.  Output is
    deterministic given deterministic `nodes` and adjacency ordering.
    """
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


def condensation(nodes: list, succ: dict):
    """Returns (sccs in topological order, node->scc index, scc successor sets)."""
    sccs = tarjan_scc(nodes, succ)
    sccs = list(reversed(sccs))  # topological order (sources first)
    comp_of = {}
    for i, comp in enumerate(sccs):
        for v in comp:
            comp_of[v] = i
    edges: list[set[int]] = [set() for _ in sccs]
    for v in nodes:
        for w in succ.get(v, ()):
            a, b = comp_of[v], comp_of[w]
            if a != b:
                edges[a].add(b)
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


def has_cycle_inside(comp: list, succ: dict) -> bool:
    """A set of nodes supports a loop iff it has >= 2 nodes or a self-loop."""
    if len(comp) > 1:
        return True
    v = comp[0]
    return v in succ.get(v, ())


def _has_top_cycle(nodes, succ, rank, parity: int) -> bool:
    """Whether the subgraph induced by `nodes` has a cycle whose top rank
    has `parity`.

    For each such rank r of a node, ascending, runs Tarjan on the nodes
    ranked at most r: a cycle with top r exists exactly when one of their
    components supports a cycle and holds a node of rank r.  Returns at
    the first such component.
    """
    for r in sorted({rank[v] for v in nodes if rank[v] % 2 == parity}):
        sub = [v for v in nodes if rank[v] <= r]
        keep = set(sub)
        adj = {v: [w for w in succ[v] if w in keep] for v in sub}
        for comp in tarjan_scc(sub, adj):
            if has_cycle_inside(comp, adj) and any(rank[v] == r for v in comp):
                return True
    return False
