"""The one SCC kernel, `graphs._sccs`, against the dict-keyed Tarjan it
replaced (`conftest.ref_tarjan`), and the passes that call it against the
same passes built on that reference: the public `tarjan_scc` and
`condensation`, the rank-restricted routine `_rank_sccs`, the loop
components `_loop_comps`, the pattern view's condensation and loop tops,
cycle ranks and the loop tops of membership products; and time bounds on
long chains.
"""

import contextlib
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from weakindex import catalog, graphs
from weakindex.automata import DetAutomaton, State, Transition, _table
from weakindex.errors import (
    IndexTooHigh,
    NonWeaklyRecognizable,
    PreconditionViolated,
    UnsupportedGapConstruction,
)
from weakindex.graphs import (
    _condensation,
    _loop_comps,
    _rank_sccs,
    _sccs,
    condensation,
    tarjan_scc,
)
from weakindex.patterns import _tops, _view
from weakindex.productivity import trim
from weakindex.rng import SplitMix64
from weakindex.semantics import (
    SamplerParams,
    _cycle_ranks,
    _product_arrays,
    _search,
    _tree_view,
    _view as membership_view,
    sample_regular_tree,
)
from weakindex.transforms import restrict, weaken, weaken_02, weaken_13, weaken_14

from conftest import (
    cli_large_input,
    criterion_5_stream,
    random_weak,
    ref_has_cycle_inside,
    ref_has_top_cycle,
    ref_tarjan,
)
from test_acceptance import _admissible_pool


# -- references built on the dict-keyed Tarjan ---------------------------------------


def ref_condensation(nodes, succ):
    """`condensation` as it was, with the SCC edges out of every node the
    search reaches: SCCs in topological order, a dict from node to SCC,
    and the SCC successor sets, in the same insertion order."""
    sccs = ref_tarjan(nodes, succ)[::-1]
    comp_of = {v: i for i, comp in enumerate(sccs) for v in comp}
    edges = [set() for _ in sccs]
    for v in comp_of:
        for w in succ.get(v, ()):
            if comp_of[v] != comp_of[w]:
                edges[comp_of[v]].add(comp_of[w])
    return sccs, comp_of, edges


def ref_cycle_ranks(a):
    """`semantics._cycle_ranks` on successor dicts.  Each state's successors
    are ascending, as in the one move graph, so that the components no
    path orders are numbered as there."""
    _, letter, moves, _, rank = membership_view(a)
    width = len(letter)
    succ = {q: sorted(set(p for x in range(q * width, (q + 1) * width) for _, p in moves[x]))
            for q in range(len(rank))}
    ranks = [0] * len(rank)
    for level, comp in enumerate(reversed(ref_tarjan(range(len(rank)), succ))):
        odd = False
        if ref_has_cycle_inside(comp, succ):
            odd = ref_has_top_cycle(comp, succ, rank, 1)
            if odd and ref_has_top_cycle(comp, succ, rank, 0):
                return None
        for q in comp:
            ranks[q] = 2 * level + odd
    return ranks


def ref_view(a):
    """The view's successors and condensation as they were built: a
    successor dict and the dict-keyed condensation."""
    ids, _, _, _, target = _table(a)
    width = 2 * len(a.alphabet)
    succ = {i: sorted(set(target[i * width:i * width + width])) for i in range(len(ids))}
    return (succ, *ref_condensation(list(succ), succ))


def ref_tops(a):
    """`patterns._tops` as it was: one dict-keyed Tarjan per rank on the
    states of the whole SCCs it splits, then loop and edge masks and the
    per-SCC slots."""
    v = _view(a)
    rank, width, target = v.rank, v.width, v.target
    succ, sccs, scc_of, _ = ref_view(a)
    loop, edge, slots = [0] * len(v.ids), [0] * len(target), [[None, None] for _ in sccs]
    for k, r in enumerate(v.ranks):
        comps, split = [], []
        for comp in sccs:
            if max(rank[i] for i in comp) <= r:
                comps.append(comp)
            else:
                split += [i for i in comp if rank[i] <= r]
        if split:
            split.sort()
            adj = {i: [w for w in succ[i] if rank[w] <= r and scc_of[w] == scc_of[i]]
                   for i in split}
            comps += ref_tarjan(split, adj)
        comp_of = [-1] * len(rank)
        for c, comp in enumerate(comps):
            for i in comp:
                comp_of[i] = c
        for c, comp in enumerate(comps):
            if not (ref_has_cycle_inside(comp, succ) and any(rank[i] == r for i in comp)):
                continue
            slot = slots[scc_of[comp[0]]]
            if slot[r % 2] is None:
                slot[r % 2] = (r, min(i for i in comp if rank[i] == r))
            for i in comp:
                loop[i] |= 1 << k
                for j in range(i * width, i * width + width):
                    if comp_of[target[j]] == c:
                        edge[j] |= 1 << k
    return loop, edge, slots


# -- the kernel and the public wrappers ---------------------------------------------


def check_graph(n, edges, roots, names):
    """`_sccs`, `_condensation`, `tarjan_scc` and `condensation` against the
    references on one graph: int nodes 0..n-1 with successor lists in edge
    order, and the same graph under `names`, with no dict entry for a node
    without successors."""
    succ = [[] for _ in range(n)]
    for u, w in edges:
        succ[u].append(w)
    as_dict = dict(enumerate(succ))
    assert _sccs(succ) == ref_tarjan(range(n), as_dict)
    assert _sccs(succ, roots) == ref_tarjan(roots, as_dict)
    sccs, comp_of, cedges = _condensation(succ, _sccs(succ)[::-1])
    want = ref_condensation(range(n), as_dict)
    assert (sccs, dict(enumerate(comp_of)), cedges) == want

    named = {names[u]: [names[w] for w in ws] for u, ws in enumerate(succ) if ws}
    nodes = [names[u] for u in roots]
    assert tarjan_scc(nodes, named) == ref_tarjan(nodes, named)
    assert condensation(nodes, named) == ref_condensation(nodes, named)


@st.composite
def digraphs(draw):
    """Up to 14 nodes; self-loops and duplicate edges allowed; roots a
    subset of the nodes in any order, so some nodes are reached only
    through edges and some not at all; string or int names."""
    n = draw(st.integers(1, 14))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40))
    roots = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    names = draw(st.sampled_from([[f"v{u}" for u in range(n)], list(range(n)),
                                  [f"{chr(122 - u)}{u}" for u in range(n)]]))
    return n, edges, roots, names


@settings(max_examples=400, deadline=None)
@given(digraphs())
def test_kernel_and_wrappers_match_the_dict_keyed_tarjan(graph):
    check_graph(*graph)


def test_kernel_matches_the_dict_keyed_tarjan_on_seeded_graphs():
    """Larger graphs: dense and sparse, with many small and a few large
    components."""
    rng = SplitMix64(2121)
    for _ in range(300):
        n = 1 + rng.below(80)
        m = rng.below(3 * n + 1)
        edges = [(rng.below(n), rng.below(n)) for _ in range(m)]
        edges += [(u, u) for u in range(n) if rng.below(8) == 0]  # self-loops
        edges += edges[:rng.below(len(edges) + 1)]  # duplicate edges
        roots = [u for u in range(n) if rng.below(3)]
        roots.reverse()
        check_graph(n, edges, roots, [f"s{u:03d}" for u in range(n)])


def test_condensation_keeps_edges_out_of_nodes_reached_only_through_succ():
    """b and c are not among the nodes passed, but the search reaches them,
    so the edge b -> c is an SCC edge too."""
    assert condensation(["a"], {"a": ["b"], "b": ["c"]}) == (
        [["a"], ["b"], ["c"]], {"a": 0, "b": 1, "c": 2}, [{1}, {2}, set()])


def test_a_100000_node_chain_runs_without_recursion():
    n = 100_000
    limit = sys.getrecursionlimit()
    chain = [[i + 1] for i in range(n - 1)] + [[]]
    assert _sccs(chain) == [[i] for i in reversed(range(n))]
    ring = [[(i + 1) % n] for i in range(n)]
    assert _sccs(ring) == [list(range(n))]
    named = {f"v{i}": [f"v{i + 1}"] for i in range(n - 1)}
    assert tarjan_scc(["v0"], named) == [[f"v{i}"] for i in reversed(range(n))]
    assert sys.getrecursionlimit() == limit


# -- the rank-restricted routine ---------------------------------------------------------


def ref_rank_sccs(nodes, succ, rank, r):
    """`graphs._rank_sccs` on node names: the nodes of `nodes` ranked <= r,
    their moves that stay among them, and the dict-keyed Tarjan's
    components of that subgraph."""
    sub = [v for v in nodes if rank[v] <= r]
    keep = set(sub)
    adj = {v: [w for w in succ[v] if w in keep] for v in sub}
    return sub, adj, ref_tarjan(sub, adj)


def ref_loop_comps(succ, sccs, rank):
    """`graphs._loop_comps` on a successor dict: per SCC that supports a
    cycle and per rank of its nodes, ascending, the dict-keyed Tarjan's
    components of the SCC's nodes ranked at most r that support a cycle
    and hold a node of rank r, the top rank searched like any other."""
    out = []
    for c, scc in enumerate(sccs):
        if not ref_has_cycle_inside(scc, succ):
            continue
        for r in sorted({rank[v] for v in scc}):
            _, adj, comps = ref_rank_sccs(scc, succ, rank, r)
            out += [(c, r, comp) for comp in comps
                    if ref_has_cycle_inside(comp, adj) and any(rank[v] == r for v in comp)]
    return out


def assert_loop_comps_match(succ, rank):
    sccs = _sccs(succ)[::-1]
    assert _loop_comps(succ, sccs, rank) == ref_loop_comps(dict(enumerate(succ)), sccs, rank)


@st.composite
def ranked_digraphs(draw):
    """Up to 12 int nodes with ranks 0..4; self-loops and duplicate moves;
    the nodes given a subset in any order."""
    n = draw(st.integers(1, 12))
    succ = [[] for _ in range(n)]
    for u, w in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=36)):
        succ[u].append(w)
    rank = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    nodes = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    return nodes, succ, rank, draw(st.integers(0, 4))


@settings(max_examples=400, deadline=None)
@given(ranked_digraphs())
def test_rank_sccs_and_loop_tops_match_the_dict_keyed_tarjan(graph):
    nodes, succ, rank, r = graph
    sub, adj, comps = _rank_sccs(nodes, succ, rank, r)
    want_sub, want_adj, want_comps = ref_rank_sccs(nodes, succ, rank, r)
    assert sub == want_sub
    assert [[sub[i] for i in ws] for ws in adj] == [want_adj[v] for v in sub]
    assert [sorted(sub[i] for i in comp) for comp in comps] == want_comps
    assert_loop_comps_match(succ, rank)


def test_loop_comps_match_the_dict_keyed_tarjan_on_seeded_graphs():
    """Larger graphs with up to 6 ranks: dense and sparse, with many small
    and a few large components, self-loops and duplicate moves."""
    rng = SplitMix64(3131)
    for _ in range(300):
        n = 1 + rng.below(80)
        succ = [[] for _ in range(n)]
        for _ in range(rng.below(3 * n + 1)):
            succ[rng.below(n)].append(rng.below(n))
        for u in range(n):
            if rng.below(8) == 0:
                succ[u] += [u, u]  # a self-loop, twice
        top = 1 + rng.below(6)
        assert_loop_comps_match(succ, [rng.below(top) for _ in range(n)])


def one_way_chain(n, pairs=False):
    """State i moves to itself on the left and to state i + 1 on the right,
    the last state to itself both ways; state i has rank i mod 3.  With
    `pairs`, states 2k and 2k + 1 (ranks 0 and 1) form a component instead:
    2k moves to 2k + 1 both ways, and 2k + 1 to 2k on the left and on to
    2k + 2 on the right, so each component has loops with odd tops only."""
    names = [f"q{i:05d}" for i in range(n)]
    if pairs:
        step = [(i + 1, i + 1) if i % 2 == 0 else (i - 1, i + 1) for i in range(n)]
    else:
        step = [(i, i + 1) for i in range(n)]
    trans = [Transition(q, "a", d, names[min(step[i][d], n - 1)]) for i, q in enumerate(names)
             for d in (0, 1)]
    ranks = [i % 2 if pairs else i % 3 for i in range(n)]
    return DetAutomaton(("a",), {q: State("A", r) for q, r in zip(names, ranks)}, names[0],
                        tuple(trans))


@pytest.mark.parametrize("n, pairs", [(12_000, False), (24_000, True)])
def test_loop_tops_and_cycle_ranks_stay_linear_on_long_chains(n, pairs):
    """12000 looping components: a routine that builds arrays of the whole
    graph per component or per rank turns quadratic.  On the pairs chain
    `_cycle_ranks` asks the rank-restricted routine once per component."""
    for run in (lambda a: _cycle_ranks(a)[0], lambda a: _tops(a).loop):
        a = one_way_chain(n, pairs)
        start = time.perf_counter()
        out = run(a)
        assert time.perf_counter() - start < 1.5, run
        assert len(out) == n


# -- the passes that call the kernel -------------------------------------------------


def test_pattern_view_and_cycle_ranks_share_one_move_graph(monkeypatch):
    """`patterns._view` and `semantics._cycle_ranks` read one successor list
    and one list of components, in either order: the kernel runs once for
    both.
    The chain's looping components each hold one rank, so their loop
    components ask the rank-restricted routine nothing."""
    kernel, calls = graphs._sccs, []

    def counted(succ, roots=None):
        calls.append(len(succ))
        return kernel(succ, roots)

    for m in list(sys.modules.values()):
        if m is not None and m.__name__.startswith("weakindex") and vars(m).get("_sccs") is kernel:
            monkeypatch.setattr(m, "_sccs", counted)
    for first, second in ((_view, _cycle_ranks), (_cycle_ranks, _view)):
        a = one_way_chain(50, pairs=False)
        first(a), second(a)
        assert _cycle_ranks(a)[1] is _view(a).succ
        assert calls == [50]
        calls.clear()


def test_loop_tops_cycle_ranks_and_copies_share_one_loop_kernel_run(monkeypatch):
    """`patterns._tops`, `semantics._cycle_ranks` and the copies over
    guessed odd loop tops of `semantics._search` read one list of loop
    components: on trimmed inf_b_left, a strong automaton with loops of
    both parities in one component and no existential state, all three
    are built on one run of `graphs._loop_comps`."""
    kernel, calls = graphs._loop_comps, []

    def counted(succ, sccs, rank):
        calls.append(len(succ))
        return kernel(succ, sccs, rank)

    for m in list(sys.modules.values()):
        if (m is not None and m.__name__.startswith("weakindex")
                and vars(m).get("_loop_comps") is kernel):
            monkeypatch.setattr(m, "_loop_comps", counted)
    a = trim(catalog.get("inf_b_left"))
    assert any(_tops(a).loop)
    assert _cycle_ranks(a) is None
    assert _search(a) is not None
    assert calls == [len(a.states)]


def assert_view_and_tops_match(a):
    succ, sccs, scc_of, edges = ref_view(a)
    v = _view(a)
    n = len(v.ids)
    assert v.succ == [succ[i] for i in range(n)]
    assert v.sccs == sccs
    assert v.scc_of == [scc_of[i] for i in range(n)]
    assert v.edges == edges
    assert tuple(_tops(a)) == ref_tops(a)


def test_view_and_tops_match_the_reference_on_the_catalog_and_criterion_5_stream():
    for name in sorted(catalog.CATALOG):
        assert_view_and_tops_match(trim(catalog.get(name)))
    for a in criterion_5_stream(1000):
        assert_view_and_tops_match(a)


def test_view_and_tops_match_the_reference_on_cli_large_inputs():
    """The first input of each cli_large stream at seeds 1 to 3."""
    for seed in (1, 2, 3):
        for stream in (1, 2):
            assert_view_and_tops_match(trim(cli_large_input(seed, stream)))


def criterion_4_automata():
    """Criterion 4's pool, its constructions and `restrict` of its weak
    automata."""
    pool = [trim(catalog.get(name)) for name in catalog.CATALOG]
    pool += _admissible_pool(50, seed=4242)
    out, weak = list(pool), []
    for a in pool:
        with contextlib.suppress(IndexTooHigh):
            weak.append(weaken_02(a))
        with contextlib.suppress(IndexTooHigh, PreconditionViolated):
            weak.append(weaken_13(a))
        with contextlib.suppress(PreconditionViolated):
            weak.append(weaken_14(a)[0])
        with contextlib.suppress(UnsupportedGapConstruction, NonWeaklyRecognizable):
            weak.append(weaken(a)[0])
    rng = SplitMix64(737)
    weak += [random_weak(rng, max_states=5) for _ in range(50)]
    return out + weak + [restrict(w) for w in weak]


def test_cycle_ranks_and_cycle_check_match_the_reference_on_criterion_4_products():
    """Cycle ranks of criterion 4's automata, and the loop top parities of
    their products with sampled trees, against `ref_cycle_ranks` and
    `conftest.ref_has_top_cycle`."""
    views = [_tree_view(t) for t in sample_regular_tree(
        SamplerParams(seed=42, max_nodes=8, alphabet=("a", "b"), count=12))]
    some_ranks = products = 0
    for a in criterion_4_automata():
        found = _cycle_ranks(a)
        ranks = found and found[0]
        assert ranks == ref_cycle_ranks(a), a
        some_ranks += ranks is not None
        for view in views:
            _, rank, succ = _product_arrays(a, view)
            tops = {r % 2 for _, r, _ in _loop_comps(succ, _sccs(succ)[::-1], rank)}
            as_dict = dict(enumerate(succ))
            for parity in (0, 1):
                assert (parity in tops) == ref_has_top_cycle(range(len(succ)), as_dict, rank,
                                                             parity), a
            products += 1
    assert some_ranks > 50 and products > 3000
