import contextlib
import hashlib
import math
import time
from collections import Counter
from itertools import islice

import pytest

from weakindex import catalog, semantics
from weakindex.automata import (
    DetAutomaton,
    IndexPair,
    State,
    Transition,
    TreeAutomaton,
    index_of,
    make_automaton,
)
from weakindex.classifier import weak_det_index
from weakindex.errors import (
    IndexTooHigh,
    NonWeaklyRecognizable,
    PreconditionViolated,
    UnsupportedGapConstruction,
    ValidationError,
)
from weakindex.cli import main
from weakindex.formats import serialize_automaton, serialize_regular_tree
from weakindex.games import Game, brute_force_solve, eve_wins_arrays, solve
from weakindex.rng import _CHUNK, SplitMix64, _words
from weakindex.semantics import (
    SamplerParams,
    _battery_views,
    _nested_accepts,
    _product_arrays,
    _sample_views,
    _tree_view,
    alt_accepts,
    bounded_equiv,
    det_accepts,
    deterministic_battery,
    product_game,
    run_reduction,
    sample_regular_tree,
    skurczynski,
    skurczynski_member_oracle,
    w_member,
)
from weakindex.transforms import restrict, weaken, weaken_02, weaken_13, weaken_14
from weakindex.trees import Node, RegularTree, constant_tree, parse_wlabel

from conftest import (
    criterion_5_stream,
    random_det,
    random_weak,
    ref_has_top_cycle,
    ref_sample_views,
    ref_universal_weak_accepts,
)


def tree_with_b_at_root():
    return RegularTree(2, {"r": Node("b", ("n", "n")), "n": Node("a", ("n", "n"))}, "r")


# -- membership ----------------------------------------------------------------


def test_det_accepts_all_a():
    a = catalog.all_a()
    assert det_accepts(a, constant_tree("a"))
    assert not det_accepts(a, tree_with_b_at_root())


def test_det_accepts_rejects_foreign_labels():
    a = catalog.all_a()
    with pytest.raises(ValidationError):
        det_accepts(a, constant_tree("z"))


def _cycle_oracle(a, t):
    """Independent membership check: search the product graph for a
    reachable cycle whose top rank is odd."""
    start = (a.initial, t.root)
    seen = set()
    stack = [start]
    nodes = []
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        nodes.append(cur)
        q, v = cur
        for d in (0, 1):
            stack.append((a.step(q, t.label(v), d), t.child(v, d)))
    idx = {x: i for i, x in enumerate(nodes)}
    succ = {i: set() for i in range(len(nodes))}
    for (q, v) in nodes:
        for d in (0, 1):
            succ[idx[(q, v)]].add(idx[(a.step(q, t.label(v), d), t.child(v, d))])
    # enumerate subsets is exponential; instead check per odd rank r the
    # rank-restricted subgraph for a cycle through a rank-r product node
    ranks = {i: a.rank(nodes[i][0]) for i in range(len(nodes))}
    from weakindex.graphs import tarjan_scc
    for r in sorted({x for x in ranks.values() if x % 2 == 1}):
        keep = [i for i in range(len(nodes)) if ranks[i] <= r]
        keep_set = set(keep)
        adj = {i: sorted(j for j in succ[i] if j in keep_set) for i in keep}
        for comp in tarjan_scc(keep, adj):
            if len(comp) == 1 and comp[0] not in adj[comp[0]]:
                continue
            if any(ranks[i] == r for i in comp):
                return False
    return True


def test_det_accepts_matches_cycle_oracle():
    rng = SplitMix64(888)
    trees = sample_regular_tree(SamplerParams(seed=8, max_nodes=5,
                                              alphabet=("a", "b"), count=20))
    for _ in range(60):
        a = random_det(rng, max_states=5)
        for t in trees:
            assert det_accepts(a, t) == _cycle_oracle(a, t)


def test_alt_accepts_coincides_on_deterministic():
    rng = SplitMix64(999)
    trees = sample_regular_tree(SamplerParams(seed=9, max_nodes=6,
                                              alphabet=("a", "b"), count=20))
    for _ in range(40):
        a = random_det(rng)
        alt = a.as_alternating()
        for t in trees:
            assert det_accepts(a, t) == alt_accepts(alt, t)


def _random_alternating(rng, acceptance):
    """Up to four states.  Each (state, letter) has zero to three moves in
    direction 0, 1 or epsilon, and sometimes one more target in both
    directions, so products have dead ends, epsilon moves and moves that
    land twice on one position (both children of a node coincide)."""
    n = 1 + rng.below(4)
    names = [f"q{i}" for i in range(n)]
    states = {q: ("E" if rng.below(2) else "A", rng.below(4)) for q in names}
    trans = []
    for q in names:
        for x in ("a", "b"):
            for _ in range(rng.below(4)):
                trans.append((q, x, (0, 1, None)[rng.below(3)], names[rng.below(n)]))
            if rng.below(3) == 0:
                q2 = names[rng.below(n)]
                trans += [(q, x, 0, q2), (q, x, 1, q2)]
    return make_automaton(("a", "b"), states, "q0", trans, acceptance=acceptance)


def _membership_cases():
    """240 random automata, deterministic and alternating under weak and
    strong acceptance, each with its membership function, and the 12
    trees they are checked on."""
    rng = SplitMix64(4711)
    trees = sample_regular_tree(SamplerParams(seed=47, max_nodes=4,
                                              alphabet=("a", "b"), count=12))
    cases = []
    for k in range(240):
        if k % 3 == 2:
            cases.append((random_det(rng, max_states=4), det_accepts))
        else:
            cases.append((_random_alternating(rng, ("weak", "parity")[k % 3]), alt_accepts))
    return cases, trees


def test_membership_matches_independent_solvers():
    """The membership kernel against full solvers on the string-keyed
    product game, and against brute force where that game is small: at
    most 12 positions (the oracle's guard) and at most 256 positional
    strategy profiles, which keeps the oracle to a few seconds."""
    cases, trees = _membership_cases()
    brute = 0
    for a, accepts in cases:
        for t in trees:
            g = product_game(a, t)
            winner = solve(g).winner[g.initial]
            assert accepts(a, t) == (winner == "E"), (a, t)
            profiles = math.prod(len(g.successors(p)) or 1 for p in g.positions)
            if len(g.positions) <= 12 and profiles <= 256:
                assert brute_force_solve(g).winner[g.initial] == winner, (a, t)
                brute += 1
    assert brute >= 2000, brute


def test_product_index_list_and_dict_agree(monkeypatch):
    """The product search gives the same arena whether it indexes its
    positions in the flat list (every product under a huge bound) or in
    the dict (every product over a bound of 0)."""
    cases, trees = _membership_cases()
    views = [_tree_view(t) for t in trees]
    arenas = {}
    for bound in (0, 1 << 40):
        monkeypatch.setattr(semantics, "_LIST_INDEX_SLOTS", bound)
        arenas[bound] = [_product_arrays(a, v) for a, _ in cases for v in views]
    assert len(arenas[0]) == 240 * 12
    assert arenas[0] == arenas[1 << 40]


def test_membership_above_the_list_index_bound():
    """Products with more (state, node) slots than the list index takes,
    on a sampled tree of over 3000 nodes: the dict-indexed search decides
    membership as the full solvers do on the string-keyed game."""
    t = sample_regular_tree(SamplerParams(seed=0, max_nodes=4000,
                                          alphabet=("a", "b"), count=1))[0]
    assert len(t.nodes) >= 3000
    rng = SplitMix64(3000)
    for kind in ("det", "weak", "parity"):
        while True:
            if kind == "det":
                a, accepts = random_det(rng, max_states=5), det_accepts
            else:
                a, accepts = _random_alternating(rng, kind), alt_accepts
            positions = len(_product_arrays(a, _tree_view(t))[0])
            if len(a.states) * len(t.nodes) > semantics._LIST_INDEX_SLOTS and positions >= 3000:
                break
        g = product_game(a, t)
        assert accepts(a, t) == (solve(g).winner[g.initial] == "E"), kind


def _kernel_accepts(a, view):
    """Weak membership by the kernel: `eve_wins_arrays` on the product arrays."""
    return eve_wins_arrays(*_product_arrays(a, view), weak=True)


def _universal(a):
    return a.with_states({q: State("A", st.rank) for q, st in a.states.items()})


def _weak_kind(a):
    return "restricted" if a.is_restricted() else "lowers a rank"


def test_one_player_search_matches_the_kernel_on_random_automata():
    """Weak automata with every state universal, shaped as
    `_random_alternating` draws them: the corpus has dead ends, epsilon
    self-loops and moves that land twice on one position.  The search, and
    the search over (state, node, highest rank so far) triples it replaced,
    agree with the kernel.  Many automata lower a rank along a move, and
    among both those and the rest some initial states are not live."""
    rng = SplitMix64(1919)
    views = [_tree_view(t) for t in sample_regular_tree(
        SamplerParams(seed=19, max_nodes=6, alphabet=("a", "b"), count=25))]
    seen = {"dead end": 0, "epsilon self-loop": 0, "move listed twice": 0, "reject": 0}
    kinds = Counter()
    for _ in range(300):
        a = _universal(_random_alternating(rng, "weak"))
        seen["epsilon self-loop"] += any(t.direction is None and t.source == t.target
                                         for t in a.transitions)
        every = semantics._search(a) is None
        kinds[_weak_kind(a), "every tree" if every else "live"] += 1
        for v in views:
            _, _, succ = _product_arrays(a, v)
            seen["dead end"] += any(not s for s in succ)
            seen["move listed twice"] += any(len(set(s)) < len(s) for s in succ)
            expected = _kernel_accepts(a, v)
            seen["reject"] += not expected
            kinds[_weak_kind(a), expected] += 1
            assert _nested_accepts(a, v) == expected, (a, v)
            assert semantics._accepts(a, v) == expected, (a, v)
            assert ref_universal_weak_accepts(a, v) == expected, (a, v)
            assert expected or not every, (a, v)
    assert min(seen.values()) >= 100, seen
    assert len(kinds) == 8 and min(kinds.values()) >= 40, kinds


def test_one_player_search_matches_the_kernel_on_constructions():
    """The universal outputs of weaken_02, weaken_14 and the weak
    deterministic relabeling over the first 200 automata of criterion 5's
    stream, on the battery and sampled trees.  No move of theirs lowers a
    rank, and most accept every tree."""
    views = [v for _, v in _battery_views(("a", "b"))]
    views += [_tree_view(t) for t in sample_regular_tree(
        SamplerParams(seed=55, max_nodes=8, alphabet=("a", "b"), count=12))]
    checked = {"weaken_02": 0, "weaken_14": 0, "weak_det_relabel": 0}
    kinds = Counter()
    for a in criterion_5_stream(200):
        outputs = []
        with contextlib.suppress(IndexTooHigh):
            outputs.append(("weaken_02", weaken_02(a)))
        with contextlib.suppress(PreconditionViolated):
            outputs.append(("weaken_14", weaken_14(a)[0]))
        relabeled = weak_det_index(a)
        if relabeled is not None:
            outputs.append(("weak_det_relabel", relabeled[1]))
        for kind, out in outputs:
            if any(st.mode == "E" for st in out.states.values()):
                continue
            checked[kind] += 1
            kinds[_weak_kind(out), semantics._search(out) is None] += 1
            for v in views:
                expected = _kernel_accepts(out, v)
                assert _nested_accepts(out, v) == expected, (kind, a, v)
                assert semantics._accepts(out, v) == expected, (kind, a, v)
                assert ref_universal_weak_accepts(out, v) == expected, (kind, a, v)
    assert min(checked.values()) >= 150, checked
    assert kinds[("restricted", False)] >= 50 and kinds[("restricted", True)] >= 300, kinds


def test_one_player_search_above_the_list_index_bound():
    """A tree of over 3000 nodes, where the kernel's product search indexes
    its positions in a dict."""
    t = sample_regular_tree(SamplerParams(seed=0, max_nodes=4000,
                                          alphabet=("a", "b"), count=1))[0]
    view = _tree_view(t)
    assert len(t.nodes) >= 3000
    rng = SplitMix64(3001)
    verdicts = set()
    while len(verdicts) < 2:
        a = _universal(_random_alternating(rng, "weak"))
        if len(_product_arrays(a, view)[0]) < 3000:
            continue
        assert len(a.states) * len(t.nodes) > semantics._LIST_INDEX_SLOTS
        expected = _kernel_accepts(a, view)
        assert _nested_accepts(a, view) == expected, a
        verdicts.add(expected)


@pytest.mark.parametrize("states, moves, member", [
    # an odd-rank cycle reached only through a higher even rank
    ({"i": 0, "h": 2, "p": 1}, [("i", 0, "h"), ("h", 0, "p"), ("p", 0, "p")], True),
    # a dead end on an odd rank: Adam is stuck there and loses
    ({"i": 0, "p": 1}, [("i", 0, "p")], True),
    # an epsilon self-loop on an odd rank
    ({"i": 0, "p": 1}, [("i", 1, "p"), ("p", None, "p")], False),
    # one position reached with two highest ranks so far: first through the
    # even rank 2, whose cycle Eve wins, then directly, where the cycle is odd
    ({"i": 0, "h": 2, "p": 1}, [("i", 0, "h"), ("i", 1, "p"), ("h", 0, "p"), ("p", 0, "p")],
     False),
])
def test_one_player_search_hand_made(states, moves, member):
    a = make_automaton(("a",), {q: ("A", r) for q, r in states.items()}, "i",
                       [(q, "a", d, q2) for q, d, q2 in moves], acceptance="weak")
    view = _tree_view(constant_tree("a"))
    assert _nested_accepts(a, view) == member
    assert _kernel_accepts(a, view) == member


def _refuse(*args, **kwargs):
    raise AssertionError("product arrays built")


def _refuse_view(a, view, table=None):
    """`_product_arrays` refused on a table whose ranks are the
    automaton's own, allowed on any other."""
    ranks = semantics._plain(a)[1] if table is None else table[1]
    assert ranks is not semantics._view(a)[4], "product arrays built on the view"
    return _product_arrays(a, view, table)


def test_accepts_routes_universal_weak_automata_to_the_one_player_search(monkeypatch):
    """An automaton with no existential state builds no product arrays,
    whether it is weak, strong with loops of one parity per component, or
    strong with a component whose loops have tops of both parities; one
    with an existential state and a `_vector` builds them on its
    `_search` table, never on its view, and only one with an existential
    state and no `_vector` builds them on the view."""
    a = make_automaton(("a",), {"i": ("A", 0), "p": ("A", 1)}, "i",
                       [("i", "a", 0, "p"), ("p", "a", None, "p")], acceptance="weak")
    view = _tree_view(constant_tree("a"))
    mixed = a.with_states({"i": State("E", 0), "p": State("A", 1)})
    expected = _kernel_accepts(mixed, view)
    monkeypatch.setattr(semantics, "_product_arrays", _refuse)
    assert semantics._accepts(a, view) is False
    with pytest.raises(AssertionError, match="product arrays built"):
        semantics._accepts(mixed, view)
    # components {i} (no loop), {e} (loop top 2) and {p, q} (loop tops 3)
    strong = make_automaton(("a",), {"i": ("A", 1), "e": ("A", 2), "p": ("A", 3), "q": ("A", 0)},
                            "i", [("i", "a", 0, "e"), ("i", "a", 1, "p"), ("e", "a", None, "e"),
                                  ("p", "a", 0, "q"), ("p", "a", 1, "p"), ("q", "a", 1, "p")])
    assert semantics._accepts(strong, view) is False
    for name in ("all_a", "ex_b_left"):
        assert semantics._accepts(catalog.get(name), view) is (name == "all_a"), name

    # with loops of both parities in a component and no existential state,
    # the nested search decides, on no product arrays either
    both = strong.with_states({**strong.states, "q": State("A", 4)})  # loop tops 3 and 4
    assert semantics._vector(both) is None
    assert semantics._accepts(both, view) is False
    for name in ("fin_b_left", "inf_b_left", "spine_fin_b", "split_min"):
        a = catalog.get(name)
        assert semantics._vector(a) is None, name
        assert semantics._accepts(a, view) is _cycle_check_accepts(a, view), name

    monkeypatch.setattr(semantics, "_product_arrays", _refuse_view)
    assert semantics._vector(mixed) is not None
    assert semantics._accepts(mixed, view) is expected is False
    eve_both = both.with_states({**both.states, "i": State("E", 1)})
    with pytest.raises(AssertionError, match="product arrays built on the view"):
        semantics._accepts(eve_both, view)


def _cycle_check_accepts(a, view):
    """Strong membership where Adam moves alone by the reference cycle
    check, `conftest.ref_has_top_cycle`, on the product arrays."""
    _, rank, succ = _product_arrays(a, view)
    return not ref_has_top_cycle(range(len(succ)), dict(enumerate(succ)), rank, 1)


def _route_of(a):
    """The route label: `search` for an automaton decided on its
    `_vector`, `cycle check` for one without, whose memberships the
    nested search decides over guessed odd loop tops (no existential
    state) or the strong solver."""
    return "cycle check" if semantics._vector(a) is None else "search"


def test_cycle_rank_route_matches_the_cycle_check_on_random_automata():
    """Strong automata with every state universal, shaped as
    `_random_alternating` draws them, on both routes and with both
    verdicts on each."""
    rng = SplitMix64(2020)
    views = [_tree_view(t) for t in sample_regular_tree(
        SamplerParams(seed=20, max_nodes=6, alphabet=("a", "b"), count=25))]
    seen = Counter()
    for _ in range(500):
        a = _universal(_random_alternating(rng, "parity"))
        route = _route_of(a)
        for v in views:
            expected = _cycle_check_accepts(a, v)
            assert semantics._accepts(a, v) == expected, (a, v)
            seen[route, expected] += 1
    assert len(seen) == 4 and min(seen.values()) >= 1000, seen


def test_cycle_rank_route_matches_the_cycle_check_on_constructions():
    """The trimmed deterministic automata of criterion 5's stream, and
    `restrict` of the universal outputs of weaken_02, weaken_14 and the
    weak deterministic relabeling over them, on the battery and sampled
    trees."""
    views = [v for _, v in _battery_views(("a", "b"))]
    views += [_tree_view(t) for t in sample_regular_tree(
        SamplerParams(seed=56, max_nodes=8, alphabet=("a", "b"), count=12))]
    seen = Counter()
    for a in criterion_5_stream(200):
        automata = [a]
        with contextlib.suppress(IndexTooHigh):
            automata.append(weaken_02(a))
        with contextlib.suppress(PreconditionViolated):
            automata.append(weaken_14(a)[0])
        relabeled = weak_det_index(a)
        if relabeled is not None:
            automata.append(relabeled[1])
        automata[1:] = [restrict(out) for out in automata[1:]
                        if all(st.mode == "A" for st in out.states.values())]
        for out in automata:
            route = _route_of(out)
            for v in views:
                expected = _cycle_check_accepts(out, v)
                assert semantics._accepts(out, v) == expected, (a, out, v)
                seen[route, expected] += 1
    assert len(seen) == 4, seen


def test_cycle_rank_route_above_the_list_index_bound():
    """A tree of over 3000 nodes, where both the search and the product
    arrays index their slots in a dict."""
    t = sample_regular_tree(SamplerParams(seed=0, max_nodes=4000,
                                          alphabet=("a", "b"), count=1))[0]
    view = _tree_view(t)
    assert len(t.nodes) >= 3000
    rng = SplitMix64(3004)
    seen = set()
    while len(seen) < 4:
        a = _universal(_random_alternating(rng, "parity"))
        if len(_product_arrays(a, view)[0]) < 3000:
            continue
        expected = _cycle_check_accepts(a, view)
        assert semantics._accepts(a, view) == expected, a
        seen.add((_route_of(a), expected))


@pytest.mark.parametrize("states, moves, member, route", [
    # an odd rank on no loop before an even loop
    ({"i": 0, "p": 1, "e": 2}, [("i", 0, "p"), ("p", 1, "e"), ("e", 0, "e")], True, "search"),
    # an odd state inside a component whose loop tops are 2 and 4
    ({"i": 0, "x": 2, "o": 1, "y": 4},
     [("i", 0, "x"), ("x", 0, "o"), ("o", 0, "x"), ("o", 1, "y"), ("y", 1, "o")],
     True, "search"),
    # loops with tops 2 and 3
    ({"i": 0, "s": 2, "t": 3}, [("i", 0, "s"), ("s", 0, "s"), ("s", 1, "t"), ("t", 0, "s")],
     False, "cycle check"),
    # a dead end after an odd state: Adam is stuck there and loses
    ({"i": 0, "p": 1, "d": 0}, [("i", 0, "p"), ("p", 1, "d")], True, "search"),
    # an epsilon self-loop on an odd rank
    ({"i": 0, "p": 1}, [("i", 1, "p"), ("p", None, "p")], False, "search"),
])
def test_cycle_rank_route_hand_made(states, moves, member, route):
    a = make_automaton(("a",), {q: ("A", r) for q, r in states.items()}, "i",
                       [(q, "a", d, q2) for q, d, q2 in moves])
    view = _tree_view(constant_tree("a"))
    assert _route_of(a) == route
    assert semantics._accepts(a, view) == member
    assert _cycle_check_accepts(a, view) == member


def test_one_player_search_with_ranks_near_10_12():
    """Weak and strong universal automata whose ranks are mapped, keeping
    order and parity, onto ranks about 10**12 apart decide as the small
    originals do."""
    rng = SplitMix64(1212)
    views = [_tree_view(t) for t in sample_regular_tree(
        SamplerParams(seed=12, max_nodes=6, alphabet=("a", "b"), count=12))]
    routes = Counter()
    for k in range(200):
        small = _universal(_random_alternating(rng, ("weak", "parity")[k % 2]))
        big = small.with_states({q: State("A", st.rank * 10**12 + st.rank % 2)
                                 for q, st in small.states.items()})
        assert _route_of(big) == _route_of(small)
        routes[small.acceptance, _route_of(small)] += 1
        for v in views:
            assert semantics._accepts(big, v) == semantics._accepts(small, v), (small, v)
    assert len(routes) == 3, routes


def test_one_player_search_index_list_and_dict_agree(monkeypatch):
    """The one-player search gives the same verdicts whether it indexes its
    triples in the bytearray (every query under a huge bound) or in the
    dict (every query over a bound of 0)."""
    rng = SplitMix64(4712)
    views = [_tree_view(t) for t in sample_regular_tree(
        SamplerParams(seed=48, max_nodes=5, alphabet=("a", "b"), count=12))]
    automata = [_universal(_random_alternating(rng, ("weak", "parity")[k % 2]))
                for k in range(240)]
    automata = [a for a in automata if _route_of(a) == "search"]
    verdicts = {}
    for bound in (0, 1 << 40):
        monkeypatch.setattr(semantics, "_LIST_INDEX_SLOTS", bound)
        verdicts[bound] = [semantics._accepts(a, v) for a in automata for v in views]
    assert len(automata) >= 150 and len(set(verdicts[0])) == 2
    assert verdicts[0] == verdicts[1 << 40]


# -- the nested search over guessed odd loop tops -----------------------------------


def _spine_tree():
    """The tree whose root n reads a, with n as its left child and the
    all-b subtree m as its right."""
    return RegularTree(2, {"n": Node("a", ("n", "m")), "m": Node("b", ("m", "m"))}, "n")


@pytest.mark.parametrize("states, moves, verdicts", [
    # an odd loop x-b-y nested under the even top d in one component.  On
    # the spine tree the blue search enters copy 1 at (p, n), which lies on
    # no product cycle: c reads b at m and is stuck.  It closes x-b-y at
    # (x, n), where neither end is accepting, so only the red search from
    # (b, n) finds the cycle
    ({"i": 0, "p": 1, "x": 0, "b": 1, "y": 0, "c": 0, "d": 2},
     [("i", "a", 0, "p"), ("p", "a", 0, "x"), ("x", "a", 0, "b"), ("x", "a", 0, "d"),
      ("x", "a", 1, "c"), ("b", "a", 0, "y"), ("y", "a", 0, "x"), ("c", "a", 0, "p"),
      ("d", "a", 0, "x")], (False, True, False)),
    # an odd epsilon self-loop in a component with an even loop top 2
    ({"i": 0, "p": 1, "e": 2},
     [("i", "a", 0, "p"), ("p", "a", None, "p"), ("p", "a", 0, "e"), ("e", "a", 0, "p")],
     (False, True, False)),
    # an odd self-loop on o reached only through the even loop e-f, whose
    # odd state f tops no loop; o's component has the even loop top 2
    ({"i": 0, "e": 4, "f": 3, "o": 1, "g": 2},
     [("i", "a", 0, "e"), ("e", "a", 0, "f"), ("f", "a", 0, "e"), ("e", "a", 1, "o"),
      ("o", "a", 0, "o"), ("o", "a", 1, "g"), ("g", "a", 0, "o")], (False, True, True)),
    # an odd initial state on no loop, before a component with loop tops 2 and 3
    ({"i": 1, "x": 2, "y": 3},
     [("i", "a", 0, "x"), ("i", "b", 0, "x"), ("x", "a", 0, "x"), ("x", "b", 0, "y"),
      ("y", "a", 0, "x"), ("y", "b", 0, "x")], (True, False, True)),
])
def test_nested_search_hand_made(states, moves, verdicts, monkeypatch):
    """Strong universal automata with a component whose loops have tops of
    both parities, on the all-a tree, the all-b tree and the spine tree,
    against the cycle check on the product arrays."""
    a = make_automaton(("a", "b"), {q: ("A", r) for q, r in states.items()}, "i", moves)
    assert semantics._vector(a) is None
    views = [_tree_view(t) for t in (constant_tree("a"), constant_tree("b"), _spine_tree())]
    expected = [_cycle_check_accepts(a, v) for v in views]
    assert tuple(expected) == verdicts
    monkeypatch.setattr(semantics, "_product_arrays", _refuse)
    assert [semantics._accepts(a, v) for v in views] == expected


def test_nested_search_index_list_and_dict_agree(monkeypatch):
    """The nested search gives the same verdicts whether it indexes its
    colours in the bytearray (every query under a huge bound) or in the
    dict (every query over a bound of 0), on both graphs `_top_copies`
    builds: copies over guessed odd loop tops for strong automata with no
    cycle ranks, and the vector for weak universal automata with an
    epsilon move and a dead end, one of which lowers a rank, and for a
    strong one with cycle ranks.  The verdicts are the cycle check's, or
    for a weak automaton the kernel's."""
    rng = SplitMix64(4713)
    views = [_tree_view(t) for t in sample_regular_tree(
        SamplerParams(seed=49, max_nodes=5, alphabet=("a", "b"), count=12))]
    automata = [_universal(_random_alternating(rng, "parity")) for _ in range(600)]
    automata = [a for a in automata if _route_of(a) == "cycle check"]
    assert len(automata) >= 50
    vector = [make_automaton(("a", "b"), {q: ("A", r) for q, r in states.items()}, "i",
                             moves, acceptance=acceptance)
              for acceptance, states, moves in [
                  # an epsilon move into an odd a-loop, with a dead end d
                  ("weak", {"i": 0, "p": 1, "d": 1},
                   [("i", "a", None, "p"), ("i", "b", 0, "i"), ("p", "a", 0, "p"),
                    ("p", "b", 1, "d")]),
                  # the odd loop h-q and the even epsilon self-loop e lower a
                  # rank; h and q are stuck on b
                  ("weak", {"i": 0, "h": 3, "q": 0, "e": 2},
                   [("i", "a", None, "h"), ("i", "b", 1, "e"), ("e", "b", None, "e"),
                    ("e", "a", 0, "i"), ("h", "a", 0, "q"), ("q", "a", 0, "h")]),
                  # components {i, z} (loop tops 3) and {x, o, y} (loop tops 2 and 4)
                  ("parity", {"i": 0, "x": 2, "o": 1, "y": 4, "z": 3},
                   [("i", "a", 0, "x"), ("i", "b", None, "z"), ("z", "a", 1, "z"),
                    ("z", "b", 0, "i"), ("x", "a", 0, "o"), ("o", "a", 0, "x"),
                    ("o", "b", 1, "y"), ("y", "b", 1, "o")]),
              ]]
    assert all(_route_of(a) == "search" and semantics._search(a) is not None
               for a in vector)
    automata += vector
    verdicts = {}
    for bound in (0, 1 << 40):
        monkeypatch.setattr(semantics, "_LIST_INDEX_SLOTS", bound)
        verdicts[bound] = [semantics._accepts(a, v) for a in automata for v in views]
    assert len(set(verdicts[0])) == 2
    assert len(set(verdicts[0][-len(vector) * len(views):])) == 2
    assert verdicts[0] == verdicts[1 << 40]
    check = {"parity": _cycle_check_accepts, "weak": _kernel_accepts}
    assert verdicts[0] == [check[a.acceptance](a, v) for a in automata for v in views]


def test_nested_search_matches_the_strong_solver_on_its_table():
    """An automaton with no existential state has one `_search` table,
    whose ranks are odd-rank flags: on the vector, or on the copies over
    guessed odd loop tops.  The strong condition on those flags is exact,
    so the strong solver on the table's product arrays decides what the
    nested search does.  Criterion 5's stream, `random_det` and universal
    weak and strong automata drawn by `_random_alternating`, on the
    battery and sampled trees; both verdicts on both kinds of table."""
    views = [v for _, v in _battery_views(("a", "b"))]
    views += [_tree_view(t) for t in sample_regular_tree(
        SamplerParams(seed=59, max_nodes=8, alphabet=("a", "b"), count=8))]
    rng = SplitMix64(5959)
    automata = criterion_5_stream(200) + [random_det(rng, max_states=5) for _ in range(200)]
    automata += [_universal(_random_alternating(rng, kind))
                 for kind in ("weak", "parity") for _ in range(200)]
    seen = Counter()
    for a in automata:
        table = semantics._search(a)
        if table is None:
            continue
        kind = "copies" if semantics._vector(a) is None else "vector"
        for v in views:
            nested = _nested_accepts(a, v)
            assert nested == eve_wins_arrays(*_product_arrays(a, v, table), weak=False), (a, v)
            seen[kind, nested] += 1
    assert len(seen) == 4 and min(seen.values()) >= 500, seen


def test_nested_search_on_a_1000_state_automaton_is_fast():
    """A random deterministic automaton of 1000 states ranked 0-9 against
    a sampled tree of over 1000 nodes: the cycle check on the product
    arrays takes seconds here, one SCC pass per odd rank of the product;
    the nested search returns at the first accepting cycle it closes.
    Its verdict, rejection, is the cycle check's."""
    rng = SplitMix64(1000)
    names = [f"q{i:03d}" for i in range(1000)]
    a = DetAutomaton(alphabet=("a", "b"), initial="q000", acceptance="parity",
                     states={q: State("A", rng.below(10)) for q in names},
                     transitions=tuple(Transition(q, x, d, names[rng.below(1000)])
                                       for q in names for x in ("a", "b") for d in (0, 1)))
    t = sample_regular_tree(SamplerParams(seed=1, max_nodes=4000,
                                          alphabet=("a", "b"), count=1))[0]
    assert len(t.nodes) >= 1000
    assert semantics._vector(a) is None
    start = time.perf_counter()
    assert det_accepts(a, t) is False
    assert time.perf_counter() - start < 0.5


# -- the search's route: non-decreasing ranks and live states ------------------------


def test_route_matches_the_triple_search_on_cycle_ranks():
    """Deterministic automata, trimmed from criterion 5's stream and drawn
    untrimmed, against the triple search on their cycle ranks."""
    views = [v for _, v in _battery_views(("a", "b"))]
    views += [_tree_view(t) for t in sample_regular_tree(
        SamplerParams(seed=57, max_nodes=8, alphabet=("a", "b"), count=12))]
    rng = SplitMix64(5757)
    seen = Counter()
    for a in criterion_5_stream(200) + [random_det(rng, max_states=5) for _ in range(200)]:
        found = semantics._cycle_ranks(a)
        if found is None:
            continue
        every = semantics._search(a) is None
        for v in views:
            expected = ref_universal_weak_accepts(a, v, found[0])
            assert semantics._accepts(a, v) == expected, (a, v)
            seen["every tree" if every else "live", expected] += 1
    assert len(seen) == 3 and min(seen.values()) >= 50, seen


@pytest.mark.parametrize("states, moves, verdicts", [
    # a rank-3 state on no loop before an even rank-0 self-loop: every play
    # sees 3, so every tree is rejected, though no loop of the automaton
    # has an odd rank
    ({"i": 3, "p": 0}, [("i", "a", 0, "p"), ("i", "b", 0, "p"),
                        ("p", "a", 0, "p"), ("p", "b", 1, "p")], (False, False, False)),
    # an odd self-loop reached only through an epsilon move
    ({"i": 0, "p": 1}, [("i", "a", None, "p"), ("p", "a", 0, "p"), ("p", "b", 0, "p")],
     (False, True, False)),
    # a dead end below a live state: p loops on b only
    ({"i": 0, "d": 1, "p": 1}, [("i", "a", 0, "d"), ("i", "a", 1, "p"), ("p", "b", 0, "p")],
     (True, True, False)),
])
def test_route_hand_made(states, moves, verdicts):
    """Weak universal automata on the all-a tree, the all-b tree and the
    tree with an a at the root over all b."""
    a = make_automaton(("a", "b"), {q: ("A", r) for q, r in states.items()}, "i", moves,
                       acceptance="weak")
    trees = (constant_tree("a"), constant_tree("b"),
             RegularTree(2, {"r": Node("a", ("n", "n")), "n": Node("b", ("n", "n"))}, "r"))
    for t, member in zip(trees, verdicts):
        view = _tree_view(t)
        assert semantics._accepts(a, view) == member, t
        assert _nested_accepts(a, view) == member, t
        assert ref_universal_weak_accepts(a, view) == member, t
        assert _kernel_accepts(a, view) == member, t


def _every_tree(acceptance):
    """A one-state universal automaton with an even self-loop on every
    letter: its initial state is not live."""
    return make_automaton(("a", "b"), {"q": ("A", 0)}, "q",
                          [("q", x, d, "q") for x in ("a", "b") for d in (0, 1)],
                          acceptance=acceptance, deterministic=acceptance == "parity")


def test_labels_outside_the_alphabet_raise_when_every_tree_is_accepted():
    t = RegularTree(2, {"r": Node("a", ("n", "n")), "n": Node("c", ("n", "n"))}, "r")
    for acceptance, accepts in (("parity", det_accepts), ("weak", alt_accepts)):
        a = _every_tree(acceptance)
        assert semantics._search(a) is None
        assert accepts(a, constant_tree("a"))
        with pytest.raises(ValidationError, match=r"^tree labels outside alphabet: \['c'\]$"):
            accepts(a, t)


def test_bounded_equiv_of_automata_that_accept_every_tree(monkeypatch):
    """Two automata whose initial states are not live agree on every tree.
    `bounded_equiv` still walks the whole battery and every sampled tree,
    each membership answered at once, with no product arrays and no
    search, so a call costs what its trees cost.  A sampler letter outside
    their alphabet raises at the first sampled tree that has it, and not
    before."""
    a, b = _every_tree("parity"), _every_tree("weak")
    p = SamplerParams(seed=3, max_nodes=4, alphabet=("a", "b", "c"), count=40)
    first = next(i for i, t in enumerate(sample_regular_tree(p)) if "c" in t.labels())
    assert first >= 1
    before = SamplerParams(seed=3, max_nodes=4, alphabet=("a", "b", "c"), count=first)
    assert bounded_equiv(a, b, before) is None
    with pytest.raises(ValidationError, match=r"^tree labels outside alphabet: \['c'\]$"):
        bounded_equiv(a, b, SamplerParams(seed=3, max_nodes=4, alphabet=("a", "b", "c"),
                                          count=first + 1))
    drawn = []
    sample = semantics._sample_views
    monkeypatch.setattr(semantics, "_sample_views",
                        lambda q: (drawn.append(v) or v for v in sample(q)))
    monkeypatch.setattr(semantics, "_product_arrays", _refuse)
    monkeypatch.setattr(semantics, "_nested_accepts", _refuse)
    assert bounded_equiv(a, b, SamplerParams(seed=3, max_nodes=4, alphabet=("a", "b"),
                                             count=40)) is None
    assert len(drawn) == 40
    with pytest.raises(AssertionError):
        bounded_equiv(a, catalog.all_a(), SamplerParams(seed=3, max_nodes=4,
                                                        alphabet=("a", "b"), count=40))


# -- existential states: Eve's attractor of the states that are not live -----------


def _solver_accepts(a, view):
    """Membership by the kernel under `a`'s own acceptance condition."""
    return eve_wins_arrays(*_product_arrays(a, view), a.acceptance == "weak")


def _eve_route(a):
    """Whether the memberships of `a`, an automaton with an existential
    state, take the Eve route: product arrays of its `_search` table on
    the vector, solved under the weak condition."""
    return semantics._vector(a) is not None


_LOOPS = [(q, x, d, q) for q in "os" for x in "ab" for d in (0, 1)]  # o and s loop on every letter


@pytest.mark.parametrize("acceptance, states, moves, every, verdicts", [
    # Eve picks, on every letter, the even self-loop s over the odd one o
    ("weak", {"i": ("E", 0), "o": ("A", 1), "s": ("A", 0)},
     [("i", x, None, q) for x in "ab" for q in "os"] + _LOOPS,
     True, (True, True, True)),
    # the same under strong acceptance, on cycle ranks: o loops on 3, s on 2
    ("parity", {"i": ("E", 1), "o": ("A", 3), "s": ("A", 2)},
     [("i", x, None, q) for x in "ab" for q in "os"] + _LOOPS,
     True, (True, True, True)),
    # Adam moves only into e, from which Eve picks s: both are attracted
    ("weak", {"i": ("A", 0), "e": ("E", 0), "o": ("A", 1), "s": ("A", 0)},
     [("i", x, d, "e") for x in "ab" for d in (0, 1)]
     + [("e", x, None, q) for x in "ab" for q in "os"] + _LOOPS,
     True, (True, True, True)),
    # Adam may also move into the odd self-loop o: i stays live
    ("weak", {"i": ("A", 0), "e": ("E", 0), "o": ("A", 1), "s": ("A", 0)},
     [("i", x, 0, "e") for x in "ab"] + [("i", "a", 1, "o")]
     + [("e", x, None, q) for x in "ab" for q in "os"] + _LOOPS,
     False, (False, True, False)),
    # Eve has a move on a only: she is stuck on b, though no loop is odd
    ("weak", {"i": ("E", 0), "s": ("A", 0)},
     [("i", "a", None, "s")] + [("s", x, d, "s") for x in "ab" for d in (0, 1)],
     False, (True, False, True)),
    # the same dead end below a universal state
    ("weak", {"i": ("A", 0), "e": ("E", 0), "s": ("A", 0)},
     [("i", x, 0, "e") for x in "ab"] + [("e", "a", None, "s")]
     + [("s", x, d, "s") for x in "ab" for d in (0, 1)],
     False, (True, False, False)),
    # Eve may move, on a, into s, which is not live, beside o; on b only
    # into o.  Her table slot on a is won
    ("weak", {"i": ("E", 0), "o": ("A", 1), "s": ("A", 0)},
     [("i", "a", 0, "s"), ("i", "a", 1, "o"), ("i", "b", 0, "o")] + _LOOPS,
     False, (True, False, True)),
    # the same moves into s and o through epsilon moves
    ("weak", {"i": ("E", 0), "o": ("A", 1), "s": ("A", 0)},
     [("i", "a", None, "s"), ("i", "a", None, "o"), ("i", "b", None, "o")] + _LOOPS,
     False, (True, False, True)),
    # Adam's moves on a all lead into s: his table slot keeps none, so he
    # is stuck and loses; on b he moves to e, from which Eve has only o on b
    ("weak", {"i": ("A", 0), "e": ("E", 0), "o": ("A", 1), "s": ("A", 0)},
     [("i", "a", 0, "s"), ("i", "a", 1, "s"), ("i", "b", 0, "e"),
      ("e", "a", None, "s"), ("e", "b", None, "o")] + _LOOPS,
     False, (True, False, True)),
    # Eve at e has no move on b: stuck on the letter she reads, she loses
    # even though her only move, on a, leads into s
    ("weak", {"i": ("A", 0), "e": ("E", 0), "o": ("A", 1), "s": ("A", 0)},
     [("i", x, d, "e") for x in "ab" for d in (0, 1)] + [("e", "a", None, "s")] + _LOOPS,
     False, (True, False, False)),
    # strong: Eve may stay on her even loop l on a; her other moves lead to
    # Adam's u, and only u enters the odd loop o.  The rank 3 of i is seen
    # once, so on its old ranks the weak condition would reject the all-a
    # tree
    ("parity", {"i": ("E", 3), "l": ("E", 0), "u": ("A", 1), "o": ("A", 3), "s": ("A", 2)},
     [("i", x, 0, "l") for x in "ab"]
     + [("l", "a", 0, "l"), ("l", "a", 1, "u"), ("l", "b", 1, "u")]
     + [("u", x, 0, "o") for x in "ab"] + _LOOPS,
     False, (True, False, False)),
])
def test_every_tree_with_existential_states_hand_made(acceptance, states, moves, every,
                                                      verdicts):
    """Automata with existential states on the all-a tree, the all-b tree
    and the tree with an a at the root over all b: each takes the Eve
    route, and its verdicts match the full product's."""
    a = make_automaton(("a", "b"), states, "i", moves, acceptance=acceptance)
    assert _eve_route(a)
    assert (semantics._search(a) is None) is every
    trees = (constant_tree("a"), constant_tree("b"),
             RegularTree(2, {"r": Node("a", ("n", "n")), "n": Node("b", ("n", "n"))}, "r"))
    for t, member in zip(trees, verdicts):
        view = _tree_view(t)
        assert semantics._accepts(a, view) == member, t
        assert _solver_accepts(a, view) == member, t


def test_every_tree_with_existential_states_matches_the_kernel(monkeypatch):
    """Weak and strong automata with an existential state, drawn by
    `_random_alternating`, topped up to 500 strong ones with cycle ranks:
    each whose initial state `_vector` finds not live is accepted by the
    kernel on every tree, and `_accepts` agrees with the kernel
    throughout.  Each with a `_vector` takes the Eve route, whose games
    all reach `eve_wins_arrays` as weak games.  Eve's attractor clears the
    initial state of some that reach an odd loop or a dead end of hers."""
    rng = SplitMix64(2323)
    views = [_tree_view(t) for t in sample_regular_tree(
        SamplerParams(seed=23, max_nodes=6, alphabet=("a", "b"), count=25))]
    automata = []
    while len(automata) < 1000:
        a = _random_alternating(rng, ("weak", "parity")[len(automata) % 2])
        if any(st.mode == "E" for st in a.states.values()):
            automata.append(a)
    strong = sum(a.acceptance == "parity" and semantics._vector(a) is not None for a in automata)
    while strong < 500:  # strong ones with cycle ranks, as many as the weak ones
        a = _random_alternating(rng, "parity")
        if any(st.mode == "E" for st in a.states.values()) and semantics._vector(a) is not None:
            automata.append(a)
            strong += 1
    games = []  # per kernel call from `_accepts`, whether it solves a weak game
    solve_arrays = semantics.eve_wins_arrays
    monkeypatch.setattr(semantics, "eve_wins_arrays",
                        lambda *args, **kw: games.append(kw["weak"]) or solve_arrays(*args, **kw))
    every = [semantics._search(a) is None for a in automata]
    routed, verdicts = Counter(), Counter()
    for a, flag in zip(automata, every):
        vector = semantics._vector(a) is not None
        assert _eve_route(a) is vector, a
        routed[a.acceptance, vector] += 1
        games.clear()
        for v in views:
            expected = _solver_accepts(a, v)
            assert semantics._accepts(a, v) == expected, (a, v)
            assert expected or not flag, (a, v)
            verdicts[a.acceptance, vector, flag, expected] += 1
        assert all(games) or not vector, a
    assert min(verdicts[k, True, False, m] for k in ("weak", "parity") for m in (True, False)) \
        >= 1000, verdicts
    assert routed["weak", True] == routed["parity", True] == 500, routed
    assert routed["parity", False] >= 150, routed
    monkeypatch.setattr(semantics, "_attract", lambda *args: None)
    unattracted = [semantics._search(a.with_states(dict(a.states))) is None
                   for a in automata]
    kinds = Counter((a.acceptance, flag, old) for a, flag, old in zip(automata, every, unattracted))
    assert not kinds[("weak", False, True)] and not kinds[("parity", False, True)], kinds
    assert kinds["weak", True, False] >= 5 and kinds["parity", True, False] >= 2, kinds
    assert min(kinds[k, True, True] for k in ("weak", "parity")) >= 50, kinds


def test_every_tree_on_constructions_with_existential_states():
    """The outputs of weaken_13, weaken_14 and weaken with an existential
    state over the first 200 automata of criterion 5's stream, and
    `restrict` of each, strong on ranks that never decrease, so on their
    cycle ranks.  Each takes the Eve route, and its verdict on the battery
    and sampled trees equals the full product solved under the output's
    own condition; each whose initial state is not live is accepted
    there.  weaken_13 guesses, at an existential state, where its input's
    run stops seeing odd ranks; it keeps every tree of an input whose
    initial state is not live, and Eve's attractor finds that.  None of
    weaken's outputs here has an existential state."""
    views = [v for _, v in _battery_views(("a", "b"))]
    views += [_tree_view(t) for t in sample_regular_tree(
        SamplerParams(seed=58, max_nodes=8, alphabet=("a", "b"), count=12))]
    seen = Counter()
    for a in criterion_5_stream(200):
        outputs = []
        with contextlib.suppress(IndexTooHigh, PreconditionViolated):
            outputs.append(("weaken_13", weaken_13(a)))
        with contextlib.suppress(PreconditionViolated):
            outputs.append(("weaken_14", weaken_14(a)[0]))
        with contextlib.suppress(UnsupportedGapConstruction, NonWeaklyRecognizable):
            outputs.append(("weaken", weaken(a)[0]))
        outputs += [("restrict", restrict(out)) for _, out in outputs]
        for kind, out in outputs:
            if all(st.mode == "A" for st in out.states.values()):
                continue
            assert _eve_route(out), (kind, a)
            every = semantics._search(out) is None
            seen[kind, every] += 1
            if kind == "weaken_13":
                assert every == (semantics._search(a) is None), (a, out)
            for v in views:
                expected = _solver_accepts(out, v)
                assert semantics._accepts(out, v) == expected, (kind, a, v)
                assert expected or not every, (kind, a, v)
    assert seen["weaken_13", True] >= 100 and seen["weaken_13", False] >= 3, seen
    assert seen["weaken_14", False] >= 15 and seen["restrict", False] >= 20, seen
    assert seen["restrict", True] >= 100, seen
    assert not seen["weaken", True] and not seen["weaken", False], seen



def _one_way_ring(n):
    """State q_i moves to q_{i+1 mod n} in both directions, with rank i + 1."""
    names = [f"q{i:03d}" for i in range(n)]
    return make_automaton(("a",), {q: ("A", i + 1) for i, q in enumerate(names)}, names[0],
                          [(q, "a", d, names[(i + 1) % n]) for i, q in enumerate(names)
                           for d in (0, 1)], deterministic=True)


def test_det_accepts_on_the_one_way_ring_is_fast():
    """Every product cycle goes round the ring, so its top is n; the
    250-state ring used to take over a minute on this tree."""
    t = sample_regular_tree(SamplerParams(seed=3, max_nodes=3000, alphabet=("a",), count=1))[0]
    for n in (25, 50, 250):
        a = _one_way_ring(n)
        start = time.perf_counter()
        assert det_accepts(a, t) == (n % 2 == 0), n
        assert n < 250 or time.perf_counter() - start < 3.0


def test_product_game_shape():
    g = product_game(catalog.all_a().as_alternating(), constant_tree("a"))
    assert g.initial == "p@n"
    assert g.condition == "parity"


# -- run reduction ----------------------------------------------------------------


def test_run_reduction_trivial_accept_and_reject():
    accept = make_automaton(("a", "b"), {"q": ("A", 0)}, "q",
                            [("q", x, d, "q") for x in ("a", "b") for d in (0, 1)],
                            acceptance="weak")
    inst = run_reduction(accept, constant_tree("a"))
    assert all(parse_wlabel(n.label).owner == "A" for n in inst.tree.nodes.values())
    assert w_member(inst.tree, inst.band)

    reject = make_automaton(("a", "b"), {"q": ("A", 1)}, "q",
                            [("q", x, d, "q") for x in ("a", "b") for d in (0, 1)],
                            acceptance="weak")
    inst = run_reduction(reject, constant_tree("a"))
    assert not w_member(inst.tree, inst.band)


# sha256 of `run_reduction`'s trees, node order included, and bands over the
# pairs below, recorded when the reduction ran its own string-keyed search
REDUCTIONS_SHA256 = "5e3f1f7aeb61559800d949f3e952284b6e64e66887be149b91abc0a27eee1367"


def test_run_reduction_property_on_random_pairs():
    rng = SplitMix64(555)
    trees = sample_regular_tree(SamplerParams(seed=55, max_nodes=6,
                                              alphabet=("a", "b"), count=10))
    digest = hashlib.sha256()
    for _ in range(60):
        a = random_weak(rng)
        for t in trees:
            inst = run_reduction(a, t)
            assert alt_accepts(a, t) == w_member(inst.tree, inst.band), (a, t)
            tree = inst.tree
            digest.update(repr((tree.arity, tree.root, list(tree.nodes.items()),
                                inst.band.iota, inst.band.kappa)).encode())
    assert digest.hexdigest() == REDUCTIONS_SHA256


def test_w_member_trivia():
    t_all = RegularTree(2, {"n": Node("A:0", ("n", "n"))}, "n")
    assert w_member(t_all, IndexPair(0, 1))
    t_rej = RegularTree(2, {"n": Node("E:1", ("n", "n"))}, "n")
    assert not w_member(t_rej, IndexPair(0, 1))


def test_w_member_eve_choice():
    # Eve at the root picks the rank-2 branch over the rank-1 trap
    t = RegularTree(3, {
        "r": Node("E:0", ("trap", "good", "trap")),
        "trap": Node("A:1", ("trap", "trap", "trap")),
        "good": Node("A:2", ("good", "good", "good")),
    }, "r")
    assert w_member(t, IndexPair(0, 2))


def test_w_member_band_violation():
    t = RegularTree(2, {"n": Node("A:5", ("n", "n"))}, "n")
    with pytest.raises(ValidationError):
        w_member(t, IndexPair(0, 2))


# -- Skurczynski fixtures ------------------------------------------------------------


def test_skurczynski_01_exactly_the_all_a_tree():
    a = skurczynski(IndexPair(0, 1))
    assert alt_accepts(a, constant_tree("a"))
    for t in sample_regular_tree(SamplerParams(seed=4, max_nodes=6,
                                               alphabet=("a", "b"), count=40)):
        if any(n.label == "b" for n in t.nodes.values()):
            assert not alt_accepts(a, t)


def test_skurczynski_duality():
    trees = sample_regular_tree(SamplerParams(seed=44, max_nodes=6,
                                              alphabet=("a", "b"), count=60))
    for n in (1, 2, 3):
        lo = skurczynski(IndexPair(0, n))
        hi = skurczynski(IndexPair(1, n + 1))
        for t in trees:
            assert alt_accepts(hi, t) == (not alt_accepts(lo, t))


def test_skurczynski_agrees_with_oracle():
    trees = sample_regular_tree(SamplerParams(seed=46, max_nodes=6,
                                              alphabet=("a", "b"), count=50))
    for idx in (IndexPair(0, 2), IndexPair(1, 3), IndexPair(0, 3)):
        a = skurczynski(idx)
        for t in trees:
            assert alt_accepts(a, t) == skurczynski_member_oracle(idx, t)


def ref_skurczynski(index):
    """`skurczynski` as it was built, recursively: (0,n+1) prefixes the
    states of the (1,n+1) automaton with `c_` and adds the spine, and
    (1,n+1) dualizes the (0,n) automaton."""
    if index.iota == 1:
        base = ref_skurczynski(IndexPair(0, index.kappa - 1))
        states = {q: State("E" if st.mode == "A" else "A", st.rank + 1)
                  for q, st in base.states.items()}
        return TreeAutomaton(("a", "b"), states, base.initial, base.transitions, "weak",
                             f"skurczynski_1_{index.kappa}")
    n = index.kappa
    if n == 1:
        trans = [Transition(p, x, d, q) for d in (0, 1) for p, x, q in (
            ("w", "a", "w"), ("w", "b", "rej"), ("rej", "a", "rej"), ("rej", "b", "rej"))]
        return TreeAutomaton(("a", "b"), {"w": State("A", 0), "rej": State("A", 1)}, "w",
                             tuple(trans), "weak", "skurczynski_0_1")
    inner = ref_skurczynski(IndexPair(1, n))
    states = {"c_" + q: st for q, st in inner.states.items()}
    states["spine"] = State("A", 0)
    trans = [Transition("c_" + t.source, t.letter, t.direction, "c_" + t.target)
             for t in inner.transitions]
    for x in ("a", "b"):
        trans += [Transition("spine", x, 0, "spine"),
                  Transition("spine", x, 1, "c_" + inner.initial)]
    return TreeAutomaton(("a", "b"), states, "spine", tuple(trans), "weak", f"skurczynski_0_{n}")


def test_skurczynski_matches_the_recursive_build():
    for iota in (0, 1):
        for kappa in range(iota + 1, 41):
            idx = IndexPair(iota, kappa)
            got, want = skurczynski(idx), ref_skurczynski(idx)
            assert serialize_automaton(got) == serialize_automaton(want), idx
            assert list(got.states) == list(want.states), idx


def test_skurczynski_builds_deep_indices_quickly():
    start = time.perf_counter()
    for idx in (IndexPair(0, 600), IndexPair(1, 600)):
        a = skurczynski(idx)
        assert len(a.states) == idx.kappa - idx.iota + 1 and index_of(a) == idx
    assert time.perf_counter() - start < 1.0


def test_skurczynski_oracle_trivia():
    assert skurczynski_member_oracle(IndexPair(0, 1), constant_tree("a"))
    assert not skurczynski_member_oracle(IndexPair(1, 2), constant_tree("a"))


# -- sampler --------------------------------------------------------------------------


def test_sampler_deterministic():
    p = SamplerParams(seed=42, max_nodes=3, alphabet=("a", "b"), count=2)
    t1 = sample_regular_tree(p)
    t2 = sample_regular_tree(p)
    assert [serialize_regular_tree(t) for t in t1] == \
        [serialize_regular_tree(t) for t in t2]


def test_sampler_count_and_validity():
    p = SamplerParams(seed=1, max_nodes=6, alphabet=("a", "b"), count=25)
    trees = sample_regular_tree(p)
    assert len(trees) == 25
    for t in trees:
        assert 1 <= len(t.nodes) <= 6  # construction revalidates reachability


def test_sampler_trees_pinned():
    """The sampler's trees, pinned to digests taken from the quadratic
    skeleton step: a long sample and criterion 4's parameters."""
    cases = [
        (SamplerParams(seed=5, max_nodes=3000, alphabet=("a", "b", "c"), count=4),
         "f735817d0b1d6c52552c2f07f5380ce30474f0b17b85bb49310efe4b3afd2c0c"),
        (SamplerParams(seed=42, max_nodes=8, alphabet=("a", "b"), count=1000),
         "ac2f2fb7c1c4b8767434bb7f7bfa6b894b5ea8c2380df8a2a60568723bd1b178"),
    ]
    for p, digest in cases:
        text = "".join(serialize_regular_tree(t) for t in sample_regular_tree(p))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, p


def test_splitmix64_stream_pinned():
    """The generator's stream: the published splitmix64 outputs for seed 0,
    and 10000 `below` draws over mixed bounds, pinned to a digest taken
    when `below` called `next_u64`."""
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f]
    rng = SplitMix64(2024)
    bounds = (1, 2, 3, 5, 8, 1000, 1 << 31, 1 << 64, (1 << 64) + 7)
    draws = [rng.below(bounds[i % len(bounds)]) for i in range(10000)]
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == \
        "ac4ed88399cdfdbf4a782a291d02e7a03672d5905edaba3d026e4f05de7bb23e"


@pytest.mark.parametrize("seed", [0, -1, 2**64 - 1, 2**64 + 5, 2024])
def test_words_are_the_scalar_stream(seed):
    """The lane-computed words are the scalar generator's outputs, across
    chunk edges and with the seed masked to 64 bits."""
    for n in (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7):
        rng = SplitMix64(seed)
        assert list(islice(_words(seed), n)) == [rng.next_u64() for _ in range(n)], n


def _draws(views):
    """The words a sample's trees used: 1 + k + (k - 1) + (k + 1) per tree
    of k nodes."""
    return sum(3 * len(labels) + 1 for labels, _, _ in views)


@pytest.mark.parametrize("seed", [-7, 3, 2**64, 2**64 + 11, 2**70 + 1])
@pytest.mark.parametrize("max_nodes", [1, 2, 8, 85, 3000])
@pytest.mark.parametrize("letters", [("a",), ("a", "b"), ("a", "b", "c")])
def test_sample_views_match_scalar_reference(seed, max_nodes, letters):
    """The sampler draws the reference's trees, for samples whose draws
    end inside a chunk and exactly on a chunk edge."""
    def params(count):
        return SamplerParams(seed=seed, max_nodes=max_nodes, alphabet=letters, count=count)

    long = list(ref_sample_views(params(200 if max_nodes < 100 else 3)))
    # the least count whose draws end at each offset into a chunk
    ends = {_draws(long[:c]) % _CHUNK: c for c in range(len(long), 0, -1)}
    counts = {1, len(long), ends.get(0, 1), min(c for r, c in ends.items() if r)}
    for count in counts:
        p = params(count)
        assert list(_sample_views(p)) == list(ref_sample_views(p)), count
    if max_nodes == 1:  # four words a tree: 64 trees end on the first chunk's edge
        assert ends[0] == _CHUNK // 4


def test_sampler_rejects_bad_params():
    with pytest.raises(ValidationError):
        SamplerParams(seed=1, max_nodes=0, alphabet=("a",), count=1)
    with pytest.raises(ValidationError):
        SamplerParams(seed=1, max_nodes=3, alphabet=("a",), count=0)
    with pytest.raises(ValidationError, match="^alphabet must be nonempty$"):
        SamplerParams(seed=1, max_nodes=3, alphabet=(), count=1)


TERNARY = constant_tree("a", arity=3)


@pytest.mark.parametrize("call, message", [
    (lambda: alt_accepts(catalog.all_a(), TERNARY), "automaton inputs are binary trees"),
    (lambda: run_reduction(catalog.all_a(), constant_tree("a")),
     "run_reduction expects weak acceptance"),
    (lambda: skurczynski(IndexPair(0, 0)), "skurczynski indices start at (0,1)"),
    (lambda: skurczynski(IndexPair(1, 1)),
     "skurczynski indices of the sigma side start at (1,2)"),
    (lambda: skurczynski_member_oracle(IndexPair(0, 1), TERNARY), "oracle expects binary trees"),
    (lambda: bounded_equiv(catalog.all_a(), make_automaton(
        ("a",), {"q": ("A", 0)}, "q", [("q", "a", 0, "q"), ("q", "a", 1, "q")]),
        SamplerParams(seed=1, max_nodes=3, alphabet=("a",), count=1)),
     "bounded_equiv needs a shared alphabet"),
])
def test_semantics_input_errors(call, message):
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message


FOREIGN_LABELS = RegularTree(2, {"n": Node("z", ("m", "m")), "m": Node("y", ("n", "n"))}, "n")


def game_at_a(positions, edges=()):
    return Game(positions, tuple(edges), "a")


@pytest.mark.parametrize("call, message", [
    (lambda: game_at_a({"a": ("E", "x")}, [("a", "a")]), "position a: rank 'x' is not an integer"),
    (lambda: game_at_a({"a": ("E", 0), 1: ("A", 0)}, [("a", "a"), (1, 1)]),
     "position id 1 is not a string"),
    (lambda: game_at_a({"a": ("E", 0, 1)}),
     "position a: ('E', 0, 1) is not an (owner, rank) pair"),
    (lambda: game_at_a({"a": "E"}), "position a: 'E' is not an (owner, rank) pair"),
    (lambda: game_at_a({"a": ("E", 1.5)}, [("a", "a")]), "position a: rank 1.5 is not an integer"),
    (lambda: game_at_a({"a": ("E", 1)}, [("a",)]), "edge ('a',) is not a pair of positions"),
    (lambda: IndexPair(0, "2"), "index kappa must be an integer, got '2'"),
    (lambda: SamplerParams(seed=1, max_nodes="8", alphabet=("a",), count=1),
     "max_nodes must be an integer, got '8'"),
    (lambda: SamplerParams(seed=1, max_nodes=8, alphabet=("a",), count=1.5),
     "count must be an integer, got 1.5"),
    (lambda: RegularTree("2", {"n": Node("a", ("n", "n"))}, "n"),
     "arity must be an integer, got '2'"),
    (lambda: RegularTree(2, {"n": ("a", ("n", "n"))}, "n"),
     "node 'n' is not a Node(label, children): ('a', ('n', 'n'))"),
    (lambda: parse_wlabel(3), "not an owner:rank label: 3"),
    (lambda: w_member(constant_tree("x"), IndexPair(0, 2)), "not an owner:rank label: 'x'"),
    (lambda: det_accepts(catalog.all_a(), FOREIGN_LABELS), "tree labels outside alphabet: ['y', 'z']"),
    # a bool is an int to isinstance, but no field here takes one
    (lambda: game_at_a({"a": ("E", True)}, [("a", "a")]), "position a: rank True is not an integer"),
    (lambda: IndexPair(True, 1), "index iota must be 0 or 1, got True"),
    (lambda: IndexPair(0, True), "index kappa must be an integer, got True"),
    (lambda: SamplerParams(seed=True, max_nodes=8, alphabet=("a",), count=1),
     "seed must be an integer, got True"),
    (lambda: SamplerParams(seed=1, max_nodes=True, alphabet=("a",), count=1),
     "max_nodes must be an integer, got True"),
    (lambda: SamplerParams(seed=1, max_nodes=8, alphabet=("a",), count=True),
     "count must be an integer, got True"),
    (lambda: RegularTree(True, {"n": Node("a", ("n", "n"))}, "n"),
     "arity must be an integer, got True"),
])
def test_public_values_name_the_bad_field(call, message):
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message


# -- bounded equivalence ------------------------------------------------------------------


def test_bounded_equiv_reflexive():
    a = catalog.all_a()
    p = SamplerParams(seed=2, max_nodes=5, alphabet=("a", "b"), count=30)
    assert bounded_equiv(a, a, p) is None


def test_bounded_equiv_finds_counterexample():
    a = catalog.all_a()
    universal = make_automaton(("a", "b"), {"q": ("A", 0)}, "q",
                               [("q", x, d, "q") for x in ("a", "b") for d in (0, 1)],
                               deterministic=True)
    p = SamplerParams(seed=2, max_nodes=5, alphabet=("a", "b"), count=30)
    ce = bounded_equiv(a, universal, p)
    assert ce is not None
    assert any(n.label == "b" for n in ce.nodes.values())


def _label_at(path):
    """Deterministic automaton: the node at `path` (a string of directions)
    is labeled a.  Off the path the run accepts."""
    states = {f"s{i}": ("A", 0) for i in range(len(path) + 1)}
    states.update(acc=("A", 0), rej=("A", 1))
    trans = []
    for i, d in enumerate(int(c) for c in path):
        for x in ("a", "b"):
            trans += [(f"s{i}", x, d, f"s{i + 1}"), (f"s{i}", x, 1 - d, "acc")]
    for d in (0, 1):
        trans += [(f"s{len(path)}", "a", d, "acc"), (f"s{len(path)}", "b", d, "rej")]
        trans += [(q, x, d, q) for q in ("acc", "rej") for x in ("a", "b")]
    return make_automaton(("a", "b"), states, "s0", trans, deterministic=True)


def test_bounded_equiv_returns_first_sampled_mismatch():
    """Past the battery, bounded_equiv returns the first sampled tree the
    automata disagree on, as `sample_regular_tree` builds it, whether the
    sampler's alphabet is the automata's or a part of it, and a letter
    outside the automata's alphabet raises on the first tree that has it."""
    # both read the node at depth 3, which every battery tree labels with
    # its base letter, so they agree on the battery
    left, right = _label_at("000"), _label_at("111")
    seen = set()
    for seed in range(16):
        for alphabet in (("a",), ("a", "b"), ("a", "b", "c")):
            p = SamplerParams(seed=seed, max_nodes=8, alphabet=alphabet, count=40)
            expected = None
            for t in sample_regular_tree(p):
                if "c" in t.labels():
                    expected = "raise"
                    break
                if det_accepts(left, t) != det_accepts(right, t):
                    expected = t
                    break
            if expected == "raise":
                with pytest.raises(ValidationError,
                                   match=r"^tree labels outside alphabet: \['c'\]$"):
                    bounded_equiv(left, right, p)
            else:
                assert bounded_equiv(left, right, p) == expected, p
            seen.add((len(alphabet), "raise" if expected == "raise" else expected is not None))
    assert {(1, False), (2, True), (3, True), (3, "raise")} <= seen, seen


# sha256 of the serialized battery trees, node names included, recorded
# when the battery was built as `RegularTree`s directly
BATTERY_SHA256 = {
    ("a",): "4aa3fb7196e5d5e02a9ae65bebaf74439563c5afa39d53dacac3209b4e15560c",
    ("a", "b"): "3f5c1426e450853326fb91da177ffaff7dc4ad4247c3a79c5bf561f4d4f2df87",
    ("a", "b", "c"): "ca777d8e5ee53ed1c88943a1d0f0548038306ca6b8649d979601679bf9717fd7",
}


def test_battery_trees_pinned():
    """The battery keeps its trees, and each battery view is its tree's view."""
    for alphabet, digest in BATTERY_SHA256.items():
        battery = deterministic_battery(alphabet)
        assert len(battery) == len(alphabet) * (1 + 7 * (len(alphabet) - 1))
        text = "".join(serialize_regular_tree(t) for t in battery)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, alphabet
        views = [view for _, view in _battery_views(alphabet)]
        assert views == [_tree_view(t) for t in battery]


def test_bounded_equiv_returns_battery_counterexample():
    """Automata that disagree first on a perturbation tree of the battery:
    `bounded_equiv` returns that battery tree, node names included."""
    left, right = _label_at("01"), _label_at("10")
    battery = deterministic_battery(("a", "b"))
    k = next(i for i, t in enumerate(battery) if det_accepts(left, t) != det_accepts(right, t))
    assert k >= len("ab"), "a perturbation tree, past the constant ones"
    ce = bounded_equiv(left, right, SamplerParams(seed=1, max_nodes=8,
                                                  alphabet=("a", "b"), count=5))
    assert ce == battery[k]
    assert sorted(ce.nodes) == ["p", "p0", "p00", "p01", "p1", "p10", "p11", "rest"]


# `weakindex compare` on the pair above, recorded when the battery was
# built as `RegularTree`s directly
COMPARE_STDOUT = """counterexample:
arity 2
root p
node p a p0 p1
node p0 a p00 p01
node p00 a rest rest
node p01 b rest rest
node p1 a p10 p11
node p10 a rest rest
node p11 a rest rest
node rest a rest rest
"""


def test_compare_prints_battery_counterexample(tmp_path, capsys):
    paths = []
    for path in ("01", "10"):
        f = tmp_path / f"label_at_{path}.txt"
        f.write_text(serialize_automaton(_label_at(path)))
        paths.append(str(f))
    assert main(["compare", *paths]) == 1
    assert capsys.readouterr().out == COMPARE_STDOUT


# sha256 of weak membership verdicts, recorded before the weak layering's
# rank buckets were built by one sort
WEAK_MEMBERSHIP_SHA256 = "a23f33c60ee5cc6fa8730e4feb64dd777fe44d79e08c3b590f358f7e4c00190e"


def test_weak_membership_verdicts_are_pinned():
    rng = SplitMix64(2468)
    automata = [random_weak(rng, max_states=5) for _ in range(60)]
    automata += [restrict(a) for a in automata]
    trees = sample_regular_tree(SamplerParams(seed=5, max_nodes=8, alphabet=("a", "b"),
                                              count=40))
    verdicts = bytes(alt_accepts(a, t) for a in automata for t in trees)
    assert hashlib.sha256(verdicts).hexdigest() == WEAK_MEMBERSHIP_SHA256
