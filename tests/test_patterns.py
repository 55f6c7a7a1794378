import hashlib
import json
from dataclasses import replace
from types import SimpleNamespace

import pytest

from weakindex import catalog
from weakindex.automata import BOT, DetAutomaton, IndexPair, State, Transition, make_automaton
from weakindex.classifier import classify
from weakindex.errors import EmptyLanguage, GameTooLarge, ValidationError
from weakindex.patterns import (
    Loop,
    ReplicationWitness,
    brute_force_patterns,
    edge_tops,
    find_flower,
    find_replicated_flower,
    find_split,
    find_weak_flower,
    loop_ranks,
    replicated_set,
    replication_witness_for,
)
from weakindex.productivity import trim
from weakindex.rng import SplitMix64

from conftest import emptiness_game, random_trimmed

ALL_INDICES = [IndexPair(i, k) for i in (0, 1) for k in range(i, 4) if k >= i and (i, k) != (1, 0)]


def trimmed(name):
    return trim(catalog.get(name))


# -- loop_ranks: frozen values from hand enumeration -------------------------


def test_loop_ranks_all_a():
    tops = loop_ranks(trimmed("all_a"))
    assert tops == {"p": {0}, "_bot": {1}}


def test_loop_ranks_inf_b_left():
    tops = loop_ranks(trimmed("inf_b_left"))
    assert tops["q1"] == {1, 2}
    assert tops["q2"] == {2}
    assert tops["T"] == {0}


def test_loop_ranks_fin_b_left():
    tops = loop_ranks(trimmed("fin_b_left"))
    assert tops["s0"] == {0, 1}


# -- flowers ------------------------------------------------------------------


def test_find_flower_inf_b_left():
    a = trimmed("inf_b_left")
    w = find_flower(a, IndexPair(1, 2))
    assert w is not None and w.pivot == "q1"
    assert [l.top_rank for l in w.loops] == [1, 2]
    w.verify(a)
    assert find_flower(a, IndexPair(0, 1)) is None


def test_find_flower_all_a_none():
    assert find_flower(trimmed("all_a"), IndexPair(0, 1)) is None


def test_weak_flower_all_a():
    a = trimmed("all_a")
    w = find_weak_flower(a, IndexPair(0, 1))
    assert w is not None
    assert w.loops[0].states() == {"p"} and w.loops[1].states() == {"_bot"}
    w.verify(a)
    assert find_weak_flower(a, IndexPair(1, 2)) is None


def test_weak_flower_unbounded_alternation():
    # inf_b_left has both parities in one SCC, so every index has one
    a = trimmed("inf_b_left")
    w = find_weak_flower(a, IndexPair(0, 3))
    assert w is not None
    w.verify(a)


def test_weak_flower_loop_chosen_within_its_scc():
    # q0 sits before the SCC {q1,q2,q3} and enters it at q2; the rank-0
    # loop is still the one a search of that SCC alone finds first, at q1
    trans = [("q0", x, d, "q2") for x in "ab" for d in (0, 1)]
    for q in ("q1", "q2"):
        trans += [(q, "a", 0, q), (q, "a", 1, "q3"), (q, "b", 0, q), (q, "b", 1, q)]
    trans += [("q3", x, d, ("q1", "q2")[d]) for x in "ab" for d in (0, 1)]
    ranks = {"q0": 0, "q1": 0, "q2": 0, "q3": 1}
    a = trim(make_automaton("ab", {q: ("A", r) for q, r in ranks.items()}, "q0", trans,
                            deterministic=True))
    w = find_weak_flower(a, IndexPair(0, 1))
    assert [l.states() for l in w.loops] == [{"q1"}, {"q1", "q3"}]
    w.verify(a)


def test_split_min_has_split():
    a = trimmed("split_min")
    w = find_split(a)
    assert w is not None and (w.state, w.letter) == ("p", "a")
    w.verify(a)


def test_no_split_in_simple_catalog():
    assert find_split(trimmed("all_a")) is None
    assert find_split(trimmed("inf_b_left")) is None


# -- replication ----------------------------------------------------------------


def test_replicated_all_a():
    a = trimmed("all_a")
    assert replicated_set(a) == {"p"}
    w = replication_witness_for(a, "p")
    assert w is not None and w.state == "p"
    w.verify(a)


def test_replicated_fin_b_left():
    a = trimmed("fin_b_left")
    assert replicated_set(a) == {"T"}
    w = replication_witness_for(a, "T")
    assert w is not None and w.state == "T"
    w.verify(a)


def test_replicated_spine_fin_b():
    a = trimmed("spine_fin_b")
    rep = replicated_set(a)
    assert rep >= {"s0", "s1"}
    for q in sorted(rep):
        w = replication_witness_for(a, q)
        assert w is not None and w.state == q
        w.verify(a)


def test_replicated_flower_examples():
    spine = trimmed("spine_fin_b")
    w = find_replicated_flower(spine, IndexPair(0, 1), weak=False)
    assert w is not None
    w.verify(spine)

    fin = trimmed("fin_b_left")
    assert find_replicated_flower(fin, IndexPair(0, 1), weak=False) is None
    # the weak (1,2)-flower of fin_b is not replicated: its rejecting loop
    # is outside the replicated part
    assert find_replicated_flower(fin, IndexPair(1, 2), weak=True) is None

    assert find_replicated_flower(trimmed("all_a"), IndexPair(1, 2), weak=True) is None


# -- witness stability at scale ---------------------------------------------------


def _seeded_det(seed, n, ranks):
    """First automaton with a nonempty language from criterion 9's generator."""
    rng = SplitMix64(seed)
    names = [f"q{i}" for i in range(n)]
    while True:
        states = {q: State("A", ranks[rng.below(len(ranks))]) for q in names}
        trans = [Transition(q, x, d, names[rng.below(n)])
                 for q in names for x in ("a", "b") for d in (0, 1)]
        a = DetAutomaton(alphabet=("a", "b"), states=states, initial="q0",
                         transitions=tuple(trans), acceptance="parity")
        try:
            trim(a)
            return a
        except EmptyLanguage:
            continue


@pytest.mark.parametrize("seed, ranks, blocked, digest", [
    (1, (0, 0, 0, 0, 1, 1, 2, 2, 2, 3),
     ["pi1", "pi2", "pi3", "sigma1", "sigma2", "sigma3"],
     "8e2e03278ab414235fef60cf7dca69f0840d6bd26ef5ed567c6cea5f3111e833"),
    (2, (1, 2), ["pi1", "sigma1", "sigma2"],
     "26d1fc2088b8f6b841f32e3d4bb690fd4c0b9b1e65b685276f62205f55427c12"),
])
def test_witnesses_stable_at_scale(seed, ranks, blocked, digest):
    """Every witness of a 300-state classification verifies, and the whole
    report, witnesses included, is the one frozen here."""
    report = classify(_seeded_det(seed, 300, ranks))
    assert sorted(report.borel.witnesses) == blocked
    for w in report.borel.witnesses.values():
        w.verify(report.trimmed)
    d = report.to_json_dict()
    d.pop("trim_seconds"), d.pop("classify_seconds")
    assert hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest() == digest


# -- oracle equivalence -----------------------------------------------------------


def test_brute_force_budget_guard():
    a = trimmed("spine_fin_b")
    with pytest.raises(GameTooLarge):
        brute_force_patterns(a, budget=2)


def test_catalog_matches_brute_force():
    for name in catalog.CATALOG:
        a = trimmed(name)
        inv = brute_force_patterns(a)
        tops = loop_ranks(a)
        for q in a.states:
            assert set(tops[q]) == set(inv.loop_tops[q]), (name, q)
        et = edge_tops(a)
        for k in et:
            assert set(et[k]) == set(inv.edge_tops[k]), (name, k)
        assert replicated_set(a) == set(inv.replicated), name
        assert (find_split(a) is not None) == inv.has_split(), name
        for i in ALL_INDICES:
            assert (find_flower(a, i) is not None) == inv.has_flower(i), (name, i)
            assert (find_weak_flower(a, i) is not None) == inv.has_weak_flower(i), (name, i)
            assert ((find_replicated_flower(a, i, weak=False) is not None)
                    == inv.has_replicated_flower_strong(i)), (name, i)
            assert ((find_replicated_flower(a, i, weak=True) is not None)
                    == inv.has_replicated_flower_weak(i)), (name, i)


def test_random_sample_matches_brute_force():
    rng = SplitMix64(606)
    for _ in range(250):
        a = random_trimmed(rng)
        inv = brute_force_patterns(a)
        tops = loop_ranks(a)
        for q in a.states:
            assert set(tops[q]) == set(inv.loop_tops[q])
        assert replicated_set(a) == set(inv.replicated)
        assert (find_split(a) is not None) == inv.has_split()
        for i in ALL_INDICES:
            assert (find_flower(a, i) is not None) == inv.has_flower(i)
            assert (find_weak_flower(a, i) is not None) == inv.has_weak_flower(i)
            assert ((find_replicated_flower(a, i, weak=True) is not None)
                    == inv.has_replicated_flower_weak(i))


def test_witnesses_revalidate():
    rng = SplitMix64(707)
    for _ in range(150):
        a = random_trimmed(rng)
        for i in ALL_INDICES:
            for w in (find_flower(a, i), find_weak_flower(a, i),
                      find_replicated_flower(a, i, weak=False),
                      find_replicated_flower(a, i, weak=True)):
                if w is not None:
                    w.verify(a)
        s = find_split(a)
        if s is not None:
            s.verify(a)


def test_forged_paths_fail_verify_and_bad_keys_fail_step():
    rng = SplitMix64(717)
    automata = [trimmed(name) for name in sorted(catalog.CATALOG)]
    automata += [random_trimmed(rng) for _ in range(30)]
    checked = 0
    for a in automata:
        for q in sorted(replicated_set(a))[:2]:
            w = replication_witness_for(a, q)
            w.verify(a)
            for t in a.transitions[::3]:
                wrong = sorted(a.states.keys() - {t.target})[:1]
                forged = [t._replace(direction=2), t._replace(direction=None),
                          t._replace(letter="~"), t._replace(letter=" "),
                          t._replace(source="~"), t._replace(source=" ")]
                forged += [t._replace(target=r) for r in wrong]
                for f in forged:
                    with pytest.raises(ValidationError, match="path uses unknown transition"):
                        ReplicationWitness(w.loop, (f,), q).verify(a)
                    if f.target == t.target:
                        with pytest.raises(KeyError):
                            a.step(f.source, f.letter, f.direction)
                        if f.direction in (0, 1):
                            with pytest.raises(KeyError):
                                a.pair(f.source, f.letter)
                    checked += 1
    for key in ((None, "a", 0), ("p", None, 1)):
        with pytest.raises(KeyError):
            automata[0].step(*key)
    assert checked > 500


@pytest.fixture(scope="module")
def real():
    """Catalog witnesses that verify, for the forgeries below to break."""
    x = SimpleNamespace(inf=trimmed("inf_b_left"), all_a=trimmed("all_a"),
                        split_min=trimmed("split_min"))
    x.flower = find_flower(x.inf, IndexPair(1, 2))  # at q1: q1 (top 1), q1 q2 (top 2)
    x.weak = find_weak_flower(x.all_a, IndexPair(0, 1))  # p (top 0), p-b->_bot, _bot (top 1)
    x.split = find_split(x.split_min)  # at (p, a): via e (top 2), via o (top 3)
    x.rep = replication_witness_for(x.all_a, "p")  # p-a,0->p, branching p-a,1->p
    for a, w in ((x.inf, x.flower), (x.all_a, x.weak), (x.split_min, x.split),
                 (x.all_a, x.rep)):
        w.verify(a)
    return x


@pytest.mark.parametrize("message, forge", [
    ("empty loop", lambda x: (x.inf, Loop((), 1))),
    ("loop top rank mismatch", lambda x: (x.inf, replace(x.flower.loops[0], top_rank=2))),
    ("path transitions do not chain",
     lambda x: (x.inf, Loop(x.flower.loops[1].transitions[:1], 2))),
    ("flower has wrong number of loops",
     lambda x: (x.inf, replace(x.flower, loops=x.flower.loops[:1]))),
    ("loop 0 has top of wrong parity", lambda x: (x.inf, replace(x.flower, index=IndexPair(0, 1)))),
    ("loop misses the pivot", lambda x: (x.inf, replace(x.flower, pivot="T"))),
    ("flower tops do not strictly increase",
     lambda x: (x.inf, replace(x.flower, index=IndexPair(1, 3),
                               loops=x.flower.loops + x.flower.loops[:1]))),
    ("weak flower loop 1 has wrong acceptance",
     lambda x: (x.all_a, replace(x.weak, index=IndexPair(1, 2)))),
    ("weak flower needs a path between consecutive loops",
     lambda x: (x.all_a, replace(x.weak, paths=()))),
    ("connecting path endpoints are off-loop",
     lambda x: (x.all_a, replace(x.weak, paths=(x.rep.path,)))),  # p-a,1->p ends on p
    ("consecutive loops neither touch nor connect",
     lambda x: (x.all_a, replace(x.weak, paths=((),)))),
    ("unknown flower kind 'odd'", lambda x: (x.all_a, replace(x.weak, kind="odd"))),
    ("split loop does not start with the split edge",
     lambda x: (x.split_min, replace(x.split, loop0=x.split.loop1, loop1=x.split.loop0))),
    ("split tops must differ in parity with the highest odd",  # two loops of top 3
     lambda x: (x.split_min, replace(x.split, loop0=Loop(
         x.split.loop0.transitions + x.split.loop1.transitions, 3)))),
    ("replicating loop must be accepting",
     lambda x: (x.all_a, replace(x.rep, loop=x.weak.loops[1]))),
    ("replication path must start with a branching edge",
     lambda x: (x.all_a, replace(x.rep, path=()))),
    ("replication path must branch at the loop edge",
     lambda x: (x.all_a, replace(x.rep, path=x.weak.paths[0], state=BOT))),
    ("replication path must take the other direction",
     lambda x: (x.all_a, replace(x.rep, path=x.rep.loop.transitions))),
    ("replication path does not reach the state", lambda x: (x.all_a, replace(x.rep, state=BOT))),
])
def test_forged_witnesses_fail_verify(real, message, forge):
    a, w = forge(real)
    with pytest.raises(ValidationError) as err:
        w.verify(a)
    assert str(err.value) == message


def test_flower_prefix_monotone():
    rng = SplitMix64(909)
    for _ in range(150):
        a = random_trimmed(rng)
        for iota in (0, 1):
            for kappa in range(iota + 1, 4):
                full = IndexPair(iota, kappa)
                if find_flower(a, full) is not None:
                    for k2 in range(iota, kappa):
                        assert find_flower(a, IndexPair(iota, k2)) is not None
                if find_weak_flower(a, full) is not None:
                    for k2 in range(iota, kappa):
                        assert find_weak_flower(a, IndexPair(iota, k2)) is not None


def _strategy_filler(a):
    """A regular accepting tree per nonempty state, read off Eve's winning
    strategy in the emptiness game."""
    from weakindex.games import solve_parity

    sol = solve_parity(emptiness_game(a))
    letters = {}
    for q in a.states:
        move = sol.strategy.get(f"s:{q}")
        if move is not None:
            letters[q] = move.split(":", 2)[2]
    return letters


def _replication_run_tree(a, w):
    """Unravel a replication witness into a regular tree whose accepting run
    visits the replicated state once per loop iteration, at incomparable
    positions of the unfolding."""
    from weakindex.trees import Node, RegularTree

    letters = _strategy_filler(a)

    nodes = {}

    def filler(state):
        nid = f"f_{state}"
        if nid not in nodes:
            letter = letters[state]
            nodes[nid] = None  # reserve before recursing
            l, r = a.pair(state, letter)
            nodes[nid] = Node(letter, (filler(l), filler(r)))
        return nid

    loop = w.loop.transitions
    # the path's first transition is the branch at the loop head itself;
    # nodes are needed only for its continuation
    rest = w.path[1:]
    for j, t in enumerate(rest):
        nid = f"p{j}"
        nxt = f"p{j + 1}" if j + 1 < len(rest) else filler(rest[-1].target)
        other = filler(a.step(t.source, t.letter, 1 - t.direction))
        kids = (nxt, other) if t.direction == 0 else (other, nxt)
        nodes[nid] = Node(t.letter, kids)
    branch_child = "p0" if rest else filler(w.path[0].target)
    for j, t in enumerate(loop):
        nid = f"s{j}"
        nxt = f"s{(j + 1) % len(loop)}"
        if j == 0:
            other = branch_child
        else:
            other = filler(a.step(t.source, t.letter, 1 - t.direction))
        kids = (nxt, other) if t.direction == 0 else (other, nxt)
        nodes[nid] = Node(t.letter, kids)
    # runs start at the initial state: reach the loop through productive states
    pivot = loop[0].source
    root = "s0"
    if a.initial != pivot:
        prefix = _productive_path(a, a.initial, pivot)
        for j, t in enumerate(prefix):
            nid = f"r{j}"
            nxt = f"r{j + 1}" if j + 1 < len(prefix) else "s0"
            other = filler(a.step(t.source, t.letter, 1 - t.direction))
            kids = (nxt, other) if t.direction == 0 else (other, nxt)
            nodes[nid] = Node(t.letter, kids)
        root = "r0"
    return RegularTree(2, nodes, root)


def _productive_path(a, start, goal):
    """A shortest transition path from start to goal through productive
    states, by breadth-first search over the step table."""
    parent = {start: None}
    queue = [start]
    for q in queue:  # the queue grows while it is read
        for letter in a.alphabet:
            for d in (0, 1):
                w = a.step(q, letter, d)
                if w != BOT and w not in parent:
                    parent[w] = Transition(q, letter, d, w)
                    queue.append(w)
    path = []
    while parent[goal] is not None:
        path.append(parent[goal])
        goal = parent[goal].source
    return path[::-1]


def test_replication_lemma_constructive():
    """Semantic direction of the Replication Lemma: each replicated
    productive state admits an accepting run visiting it beside every
    iteration of the replicating loop."""
    from weakindex.semantics import det_accepts

    rng = SplitMix64(4321)
    built = 0
    for _ in range(60):
        a = random_trimmed(rng)
        for q in sorted(replicated_set(a)):
            w = replication_witness_for(a, q)
            assert w is not None and w.state == q
            w.verify(a)
            assert w.path[0].source == w.loop.transitions[0].source
            assert w.loop.accepting
            t = _replication_run_tree(a, w)
            assert det_accepts(a, t), (a, q)
            built += 1
    assert built > 50
