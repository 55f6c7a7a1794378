"""The ladder's witness and reachability searches against full searches.

`_bfs` returns when it discovers a goal and stops at a cap on the path
length; `_closed_walk` caps each search after the first at the length that
would still improve its best walk; the replicated set, universality and
the replication witness run on the condensation.  The references below
are the searches as they were: a breadth-first search that tests goals
when it dequeues them (`conftest.ref_bfs`), closed walks made of uncapped
searches, and `reachable_from` over successor and predecessor dicts
made from the view's lists.
"""

import pytest

from weakindex import catalog
from weakindex.automata import BOT
from weakindex.graphs import _rank_sccs, has_cycle_inside, reachable_from
from weakindex.patterns import (
    Loop,
    ReplicationWitness,
    _bfs,
    _closed_walk,
    _edge_loop,
    _replicated,
    _tops,
    _view,
    replication_witness_for,
)
from weakindex.productivity import is_universal, trim
from weakindex.rng import SplitMix64

from conftest import criterion_5_stream, random_det, ref_bfs
from test_pattern_view import C9_RANKS, PI2_RANKS, seeded_trimmed


def _pick(rng, n, most):
    return [rng.below(n) for _ in range(1 + rng.below(most))]


def test_bfs_stops_at_its_goal_and_its_cap():
    rng, checked, empty = SplitMix64(1717), 0, 0
    inputs = [random_det(rng, 12, letters=("a", "b", "c")[:1 + k % 3]) for k in range(300)]
    inputs += [seeded_trimmed(11, 300, C9_RANKS), seeded_trimmed(13, 300, PI2_RANKS)]
    for a in inputs:
        n = len(a.states)
        for _ in range(4):
            allowed = range(n) if rng.below(4) == 0 else {i for i in range(n) if rng.below(4)}
            sources = _pick(rng, n, 3)
            goals = set(_pick(rng, n, 3))
            if rng.below(4) == 0:
                goals.add(sources[-1])  # a source that is a goal: the empty path
            want = ref_bfs(a, allowed, sources, goals)
            assert _bfs(a, allowed, sources, goals) == want
            for cap in range(7):
                fits = want is not None and len(want) <= cap
                assert _bfs(a, allowed, sources, goals, cap) == (want if fits else None)
            checked += want is not None
            empty += want == []
    assert checked > 800 and empty > 150  # both kinds of answer are exercised


def ref_closed_walk(a, comp, pivot, via, top):
    """`_closed_walk` as uncapped searches, one from each successor."""
    v = _view(a)
    if via == pivot:
        best = None
        for j in range(pivot * v.width, pivot * v.width + v.width):
            w = v.target[j]
            if w not in comp:
                continue
            if w == pivot:
                best = [j]
                break
            rest = ref_bfs(a, comp, [w], {pivot})
            if rest is not None and (best is None or len(rest) + 1 < len(best)):
                best = [j] + rest
    else:
        best = ref_bfs(a, comp, [pivot], {via}) + ref_bfs(a, comp, [via], {pivot})
    return Loop(tuple(a.transitions[j] for j in best), top)


def ref_replicated(a):
    v = _view(a)
    starts = sorted({v.target[j ^ 1] for j, m in enumerate(_tops(a).edge) if m & v.parity[0]})
    return reachable_from(starts, dict(enumerate(v.succ))) - {v.index.get(BOT)}


def ref_is_universal(a):
    v, loop = _view(a), _tops(a).loop
    succ = dict(enumerate(v.succ))
    return not any(loop[i] & v.parity[1] for i in reachable_from([v.index[a.initial]], succ))


def ref_replication_witness(a, q):
    """`replication_witness_for` over the states that reach q, found by a
    search of the whole predecessor dict."""
    v = _view(a)
    goal = v.index[q]
    pred = {i: [] for i in range(len(v.succ))}
    for i, ws in enumerate(v.succ):
        for w in ws:
            pred[w].append(i)
    back = reachable_from([goal], pred)
    for j, m in enumerate(_tops(a).edge):
        m &= v.parity[0]
        start = v.target[j ^ 1]
        if m and start in back:
            loop = _edge_loop(a, j, v.ranks[(m & -m).bit_length() - 1])
            path = [j ^ 1] + ref_bfs(a, range(len(v.ids)), [start], {goal})
            return ReplicationWitness(loop=loop, path=tuple(a.transitions[k] for k in path),
                                      state=q)
    return None


def assert_searches_match(a, pivots_per_comp=None):
    v = _view(a)
    walks = 0
    for r in v.ranks:
        for scc in v.sccs:  # each component of the rank <= r part lies inside one SCC
            sub, _, found = _rank_sccs(scc, v.succ, v.rank, r)
            for comp in ([sub[i] for i in c] for c in found):
                if not has_cycle_inside(comp, v.succ):
                    continue
                allowed = set(comp)
                for p in comp[:pivots_per_comp]:
                    assert (_closed_walk(a, allowed, p, p, r)
                            == ref_closed_walk(a, allowed, p, p, r))
                    walks += 1
                via = min(comp, key=lambda i: (-v.rank[i], i))
                assert (_closed_walk(a, allowed, comp[0], via, r)
                        == ref_closed_walk(a, allowed, comp[0], via, r))
    assert _replicated(a) == ref_replicated(a)
    assert is_universal(a) == ref_is_universal(a)
    for q in v.ids[:pivots_per_comp]:
        assert replication_witness_for(a, q) == ref_replication_witness(a, q)
    return walks


def test_searches_match_on_the_catalog():
    for name in sorted(catalog.CATALOG):
        a = catalog.get(name)
        assert is_universal(a) == ref_is_universal(a), name
        assert_searches_match(trim(a))


def test_searches_match_on_criterion_5_stream():
    universal = 0
    for a in criterion_5_stream(600):
        assert_searches_match(a)
        universal += is_universal(a)
    assert 0 < universal < 600


@pytest.mark.parametrize("seed, ranks", [(11, C9_RANKS), (13, PI2_RANKS)])
def test_searches_match_at_300_states(seed, ranks):
    assert assert_searches_match(seeded_trimmed(seed, 300, ranks), ) > 100

