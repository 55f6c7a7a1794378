"""Pattern search on the int view against the string-keyed tables it
replaced.

The reference builders below are those tables as they were: successor
lists, one rank-restricted SCC pass per rank with a string `comp_of`, loop
and edge tops as sets, and the replicated set from the replicating edges.
On seeded automata of both benchmark shapes, on criterion 5's stream and
on the catalog, the view must give the same loop tops, edge tops,
replicated set, condensation and per-SCC smallest loops.
"""

import pytest

from weakindex import catalog
from weakindex.automata import BOT, DetAutomaton, State, Transition, _loops, normalize_ranks
from weakindex.classifier import classify
from weakindex.cli import main
from weakindex.errors import EmptyLanguage, WeakIndexError
from weakindex.formats import serialize_automaton
from weakindex.graphs import condensation, has_cycle_inside, reachable_from, tarjan_scc
from weakindex.patterns import (
    _tops,
    _view,
    edge_tops,
    loop_ranks,
    replicated_set,
)
from weakindex.productivity import trim
from weakindex.transforms import weaken
from weakindex.rng import SplitMix64

from test_acceptance import _trimmed_stream

C9_RANKS = (0, 0, 0, 0, 1, 1, 2, 2, 2, 3)  # criterion 9's scale generator
PI2_RANKS = (1, 2)


# -- the reference: string-keyed tables ---------------------------------------


def ref_succ(a):
    out = {q: set() for q in a.states}
    for t in a.transitions:
        out[t.source].add(t.target)
    return {q: sorted(s) for q, s in out.items()}


def ref_rank_sccs(a, r, succ, scc_of):
    keep = sorted(q for q in a.states if a.rank(q) <= r)
    adj = {q: [w for w in succ[q] if a.rank(w) <= r and scc_of[w] == scc_of[q]]
           for q in keep}
    comps = tarjan_scc(keep, adj)
    comp_of = {q: i for i, comp in enumerate(comps) for q in comp}
    top = [has_cycle_inside(comp, adj) and any(a.rank(q) == r for q in comp)
           for comp in comps]
    return comps, comp_of, top


class Reference:
    def __init__(self, a):
        self.succ = ref_succ(a)
        self.sccs, scc_of, _ = condensation(sorted(a.states), self.succ)
        self.rank_sccs = {r: ref_rank_sccs(a, r, self.succ, scc_of)
                          for r in sorted(a.ranks())}
        self.loop_ranks = {q: set() for q in a.states}
        self.edge_tops = {(t.source, t.letter, t.direction): set() for t in a.transitions}
        self.scc_loops = [[None, None] for _ in self.sccs]
        for r, (comps, comp_of, top) in self.rank_sccs.items():
            for comp, is_top in zip(comps, top):
                slot = self.scc_loops[scc_of[comp[0]]]
                if is_top:
                    for q in comp:
                        self.loop_ranks[q].add(r)
                    if slot[r % 2] is None:
                        slot[r % 2] = (r, comp)
            for t in a.transitions:
                c = comp_of.get(t.source)
                if c is not None and top[c] and comp_of.get(t.target) == c:
                    self.edge_tops[(t.source, t.letter, t.direction)].add(r)
        starts = set()
        for t, _ in self.replicating_edges(a):
            starts.add(a.step(t.source, t.letter, 1 - t.direction))
        self.replicated = reachable_from(sorted(starts), self.succ) - {BOT}

    def replicating_edges(self, a):
        found = []
        for t in a.transitions:
            evens = [r for r in self.edge_tops[(t.source, t.letter, t.direction)]
                     if r % 2 == 0]
            if evens:
                found.append((t, min(evens)))
        return found


def assert_view_matches_reference(a):
    ref = Reference(a)
    v = _view(a)
    assert [[v.ids[i] for i in comp] for comp in v.sccs] == ref.sccs
    assert loop_ranks(a) == ref.loop_ranks
    assert edge_tops(a) == ref.edge_tops
    assert replicated_set(a) == ref.replicated
    for r, (comps, _, top) in ref.rank_sccs.items():  # the components of loops with top r
        got = {tuple(v.ids[i] for i in comp) for _, s, comp in _loops(a) if s == r}
        assert got == {tuple(comp) for comp, is_top in zip(comps, top) if is_top}, r
    # per SCC and top parity: the smallest top, and the smallest state of
    # that rank in the first component carrying such a loop
    want = [[s and (s[0], min(q for q in s[1] if a.rank(q) == s[0])) for s in slot]
            for slot in ref.scc_loops]
    assert [[s and (s[0], v.ids[s[1]]) for s in slot] for slot in _tops(a).scc] == want


# -- inputs ---------------------------------------------------------------------------


def seeded_trimmed(seed, n, ranks):
    """First trimmable automaton of the benchmark's cli_large generator shape."""
    rng = SplitMix64(seed)
    names = [f"q{i}" for i in range(n)]
    while True:
        states = {q: State("A", ranks[rng.below(len(ranks))]) for q in names}
        trans = [Transition(q, x, d, names[rng.below(n)])
                 for q in names for x in ("a", "b") for d in (0, 1)]
        try:
            return trim(DetAutomaton(alphabet=("a", "b"), states=states, initial="q0",
                                     transitions=tuple(trans), acceptance="parity"))
        except EmptyLanguage:
            continue


@pytest.mark.parametrize("seed, n, ranks", [
    (11, 300, C9_RANKS), (12, 1000, C9_RANKS),
    (13, 300, PI2_RANKS), (14, 2000, PI2_RANKS),
])
def test_view_matches_string_tables_at_scale(seed, n, ranks):
    assert_view_matches_reference(seeded_trimmed(seed, n, ranks))


def test_view_matches_string_tables_on_criterion_5_stream_and_catalog():
    stream = _trimmed_stream(9090, mixed_bands=True)
    for _ in range(2000):
        assert_view_matches_reference(next(stream))
    for name in sorted(catalog.CATALOG):
        assert_view_matches_reference(trim(catalog.get(name)))


# -- large ranks ----------------------------------------------------------------------
# Masks carry one bit per distinct rank, so the size of the rank values costs
# nothing; the results must agree with the same inputs on small ranks.


def spread(r):
    """Order- and parity-preserving map onto ranks up to about 10**12 apart."""
    return r * 10**12 + r % 2


def with_ranks(a, f):
    return a.with_states({q: State(st.mode, f(st.rank)) for q, st in a.states.items()})


def outcome(a):
    """What classify and weaken decide, with no rank values in it."""
    r = classify(a)
    try:
        trace = weaken(a)[1]
    except WeakIndexError as e:
        trace = type(e).__name__
    return (r.borel.minimal, r.borel.bits, r.det_index, r.weak_det and r.weak_det[0],
            r.weak_alt, trace)


def assert_same_patterns(big, small, f):
    """Loop tops, edge tops and the replicated set of `big` are those of
    `small` with every rank r read as f(r)."""
    assert loop_ranks(big) == {q: {f(r) for r in t} for q, t in loop_ranks(small).items()}
    assert edge_tops(big) == {k: {f(r) for r in t} for k, t in edge_tops(small).items()}
    assert replicated_set(big) == replicated_set(small)


def run_cli(tmp_path, a, *command):
    path = tmp_path / "in.aut"
    path.write_text(serialize_automaton(a))
    return main([*command[:1], str(path), *command[1:]])


def test_catalog_with_ranks_near_10_12_matches_small_ranks(tmp_path, capsys):
    for name in sorted(catalog.CATALOG):
        small = catalog.get(name)
        big = with_ranks(small, spread)
        assert max(big.ranks()) >= 10**12 or max(small.ranks()) == 0, name
        assert outcome(big) == outcome(small), name
        trimmed = trim(small)  # its sink `_bot` has rank 1 whatever the input's ranks
        assert_same_patterns(with_ranks(trimmed, spread), trimmed, spread)
        assert_view_matches_reference(with_ranks(trimmed, spread))
        for command in (("classify", "--json"), ("weaken",), ("patterns",)):
            assert run_cli(tmp_path, big, *command) == run_cli(tmp_path, small, *command)
        assert "Traceback" not in capsys.readouterr().err


def test_2000_states_with_ranks_near_10_6_match_normalized():
    big = seeded_trimmed(15, 2000, tuple(10**6 + r for r in C9_RANKS))
    small = normalize_ranks(big)
    assert min(small.ranks()) == 0
    assert outcome(big) == outcome(small)
    assert_same_patterns(big, small, lambda r: r + 10**6)
