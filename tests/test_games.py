import copy
import hashlib
import sys
import time

import pytest

from weakindex import games
from weakindex.automata import DetAutomaton, State, Transition
from weakindex.errors import FormatError, GameTooLarge, ValidationError
from weakindex.games import (
    Game,
    Solution,
    _arena,
    _game_arrays,
    _strong_winners,
    brute_force_solve,
    check_strategy,
    eve_wins_arrays,
    parse_game,
    solve,
    solve_parity,
    solve_weak,
)
from weakindex.productivity import nonempty_states
from weakindex.rng import SplitMix64

from conftest import random_game


def game(positions, edges, condition="parity", init=None):
    return Game(positions=positions, edges=tuple(edges),
                initial=init or sorted(positions)[0], condition=condition)


def test_single_even_self_loop_eve_wins():
    g = game({"p": ("E", 0)}, [("p", "p")])
    assert solve_parity(g).winner["p"] == "E"


def test_single_odd_self_loop_adam_wins():
    g = game({"p": ("E", 1)}, [("p", "p")])
    assert solve_parity(g).winner["p"] == "A"


def test_weak_adam_position_rank_zero():
    g = game({"p": ("A", 0)}, [("p", "p")], condition="weak")
    assert solve_weak(g).winner["p"] == "E"


def test_weak_rank_one_self_loop():
    g = game({"p": ("E", 1)}, [("p", "p")], condition="weak")
    assert solve_weak(g).winner["p"] == "A"


def test_dead_end_owner_loses():
    # chain ending in an Eve-owned dead end: Adam wins from everywhere
    g = game({"p0": ("A", 0), "p1": ("A", 0), "p2": ("E", 0)},
             [("p0", "p1"), ("p1", "p2")])
    sol = solve_parity(g)
    assert sol.winner == {"p0": "A", "p1": "A", "p2": "A"}
    assert "p2" not in sol.strategy  # dead ends carry no strategy


def test_more_ranks_than_the_recursion_limit(monkeypatch):
    # one Zielonka level per distinct rank; the solver must neither recurse
    # that deep nor raise the interpreter's limit to do so
    def refuse(_):
        raise AssertionError("the solver changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    n = max(1201, sys.getrecursionlimit() + 1)
    owner = [i % 2 for i in range(n)]
    rank = [2 * i for i in range(n)]
    succ = [[i] for i in range(n)]
    g = game({f"p{i}": ("EA"[owner[i]], rank[i]) for i in range(n)},
             [(f"p{i}", f"p{i}") for i in range(n)])
    sol = solve_parity(g)
    assert set(sol.winner.values()) == {"E"}
    assert sol.strategy == {f"p{i}": f"p{i}" for i in range(0, n, 2)}
    for p in (1, n - 1):  # an Adam and an Eve position
        assert eve_wins_arrays(owner, rank, succ, weak=False, position=p)
    # a chain of states with distinct ranks, descending to an even rank at
    # its looping end: the emptiness arena has no self-loops, so the
    # winner-only solver nests one frame per rank
    names = [f"q{i}" for i in range(n)]
    a = DetAutomaton(alphabet=("a",), states={q: State("A", n + 1 - i) for i, q in enumerate(names)},
                     initial="q0", transitions=tuple(Transition(q, "a", d, t) for q, t in
                                                     zip(names, names[1:] + names[-1:])
                                                     for d in (0, 1)))
    assert nonempty_states(a) == set(names)


def _random_int_game(rng: SplitMix64, n: int, max_rank: int):
    """Mixed owners, dead ends, self-loops and moves listed twice."""
    owner = [rng.below(2) for _ in range(n)]
    rank = [rng.below(max_rank + 1) for _ in range(n)]
    succ = []
    for v in range(n):
        moves = [rng.below(n) for _ in range((0, 1, 1, 2, 2, 3)[rng.below(6)])]
        if rng.below(3) == 0:
            moves.append(v)
        if moves and rng.below(4) == 0:
            moves.append(moves[0])
        succ.append(moves)
    return owner, rank, succ


def test_winner_only_solver_matches_references():
    # `_strong_winners` against `solve_parity`, whose regions `check_strategy`
    # certifies by cycle search, and against the brute-force oracle on games
    # of at most 8 positions
    rng = SplitMix64(4711)
    for k in range(400):
        small = k % 2 == 0
        n = 1 + rng.below(8 if small else 200)
        owner, rank, succ = _random_int_game(rng, n, 3 if small else 1 + rng.below(12))
        g = game({f"p{v}": ("EA"[owner[v]], rank[v]) for v in range(n)},
                 [(f"p{v}", f"p{w}") for v in range(n) for w in succ[v]])
        sol = solve_parity(g)
        assert check_strategy(g, sol), g
        win = _strong_winners(_arena(owner, rank, succ))
        assert win[n:] == b"\x00\x01"  # the sinks
        assert {f"p{v}": "EA"[win[v]] for v in range(n)} == sol.winner, (owner, rank, succ)
        if small:
            assert brute_force_solve(g).winner == sol.winner, g


def test_arena_contract(monkeypatch):
    # `_arena` sends each dead end to the sink its owner loses, lists every
    # move's source in index order, and changes none of its inputs, so the
    # solvers that read the caller's lists after it still see the game
    built = []

    def recorded(g):
        arrays = _game_arrays(g)
        built.append((arrays, copy.deepcopy(arrays)))
        return arrays

    monkeypatch.setattr(games, "_game_arrays", recorded)
    rng = SplitMix64(1618)
    stuck = set()
    for _ in range(300):
        n = 1 + rng.below(10)
        owner, rank, succ = _random_int_game(rng, n, rng.below(6))
        before = copy.deepcopy((owner, rank, succ))
        a_owner, a_rank, a_succ, a_pred = _arena(owner, rank, succ)
        assert (owner, rank, succ) == before
        top = max(rank)
        assert a_owner[:n] == owner and a_rank[:n] == rank and a_owner[n:] == [0, 0]
        assert a_rank[n] % 2 == 0 and a_rank[n + 1] % 2 == 1 and min(a_rank[n:]) > top
        assert a_succ[n:] == [[n], [n + 1]]
        for v in range(n):
            if succ[v]:
                assert a_succ[v] == succ[v]
            else:  # Adam's dead ends move to the sink Eve wins, Eve's to Adam's
                stuck.add(owner[v])
                assert a_succ[v] == [n + 1 - owner[v]]
        assert a_pred == [[v for v, s in enumerate(a_succ) for x in s if x == w]
                          for w in range(n + 2)]
        for weak in (False, True):
            for p in range(n):
                eve_wins_arrays(owner, rank, succ, weak, p)
        assert (owner, rank, succ) == before
        g = game({f"p{v}": ("EA"[owner[v]], rank[v]) for v in range(n)},
                 [(f"p{v}", f"p{w}") for v in range(n) for w in succ[v]])
        solve_parity(g)
        solve_weak(Game(g.positions, g.edges, g.initial, "weak"))
    assert stuck == {0, 1}
    assert len(built) == 600
    for arrays, copied in built:
        assert arrays == copied


def _chain_winners(owner, rank):
    """Closed form for a chain with self-loops: the owner of position i may
    stay forever or move on, so it wins when its rank favours it or when it
    wins from position i + 1."""
    win = [0] * len(owner)
    nxt = None
    for i in range(len(owner) - 1, -1, -1):
        favoured = rank[i] % 2
        win[i] = owner[i] if owner[i] in (favoured, nxt) else favoured
        nxt = win[i]
    return win


@pytest.mark.parametrize("top_parity", [0, 1])
def test_winner_only_solver_on_the_chain(top_parity):
    # alternating owners, a self-loop and a move on at each position, and
    # distinct ranks descending along the chain; with its losing self-loops
    # dropped this takes milliseconds, and with them kept about half a second
    n = 2000
    owner = [i % 2 for i in range(n)]
    rank = [n + top_parity - i for i in range(n)]
    succ = [[i, i + 1] for i in range(n - 1)] + [[n - 1]]
    arena = _arena(owner, rank, succ)
    start = time.perf_counter()
    win = _strong_winners(arena)
    elapsed = time.perf_counter() - start
    assert list(win[:n]) == _chain_winners(owner, rank)
    assert elapsed < 0.25, elapsed


def test_brute_force_guard():
    positions = {f"p{i}": ("E", 0) for i in range(13)}
    g = game(positions, [(f"p{i}", f"p{i}") for i in range(13)])
    with pytest.raises(GameTooLarge):
        brute_force_solve(g)


def test_brute_force_on_trivial_games():
    g1 = game({"p": ("E", 0)}, [("p", "p")])
    assert brute_force_solve(g1).winner["p"] == "E"
    g2 = game({"p": ("E", 1)}, [("p", "p")])
    assert brute_force_solve(g2).winner["p"] == "A"


def _winner_by_replay(g: Game, sol, start: str) -> str:
    """Worst-case opponent replay; weak games may need the safe moves."""
    player = sol.winner[start]
    opponent = "A" if player == "E" else "E"
    succ = {p: g.successors(p) for p in g.positions}

    def plays(cur, trail):
        # returns True if every continuation satisfies `player`'s condition
        if cur in trail:
            idx = trail.index(cur)
            cycle = trail[idx:]
            if g.condition == "weak":
                top = max(g.positions[p][1] for p in trail)
            else:
                top = max(g.positions[p][1] for p in cycle)
            winner = "E" if top % 2 == 0 else "A"
            return winner == player
        owner = g.positions[cur][0]
        moves = succ[cur]
        if not moves:
            return (owner != player)
        if owner == player:
            nxt = sol.strategy.get(cur, sol.safe_moves.get(cur))
            if nxt is None:
                return False
            return plays(nxt, trail + [cur])
        return all(plays(m, trail + [cur]) for m in moves)

    return player if plays(start, []) else opponent


@pytest.mark.parametrize("condition", ["parity", "weak"])
def test_random_games_match_brute_force(condition):
    rng = SplitMix64(99 if condition == "parity" else 100)
    for _ in range(400):
        g = random_game(rng, condition=condition)
        fast = solve(g)
        slow = brute_force_solve(g)
        assert fast.winner == slow.winner, g
        assert check_strategy(g, fast), g


@pytest.mark.parametrize("condition", ["parity", "weak"])
def test_strategy_soundness_by_replay(condition):
    rng = SplitMix64(123)
    for _ in range(150):
        g = random_game(rng, max_positions=6, condition=condition)
        sol = solve(g)
        for p in g.positions:
            assert _winner_by_replay(g, sol, p) == sol.winner[p], g


def test_parity_strategy_stays_in_own_region():
    rng = SplitMix64(321)
    for _ in range(300):
        g = random_game(rng, condition="parity")
        sol = solve_parity(g)
        for p, t in sol.strategy.items():
            assert sol.winner[p] == sol.winner[t], g


def test_determinacy_every_position_has_one_winner():
    rng = SplitMix64(7)
    for _ in range(200):
        for condition in ("parity", "weak"):
            g = random_game(rng, condition=condition)
            sol = solve(g)
            assert set(sol.winner) == set(g.positions)
            assert all(w in ("E", "A") for w in sol.winner.values())


def test_weak_strong_agree_on_rank_monotone_games():
    rng = SplitMix64(17)
    found = 0
    while found < 120:
        g = random_game(rng, condition="parity")
        ranks = {p: r for p, (_, r) in g.positions.items()}
        if any(ranks[a] > ranks[b] for a, b in g.edges):
            continue
        found += 1
        strong = solve_parity(g)
        weak = solve_weak(Game(positions=g.positions, edges=g.edges,
                               initial=g.initial, condition="weak"))
        assert strong.winner == weak.winner, g


def test_weak_monotone_in_eve_ranks():
    # raising one Eve-owned position from odd to even never shrinks Eve's region
    rng = SplitMix64(27)
    checked = 0
    while checked < 120:
        g = random_game(rng, condition="weak")
        eve_odd = [p for p, (o, r) in g.positions.items() if o == "E" and r % 2 == 1]
        if not eve_odd:
            continue
        checked += 1
        p = sorted(eve_odd)[0]
        before = solve_weak(g).region("E")
        positions = dict(g.positions)
        positions[p] = ("E", positions[p][1] + 1)
        bumped = Game(positions=positions, edges=g.edges, initial=g.initial,
                      condition="weak")
        after = solve_weak(bumped).region("E")
        assert before <= after, (g, p)


@pytest.mark.parametrize("condition", ["parity", "weak"])
def test_membership_kernel_matches_full_solvers(condition):
    # the kernel on each game and on its all-Adam variant, which goes to
    # `_strong_winners` like every other strong game; `_accepts`' cycle
    # check is covered by the deterministic cases of
    # test_membership_matches_independent_solvers
    rng = SplitMix64(55 if condition == "parity" else 56)
    weak = condition == "weak"
    for _ in range(300):
        g = random_game(rng, max_positions=8, max_rank=5, condition=condition)
        all_adam = Game(positions={p: ("A", r) for p, (_, r) in g.positions.items()},
                        edges=g.edges, initial=g.initial, condition=condition)
        for h in (g, all_adam):
            sol = solve(h)
            owner, rank, succ, ids = _game_arrays(h)
            doubled = [s + s for s in succ]  # products may list a move twice
            for p, pid in enumerate(ids):
                eve = sol.winner[pid] == "E"
                assert eve_wins_arrays(owner, rank, succ, weak, position=p) == eve, (h, pid)
                assert eve_wins_arrays(owner, rank, doubled, weak, position=p) == eve, (h, pid)


def test_check_strategy_rejects_losing_choices():
    g = game({"p": ("E", 0), "q": ("E", 1)}, [("p", "p"), ("p", "q"), ("q", "q")])
    sol = solve_parity(g)
    assert sol.strategy == {"p": "p"} and check_strategy(g, sol)
    winner = sol.winner
    assert not check_strategy(g, Solution(winner, {"p": "q"}))  # walks into Adam's cycle
    assert not check_strategy(g, Solution(winner, {}))  # Eve left without a move
    assert not check_strategy(g, Solution({"p": "E", "q": "E"}, {"p": "p", "q": "q"}))
    assert not check_strategy(g, Solution({"p": "E"}, {"p": "p"}))  # q has no winner


def test_check_strategy_weak_needs_safe_moves():
    # Eve wins p (rank 2 is seen first) but loses q; passing through q she
    # must stay there rather than reach rank 3
    g = game({"p": ("A", 2), "q": ("E", 1), "s": ("E", 3)},
             [("p", "q"), ("q", "q"), ("q", "s"), ("s", "s")], condition="weak")
    sol = solve_weak(g)
    assert sol.winner == {"p": "E", "q": "A", "s": "A"}
    assert sol.safe_moves["q"] == "q" and check_strategy(g, sol)
    assert not check_strategy(g, Solution(sol.winner, sol.strategy,
                                          {**sol.safe_moves, "q": "s"}))
    safe = {p: t for p, t in sol.safe_moves.items() if p != "q"}
    assert not check_strategy(g, Solution(sol.winner, sol.strategy, safe))
    # read as a strong-parity game the same choices lose p: rank 1 repeats forever
    strong = game(g.positions, g.edges)
    assert solve_parity(strong).winner["p"] == "A"
    assert not check_strategy(strong, Solution(sol.winner, sol.strategy, sol.safe_moves))


def test_parse_game_fixture_format():
    g = parse_game("""
# tiny weak game
pos a E 2
pos b A 1
edge a b
edge b a
init a
condition weak
""")
    assert g.condition == "weak"
    assert solve_weak(g).winner["a"] == "E"


def test_parse_game_rejects_a_rank_that_is_not_a_number():
    with pytest.raises(FormatError, match="rank not a number: 'x'") as err:
        parse_game("pos a E 0\npos p E x\ninit a\n")
    assert err.value.line == 2


def test_parse_game_rejects_a_position_declared_twice():
    with pytest.raises(FormatError, match="position 'p' declared twice") as err:
        parse_game("pos p E 0\nedge p p\npos p A 1\ninit p\n")
    assert err.value.line == 3


@pytest.mark.parametrize("text, message, line", [
    ("pos a E 0\npos b A 1\nedge a a\ninit a\ninit b\n", "directive 'init' given twice", 5),
    ("pos a E 0\ninit a\ncondition weak\nedge a a\ncondition weak\n",
     "directive 'condition' given twice", 5),
])
def test_parse_game_rejects_a_header_given_twice(text, message, line):
    with pytest.raises(FormatError) as err:
        parse_game(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


@pytest.mark.parametrize("text, message", [
    ("pos a E 0\ninit a\ncondition buchi\n", "unknown condition 'buchi'"),
    ("pos a E 0\nedge a b\ninit a\n", "edge (a,b) leaves declared positions"),
    ("pos a E 0\ninit b\n", "initial position 'b' not declared"),
    ("pos a E -1\ninit a\n", "position a: negative rank"),
])
def test_parse_game_reports_the_constructors_errors_as_format_errors(text, message):
    with pytest.raises(FormatError) as err:
        parse_game(text)
    assert err.value.line is None and str(err.value) == message


WEAK = game({"a": ("E", 0)}, [("a", "a")], condition="weak")


@pytest.mark.parametrize("call, error, message", [
    (lambda: parse_game("pos a E 0\nbogus\ninit a\n"), FormatError, "line 2: bad game line 'bogus'"),
    (lambda: parse_game("pos a E 0\nedge a a\n"), FormatError, "missing section: init"),
    (lambda: game({"a": ("X", 0)}, []), ValidationError, "position a: bad owner 'X'"),
    (lambda: solve_parity(WEAK), ValidationError, "solve_parity expects condition parity"),
    (lambda: solve_weak(game(WEAK.positions, WEAK.edges)), ValidationError,
     "solve_weak expects condition weak"),
])
def test_game_input_errors(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


# sha256 of the weak layering's outputs, recorded before its rank buckets
# were built by one sort: `solve_weak` reprs on random weak games, and
# `eve_wins_arrays` from every position, which stops the layering early
WEAK_LAYERS_SHA256 = "4ef1e92374c6be670f510c78c4e055acfaa7f1beef988f8d699ea0f11ecad35c"


def test_weak_layering_outputs_are_pinned():
    rng = SplitMix64(4321)
    digest = hashlib.sha256()
    for _ in range(400):
        g = random_game(rng, max_positions=9, max_rank=5, condition="weak")
        digest.update(repr(solve_weak(g)).encode())
        owner, rank, succ, _ = _game_arrays(g)
        wins = [eve_wins_arrays(owner, rank, succ, True, v) for v in range(len(owner))]
        digest.update(bytes(wins))
    assert digest.hexdigest() == WEAK_LAYERS_SHA256


# sha256 of `solve_parity`'s winners and strategies, recorded while it ran
# on its own set-based Zielonka, before it shared the winner-only frame
PARITY_SOLUTIONS_SHA256 = "dde8c1c554fee238541f80407954b6994a4fa79ca87207ee93c43bc8da7ff59c"


def test_solve_parity_solutions_pinned():
    rng = SplitMix64(2718)
    digest = hashlib.sha256()
    for _ in range(600):
        sol = solve_parity(random_game(rng, max_positions=12, max_rank=7))
        digest.update(repr((sorted(sol.winner.items()), sorted(sol.strategy.items()))).encode())
    assert digest.hexdigest() == PARITY_SOLUTIONS_SHA256
