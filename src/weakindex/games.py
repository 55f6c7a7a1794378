"""Finite two-player games under strong and weak parity conditions.

Ownership: Eve ('E') wins a strong-parity play when the highest rank
visited infinitely often is even, and a weak-parity play when the highest
rank visited at least once is even.  A player who cannot move loses.

`solve_parity` and `solve_weak` return full winning-region partitions with
positional strategies.  Dead ends are handled by one totalization,
`_arena`, which both solvers and the membership kernel `eve_wins_arrays`
run on: a stuck position gets a single edge to a self-looping sink whose
rank is a fresh value above every real rank, odd when the stuck owner is
Eve and even when it is Adam.  That encodes the dead-end rule for both
conditions at once.  `_arena` also builds the predecessor lists, and it
leaves the caller's lists as they are.  Trim's emptiness game builds no
arena: it is solved on the states of the deterministic table, with
Adam's (state, letter) pairs left implicit (`_table_attractor`).
Zielonka's strong solver is one generator frame, `_winners_frame`, run
on an explicit stack so its depth is not bounded by the interpreter's
recursion limit, which it leaves alone.  The frame takes its attractor:
`_remove_attractor` on an arena, `_table_attractor` on trim's table.
`_remove_attractor` is the one arena attractor: the frames, the
self-loop pre-pass and membership's liveness (`semantics._attract`, Eve's
attractor on an arena of states and letter slots) all run on it.  It
records strategies only for `solve_parity`, which passes it a list for
them.  `eve_wins_arrays`, which needs only the winners, uses
`_strong_winners`, which decides self-loops first and then runs the same
frames.  `_solve_frames` orders the first frame's positions by rank
buckets.
The weak layering, `_solve_weak_layers`, returns each rank's attractor
queue, which `solve_weak` reads its strategies off.  `check_strategy`
numbers the (position, rank) nodes of the plays a solution's strategies
allow and looks, in their loop components by top rank
(`graphs._loop_comps`), for a play they cannot win.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, takewhile

from .errors import FormatError, GameTooLarge, ValidationError
from .graphs import _loop_comps, _sccs

EVE = "E"
ADAM = "A"


@dataclass(frozen=True)
class Game:
    positions: dict[str, tuple[str, int]]  # id -> (owner, rank)
    edges: tuple[tuple[str, str], ...]
    initial: str
    condition: str = "parity"  # 'parity' | 'weak'

    def __post_init__(self):
        if self.initial not in self.positions:
            raise ValidationError(f"initial position {self.initial!r} not declared")
        if self.condition not in ("parity", "weak"):
            raise ValidationError(f"unknown condition {self.condition!r}")
        for pid, pos in self.positions.items():
            if not isinstance(pid, str):
                raise ValidationError(f"position id {pid!r} is not a string")
            try:
                owner, rank = pos
            except (TypeError, ValueError):
                raise ValidationError(
                    f"position {pid}: {pos!r} is not an (owner, rank) pair") from None
            if owner not in (EVE, ADAM):
                raise ValidationError(f"position {pid}: bad owner {owner!r}")
            if type(rank) is not int:  # not a bool
                raise ValidationError(f"position {pid}: rank {rank!r} is not an integer")
            if rank < 0:
                raise ValidationError(f"position {pid}: negative rank")
        for edge in self.edges:  # the first fault in the order given
            try:
                a, b = edge
            except (TypeError, ValueError):
                raise ValidationError(f"edge {edge!r} is not a pair of positions") from None
            if a not in self.positions or b not in self.positions:
                raise ValidationError(f"edge ({a},{b}) leaves declared positions")
        object.__setattr__(self, "edges", tuple(sorted(set(self.edges))))  # string ids: they sort

    def successors(self, pid: str) -> list[str]:
        return sorted(b for a, b in self.edges if a == pid)


@dataclass(frozen=True)
class Solution:
    """Winner per position plus positional strategies.

    `strategy` holds, for each non-dead-end position owned by its winner,
    the chosen successor.  For weak games `safe_moves` additionally holds
    a damage-limiting move for positions whose owner loses them: weak
    conditions are not prefix-independent, so a winning play may traverse
    the opponent's fresh-start region and the owner still needs a sound
    move there.
    """

    winner: dict[str, str]
    strategy: dict[str, str]
    safe_moves: dict[str, str] = field(default_factory=dict)

    def region(self, player: str) -> set[str]:
        return {p for p, w in self.winner.items() if w == player}


def _arena(owner: list[int], rank: list[int], succ: list[list[int]]):
    """The totalized int arena (owner, rank, succ, pred) of a game, the one
    both solvers and the membership kernel run on.

    Positions n and n+1 are the self-looping sinks Eve and Adam win, ranked
    a fresh even and odd value above every real rank, and a dead end moves
    to the sink its owner loses.  `pred[w]` lists the sources of w's moves
    in index order, a move listed twice twice.  The outer lists are new, so
    the caller's lists are not changed.
    """
    n = len(owner)
    top = max(rank, default=0)
    succ = succ + [[n], [n + 1]]
    pred: list[list[int]] = [[] for _ in succ]
    for v, s in enumerate(succ):
        if not s:
            s = succ[v] = [n if owner[v] else n + 1]
        for w in s:
            pred[w].append(v)
    return owner + [0, 0], rank + [top + 2 - (top % 2), top + 1 + (top % 2)], succ, pred


def _remove_attractor(arena, player: int, targets, inside: bytearray, strat=None) -> list[int]:
    """Attractor of `targets` for `player` within the subgame marked 1 in
    `inside`.  The attracted positions are marked 0, removed from the
    subgame, and returned.

    While it runs, attracted positions are marked 2; a position of the
    opponent counts its successors still in the subgame, attracted ones
    included, when it is first reached, and is attracted when every one of
    them has been (a move listed twice counts twice).  Given a list
    `strat`, each position of `player` pulled in gets its smallest
    successor already attracted there.
    """
    owner, _, succ, pred = arena
    queue = list(targets)
    for v in queue:
        inside[v] = 2
    live: dict[int, int] = {}
    for v in queue:  # the queue grows while it is read
        for u in pred[v]:
            if inside[u] != 1:
                continue
            if owner[u] != player:
                left = live.get(u)
                if left is None:
                    left = sum(1 for w in succ[u] if inside[w])
                live[u] = left = left - 1
                if left:
                    continue
            elif strat is not None:
                # choose the edge before marking u, so a self-loop cannot
                # pose as progress toward the target
                strat[u] = min(w for w in succ[u] if inside[w] == 2)
            inside[u] = 2
            queue.append(u)
    for v in queue:
        inside[v] = 0
    return queue


def _table_attractor(table, player: int, targets, inside: bytearray, strat=None) -> list[int]:
    """Attractor of the states `targets` for `player` in the emptiness game
    of a deterministic table, within the subgame marked 1 in `inside`.
    The attracted positions are marked 0, removed from the subgame, and
    returned.

    `table` is (width, rank, target, pred): the n states are Eve's
    positions, ranked `rank`, and Adam's positions, the pairs, are left
    implicit.  Pair j = q·|Sigma| + x is state q's move on letter x, is
    marked at `inside[n + j]` and has the rank of q; it moves to
    `target[2j]` and `target[2j + 1]`, its only predecessor is q, and
    `pred[w]` lists the indices i into `target` that enter state w (pair
    i >> 1, state i // width).  A pair is in the subgame when its state is
    and its mark is 1, so a state's pairs leave and come back with it.
    Eve takes a state once both moves of one of its open pairs are taken
    (a move out of the subgame is not counted).  Adam takes a pair once
    one of its moves is taken, and a state once all of its open pairs are
    taken; a pair he takes from a state that stays is returned as n + j.
    Trim needs no strategies, so `strat` is not read.
    """
    width, _, target, pred = table
    n, k = len(pred), width >> 1
    queue = list(targets)
    for v in queue:
        inside[v] = 2
    live: dict[int, int] = {}
    taken: list[int] = []
    for w in queue:  # the queue grows while it is read
        for i in pred[w]:
            q, j = i // width, n + (i >> 1)
            if inside[q] != 1 or inside[j] != 1:
                continue
            if player:
                inside[j] = 2
                taken.append(j)
                left = live.get(q)
                if left is None:
                    lo = n + q * k
                    left = inside.count(1, lo, lo + k)  # open pairs besides j
                else:
                    left -= 1
                live[q] = left
            else:
                left = live.get(j)
                if left is None:
                    e = i & -2
                    left = (inside[target[e]] != 0) + (inside[target[e + 1]] != 0)
                live[j] = left = left - 1
            if left:
                continue
            inside[q] = 2
            queue.append(q)
    for v in queue:
        inside[v] = 0
    for j in taken:  # a pair of a taken state leaves with it
        if inside[(j - n) // k]:
            inside[j] = 0
            queue.append(j)
        else:
            inside[j] = 1
    return queue


def _winners_frame(arena, attract, win: bytearray, inside: bytearray, positions: list[int],
                   strat=None):
    """Zielonka's algorithm on the subgame `positions`, as one generator frame.

    The subgame is exactly the positions marked 1 in `inside` when the
    frame starts, and again when it ends; `positions` lists them by
    descending rank, so the top-rank positions come first, in index order.
    `attract` is the attractor for the arena's kind: `_remove_attractor`,
    or `_table_attractor` on trim's table, whose implicit pairs `positions`
    leaves out; whatever an attractor returns, pairs included, the frame
    restores and writes winners for.
    It yields each smaller subgame, having marked it, and resumes once
    that subgame's winners are in `win`; it writes the winner of each of
    its own positions there.  Given a list `strat`, it also writes a move
    there for every position its owner wins, possibly over the move of a
    subgame it has since given up.
    """
    rank = arena[1]
    d = rank[positions[0]]
    sigma = d % 2  # the player favoured by rank d
    top = list(takewhile(lambda v: rank[v] == d, positions))
    attr = attract(arena, sigma, top, inside, strat)
    rest = [v for v in positions if inside[v]]
    if rest:
        yield rest
    for v in attr:
        inside[v] = 1
        win[v] = sigma
    lost = sorted(v for v in rest if win[v] != sigma)  # index order fixes the recorded moves
    if not lost:
        if strat is not None:
            owner, succ = arena[0], arena[2]
            for v in top:
                if owner[v] == sigma:
                    strat[v] = min(w for w in succ[v] if inside[w])
        return
    attr = attract(arena, 1 - sigma, lost, inside, strat)
    rest = [v for v in positions if inside[v]]
    if rest:
        yield rest
    for v in attr:
        inside[v] = 1
        win[v] = 1 - sigma


def _solve_frames(arena, attract, win: bytearray, inside: bytearray, strat=None) -> None:
    """Solve the subgame marked 1 in `inside` by `_winners_frame`s on the
    attractor `attract`, run on an explicit stack, writing its winners into
    `win` (and its moves into `strat`, if given).

    The first frame's positions, those `arena[1]` ranks, are dealt into
    one bucket per rank in index order, and the buckets are read in
    descending rank: the order of a stable sort by descending rank,
    without a keyed sort."""
    rank = arena[1]
    buckets: dict[int, list[int]] = {}
    for v in compress(range(len(rank)), inside):
        bucket = buckets.get(rank[v])
        if bucket is None:
            buckets[rank[v]] = [v]
        else:
            bucket.append(v)
    rest = [v for r in sorted(buckets, reverse=True) for v in buckets[r]]
    stack = [_winners_frame(arena, attract, win, inside, rest, strat)] if rest else []
    while stack:
        try:
            sub = next(stack[-1])
        except StopIteration:
            stack.pop()
        else:
            stack.append(_winners_frame(arena, attract, win, inside, sub, strat))


def _strong_winners(arena) -> bytearray:
    """Winner of every position of a strong-parity arena with no dead ends
    (as `_arena` builds it), 0 being Eve; no strategies are built.  It
    serves `eve_wins_arrays`; trim solves its game on its table instead.

    Self-loops are decided first, as Friedmann and Lange do: a position
    whose self-loop has its owner's parity is won by its owner, who can
    stay there forever, and one whose only move is a self-loop of the
    other parity is lost by its owner.  Any other self-loop of its owner's
    losing parity is dropped, since taking it gains its owner nothing.
    The self-loops are found by one comprehension over the positions
    below the two sinks, whose self-loops the frames decide, and the
    arena's lists are copied only if there is one.  The attractors of the
    decided positions are removed, and `_solve_frames` solves the rest.
    """
    owner, rank, succ, pred = arena
    size = len(owner)
    loops = [v for v, s in zip(range(size - 2), succ) if v in s]
    if loops:
        succ, pred = list(succ), list(pred)  # only the lists of dropped self-loops change
    decided: tuple[list[int], list[int]] = ([], [])
    for v in loops:
        parity = rank[v] % 2
        moves = [w for w in succ[v] if w != v]
        if owner[v] == parity or not moves:
            decided[parity].append(v)
        else:
            succ[v] = moves
            pred[v] = [u for u in pred[v] if u != v]
    arena = (owner, rank, succ, pred)
    win = bytearray(size)
    inside = bytearray(b"\x01") * size
    for player in (0, 1):
        targets = [v for v in decided[player] if inside[v]]
        for v in _remove_attractor(arena, player, targets, inside):
            win[v] = player
    _solve_frames(arena, _remove_attractor, win, inside)
    return win


def _game_arrays(g: Game):
    """(owner, rank, succ, ids) of a game, positions indexed in sorted id order."""
    ids = sorted(g.positions)
    index = {pid: i for i, pid in enumerate(ids)}
    n = len(ids)
    owner = [0] * n
    rank = [0] * n
    succ: list[list[int]] = [[] for _ in range(n)]
    for pid, (o, r) in g.positions.items():
        owner[index[pid]] = 0 if o == EVE else 1
        rank[index[pid]] = r
    for a, b in g.edges:
        succ[index[a]].append(index[b])
    return owner, rank, succ, ids


def _solve_weak_layers(arena, stop=None):
    """Descending-rank attractor layering for the weak condition, no strategies.

    The arena is `_arena`'s: `solve_weak` and `eve_wins_arrays` build it.
    Membership products of automata with an existential state and a rank
    vector that never decreases along a move come here through
    `eve_wins_arrays`: weak automata on their expansion, and strong ones
    on their cycle ranks, on which the weak condition accepts the runs the
    strong one does.  Those of automata with no existential state never
    do: `semantics` decides them by its nested search, on no product.
    Positions wait in one bucket per rank; the highest rank with positions
    left is attracted for the player of its parity, and each position
    counts its successors not yet removed (a move listed twice counts
    twice), so the opponent is attracted when that count drops to zero.

    Returns (layer, queues) over the arena's positions.  layer[v] is the
    rank whose attractor removed v, and its parity is v's winner (0 is
    Eve); layers are peeled in descending order, so the subgame current at
    layer d is the positions with layer <= d.  queues[d] is rank d's
    attractor queue, the ranks in descending order: its head is the rank-d
    positions not yet removed, in index order, and the positions it pulls
    in follow in the order they joined.

    With a position `stop`, the layering returns as soon as `stop` gets
    its layer: only stop's entries are final then, and they are the ones
    the full layering gives.
    """
    owner, rank, succ, pred = arena
    if stop is None:
        stop = stop_rank = -1  # no position or rank is negative
    else:
        stop_rank = rank[stop]
    # one bucket per rank, made before the positions are dealt out
    buckets: dict[int, list[int]] = {r: [] for r in sorted(set(rank), reverse=True)}
    for v, r in enumerate(rank):
        buckets[r].append(v)
    live = list(map(len, succ))
    layer = [-1] * len(owner)
    queues: dict[int, list[int]] = {}
    for d, bucket in buckets.items():  # descending ranks
        queues[d] = queue = [v for v in bucket if layer[v] < 0]
        sigma = d % 2
        for v in queue:
            layer[v] = d
        if d == stop_rank:
            return layer, queues
        for v in queue:  # the queue grows while it is read
            for u in pred[v]:
                if layer[u] >= 0:
                    continue
                if owner[u] != sigma:
                    live[u] -= 1
                    if live[u]:
                        continue
                layer[u] = d
                if u == stop:
                    return layer, queues
                queue.append(u)
    return layer, queues


def solve_parity(g: Game) -> Solution:
    """Solve a strong-parity game by Zielonka's attractor decomposition."""
    if g.condition != "parity":
        raise ValidationError("solve_parity expects condition parity")
    owner, rank, succ, ids = _game_arrays(g)
    n = len(ids)
    win, strat = bytearray(n + 2), [0] * (n + 2)
    _solve_frames(_arena(owner, rank, succ), _remove_attractor, win, bytearray(b"\x01") * (n + 2),
                  strat)
    # a move into a sink is a dead end's
    return Solution(winner={pid: EVE if win[v] == 0 else ADAM for v, pid in enumerate(ids)},
                    strategy={ids[v]: ids[strat[v]] for v in range(n)
                              if win[v] == owner[v] and strat[v] < n})


def solve_weak(g: Game) -> Solution:
    """Solve a weak-parity game by descending-rank attractor layering.

    Strategies are read off the layering's attractor queues, the two
    sinks dropped.  A position of the layer's player pulled in by the
    attractor moves to its smallest successor that joined the queue
    before it.  Every other position moves to its
    smallest successor in its own layer, or else to its smallest
    successor in the subgame current at that layer; for a position whose
    owner loses it, that move is the safe move.
    """
    if g.condition != "weak":
        raise ValidationError("solve_weak expects condition weak")
    owner, rank, succ, ids = _game_arrays(g)
    n = len(ids)
    layer, queues = _solve_weak_layers(_arena(owner, rank, succ))
    strategy: dict[str, str] = {}
    safe_moves: dict[str, str] = {}
    for d, queue in queues.items():
        sigma = d % 2
        members = [v for v in queue if v < n]  # the two sinks dropped
        joined: set[int] = set()
        pulled = []
        for v in members:
            if owner[v] == sigma and rank[v] < d:
                pulled.append(v)
                strategy[ids[v]] = ids[min(w for w in succ[v] if w in joined)]
            joined.add(v)
        for v in sorted(set(members).difference(pulled)):
            if not succ[v]:
                continue
            inside = [w for w in succ[v] if layer[w] <= d]
            t = min((w for w in inside if layer[w] == d), default=min(inside))
            (strategy if owner[v] == sigma else safe_moves)[ids[v]] = ids[t]
    return Solution(winner={pid: EVE if layer[i] % 2 == 0 else ADAM for i, pid in enumerate(ids)},
                    strategy=strategy, safe_moves=safe_moves)


def eve_wins_arrays(owner: list[int], rank: list[int], succ: list[list[int]],
                    weak: bool, position: int = 0) -> bool:
    """Membership kernel: does Eve win from `position`?  Winner only.

    owner: 0 = Eve, 1 = Adam per position; succ holds successor indices.
    Dead ends follow the usual rule (stuck owner loses).  The game is
    totalized by `_arena`; weak games are peeled by `_solve_weak_layers`,
    which stops once `position` has its layer, and strong games go to
    `_strong_winners`, whose only caller this is.
    """
    arena = _arena(owner, rank, succ)
    if weak:
        return _solve_weak_layers(arena, position)[0][position] % 2 == 0
    return _strong_winners(arena)[position] == 0


def check_strategy(g: Game, sol: Solution) -> bool:
    """Independent check that a solution's strategies win where it says.

    For each player, the plays from its winning region are those where
    it follows its fixed positional choices (`strategy`, else
    `safe_moves`) and the opponent moves freely.  The check passes iff
    the player never has to move without a legal fixed choice and no
    reachable cycle has a top rank of the opponent's parity.  In weak
    games each position is paired with the highest rank seen so far, so
    the top of a cycle is the highest rank of its play.
    """
    if set(sol.winner) != set(g.positions):
        return False
    succ: dict[str, list[str]] = {p: [] for p in g.positions}
    for a, b in g.edges:
        succ[a].append(b)
    weak = g.condition == "weak"
    for player, opp_parity in ((EVE, 1), (ADAM, 0)):
        starts = [(p, r) for p, (_, r) in g.positions.items() if sol.winner[p] == player]
        graph: dict[tuple[str, int], list[tuple[str, int]]] = {}
        stack = list(starts)
        while stack:
            node = stack.pop()
            if node in graph:
                continue
            p, seen = node
            moves = succ[p]
            if g.positions[p][0] == player:
                choice = sol.strategy.get(p, sol.safe_moves.get(p))
                if choice not in moves:
                    return False
                moves = [choice]
            graph[node] = [(w, max(seen, g.positions[w][1]) if weak else g.positions[w][1])
                           for w in moves]
            stack.extend(graph[node])
        num = {node: i for i, node in enumerate(graph)}
        isucc = [[num[w] for w in ws] for ws in graph.values()]
        if any(r % 2 == opp_parity
               for _, r, _ in _loop_comps(isucc, _sccs(isucc), [node[1] for node in graph])):
            return False
    return True


def solve(g: Game) -> Solution:
    return solve_parity(g) if g.condition == "parity" else solve_weak(g)


# -- brute force oracle ---------------------------------------------------


def _play_outcome(g: Game, succ_choice: dict[str, str], start: str,
                  owners: dict[str, str], ranks: dict[str, str], weak: bool) -> str:
    """Winner of the unique play from start under fixed positional choices."""
    seen_at: dict[str, int] = {}
    path: list[str] = []
    cur = start
    while True:
        if cur in seen_at:
            cycle = path[seen_at[cur]:]
            if weak:
                top = max(ranks[p] for p in path)
            else:
                top = max(ranks[p] for p in cycle)
            return EVE if top % 2 == 0 else ADAM
        seen_at[cur] = len(path)
        path.append(cur)
        nxt = succ_choice.get(cur)
        if nxt is None:
            return ADAM if owners[cur] == EVE else EVE  # stuck owner loses
        cur = nxt


def brute_force_solve(g: Game) -> Solution:
    """Oracle: enumerate positional strategies for both players.

    Justified by positional determinacy of both conditions.  Guarded to
    at most 12 positions.
    """
    if len(g.positions) > 12:
        raise GameTooLarge(f"{len(g.positions)} positions exceeds the guard of 12")
    owners = {p: o for p, (o, _) in g.positions.items()}
    ranks = {p: r for p, (_, r) in g.positions.items()}
    succ = {p: g.successors(p) for p in g.positions}
    weak = g.condition == "weak"

    def strategies(player: str):
        slots = [p for p in sorted(g.positions) if owners[p] == player and succ[p]]
        def expand(i, acc):
            if i == len(slots):
                yield dict(acc)
                return
            p = slots[i]
            for t in succ[p]:
                acc[p] = t
                yield from expand(i + 1, acc)
            del acc[p]
        yield from expand(0, {})

    eve_strats = list(strategies(EVE))
    adam_strats = list(strategies(ADAM))

    def winset(cands, opposing, player):
        best_set: set[str] = set()
        best_strat: dict[str, str] = {}
        union: set[str] = set()
        for mine in cands:
            won = set(g.positions)
            for theirs in opposing:
                choice = {**mine, **theirs}
                won = {p for p in won
                       if _play_outcome(g, choice, p, owners, ranks, weak) == player}
                if not won:
                    break
            union |= won
            if len(won) > len(best_set):
                best_set, best_strat = won, mine
        return union, best_set, best_strat

    eve_union, eve_best, eve_strat = winset(eve_strats, adam_strats, EVE)
    adam_union, adam_best, adam_strat = winset(adam_strats, eve_strats, ADAM)
    if eve_best != eve_union or adam_best != adam_union:
        raise AssertionError("uniform positional determinacy violated")
    if eve_union & adam_union or eve_union | adam_union != set(g.positions):
        raise AssertionError("determinacy violated")
    winner = {p: (EVE if p in eve_union else ADAM) for p in g.positions}
    strategy = {}
    for p, t in eve_strat.items():
        if p in eve_union:
            strategy[p] = t
    for p, t in adam_strat.items():
        if p in adam_union:
            strategy[p] = t
    return Solution(winner=winner, strategy=strategy)


# -- fixture format --------------------------------------------------------


def parse_game(text: str) -> Game:
    positions: dict[str, tuple[str, int]] = {}
    edges: list[tuple[str, str]] = []
    header: dict[str, str] = {}  # the init and condition lines
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == "pos" and len(toks) == 4 and toks[2] in (EVE, ADAM):
            try:
                rank = int(toks[3])
            except ValueError:
                raise FormatError(f"rank not a number: {toks[3]!r}", ln) from None
            if toks[1] in positions:
                raise FormatError(f"position {toks[1]!r} declared twice", ln)
            positions[toks[1]] = (toks[2], rank)
        elif toks[0] == "edge" and len(toks) == 3:
            edges.append((toks[1], toks[2]))
        elif toks[0] in ("init", "condition") and len(toks) == 2:
            if toks[0] in header:
                raise FormatError(f"directive {toks[0]!r} given twice", ln)
            header[toks[0]] = toks[1]
        else:
            raise FormatError(f"bad game line {line!r}", ln)
    if "init" not in header:
        raise FormatError("missing section: init")
    try:
        return Game(positions=positions, edges=tuple(edges), initial=header["init"],
                    condition=header.get("condition", "parity"))
    except ValidationError as e:
        raise FormatError(str(e)) from e
