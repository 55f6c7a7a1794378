"""Ground-truth membership, the run-to-weak-game reduction, weak game
language membership, Skurczynski fixtures, sampling, bounded equivalence.

Membership of a regular tree in an automaton's language is decided on the
finite product of automaton and tree graph, solved under the automaton's
acceptance condition.  Automata enter it through their one numbering,
`automata._table`, from which `_view` derives the moves per state and
letter; trees enter it as int views (labels, children, root).
`bounded_equiv` indexes each tree once and runs both automata on that
view; it samples its trees as views and builds a `RegularTree` only for
the counterexample it returns.  The product search records each move's
predecessor as it finds the move, so a weak product is its own totalized
arena.  Every product position is reachable from the start, so a
deterministic run is decided by a cycle check with no reachability pass.
The run reduction folds the same product search into its tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .automata import (
    DetAutomaton,
    EXISTENTIAL,
    IndexPair,
    State,
    Transition,
    TreeAutomaton,
    UNIVERSAL,
    _table,
    index_of,
    normalize_ranks,
)
from .errors import ValidationError
from .games import (
    ADAM,
    EVE,
    Game,
    _solve_weak_layers,
    _strong_winners,
    _totalize,
    eve_wins_arrays,
)
from .graphs import _rank_cycles
from .rng import SplitMix64
from .trees import Node, RegularTree, parse_wlabel


# -- membership --------------------------------------------------------------


def _check_letters(a: TreeAutomaton, labels):
    bad = set(labels).difference(a.alphabet)
    if bad:
        raise ValidationError(f"tree labels outside alphabet: {sorted(bad)}")


def _check_labels(a: TreeAutomaton, t: RegularTree):
    _check_letters(a, t.labels())
    if t.arity != 2:
        raise ValidationError("automaton inputs are binary trees")


def _view(a: TreeAutomaton):
    """Membership's view of an automaton, on its `_table` numbering: (state
    index, moves by [state][letter] as (direction, target index) pairs in
    transition order, owner per state with 0 = Eve, rank per state).  Built
    once and kept in `a._memo`.
    """
    view = a._memo.get("membership_view")
    if view is None:
        _, index, rank, owner, target = _table(a)
        moves = [{x: [] for x in a.alphabet} for _ in index]
        for t, q in zip(a.transitions, target):
            moves[index[t.source]][t.letter].append((t.direction, q))
        view = a._memo["membership_view"] = (index, moves, owner, rank)
    return view


def _tree_view(t: RegularTree):
    """Int view of a tree: (labels, children, root) with nodes in sorted-name
    order, children[i] holding child indices."""
    names = sorted(t.nodes)
    nidx = {n: i for i, n in enumerate(names)}
    nodes = [t.nodes[n] for n in names]
    return ([node.label for node in nodes],
            [tuple(nidx[c] for c in node.children) for node in nodes],
            nidx[t.root])


def _tree_of(view) -> RegularTree:
    """The binary tree of a view, node i named `n{i}`."""
    labels, children, root = view
    return RegularTree(2, {f"n{i}": Node(label, (f"n{c0}", f"n{c1}"))
                           for i, (label, (c0, c1)) in enumerate(zip(labels, children))},
                       f"n{root}")


def _product_arrays(a: TreeAutomaton, view):
    """Product positions (state, node) reachable from (initial, root), as an
    int game (owner, rank, succ, pred) in breadth-first order.

    `pred` is recorded as each move is found, so `pred[w]` lists the
    sources of w's moves in index order, a move listed twice twice.
    Every position is reachable from position 0.  Positions are numbered
    in search order, so the game does not depend on how the view numbers
    its nodes.
    """
    sidx, moves, sowner, srank = _view(a)
    labels, children, root = view
    nn = len(labels)
    q0 = sidx[a.initial]
    indexmap = {q0 * nn + root: 0}  # position (state q, node v) has key q * nn + v
    states, nodes = [q0], [root]
    succ: list[list[int]] = []
    pred: list[list[int]] = [[]]
    for i, si in enumerate(states):  # breadth-first: `states` grows while it is read
        ni = nodes[i]
        out = []
        for d, qi in moves[si][labels[ni]]:
            n2 = ni if d is None else children[ni][d]
            code = qi * nn + n2
            j = indexmap.get(code)
            if j is None:
                j = indexmap[code] = len(states)
                states.append(qi)
                nodes.append(n2)
                pred.append([i])
            else:
                pred[j].append(i)
            out.append(j)
        succ.append(out)
    return [sowner[q] for q in states], [srank[q] for q in states], succ, pred


def _accepts(a: TreeAutomaton, view) -> bool:
    """Membership of the tree `view` in the language of `a`: one product
    search and a winner-only solve at position 0, as `eve_wins_arrays`
    decides it.

    Every position is reachable from position 0, so a product where Adam
    moves alone (every deterministic run) is a cycle check with no
    reachability pass; other products are totalized with the predecessor
    lists their search recorded.
    """
    owner, rank, succ, pred = _product_arrays(a, view)
    weak = a.acceptance == "weak"
    if not weak and 0 not in owner:
        return not any(_rank_cycles(range(len(succ)), succ, rank, 1))
    arena = _totalize(owner, rank, succ, pred)
    if weak:
        return _solve_weak_layers(arena)[0][0] == 0
    return _strong_winners(arena)[0] == 0


def alt_accepts(a: TreeAutomaton, t: RegularTree) -> bool:
    """Eve wins the acceptance game on the product of automaton and tree."""
    _check_labels(a, t)
    return _accepts(a, _tree_view(t))


def det_accepts(a: DetAutomaton, t: RegularTree) -> bool:
    """Deterministic membership: the unique run must have no reachable cycle
    with odd top rank; the product game is all-Adam."""
    _check_labels(a, t)
    return _accepts(a, _tree_view(t))


def product_game(a: TreeAutomaton, t: RegularTree) -> Game:
    """The acceptance game as a public Game value (inspection, tests)."""
    _check_labels(a, t)
    positions = {}
    edges = []
    seen = set()
    stack = [(a.initial, t.root)]
    while stack:
        q, v = stack.pop()
        if (q, v) in seen:
            continue
        seen.add((q, v))
        st = a.states[q]
        pid = f"{q}@{v}"
        positions[pid] = (EVE if st.mode == EXISTENTIAL else ADAM, st.rank)
        for d, q2 in a.moves(q, t.label(v)):
            v2 = v if d is None else t.child(v, d)
            edges.append((pid, f"{q2}@{v2}"))
            stack.append((q2, v2))
    return Game(positions=positions, edges=tuple(edges),
                initial=f"{a.initial}@{t.root}",
                condition=a.acceptance if a.acceptance in ("parity", "weak") else "parity")


# -- run reduction to weak game languages -------------------------------------


@dataclass(frozen=True)
class WInstance:
    """A weak-game-language instance: N-ary tree over owner:rank labels."""

    tree: RegularTree
    band: IndexPair


def run_reduction(a: TreeAutomaton, t: RegularTree) -> WInstance:
    """Fold the acceptance game of a weak automaton on t into an N-ary tree.

    Positions with missing moves are padded with self-looping children
    whose rank is the smallest rank of the owner's losing parity at or
    above the band top.  Such a pad dominates every rank a play can
    otherwise see, so taking it always loses for the owner: extra options
    are never attractive, and a dead end forces its owner into the pad,
    which is exactly the stuck rule.  The band may widen by one.  The game
    is `_product_arrays`' search, and its position i becomes node `n{i}`.
    """
    if a.acceptance != "weak":
        raise ValidationError("run_reduction expects weak acceptance")
    _check_labels(a, t)
    a = normalize_ranks(a)
    idx = index_of(a)
    iota, kappa = idx.iota, idx.kappa
    owner, rank, succ, _ = _product_arrays(a, _tree_view(t))
    arity = max(2, max(map(len, succ)))

    pads: dict[int, str] = {}
    nodes: dict[str, Node] = {}
    top_rank = kappa
    for i, (o, r, kids) in enumerate(zip(owner, rank, succ)):
        mode = "EA"[o]
        kids = [f"n{j}" for j in kids]
        if len(kids) < arity:
            pad = kappa if kappa % 2 == 1 - o else kappa + 1
            top_rank = max(top_rank, pad)
            if pad not in pads:
                pid = pads[pad] = f"pad_{mode}_{pad}"
                nodes[pid] = Node(f"{mode}:{pad}", (pid,) * arity)
            kids += [pads[pad]] * (arity - len(kids))
        nodes[f"n{i}"] = Node(f"{mode}:{r}", tuple(kids))
    return WInstance(tree=RegularTree(arity, nodes, "n0"), band=IndexPair(iota, top_rank))


def w_member(t: RegularTree, band: IndexPair) -> bool:
    """Eve wins the weak parity game read directly off the labeled tree graph."""
    labels, succ, root = _tree_view(t)
    owner, rank = [], []
    for i, label in enumerate(labels):
        lab = parse_wlabel(label)
        if not (band.iota <= lab.rank <= band.kappa):
            raise ValidationError(
                f"node {sorted(t.nodes)[i]} rank {lab.rank} outside band [{band.iota},{band.kappa}]")
        owner.append(0 if lab.owner == "E" else 1)
        rank.append(lab.rank)
    return eve_wins_arrays(owner, rank, succ, weak=True, position=root)


# -- Skurczynski fixtures ------------------------------------------------------


def _prefix_automaton(a: TreeAutomaton, prefix: str) -> TreeAutomaton:
    states = {prefix + s: st for s, st in a.states.items()}
    trans = tuple(Transition(prefix + t.source, t.letter, t.direction, prefix + t.target)
                  for t in a.transitions)
    return TreeAutomaton(alphabet=a.alphabet, states=states, initial=prefix + a.initial,
                         transitions=trans, acceptance=a.acceptance)


def _dualize(a: TreeAutomaton) -> TreeAutomaton:
    """Swap owners and shift ranks by one: recognizes the complement."""
    states = {s: State(EXISTENTIAL if st.mode == UNIVERSAL else UNIVERSAL, st.rank + 1)
              for s, st in a.states.items()}
    return TreeAutomaton(alphabet=a.alphabet, states=states, initial=a.initial,
                         transitions=a.transitions, acceptance=a.acceptance)


def skurczynski(index: IndexPair) -> TreeAutomaton:
    """Weak automaton for the canonical hard language of the given index.

    (0,1) accepts exactly the all-a tree; (1,n+1) is the complement of
    (0,n); (0,n+1) walks the leftmost path and spawns the (1,n+1) automaton
    into every right subtree.
    """
    if index.iota == 0:
        n = index.kappa
        if n < 1:
            raise ValidationError("skurczynski indices start at (0,1)")
        if n == 1:
            states = {
                "w": State(UNIVERSAL, 0),
                "rej": State(UNIVERSAL, 1),
            }
            trans = []
            for d in (0, 1):
                trans.append(Transition("w", "a", d, "w"))
                trans.append(Transition("w", "b", d, "rej"))
                for letter in ("a", "b"):
                    trans.append(Transition("rej", letter, d, "rej"))
            return TreeAutomaton(alphabet=("a", "b"), states=states, initial="w",
                                 transitions=tuple(trans), acceptance="weak",
                                 name=f"skurczynski_0_{n}")
        inner = _prefix_automaton(skurczynski(IndexPair(1, n)), "c_")
        states = dict(inner.states)
        states["spine"] = State(UNIVERSAL, 0)
        trans = list(inner.transitions)
        for letter in ("a", "b"):
            trans.append(Transition("spine", letter, 0, "spine"))
            trans.append(Transition("spine", letter, 1, inner.initial))
        return TreeAutomaton(alphabet=("a", "b"), states=states, initial="spine",
                             transitions=tuple(trans), acceptance="weak",
                             name=f"skurczynski_0_{n}")
    # (1, n+1) = complement of (0, n)
    n = index.kappa - 1
    if n < 1:
        raise ValidationError("skurczynski indices of the sigma side start at (1,2)")
    base = skurczynski(IndexPair(0, n))
    out = _dualize(base)
    return TreeAutomaton(alphabet=out.alphabet, states=out.states, initial=out.initial,
                         transitions=out.transitions, acceptance="weak",
                         name=f"skurczynski_1_{n + 1}")


def skurczynski_member_oracle(index: IndexPair, t: RegularTree) -> bool:
    """Direct recursive evaluation of the language definitions.

    On a regular tree the leftmost path cycles, so the family of right
    subtrees spawned along it is finite and the recursion terminates.
    """
    if t.arity != 2:
        raise ValidationError("oracle expects binary trees")
    if index.iota == 0 and index.kappa == 1:
        return all(t.nodes[n].label == "a" for n in t.nodes)
    if index.iota == 1:
        return not skurczynski_member_oracle(IndexPair(0, index.kappa - 1), t)
    # (0, n) with n >= 2: every right subtree along the leftmost path
    inner = IndexPair(1, index.kappa)
    node = t.root
    visited = set()
    while node not in visited:
        visited.add(node)
        right = t.child(node, 1)
        if not skurczynski_member_oracle(inner, t.rerooted(right)):
            return False
        node = t.child(node, 0)
    return True


# -- sampling ------------------------------------------------------------------


@dataclass(frozen=True)
class SamplerParams:
    seed: int
    max_nodes: int
    alphabet: tuple[str, ...]
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValidationError("count must be >= 1")
        if self.max_nodes < 1:
            raise ValidationError("max_nodes must be >= 1")
        if not self.alphabet:
            raise ValidationError("alphabet must be nonempty")


def _sample_views(p: SamplerParams):
    """The trees of `sample_regular_tree` as views; node i is the tree's `n{i}`.

    Node count is uniform in [1, max_nodes]; a random tree skeleton keeps
    every node reachable, remaining child slots are wired uniformly.  The
    free slots stay in (node, slot) order, so each skeleton step is a pop
    and two appends.
    """
    rng = SplitMix64(p.seed)
    letters = tuple(p.alphabet)
    for _ in range(p.count):
        k = 1 + rng.below(p.max_nodes)
        labels = [letters[rng.below(len(letters))] for _ in range(k)]
        children: list[list[int | None]] = [[None, None] for _ in range(k)]
        free = [(0, 0), (0, 1)]
        for j in range(1, k):
            i, s = free.pop(rng.below(len(free)))
            children[i][s] = j
            free += ((j, 0), (j, 1))
        for kids in children:
            for s in (0, 1):
                if kids[s] is None:
                    kids[s] = rng.below(k)
        yield labels, children, 0


def sample_regular_tree(p: SamplerParams) -> list[RegularTree]:
    """Deterministic pseudo-random binary regular trees (splitmix64 stream)."""
    return [_tree_of(v) for v in _sample_views(p)]


# -- bounded equivalence --------------------------------------------------------


def deterministic_battery(alphabet) -> list[RegularTree]:
    """All-constant trees plus single-letter perturbations near the root."""
    letters = sorted(set(alphabet))
    out = []
    for base in letters:
        nodes = {"n": Node(base, ("n", "n"))}
        out.append(RegularTree(2, nodes, "n"))
    paths = ["", "0", "1", "00", "01", "10", "11"]
    for base in letters:
        for other in letters:
            if other == base:
                continue
            for spot in paths:
                nodes = {"rest": Node(base, ("rest", "rest"))}
                for depth3 in ("", "0", "1", "00", "01", "10", "11"):
                    label = other if depth3 == spot else base
                    kids = []
                    for s in ("0", "1"):
                        ext = depth3 + s
                        kids.append("p" + ext if len(ext) <= 2 else "rest")
                    nodes["p" + depth3] = Node(label, tuple(kids))
                out.append(RegularTree(2, nodes, "p"))
    return out


def bounded_equiv(a: TreeAutomaton, b: TreeAutomaton, p: SamplerParams) -> Optional[RegularTree]:
    """Compare memberships on the fixed battery plus sampled trees.

    Each tree is indexed once and both automata run on that view.  Returns
    None on pass, or the first mismatching tree.
    """
    if set(a.alphabet) != set(b.alphabet):
        raise ValidationError("bounded_equiv needs a shared alphabet")
    for t in deterministic_battery(a.alphabet):
        view = _tree_view(t)
        if _accepts(a, view) != _accepts(b, view):
            return t
    for view in _sample_views(p):
        _check_letters(a, view[0])
        if _accepts(a, view) != _accepts(b, view):
            return _tree_of(view)
    return None
