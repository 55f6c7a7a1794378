"""Borel rank, deterministic index, weak deterministic index and weak
alternating index of a trimmed deterministic automaton.

The Borel class is decided from the universality bit and six pattern
checks; the weak alternating index is its image under the coincidence of
the two hierarchies.  Both deterministic indices are read off the longest
alternating chains of loop top ranks, through one pivot for the strong
index and along the condensation for the weak one, without building
witnesses.  The strong relabeling works per strongly connected component
from the same chains; the weak one gives each component the loop parity
it carries, capped by its successors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from .automata import DetAutomaton, IndexPair, State, TreeAutomaton, UNIVERSAL, _one_state
from .errors import EmptyLanguage, ValidationError
from .patterns import (
    _chain_dp,
    _flower,
    _greedy_chain,
    _replicated_flower,
    _split,
    _tops,
    _view,
    _weak_flower,
)
from .productivity import is_trimmed, is_universal, trim


class BorelLevel(Enum):
    SIGMA0 = "Sigma^0_0"
    PI0 = "Pi^0_0"
    DELTA1 = "Delta^0_1"
    SIGMA1 = "Sigma^0_1"
    PI1 = "Pi^0_1"
    DELTA2 = "Delta^0_2"
    SIGMA2 = "Sigma^0_2"
    PI2 = "Pi^0_2"
    DELTA3 = "Delta^0_3"  # equals Sigma^0_3 for deterministic languages
    PI3 = "Pi^0_3"
    NON_BOREL = "non-Borel"

    def __str__(self):
        return self.value


BIT_NAMES = ("sigma0", "pi0", "sigma1", "pi1", "sigma2", "pi2", "sigma3", "pi3")


@dataclass(frozen=True)
class BorelClass:
    """Minimal Borel class plus the full membership bits and the pattern
    witnesses backing each negative bit."""

    minimal: BorelLevel
    bits: dict[str, bool]
    witnesses: dict[str, object] = field(default_factory=dict)

    def __str__(self):
        return str(self.minimal)


_LEVELS = (  # level, the bits placing a language there, its weak indices (Fig. 4)
    (BorelLevel.SIGMA0, ("sigma0",), ((1, 1),)),
    (BorelLevel.PI0, ("pi0",), ((0, 0),)),
    (BorelLevel.DELTA1, ("sigma1", "pi1"), ((0, 1), (1, 2))),
    (BorelLevel.SIGMA1, ("sigma1",), ((1, 2),)),
    (BorelLevel.PI1, ("pi1",), ((0, 1),)),
    (BorelLevel.DELTA2, ("sigma2", "pi2"), ((0, 2), (1, 3))),
    (BorelLevel.SIGMA2, ("sigma2",), ((1, 3),)),
    (BorelLevel.PI2, ("pi2",), ((0, 2),)),
    (BorelLevel.DELTA3, ("sigma3",), ((0, 3), (1, 4))),
    (BorelLevel.PI3, ("pi3",), ((0, 3),)),
)


def _minimal_level(bits: dict[str, bool]) -> BorelLevel:
    """The first level of the ladder whose bits all hold."""
    return next((level for level, need, _ in _LEVELS if all(bits[b] for b in need)),
                BorelLevel.NON_BOREL)


def _ladder(a: DetAutomaton) -> tuple[dict[str, bool], dict[str, Callable[[], object]]]:
    """The decision ladder over the six pattern characterisations: the
    bits, decided on loop-top masks and chain lengths, and for each pattern
    bit that fails the call that builds its witness."""
    if not is_trimmed(a):
        raise ValidationError("borel_rank expects a trimmed automaton")
    blocked = {
        "pi1": _weak_flower(a, IndexPair(1, 2)),
        "sigma1": _weak_flower(a, IndexPair(0, 1)),
        "pi2": _flower(a, IndexPair(0, 1), range(len(a.states))),
        "sigma2": (_flower(a, IndexPair(1, 2), range(len(a.states)))
                   or _replicated_flower(a, IndexPair(1, 2), weak=True)),
        "sigma3": _replicated_flower(a, IndexPair(0, 1), weak=False),
        "pi3": _split(a),
    }
    # trimmed automata are nonempty by construction
    bits = {"sigma0": False, "pi0": is_universal(a)}
    bits.update((bit, build is None) for bit, build in blocked.items())
    return bits, {bit: build for bit, build in blocked.items() if build is not None}


def borel_rank(a: DetAutomaton) -> BorelClass:
    """The decision ladder, and the witness backing each negative bit."""
    bits, blocked = _ladder(a)
    return BorelClass(minimal=_minimal_level(bits), bits=bits,
                      witnesses={bit: build() for bit, build in blocked.items()})


# -- deterministic index --------------------------------------------------------


def _least_index(chain0: int, chain1: int) -> IndexPair:
    """First index in the order (0,0), (1,1), (0,1), (1,2), ... whose dual
    has no flower, given the longest alternating chains of loop tops that
    start at an even and at an odd top.

    The dual of (0,k) needs a chain of k+1 tops starting odd, and the dual
    of (1,k+1) one of k+1 tops starting even.
    """
    k = min(chain0, chain1)
    return IndexPair(0, k) if chain1 <= chain0 else IndexPair(1, k + 1)


def _relabel_component(a: DetAutomaton, comp: list[int], target: IndexPair) -> dict[int, int]:
    """New ranks inside `target` for one SCC (state indices) that carries a loop.

    A state whose own rank tops a loop through it gets as depth the longest
    alternating chain of its loop tops from that rank upward; the others
    take the component's largest depth.  Values count down from there and
    are shifted by an even amount to sit at the top of the band.
    """
    v = _view(a)
    tops = _tops(a).loop
    depth = {}
    for i in comp:
        own = v.level[i]  # the bit of i's own rank; higher bits are higher ranks
        if tops[i] >> own & 1:
            depth[i] = len(_greedy_chain(v, tops[i] >> own << own, v.rank[i] % 2))
    m = max(depth.values())
    pi = max(v.rank[i] for i in comp if tops[i]) % 2
    offset = 1 if m % 2 == pi else 0
    values = {i: offset + m - depth.get(i, m) for i in comp}
    gap = target.kappa - max(values.values())
    if gap < 0:
        raise ValidationError(f"target index {target} too small for component "
                              f"{[v.ids[i] for i in comp]}")
    shift = gap - (gap % 2)
    ranks = {}
    for i in comp:
        r = values[i] + shift
        if not (target.iota <= r <= target.kappa):
            raise ValidationError(f"relabeling fell outside {target} at {v.ids[i]}")
        ranks[i] = r
    return ranks


def relabel_to(a: DetAutomaton, target: IndexPair) -> DetAutomaton:
    """Equivalent automaton with ranks inside the target band.

    Per SCC, a state's new rank reflects the longest alternating chain of
    loop top ranks starting at its own rank; the component's values are
    then shifted by an even amount to sit at the top of the band.  Sound
    because the parities of top ranks of all closed walks are preserved.
    States outside every loop take the band's lowest rank.
    """
    v = _view(a)
    new_rank = dict.fromkeys(range(len(v.ids)), target.iota)
    for comp, loops in zip(v.sccs, _tops(a).scc):
        if any(loops):
            new_rank.update(_relabel_component(a, comp, target))
    return a.with_states({q: State(st.mode, new_rank[v.index[q]])
                          for q, st in a.states.items()})


def _det_index(a: DetAutomaton) -> IndexPair:
    """`det_index`'s index alone.  A strong flower is a chain of loop tops
    through one pivot, so it follows from the longest such chains over all
    states."""
    v, tops = _view(a), set(_tops(a).loop)
    return _least_index(*(max(len(_greedy_chain(v, m, b)) for m in tops) for b in (0, 1)))


def det_index(a: DetAutomaton) -> tuple[IndexPair, DetAutomaton]:
    """Minimal deterministic index: the least (iota,kappa) in the index
    order admitting no dual flower; plus the relabeled witness automaton."""
    if not is_trimmed(a):
        raise ValidationError("det_index expects a trimmed automaton")
    index = _det_index(a)
    return index, relabel_to(a, index)


# -- weak deterministic index -----------------------------------------------------


def weak_det_index(a: DetAutomaton) -> Optional[tuple[IndexPair, TreeAutomaton]]:
    """Minimal weak-deterministic index with the rank-monotone relabeling.

    None when some SCC carries loops of both parities (weak flowers of
    every index exist).  Otherwise a weak flower is a chain of loops along
    the condensation, and the index follows from the longest such chains.
    Output acceptance is weak and ranks never decrease along transitions.
    """
    if not is_trimmed(a):
        raise ValidationError("weak_det_index expects a trimmed automaton")
    view = _view(a)
    sccs, scc_of, edges = view.sccs, view.scc_of, view.edges
    caps: list[Optional[int]] = []  # loop parity per SCC, None = no loop
    for loops in _tops(a).scc:
        parities = [b for b in (0, 1) if loops[b] is not None]
        if len(parities) == 2:
            return None
        caps.append(parities[0] if parities else None)

    g, _ = _chain_dp(a)  # never INF here; -INF (no such chain) counts as 0
    best = _least_index(*(max([0] + [gc[b] for gc in g]) for b in (0, 1)))
    iota, kappa = best.iota, best.kappa

    value: list[Optional[int]] = [None] * len(sccs)
    for ci in range(len(sccs) - 1, -1, -1):
        cap = kappa
        for cj in edges[ci]:
            cap = min(cap, value[cj])
        if caps[ci] is None:
            value[ci] = cap
        else:
            v = cap if cap % 2 == caps[ci] else cap - 1
            if v < iota:
                raise ValidationError("weak relabeling fell below the band")
            value[ci] = v
    states = {q: State(UNIVERSAL, value[scc_of[view.index[q]]]) for q in a.states}
    out = TreeAutomaton(
        alphabet=a.alphabet, states=states, initial=a.initial,
        transitions=a.transitions, acceptance="weak", name=a.name,
    )
    return best, out


# -- weak alternating index --------------------------------------------------------


def weak_alt_level(level: BorelLevel) -> Optional[frozenset[IndexPair]]:
    return next((frozenset(IndexPair(i, k) for i, k in indices)
                 for lv, _, indices in _LEVELS if lv is level), None)


def weak_alt_index(a: DetAutomaton) -> Optional[frozenset[IndexPair]]:
    """Weak alternating index via the hierarchy coincidence; None means the
    language is non-Borel and not weakly recognizable."""
    return weak_alt_level(_minimal_level(_ladder(a)[0]))


# -- aggregation ---------------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationReport:
    name: str
    state_count: int
    borel: BorelClass
    det_index: IndexPair  # `det_index(trimmed)` also gives the relabeled automaton
    weak_det: Optional[tuple[IndexPair, TreeAutomaton]]
    weak_alt: Optional[frozenset[IndexPair]]
    trimmed: Optional[DetAutomaton]
    trim_seconds: float
    classify_seconds: float

    def render(self, witnesses: bool = False) -> str:
        lines = []
        if self.name:
            lines.append(f"automaton: {self.name}")
        lines.append(f"states: {self.state_count}")
        lines.append(f"borel: {self.borel.minimal}")
        lines.append(f"det_index: {self.det_index}")
        lines.append("weak_det_index: " + (str(self.weak_det[0]) if self.weak_det else "none"))
        if self.weak_alt is None:
            lines.append("weak_alt_index: non-weakly-recognizable")
        else:
            pretty = " ".join(str(i) for i in sorted(self.weak_alt, key=lambda x: (x.iota, x.kappa)))
            lines.append(f"weak_alt_index: {pretty}")
        if witnesses:
            lines += [f"blocked {bit}: {self.borel.witnesses[bit].render()}"
                      for bit in BIT_NAMES if bit in self.borel.witnesses]
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        def pair(i: IndexPair):
            return [i.iota, i.kappa]

        return {
            "name": self.name,
            "states": self.state_count,
            "borel": str(self.borel.minimal),
            "bits": dict(self.borel.bits),
            "det_index": pair(self.det_index),
            "weak_det_index": pair(self.weak_det[0]) if self.weak_det else None,
            "weak_alt_index": (
                sorted(pair(i) for i in self.weak_alt) if self.weak_alt is not None
                else "non-weakly-recognizable"
            ),
            "witnesses": {bit: w.to_dict() for bit, w in self.borel.witnesses.items()},
            "trim_seconds": self.trim_seconds,
            "classify_seconds": self.classify_seconds,
        }


def _empty_language_report(a: DetAutomaton, trim_seconds: float) -> ClassificationReport:
    bits = {b: True for b in BIT_NAMES}
    bits["pi0"] = False
    borel = BorelClass(minimal=BorelLevel.SIGMA0, bits=bits)
    return ClassificationReport(
        name=a.name, state_count=len(a.states), borel=borel, det_index=IndexPair(1, 1),
        weak_det=(IndexPair(1, 1), _one_state(a.alphabet, "r", 1, "reject_all")),
        weak_alt=frozenset({IndexPair(1, 1)}),
        trimmed=None, trim_seconds=trim_seconds, classify_seconds=0.0,
    )


def classify(a: DetAutomaton) -> ClassificationReport:
    """Trim, then decide the Borel class and all three indices.

    The trim cost (one emptiness game) is reported separately from the
    classification proper.
    """
    t0 = time.perf_counter()
    try:
        trimmed = trim(a)
    except EmptyLanguage:
        return _empty_language_report(a, time.perf_counter() - t0)
    trim_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    borel = borel_rank(trimmed)
    det = _det_index(trimmed)
    weak_det = weak_det_index(trimmed)
    weak_alt = weak_alt_level(borel.minimal)
    classify_seconds = time.perf_counter() - t1
    return ClassificationReport(
        name=a.name, state_count=len(a.states), borel=borel, det_index=det,
        weak_det=weak_det, weak_alt=weak_alt,
        trimmed=trimmed, trim_seconds=trim_seconds, classify_seconds=classify_seconds,
    )
