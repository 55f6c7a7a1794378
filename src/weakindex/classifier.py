"""Borel rank, deterministic index, weak deterministic index and weak
alternating index of a trimmed deterministic automaton.

The Borel ladder is decided from six pattern bits; the weak alternating
index is its image under the coincidence of the two hierarchies.  Both
relabelings (strong and weak-deterministic) work per strongly connected
component from achievable loop top ranks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .automata import (
    DetAutomaton,
    IndexPair,
    State,
    Transition,
    TreeAutomaton,
    UNIVERSAL,
)
from .errors import EmptyLanguage, ValidationError
from .patterns import (
    _condensation,
    find_flower,
    find_replicated_flower,
    find_split,
    find_weak_flower,
    loop_ranks,
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


def _minimal_level(bits: dict[str, bool]) -> BorelLevel:
    if bits["sigma0"]:
        return BorelLevel.SIGMA0
    if bits["pi0"]:
        return BorelLevel.PI0
    if bits["sigma1"] and bits["pi1"]:
        return BorelLevel.DELTA1
    if bits["sigma1"]:
        return BorelLevel.SIGMA1
    if bits["pi1"]:
        return BorelLevel.PI1
    if bits["sigma2"] and bits["pi2"]:
        return BorelLevel.DELTA2
    if bits["sigma2"]:
        return BorelLevel.SIGMA2
    if bits["pi2"]:
        return BorelLevel.PI2
    if bits["sigma3"]:
        return BorelLevel.DELTA3
    if bits["pi3"]:
        return BorelLevel.PI3
    return BorelLevel.NON_BOREL


def borel_rank(a: DetAutomaton) -> BorelClass:
    """Decision ladder over the six pattern characterisations."""
    if not is_trimmed(a):
        raise ValidationError("borel_rank expects a trimmed automaton")
    bits: dict[str, bool] = {}
    witnesses: dict[str, object] = {}
    bits["sigma0"] = False  # trimmed automata are nonempty by construction
    bits["pi0"] = is_universal(a)

    w = find_weak_flower(a, IndexPair(1, 2))
    bits["pi1"] = w is None
    if w is not None:
        witnesses["pi1"] = w
    w = find_weak_flower(a, IndexPair(0, 1))
    bits["sigma1"] = w is None
    if w is not None:
        witnesses["sigma1"] = w
    w = find_flower(a, IndexPair(0, 1))
    bits["pi2"] = w is None
    if w is not None:
        witnesses["pi2"] = w
    w = find_flower(a, IndexPair(1, 2))
    if w is None:
        w = find_replicated_flower(a, IndexPair(1, 2), weak=True)
    bits["sigma2"] = w is None
    if w is not None:
        witnesses["sigma2"] = w
    w = find_replicated_flower(a, IndexPair(0, 1), weak=False)
    bits["sigma3"] = w is None
    if w is not None:
        witnesses["sigma3"] = w
    w = find_split(a)
    bits["pi3"] = w is None
    if w is not None:
        witnesses["pi3"] = w
    return BorelClass(minimal=_minimal_level(bits), bits=bits, witnesses=witnesses)


# -- deterministic index --------------------------------------------------------


def _candidate_indices():
    level = 0
    while True:
        yield IndexPair(0, level)
        yield IndexPair(1, level + 1)
        level += 1


def _alternation_depth(tops: list[int], own: int) -> int:
    """Longest alternating chain of achievable tops starting at the state's
    own rank (the state must realize it)."""
    depth = 0
    need = own % 2
    for r in tops:
        if r < own:
            continue
        if depth == 0 and r != own:
            break
        if r % 2 == need:
            depth += 1
            need ^= 1
    return depth


def relabel_to(a: DetAutomaton, target: IndexPair) -> DetAutomaton:
    """Equivalent automaton with ranks inside the target band.

    Per SCC, a state's new rank reflects the longest alternating chain of
    loop top ranks starting at its own rank; the component's values are
    then shifted by an even amount to sit at the top of the band.  Sound
    because the parities of top ranks of all closed walks are preserved.
    """
    tops = loop_ranks(a)
    sccs, _, _ = _condensation(a)
    new_rank: dict[str, int] = {}
    for comp in sccs:
        realizer_depth = {}
        for q in comp:
            t_q = sorted(tops[q])
            if a.rank(q) in tops[q]:
                realizer_depth[q] = _alternation_depth(t_q, a.rank(q))
        if not realizer_depth:
            continue  # transient component, assigned below
        m = max(realizer_depth.values())
        pi = max(a.rank(q) for q in comp if tops[q]) % 2
        offset = 1 if m % 2 == pi else 0
        values = {}
        for q in comp:
            depth = realizer_depth.get(q, m)
            values[q] = offset + m - depth
        maxv = max(values.values())
        gap = target.kappa - maxv
        if gap < 0:
            raise ValidationError(f"target index {target} too small for component {comp}")
        shift = gap - (gap % 2)
        for q in comp:
            v = values[q] + shift
            if not (target.iota <= v <= target.kappa):
                raise ValidationError(f"relabeling fell outside {target} at {q}")
            new_rank[q] = v
    for comp in sccs:
        for q in comp:
            if q not in new_rank:
                new_rank[q] = target.iota
    states = {q: State(a.states[q].mode, new_rank[q]) for q in a.states}
    return DetAutomaton(
        alphabet=a.alphabet, states=states, initial=a.initial,
        transitions=a.transitions, acceptance="parity", name=a.name,
    )


def det_index(a: DetAutomaton) -> tuple[IndexPair, DetAutomaton]:
    """Minimal deterministic index: the least (iota,kappa) in the index
    order admitting no dual flower; plus the relabeled witness automaton."""
    if not is_trimmed(a):
        raise ValidationError("det_index expects a trimmed automaton")
    for cand in _candidate_indices():
        if find_flower(a, cand.dual()) is None:
            return cand, relabel_to(a, cand)
    raise AssertionError("unreachable: the automaton's own index is always admissible")


# -- weak deterministic index -----------------------------------------------------


def weak_det_index(a: DetAutomaton) -> Optional[tuple[IndexPair, TreeAutomaton]]:
    """Minimal weak-deterministic index with the rank-monotone relabeling.

    None when some SCC carries loops of both parities (weak flowers of
    every index exist).  Output acceptance is weak and ranks never
    decrease along transitions.
    """
    if not is_trimmed(a):
        raise ValidationError("weak_det_index expects a trimmed automaton")
    tops = loop_ranks(a)
    sccs, comp_of, edges = _condensation(a)
    caps: list[Optional[int]] = []  # loop parity per SCC, None = no loop
    for comp in sccs:
        parities = {r % 2 for q in comp for r in tops[q]}
        if len(parities) == 2:
            return None
        caps.append(next(iter(parities)) if parities else None)

    best = None
    for cand in _candidate_indices():
        if find_weak_flower(a, cand.dual()) is None:
            best = cand
            break
        if cand.kappa > len(sccs) + 2:
            raise AssertionError("unreachable: chain lengths are bounded by the SCC count")
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
    states = {q: State(UNIVERSAL, value[comp_of[q]]) for q in a.states}
    out = TreeAutomaton(
        alphabet=a.alphabet, states=states, initial=a.initial,
        transitions=a.transitions, acceptance="weak", name=a.name,
    )
    return best, out


# -- weak alternating index --------------------------------------------------------


_FIG4 = {
    BorelLevel.SIGMA0: ((1, 1),),
    BorelLevel.PI0: ((0, 0),),
    BorelLevel.DELTA1: ((0, 1), (1, 2)),
    BorelLevel.SIGMA1: ((1, 2),),
    BorelLevel.PI1: ((0, 1),),
    BorelLevel.DELTA2: ((0, 2), (1, 3)),
    BorelLevel.SIGMA2: ((1, 3),),
    BorelLevel.PI2: ((0, 2),),
    BorelLevel.DELTA3: ((0, 3), (1, 4)),
    BorelLevel.PI3: ((0, 3),),
}


def weak_alt_level(level: BorelLevel) -> Optional[frozenset[IndexPair]]:
    if level is BorelLevel.NON_BOREL:
        return None
    return frozenset(IndexPair(i, k) for i, k in _FIG4[level])


def weak_alt_index(a: DetAutomaton) -> Optional[frozenset[IndexPair]]:
    """Weak alternating index via the hierarchy coincidence; None means the
    language is non-Borel and not weakly recognizable."""
    return weak_alt_level(borel_rank(a).minimal)


# -- aggregation ---------------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationReport:
    name: str
    state_count: int
    borel: BorelClass
    det_index: IndexPair
    det_automaton: DetAutomaton
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
        lines.append(f"trim_seconds: {self.trim_seconds:.6f}")
        lines.append(f"classify_seconds: {self.classify_seconds:.6f}")
        if witnesses:
            for bit in BIT_NAMES:
                if bit in self.borel.witnesses:
                    w = self.borel.witnesses[bit]
                    lines.append(f"blocked {bit}: {w.render()}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        def pair(i: IndexPair):
            return [i.iota, i.kappa]

        witnesses = {}
        for bit, w in self.borel.witnesses.items():
            witnesses[bit] = w.to_dict()
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
            "witnesses": witnesses,
            "trim_seconds": self.trim_seconds,
            "classify_seconds": self.classify_seconds,
        }


def _empty_language_report(a: DetAutomaton, trim_seconds: float) -> ClassificationReport:
    bits = {b: True for b in BIT_NAMES}
    bits["pi0"] = False
    borel = BorelClass(minimal=BorelLevel.SIGMA0, bits=bits)
    states = {"r": State(UNIVERSAL, 1)}
    trans = tuple(Transition("r", letter, d, "r") for letter in a.alphabet for d in (0, 1))
    reject = DetAutomaton(alphabet=a.alphabet, states=states, initial="r",
                          transitions=trans, acceptance="parity", name="reject_all")
    weak_reject = TreeAutomaton(alphabet=a.alphabet, states=states, initial="r",
                                transitions=trans, acceptance="weak", name="reject_all")
    return ClassificationReport(
        name=a.name, state_count=len(a.states), borel=borel,
        det_index=IndexPair(1, 1), det_automaton=reject,
        weak_det=(IndexPair(1, 1), weak_reject),
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
    det = det_index(trimmed)
    weak_det = weak_det_index(trimmed)
    weak_alt = weak_alt_level(borel.minimal)
    classify_seconds = time.perf_counter() - t1
    return ClassificationReport(
        name=a.name, state_count=len(a.states), borel=borel,
        det_index=det[0], det_automaton=det[1],
        weak_det=weak_det, weak_alt=weak_alt,
        trimmed=trimmed, trim_seconds=trim_seconds, classify_seconds=classify_seconds,
    )
