"""Borel rank and weak index toolkit for deterministic parity tree automata."""

from .automata import (
    BOT,
    TOP,
    DetAutomaton,
    IndexPair,
    State,
    Transition,
    TreeAutomaton,
    dual_index,
    index_leq,
    index_of,
    make_automaton,
    normalize_ranks,
)
from .trees import Node, RegularTree, WTreeLabel, constant_tree, parse_wlabel
from .formats import (
    parse_automaton,
    parse_regular_tree,
    serialize_automaton,
    serialize_regular_tree,
    to_dot,
)
from .games import Game, Solution, brute_force_solve, parse_game, solve_parity, solve_weak
from .productivity import (
    ProductivityInfo,
    is_empty,
    is_universal,
    nonempty_states,
    productive_states,
    trim,
)
from .patterns import (
    FlowerWitness,
    Loop,
    ReplicationWitness,
    SplitWitness,
    brute_force_patterns,
    find_flower,
    find_replicated_flower,
    find_split,
    find_weak_flower,
    loop_ranks,
)
from .classifier import (
    BorelClass,
    ClassificationReport,
    borel_rank,
    classify,
    det_index,
    weak_alt_index,
    weak_det_index,
)
from .transforms import (
    ConstructionTrace,
    conjunction,
    restrict,
    weaken,
    weaken_02,
    weaken_13,
    weaken_14,
)
from .semantics import (
    SamplerParams,
    alt_accepts,
    bounded_equiv,
    det_accepts,
    run_reduction,
    sample_regular_tree,
    skurczynski,
    skurczynski_member_oracle,
    w_member,
)
from . import catalog

__all__ = [
    # automata
    "BOT", "TOP", "DetAutomaton", "IndexPair", "State", "Transition", "TreeAutomaton",
    "dual_index", "index_leq", "index_of", "make_automaton", "normalize_ranks",
    # trees
    "Node", "RegularTree", "WTreeLabel", "constant_tree", "parse_wlabel",
    # formats
    "parse_automaton", "parse_regular_tree", "serialize_automaton",
    "serialize_regular_tree", "to_dot",
    # games
    "Game", "Solution", "brute_force_solve", "parse_game", "solve_parity", "solve_weak",
    # productivity
    "ProductivityInfo", "is_empty", "is_universal", "nonempty_states",
    "productive_states", "trim",
    # patterns
    "FlowerWitness", "Loop", "ReplicationWitness", "SplitWitness", "brute_force_patterns",
    "find_flower", "find_replicated_flower", "find_split", "find_weak_flower", "loop_ranks",
    # classifier
    "BorelClass", "ClassificationReport", "borel_rank", "classify", "det_index",
    "weak_alt_index", "weak_det_index",
    # transforms
    "ConstructionTrace", "conjunction", "restrict", "weaken", "weaken_02", "weaken_13",
    "weaken_14",
    # semantics
    "SamplerParams", "alt_accepts", "bounded_equiv", "det_accepts", "run_reduction",
    "sample_regular_tree", "skurczynski", "skurczynski_member_oracle", "w_member",
]
