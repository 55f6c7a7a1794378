"""Regular trees: finite rooted labeled graphs presenting infinite trees."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import ValidationError


_TOKEN = "a non-empty string free of whitespace and '#'"


def _is_token(x) -> bool:
    """Whether `x` is one token of the text formats: a non-empty string
    free of whitespace and `#`, so that it survives a round trip."""
    return isinstance(x, str) and "#" not in x and x.split() == [x]


class Node(NamedTuple):
    label: str
    children: tuple[str, ...]


@dataclass(frozen=True)
class RegularTree:
    """Finite graph presentation of an infinite N-ary labeled tree.

    Binary trees (arity 2) are automaton inputs; larger arities appear
    only as weak-game-language instances whose labels are `E:r` / `A:r`.
    Every node must be reachable from the root.  Node ids and labels are
    tokens (`_is_token`), so every tree serializes to text that parses back.
    """

    arity: int
    nodes: dict[str, Node]
    root: str

    def __post_init__(self):
        if type(self.arity) is not int:  # not a bool
            raise ValidationError(f"arity must be an integer, got {self.arity!r}")
        if self.arity < 2:
            raise ValidationError(f"arity must be >= 2, got {self.arity}")
        if self.root not in self.nodes:
            raise ValidationError(f"root {self.root!r} not declared")
        for nid, node in self.nodes.items():
            if not _is_token(nid):
                raise ValidationError(f"node id {nid!r} is not {_TOKEN}")
            if not isinstance(node, Node):
                raise ValidationError(f"node {nid!r} is not a Node(label, children): {node!r}")
            if not _is_token(node.label):
                raise ValidationError(f"node {nid!r}: label {node.label!r} is not {_TOKEN}")
            if len(node.children) != self.arity:
                raise ValidationError(
                    f"node {nid!r} has {len(node.children)} children, expected {self.arity}"
                )
            for c in node.children:
                if c not in self.nodes:
                    raise ValidationError(f"node {nid!r} references undeclared child {c!r}")
        seen = {self.root}
        stack = [self.root]
        while stack:
            for c in self.nodes[stack.pop()].children:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        unreachable = set(self.nodes) - seen
        if unreachable:
            raise ValidationError(f"unreachable nodes: {sorted(unreachable)}")

    def label(self, nid: str) -> str:
        return self.nodes[nid].label

    def child(self, nid: str, k: int) -> str:
        return self.nodes[nid].children[k]

    def labels(self) -> set[str]:
        return {n.label for n in self.nodes.values()}

    def rerooted(self, nid: str) -> "RegularTree":
        """Subtree rooted at nid, restricted to its reachable part."""
        keep = {nid}
        stack = [nid]
        while stack:
            for c in self.nodes[stack.pop()].children:
                if c not in keep:
                    keep.add(c)
                    stack.append(c)
        return RegularTree(self.arity, {k: self.nodes[k] for k in keep}, nid)


class WTreeLabel(NamedTuple):
    """Owner/rank pair labelling weak-game-language instances."""

    owner: str  # E or A
    rank: int


def parse_wlabel(label: str) -> WTreeLabel:
    if not isinstance(label, str):
        raise ValidationError(f"not an owner:rank label: {label!r}")
    parts = label.split(":")
    if len(parts) != 2 or parts[0] not in ("E", "A"):
        raise ValidationError(f"not an owner:rank label: {label!r}")
    try:
        rank = int(parts[1])
    except ValueError:
        raise ValidationError(f"not an owner:rank label: {label!r}") from None
    if rank < 0:
        raise ValidationError(f"negative rank in label {label!r}")
    return WTreeLabel(parts[0], rank)


def constant_tree(label: str, arity: int = 2) -> RegularTree:
    """The tree carrying one label everywhere."""
    return RegularTree(arity, {"n": Node(label, tuple("n" for _ in range(arity)))}, "n")
