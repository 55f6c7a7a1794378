"""Command line front end.

Exit codes: 0 success or property true; 1 property false (non-member,
counterexample); 2 usage error; 3 invalid input; 4 unsupported
construction; 5 non-weakly-recognizable.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import catalog
from .automata import DetAutomaton, IndexPair
from .classifier import classify
from .errors import (
    FormatError,
    NonWeaklyRecognizable,
    UnsupportedGapConstruction,
    ValidationError,
    WeakIndexError,
)
from .formats import (
    _tokenized_lines,
    parse_automaton,
    parse_regular_tree,
    serialize_automaton,
    to_dot,
)
from .patterns import (
    find_flower,
    find_split,
    find_weak_flower,
    loop_ranks,
    replicated_set,
)
from .productivity import trim
from .semantics import SamplerParams, alt_accepts, bounded_equiv, skurczynski
from .formats import serialize_regular_tree
from .transforms import weaken

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_UNSUPPORTED = 4
EXIT_NON_WEAK = 5


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _load_automaton(path: str):
    return parse_automaton(_read(path))


def _load_det(path: str) -> DetAutomaton:
    a = _load_automaton(path)
    if not isinstance(a, DetAutomaton):
        raise ValidationError(
            "this command needs a deterministic automaton (flag line `deterministic`)")
    return a


def _write_out(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def cmd_classify(args) -> int:
    report = classify(_load_det(args.path))
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    else:
        sys.stdout.write(report.render(witnesses=args.witnesses))
    return EXIT_OK


def cmd_weaken(args) -> int:
    a = _load_det(args.path)
    try:
        out, trace = weaken(a)
    except UnsupportedGapConstruction as e:
        print(f"unsupported: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except NonWeaklyRecognizable as e:
        print(f"non-weakly-recognizable: {e}", file=sys.stderr)
        return EXIT_NON_WEAK
    _write_out(trace.render() + serialize_automaton(out), args.out)
    return EXIT_OK


def cmd_member(args) -> int:
    a = _load_automaton(args.automaton)
    t = parse_regular_tree(_read(args.tree))
    ok = alt_accepts(a, t)
    print("member" if ok else "non-member")
    return EXIT_OK if ok else EXIT_FALSE


def cmd_compare(args) -> int:
    a = _load_automaton(args.a)
    b = _load_automaton(args.b)
    params = SamplerParams(seed=args.seed, max_nodes=args.size,
                           alphabet=a.alphabet, count=args.samples)
    ce = bounded_equiv(a, b, params)
    if ce is None:
        print("pass")
        return EXIT_OK
    print("counterexample:")
    sys.stdout.write(serialize_regular_tree(ce))
    return EXIT_FALSE


def cmd_patterns(args) -> int:
    a = trim(_load_det(args.path))
    tops = loop_ranks(a)
    for q in sorted(tops):
        pretty = " ".join(str(r) for r in sorted(tops[q])) or "-"
        print(f"loop_tops {q}: {pretty}")
    for iota, kappa in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (1, 3)):
        i = IndexPair(iota, kappa)
        for kind, w in (("flower", find_flower(a, i)),
                        ("weak_flower", find_weak_flower(a, i))):
            if w is not None:
                print(f"{kind} {i}: {w.render()}")
    s = find_split(a)
    if s is not None:
        print(s.render())
    rep = replicated_set(a)
    if rep:
        print("replicated: " + " ".join(sorted(rep)))
    return EXIT_OK


def cmd_fixture(args) -> int:
    if args.kind == "skurczynski":
        try:
            iota, kappa = (int(x) for x in args.name.split(","))
        except ValueError:
            print("fixture skurczynski needs an index like 0,2", file=sys.stderr)
            return EXIT_USAGE
        a = skurczynski(IndexPair(iota, kappa))
    else:  # argparse admits only the two kinds
        try:
            a = catalog.get(args.name)
        except KeyError as e:
            print(str(e), file=sys.stderr)
            return EXIT_USAGE
    _write_out(serialize_automaton(a), args.out)
    return EXIT_OK


def cmd_dot(args) -> int:
    text = _read(args.path)
    # only the regular-tree format declares an arity
    is_tree = any(toks[0] == "arity" for _, toks in _tokenized_lines(text))
    obj = parse_regular_tree(text) if is_tree else parse_automaton(text)
    _write_out(to_dot(obj), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="weakindex",
        description="Borel rank and weak index toolkit for deterministic "
                    "parity tree automata")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="Borel class and all indices of an automaton")
    c.add_argument("path")
    c.add_argument("--witnesses", action="store_true", help="print pattern witnesses")
    c.add_argument("--json", action="store_true", help="machine-readable report")
    c.set_defaults(func=cmd_classify)

    w = sub.add_parser("weaken", help="construct the minimal-index weak automaton")
    w.add_argument("path")
    w.add_argument("--out", help="output file (default stdout)")
    w.set_defaults(func=cmd_weaken)

    m = sub.add_parser("member", help="does the automaton accept the regular tree")
    m.add_argument("automaton")
    m.add_argument("tree")
    m.set_defaults(func=cmd_member)

    cp = sub.add_parser("compare", help="bounded equivalence of two automata")
    cp.add_argument("a")
    cp.add_argument("b")
    cp.add_argument("--seed", type=int, default=42)
    cp.add_argument("--samples", type=int, default=200)
    cp.add_argument("--size", type=int, default=8)
    cp.set_defaults(func=cmd_compare)

    pt = sub.add_parser("patterns", help="loops, flowers, splits, replication")
    pt.add_argument("path")
    pt.set_defaults(func=cmd_patterns)

    f = sub.add_parser("fixture", help="emit a catalog or Skurczynski automaton")
    f.add_argument("kind", choices=["skurczynski", "catalog"])
    f.add_argument("name", help="catalog name, or an index like 0,2")
    f.add_argument("--out")
    f.set_defaults(func=cmd_fixture)

    d = sub.add_parser("dot", help="DOT export of an automaton or regular tree")
    d.add_argument("path")
    d.add_argument("--out")
    d.set_defaults(func=cmd_dot)
    return p


_parser = cache(build_parser)  # built on `main`'s first call, then reused


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except OSError as e:
        print(f"cannot open {e.filename}: {e.strerror}", file=sys.stderr)
        return EXIT_INVALID
    except UnicodeDecodeError as e:
        print(f"invalid input: not UTF-8 text ({e.reason} at byte {e.start})", file=sys.stderr)
        return EXIT_INVALID
    except (FormatError, ValidationError) as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return EXIT_INVALID
    except WeakIndexError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
