"""Seeded inputs, timed ops and output checks for the benchmark workloads.

`WORKLOADS[name](seed, size, workdir, probe)` builds a workload's inputs
from the seed and returns its list of `Op`s.  A pass runs every op once,
in order, closed loop with one client.  `Op.prepare` builds the op's input
fresh and is not timed, `Op.run` is the timed call, and `Op.check`
verifies the output and returns a one-line verdict; the verdicts of a pass
make its digest.  A failed check raises `CheckFailed`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from typing import Any, Callable

from weakindex import catalog, classifier, cli, games, semantics, transforms
from weakindex.automata import DetAutomaton, State, Transition, index_of, make_automaton
from weakindex.classifier import BorelLevel, weak_alt_level
from weakindex.errors import (
    EmptyLanguage,
    IndexTooHigh,
    NonWeaklyRecognizable,
    PreconditionViolated,
    UnsupportedGapConstruction,
    ValidationError,
)
from weakindex.formats import serialize_automaton
from weakindex.games import Game
from weakindex.graphs import condensation
from weakindex.productivity import trim
from weakindex.rng import SplitMix64

LETTERS = ("a", "b")
C9_RANKS = (0, 0, 0, 0, 1, 1, 2, 2, 2, 3)  # criterion 9's scale generator
PI2_RANKS = (1, 2)
# criterion 5's stream: each automaton draws one rank band
RANK_STYLES = ((0, 1, 2, 3), (1, 2), (0, 1), (0, 1, 2), (2, 3), (0,), (1, 2, 3))
LADDER_IMPLICATIONS = (
    ("pi1", "pi2"), ("pi2", "pi3"),
    ("sigma1", "sigma2"), ("sigma2", "sigma3"),
    ("sigma1", "pi2"), ("pi1", "sigma2"), ("sigma3", "pi3"),
)


class CheckFailed(Exception):
    pass


class StaleInput(Exception):
    """An op's input already carries memoized analyses (`a._memo`), so the
    op would time cache hits instead of the analysis."""


@dataclass
class Op:
    kind: str
    prepare: Callable[[], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], str]


def expect(cond, what):
    if not cond:
        raise CheckFailed(what)


def require_fresh(*automata):
    for a in automata:
        if a is not None and a._memo:
            raise StaleInput(f"input {a.name or a.initial!r} carries "
                             f"{len(a._memo)} memo entries")


def fresh_copy(a):
    """Same automaton as a new object with an empty memo."""
    return type(a)(alphabet=a.alphabet, states=a.states, initial=a.initial,
                   transitions=a.transitions, acceptance=a.acceptance, name=a.name)


def short_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sub_rng(seed: int, stream: int) -> SplitMix64:
    return SplitMix64(seed * 64 + stream)


# -- generators ---------------------------------------------------------------


def random_det(rng, n, ranks) -> DetAutomaton:
    names = [f"q{i}" for i in range(n)]
    states = {q: State("A", ranks[rng.below(len(ranks))]) for q in names}
    trans = [Transition(q, x, d, names[rng.below(n)])
             for q in names for x in LETTERS for d in (0, 1)]
    return DetAutomaton(alphabet=LETTERS, states=states, initial="q0",
                        transitions=tuple(trans), acceptance="parity")


def nonempty(draw):
    """Rejection-sample `draw()` through trim: (automaton, trimmed)."""
    while True:
        a = draw()
        try:
            return a, trim(a)
        except EmptyLanguage:
            continue


def trimmed_stream(rng, count, max_states=5):
    """Criterion 5's stream: small trimmed automata over mixed rank bands."""
    out = []
    while len(out) < count:
        ranks = RANK_STYLES[rng.below(len(RANK_STYLES))]
        a = random_det(rng, 1 + rng.below(max_states), ranks)
        try:
            out.append(trim(a))
        except EmptyLanguage:
            continue
    return out


def first_letter_picks() -> DetAutomaton:
    """Delta^0_3: the root's letter picks, for the leftmost path below it,
    infinitely many b (after a) or finitely many b (after b).  Neither the
    random streams nor the catalog reach this level, where weaken applies
    the (1,4) construction."""
    trans = [("r", "a", 0, "q1"), ("r", "b", 0, "s0")]
    for q in ("q1", "q2"):
        trans += [(q, "a", 0, "q1"), (q, "b", 0, "q2")]
    for q in ("s0", "s1"):
        trans += [(q, "a", 0, "s0"), (q, "b", 0, "s1")]
    trans = [(q, x, 0, t) for q, x, _, t in trans] + [(q, x, 1, "T") for q, x, _, _ in trans]
    trans += [("T", x, d, "T") for x in LETTERS for d in (0, 1)]
    ranks = {"r": 0, "q1": 1, "q2": 2, "s0": 0, "s1": 1, "T": 0}
    return make_automaton(LETTERS, {q: ("A", r) for q, r in ranks.items()}, "r", trans,
                          deterministic=True, name="first_letter_picks")


def fixed_pool():
    """The catalog and `first_letter_picks`, trimmed: every Borel level the
    weakening dispatch handles, apart from the empty language."""
    pool = [catalog.get(name) for name in sorted(catalog.CATALOG)]
    return [trim(a) for a in pool + [first_letter_picks()]]


def loopy_sccs(a):
    succ = {q: sorted({t.target for t in a.transitions if t.source == q}) for q in a.states}
    sccs, _, _ = condensation(sorted(a.states), succ)
    return [c for c in sccs if len(c) > 1 or c[0] in succ[c[0]]]


def weaken_14_bound(a) -> int:
    """Criterion 3's budget for the (1,4) construction."""
    n = len(a.states)
    return 1 + sum(2 * len(x) ** 2 + 7 * n for x in loopy_sccs(a))


# -- classification and weakening checks ----------------------------------------


def check_report(report) -> str:
    """Witnesses verify on the trimmed automaton, the Borel bits obey the
    ladder, and the weak alternating index follows the hierarchy
    coincidence.  Returns the verdict line."""
    if report.trimmed is not None:
        for bit, w in sorted(report.borel.witnesses.items()):
            try:
                w.verify(report.trimmed)
            except ValidationError as e:
                raise CheckFailed(f"witness for {bit} does not verify: {e}") from e
    bits = report.borel.bits
    for lo, hi in LADDER_IMPLICATIONS:
        expect(not bits[lo] or bits[hi], f"ladder {lo} -> {hi} broken: {bits}")
    expect(report.weak_alt == weak_alt_level(report.borel.minimal),
           "weak_alt_index breaks the hierarchy coincidence")
    weak_det = report.weak_det[0] if report.weak_det else None
    weak_alt = sorted(str(i) for i in report.weak_alt) if report.weak_alt else None
    return (f"{report.borel.minimal} det={report.det_index} weak_det={weak_det} "
            f"weak_alt={weak_alt} blocked={sorted(report.borel.witnesses)}")


WEAKEN_SHAPES = {
    BorelLevel.DELTA2: ("relabel_12_then_weaken_02", lambda m: 2 * m + 1),
    BorelLevel.PI2: ("relabel_12_then_weaken_02", lambda m: 2 * m + 1),
    BorelLevel.SIGMA2: ("relabel_01_then_weaken_13", lambda m: 3 * m + 1),
    BorelLevel.SIGMA0: ("empty_language", lambda m: 1),
    BorelLevel.PI0: ("universal_language", lambda m: 1),
}


def check_weaken(report, result) -> str:
    """The weakening outcome matches the Borel level and its state budget."""
    level = report.borel.minimal
    if level is BorelLevel.PI3:
        expect(isinstance(result, UnsupportedGapConstruction), f"{level}: got {result!r}")
        return "unsupported (0,3)"
    if level is BorelLevel.NON_BOREL:
        expect(isinstance(result, NonWeaklyRecognizable), f"{level}: got {result!r}")
        return "non-weakly-recognizable"
    expect(isinstance(result, tuple), f"{level}: weaken raised {result!r}")
    out, trace = result
    expect(out.acceptance == "weak", "weaken output is not weak")
    size = len(out.states)
    expect(trace.output_states == size, "trace misreports the output size")
    m = len(report.trimmed.states) if report.trimmed is not None else 0
    if level in WEAKEN_SHAPES:
        how, budget = WEAKEN_SHAPES[level]
        expect(trace.construction == how, f"{level}: construction {trace.construction}")
        expect(size == budget(m), f"{how}: {size} states, budget {budget(m)}")
    elif level is BorelLevel.DELTA3:
        expect(trace.construction == "weaken_14", f"{level}: {trace.construction}")
        expect(size <= weaken_14_bound(report.trimmed), f"weaken_14: {size} states over budget")
    else:
        expect(trace.construction.startswith("weak_det_relabel_"),
               f"{level}: construction {trace.construction}")
        expect(size == m, f"weak_det relabel: {size} states for {m}")
    return f"{trace.construction} {size} {short_hash(serialize_automaton(out))}"


# -- cli_large ------------------------------------------------------------------


class CliProbe:
    """Stands in for the names `classify` and `weaken` inside the cli module.

    It refuses inputs that carry memo entries and keeps the last
    classification report, whose witness objects the checks verify.  The
    library functions are looked up on each call, so a tracer installed
    later still sees them.
    """

    def __init__(self):
        self.report = None
        self._saved = None

    def __enter__(self):
        self._saved = (cli.classify, cli.weaken)
        cli.classify, cli.weaken = self.classify, self.weaken
        return self

    def __exit__(self, *exc):
        cli.classify, cli.weaken = self._saved

    def classify(self, a):
        require_fresh(a)
        self.report = classifier.classify(a)
        return self.report

    def weaken(self, a):
        require_fresh(a)
        return transforms.weaken(a)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def setup_cli_large(seed, size, workdir, probe):
    """Non-Borel inputs from the criterion-9 generator, and Pi^0_2 inputs
    using only ranks 1 and 2, written as files for the command line."""
    inputs = []
    for stream, kind, ranks in ((1, "nonborel", C9_RANKS), (2, "pi2", PI2_RANKS)):
        rng, n = sub_rng(seed, stream), size[f"{kind}_states"]
        for _ in range(size[kind]):
            inputs.append((kind, *nonempty(lambda: random_det(rng, n, ranks))))
    ops = []
    for k, (kind, a, trimmed) in enumerate(inputs):
        path = workdir / f"{kind}{k}.aut"
        path.write_text(serialize_automaton(a), encoding="utf-8")
        ops.append(_cli_classify_op(str(path), kind, probe))
        ops.append(_cli_weaken_op(str(path), kind, len(trimmed.states)))
    return ops


def _cli_classify_op(path, kind, probe):
    level = BorelLevel.NON_BOREL if kind == "nonborel" else BorelLevel.PI2

    def run(_):
        probe.report = None
        return run_cli(["classify", path, "--json"])

    def check(_, out):
        code, stdout, stderr = out
        expect(code == 0, f"classify exit {code}: {stderr.strip()}")
        report = probe.report
        expect(json.loads(stdout) == json.loads(json.dumps(report.to_json_dict())),
               "--json disagrees with the report")
        expect(report.borel.minimal is level, f"{kind} input classified {report.borel.minimal}")
        return "classify " + check_report(report)

    return Op("classify", lambda: None, run, check)


def _cli_weaken_op(path, kind, trimmed_states):
    def run(_):
        return run_cli(["weaken", path])

    def check(_, out):
        code, stdout, stderr = out
        if kind == "nonborel":
            expect(code == 5, f"weaken of a non-Borel input exit {code}")
            expect("non-weakly-recognizable" in stderr, "exit 5 without its message")
            return "weaken exit 5"
        expect(code == 0, f"weaken exit {code}: {stderr.strip()}")
        expect("# construction: relabel_12_then_weaken_02" in stdout, "wrong construction")
        states = sum(1 for line in stdout.splitlines() if line.startswith("state "))
        expect(states == 2 * trimmed_states + 1,
               f"weaken_02 output {states} states for {trimmed_states} trimmed")
        return f"weaken exit 0 {states} {short_hash(stdout)}"

    return Op("weaken", lambda: None, run, check)


# -- small_stream ------------------------------------------------------------------


def weaken_or_refusal(a):
    try:
        return transforms.weaken(a)
    except (UnsupportedGapConstruction, NonWeaklyRecognizable) as e:
        return e


def restrict_ok(w, r) -> bool:
    """Lemma 1's budget: (kappa-iota+1)*n states, ranks never decreasing."""
    return len(r.states) == index_of(w).ranks_used() * len(w.states) and r.is_restricted()


def setup_small_stream(seed, size, workdir, probe):
    """Classify, then weaken, the fixed pool and each automaton of
    criterion 5's stream, and restrict each weak automaton that set-up's
    own weakening gives."""
    ops = []
    for a in fixed_pool() + trimmed_stream(sub_rng(seed, 3), size["stream"]):
        last = {}  # the latest classification of `a`, for the weaken check

        def classify_run(x, last=last):
            last["report"] = classifier.classify(x)
            return last["report"]

        def weaken_check(_, result, last=last):
            expect("report" in last, "no classification to check the weakening against")
            return "weaken " + check_weaken(last["report"], result)

        ops.append(Op("classify", lambda a=a: fresh_copy(a), classify_run,
                      lambda _, r: "classify " + check_report(r)))
        ops.append(Op("weaken", lambda a=a: fresh_copy(a), weaken_or_refusal, weaken_check))
        weakened = weaken_or_refusal(a)
        if isinstance(weakened, tuple):
            def restrict_check(w, r):
                expect(restrict_ok(w, r), f"restrict: {len(r.states)} states off the budget")
                return f"restrict {len(r.states)} {short_hash(serialize_automaton(r))}"

            ops.append(Op("restrict", lambda w=weakened[0]: fresh_copy(w),
                          lambda w: transforms.restrict(w), restrict_check))
    return ops


# -- equiv_battery -------------------------------------------------------------------


def _pairs(a):
    """(kind, input, output, size ok) for each construction that applies to
    `a`, and for restrict on the output of weaken."""
    n = len(a.states)
    out = []
    for kind, build, budget, skip in (
            ("weaken_02", transforms.weaken_02, lambda o: len(o.states) == 2 * n + 1,
             (IndexTooHigh,)),
            ("weaken_13", transforms.weaken_13, lambda o: len(o.states) == 3 * n + 1,
             (IndexTooHigh, PreconditionViolated)),
            ("weaken_14", lambda x: transforms.weaken_14(x)[0],
             lambda o: len(o.states) <= weaken_14_bound(a), (PreconditionViolated,)),
            ("weaken", lambda x: transforms.weaken(x)[0], lambda o: True,
             (UnsupportedGapConstruction, NonWeaklyRecognizable))):
        try:
            o = build(a)
        except skip:
            continue
        out.append((kind, a, o, budget(o)))
        if kind == "weaken":
            r = transforms.restrict(o)
            out.append(("restrict", o, r, restrict_ok(o, r)))
    return out


def trimmed_of_size(rng, n):
    """A stream automaton (rank band drawn as in criterion 5's stream) whose
    trimmed form has exactly n states."""
    while True:
        ranks = RANK_STYLES[rng.below(len(RANK_STYLES))]
        try:
            a = trim(random_det(rng, n, ranks))
        except EmptyLanguage:
            continue
        if len(a.states) == n:
            return a


def setup_equiv_battery(seed, size, workdir, probe):
    """Criterion 4's shape: every construction against its input under
    bounded_equiv, one op per call.  After the fixed pool, automata of one
    size from the seeded stream add exactly `equiv_pairs` pairs to each
    construction, and every op samples its own trees, so every seed runs
    the same number of ops of the same shapes."""
    pairs = [p for a in fixed_pool() for p in _pairs(a)]
    need = dict.fromkeys(("weaken_02", "weaken_13", "weaken_14", "weaken", "restrict"),
                         size["equiv_pairs"])
    rng = sub_rng(seed, 4)
    while any(need.values()):
        for kind, left, right, ok in _pairs(trimmed_of_size(rng, size["equiv_n"])):
            if need[kind]:
                need[kind] -= 1
                pairs.append((kind, left, right, ok))
    tree_rng = sub_rng(seed, 5)
    ops = []
    for kind, left, right, size_ok in pairs:
        params = semantics.SamplerParams(seed=tree_rng.below(1 << 31),
                                         max_nodes=size["tree_nodes"],
                                         alphabet=left.alphabet, count=size["trees"])

        def check(inp, result, kind=kind, size_ok=size_ok):
            left, right = inp
            expect(size_ok, f"{kind}: output size off its budget")
            expect(result is None, f"{kind}: bounded_equiv found a counterexample")
            return f"{kind} {len(left.states)} {len(right.states)} pass"

        ops.append(Op(f"equiv {kind}", lambda l=left, r=right: (fresh_copy(l), fresh_copy(r)),
                      lambda inp, p=params: semantics.bounded_equiv(inp[0], inp[1], p),
                      check))
    return ops


# -- parity_games --------------------------------------------------------------------


def chain_game(n, owner_of, offset, condition):
    """Positions p0..p(n-1), each with a self-loop and an edge to the next;
    distinct ranks descend along the chain to an even rank at its end."""
    positions = {f"p{i}": (owner_of(i), offset + n + 1 - i) for i in range(n)}
    edges = [(f"p{i}", f"p{i}") for i in range(n)]
    edges += [(f"p{i}", f"p{i + 1}") for i in range(n - 1)]
    return Game(positions=positions, edges=tuple(edges), initial="p0", condition=condition)


def chain_winners(g):
    """Closed form.  Parity: the owner of p_i may stay forever or move on, so
    it wins when its rank favours it or the owner wins from p_(i+1).  Weak:
    the first rank of a play is its highest."""
    n = len(g.positions)
    parity, weak = {}, {}
    nxt = None
    for i in range(n - 1, -1, -1):
        owner, rank = g.positions[f"p{i}"]
        favoured = "E" if rank % 2 == 0 else "A"
        parity[f"p{i}"] = owner if favoured == owner or nxt == owner else favoured
        weak[f"p{i}"] = favoured
        nxt = parity[f"p{i}"]
    return parity, weak


def random_game(rng, n):
    """n positions, random owners, ranks below n, one to three moves each."""
    positions = {f"p{i}": ("E" if rng.below(2) else "A", rng.below(n)) for i in range(n)}
    edges = [(f"p{i}", f"p{rng.below(n)}") for i in range(n) for _ in range(1 + rng.below(3))]
    return Game(positions=positions, edges=tuple(edges), initial="p0")


def check_parity_solution(g, sol):
    """Each region is closed: the winner's positions have a strategy move
    into it, the loser's positions have every move into it."""
    succ = {p: [] for p in g.positions}
    for a, b in g.edges:
        succ[a].append(b)
    for p, (owner, _) in g.positions.items():
        w = sol.winner[p]
        if owner == w:
            expect(sol.winner.get(sol.strategy.get(p)) == w, f"strategy leaves the region at {p}")
        else:
            expect(all(sol.winner[q] == w for q in succ[p]), f"{p} has an escape from the region")


def setup_parity_games(seed, size, workdir, probe):
    """Chain games (all-Adam and alternating owners) and random games with
    as many ranks as positions; one op solves a game under both conditions."""
    rng = sub_rng(seed, 6)
    offset = 2 * rng.below(32)
    n = size["chain"]
    cases = []
    for label, owner_of in (("chain_adam", lambda i: "A"),
                            ("chain_alternating", lambda i: "E" if i % 2 == 0 else "A")):
        cases.append((label, chain_game(n, owner_of, offset, "parity"),
                      chain_game(n, owner_of, offset, "weak")))
    for _ in range(size["random_games"]):
        r = SplitMix64(rng.next_u64())
        gp = random_game(r, size["random_positions"])
        cases.append(("random", gp, Game(gp.positions, gp.edges, gp.initial, "weak")))
    ops = []
    for label, gp, gw in cases:
        def check(_, sols, label=label, gp=gp, gw=gw):
            sp, sw = sols
            expect(set(sp.winner) == set(gp.positions) == set(sw.winner), "winners missing")
            if label == "random":
                check_parity_solution(gp, sp)
            else:
                parity, weak = chain_winners(gp)
                expect(sp.winner == parity, f"{label}: parity winners off the closed form")
                expect(sw.winner == weak, f"{label}: weak winners off the closed form")
            return (f"{label} {len(gp.positions)} "
                    f"{short_hash(repr(sorted(sp.winner.items())))} "
                    f"{short_hash(repr(sorted(sw.winner.items())))}")

        def solve(_, gp=gp, gw=gw):
            return games.solve_parity(gp), games.solve_weak(gw)

        ops.append(Op(label, lambda: None, solve, check))
    return ops


WORKLOADS = {
    "cli_large": setup_cli_large,
    "small_stream": setup_small_stream,
    "equiv_battery": setup_equiv_battery,
    "parity_games": setup_parity_games,
}
