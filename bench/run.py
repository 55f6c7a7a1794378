"""weakindex benchmark: one workload per run, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up builds the workload's inputs from the seed, three times and then
again, up to 15 times, while the set-ups so far took under two seconds;
`setup_s` is the median.  The run then repeats passes over the inputs until S seconds have
gone by and, untraced, at least three passes have run.  Each op's time is
its median over the passes.  `wall_s` sums the ops' times, `ops_per_s` is
ops per pass over `wall_s`, and the percentiles are taken over the ops'
times.  The end-to-end times are at the nominal speed of `speed.py`: the
speed kernel runs between the untraced ops and between the set-ups, and
each pass's times, and the set-up times, are scaled by its nominal time
over its median time next to them.  The lines before the JSON also give
the times as measured.  The per-layer times are as measured.  Every op's
output is checked; a pass's verdicts must give the same digest on every
pass, and on the seed recorded in `expected.json` the digest recorded there.

With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics (untraced).  With `--trace 1` the run makes one untraced
pass, installs the layer tracer and makes traced passes; the JSON holds
the per-layer metrics, per traced pass, and the span log is written to
`bench/out/`.  The lines before the JSON report every metric by name and
unit, percentiles only where at least ten samples lie beyond them.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
if not (SRC / "weakindex").is_dir():
    sys.exit(f"weakindex sources not found in {SRC}")
sys.path.insert(0, str(SRC))

import speed  # noqa: E402
from layers import LAYERS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    CliProbe,
    StaleInput,
    require_fresh,
    short_hash,
)

OUT = BENCH / "out"
SPEC = BENCH.parent / "BENCHMARK.json"
SETUP_REPEATS = 3
SETUP_BUDGET_S = 2.0  # cheap set-ups are repeated until they fill it,
SETUP_MAX = 15        # up to this many times
MIN_OPS = 20      # ops per pass: the median needs ten ops beyond it
MIN_PASSES = 3    # each op's median time is taken over the passes

SIZES = {
    "full": {"nonborel": 5, "nonborel_states": 1000, "pi2": 5, "pi2_states": 2000,
             "stream": 1500, "equiv_pairs": 40, "equiv_n": 4, "trees": 50, "tree_nodes": 8,
             "chain": 250, "random_games": 64, "random_positions": 200},
    "toy": {"nonborel": 5, "nonborel_states": 100, "pi2": 5, "pi2_states": 100,
            "stream": 16, "equiv_pairs": 2, "equiv_n": 3, "trees": 4, "tree_nodes": 6,
            "chain": 24, "random_games": 18, "random_positions": 30},
}

OPS = {
    "cli_large": "one in-process `weakindex classify --json` or `weakindex weaken` call",
    "small_stream": "one library classify or weaken call on a small automaton",
    "equiv_battery": "one bounded_equiv call between a construction and its input",
    "parity_games": "one game solved by solve_parity and, as a weak game, by solve_weak",
}


@dataclass
class Pass:
    durations: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    kernel_times: list = field(default_factory=list)
    failed: int = 0

    @property
    def scale(self):
        return speed.scale(self.kernel_times) if self.kernel_times else 1.0

    @property
    def digest(self):
        return short_hash("\n".join(self.verdicts))


def run_pass(ops, tracer=None) -> Pass:
    """One pass over the ops.  Untraced, the speed kernel runs before the
    pass, after every `speed.EVERY_S` of ops and after the pass."""
    p = Pass()
    gauge = tracer is None
    if gauge:
        p.kernel_times.append(speed.kernel())
    since = time.perf_counter()
    for i, op in enumerate(ops):
        inp = op.prepare()
        out = err = None
        dur = 0.0
        try:
            require_fresh(*(inp if isinstance(inp, tuple) else (inp,)))
        except StaleInput as e:  # not run: it would time cache hits
            err = e
        if err is None:
            if tracer is not None:
                tracer.op, tracer.active = i, True
            t0 = time.perf_counter()
            try:
                out = op.run(inp)
            except Exception as e:  # the op failed; the run goes on and counts it
                err = e
            dur = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
        p.durations.append(dur)
        p.kinds.append(op.kind)
        try:
            if err is not None:
                raise err
            p.verdicts.append(op.check(inp, out))
        except Exception as e:  # a check or the op failed
            p.failed += 1
            p.verdicts.append(f"FAILED {op.kind}: {type(e).__name__}: {e}")
            if p.failed <= 3:
                print(f"failure in op {i} ({op.kind}): {type(e).__name__}: {e}",
                      file=sys.stderr)
        if gauge and time.perf_counter() - since >= speed.EVERY_S:
            p.kernel_times.append(speed.kernel())
            since = time.perf_counter()
    if gauge:
        p.kernel_times.append(speed.kernel())
    return p


def measure(ops, seconds, trace):
    """Untraced passes, or one untraced pass and then traced ones."""
    deadline = time.perf_counter() + seconds
    untraced, traced, tracer = [], [], None
    if trace:
        untraced.append(run_pass(ops))
        tracer = Tracer()
        tracer.install()
    try:
        runs = traced if trace else untraced
        while True:
            runs.append(run_pass(ops, tracer))
            if (time.perf_counter() >= deadline
                    and len(runs) >= (1 if trace else MIN_PASSES)):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    return untraced, traced, tracer


def percentile_ms(values, p):
    """The p-th percentile in ms, or None unless ten samples lie beyond it."""
    if len(values) * (100 - p) / 100 < 10:
        return None
    if p == 50:
        return statistics.median(values) * 1e3
    return statistics.quantiles(values, n=100)[p - 1] * 1e3


def op_times(passes, kind=None, nominal=True):
    """Each op's median time over the passes, at the nominal speed unless
    `nominal` is false (of the ops of one kind, if given)."""
    kinds = passes[0].kinds
    return [statistics.median(p.durations[i] * (p.scale if nominal else 1.0) for p in passes)
            for i in range(len(kinds)) if kind is None or kinds[i] == kind]


def end_to_end(setup_times, setup_kernel, passes):
    times = op_times(passes)
    wall = sum(times)
    return {
        "setup_s": statistics.median(setup_times) * speed.scale(setup_kernel),
        "wall_s": wall,
        "ops_per_s": len(times) / wall,
        "op_p50_ms": percentile_ms(times, 50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def kind_walls(passes, nominal=True):
    kinds = {"classify", "weaken"} & set(passes[0].kinds)
    return {f"{k}_wall_s": sum(op_times(passes, k, nominal)) for k in sorted(kinds)}


def per_layer(untraced, traced, tracer: Tracer):
    n = len(traced)
    incl = {k: v / n for k, v in tracer.incl.items()}
    own = {k: v / n for k, v in tracer.self_time.items()}
    calls = {k: v / n for k, v in tracer.calls.items()}
    counts = {k: v / n for k, v in tracer.counts.items()}

    def s(key):
        return incl.get(key, 0.0)

    games_s = s("games.solve_parity") + s("games.solve_weak") + s("games.eve_wins_arrays")
    positions = counts.get("games.positions", 0.0)
    m = {}
    for fn in ("find_replicated_flower", "find_split", "find_flower", "find_weak_flower",
               "loop_ranks", "edge_tops", "replicated_set"):
        m[f"patterns.{fn}_s"] = s(f"patterns.{fn}")
    m["graphs.tarjan_scc_calls"] = calls.get("graphs.tarjan_scc", 0.0)
    m["graphs.tarjan_scc_nodes"] = counts.get("graphs.tarjan_scc_nodes", 0.0)
    m["graphs.reachable_from_calls"] = calls.get("graphs.reachable_from", 0.0)
    m["graphs.condensation_calls"] = calls.get("graphs.condensation", 0.0)
    m["productivity.trim_s"] = s("productivity.trim")
    m["productivity.trim_self_s"] = own.get("productivity.trim", 0.0)
    m["productivity.is_universal_s"] = s("productivity.is_universal")
    for fn in ("borel_rank", "det_index", "weak_det_index", "relabel_to"):
        m[f"classifier.{fn}_s"] = s(f"classifier.{fn}")
    m["classifier.classify_self_s"] = own.get("classifier.classify", 0.0)
    for fn in ("weaken_02", "weaken_13", "weaken_14", "restrict"):
        m[f"transforms.{fn}_s"] = s(f"transforms.{fn}")
    m["transforms.weaken_self_s"] = own.get("transforms.weaken", 0.0)
    m["transforms.output_states"] = counts.get("transforms.output_states", 0.0)
    m["formats.parse_s"] = s("formats.parse_automaton")
    m["formats.serialize_s"] = s("formats.serialize_automaton")
    m["cli.main_self_s"] = own.get("cli.main", 0.0)
    m["semantics.membership_calls"] = (calls.get("semantics.det_accepts", 0.0)
                                       + calls.get("semantics.alt_accepts", 0.0))
    m["semantics.det_accepts_s"] = s("semantics.det_accepts")
    m["semantics.alt_accepts_s"] = s("semantics.alt_accepts")
    m["semantics.membership_self_s"] = (own.get("semantics.det_accepts", 0.0)
                                        + own.get("semantics.alt_accepts", 0.0))
    m["semantics.sample_regular_tree_s"] = s("semantics.sample_regular_tree")
    m["semantics.sample_regular_tree_calls"] = calls.get("semantics.sample_regular_tree", 0.0)
    m["semantics.bounded_equiv_self_s"] = own.get("semantics.bounded_equiv", 0.0)
    m["games.solve_parity_s"] = s("games.solve_parity")
    m["games.solve_parity_calls"] = calls.get("games.solve_parity", 0.0)
    m["games.solve_weak_s"] = s("games.solve_weak")
    m["games.eve_wins_arrays_s"] = s("games.eve_wins_arrays")
    m["games.eve_wins_arrays_calls"] = calls.get("games.eve_wins_arrays", 0.0)
    m["games.positions"] = positions
    m["games.positions_per_s"] = positions / games_s if games_s else 0.0
    layer_self = tracer.layer_self()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] / n
    # per traced pass, the layers' self times and the benchmark's own share
    # sum to trace.wall_s
    traced_total = sum(d for p in traced for d in p.durations)
    m["bench.self_s"] = (traced_total - tracer.top_level_s) / n
    m["trace.wall_s"] = traced_total / n
    m["trace.overhead_s"] = m["trace.wall_s"] - sum(untraced[0].durations)
    walls = kind_walls(untraced, nominal=False)
    m["classify_wall_s"] = walls.get("classify_wall_s", 0.0)
    m["weaken_wall_s"] = walls.get("weaken_wall_s", 0.0)
    return m


def unit_of(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def check_digests(workload, seed, size_name, passes):
    """Failed ops added by the digest checks: a pass whose digest differs
    from the first pass, or on the seed of `expected.json` from the digest
    recorded there, counts all its ops as failed."""
    recorded = json.loads((BENCH / "expected.json").read_text())
    want = passes[0].digest
    if seed == recorded["seed"] and size_name == "full":
        want = recorded["digests"][workload]
    extra = 0
    for p in passes:
        if p.digest != want:
            extra += len(p.durations) - p.failed
            print(f"digest {p.digest} differs from {want}", file=sys.stderr)
    return extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="input sizes; 'toy' is for the benchmark's self-test")
    args = ap.parse_args(argv)
    size = SIZES[args.size]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        with CliProbe() as probe:
            setup_times, setup_kernel = [], [speed.kernel()]
            while len(setup_times) < SETUP_REPEATS or (
                    sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < SETUP_MAX):
                gc.collect()
                t0 = time.perf_counter()
                ops = WORKLOADS[args.workload](args.seed, size, workdir, probe)
                setup_times.append(time.perf_counter() - t0)
                setup_kernel.append(speed.kernel())
            if len(ops) < MIN_OPS:
                sys.exit(f"{len(ops)} ops per pass; the percentiles need {MIN_OPS}")
            gc.collect()
            gc.freeze()  # set-up's objects stay out of the ops' collections
            untraced, traced, tracer = measure(ops, args.seconds, args.trace)
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)

    passes = untraced + traced
    attempted = sum(len(p.durations) for p in passes)
    failed = sum(p.failed for p in passes)
    failed += check_digests(args.workload, args.seed, args.size, passes)
    times = op_times(untraced)
    e2e = end_to_end(setup_times, setup_kernel, untraced)
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"python {platform.python_version()}  machine {platform.machine()}")
    print(f"op: {OPS[args.workload]}; closed loop, one client")
    print(f"ops {attempted} attempted, {failed} failed; fail_rate {failed / attempted:.6f}")
    print(f"passes {len(untraced)} untraced, {len(traced)} traced; "
          f"{len(ops)} ops per pass; digest {passes[0].digest}")
    print(f"setup_s runs: {' '.join(f'{t:.4f}' for t in setup_times)} s as measured")
    kernel = [t for p in untraced for t in p.kernel_times]
    print(f"speed kernel: median {statistics.median(kernel):.4f} s over {len(kernel)} runs, "
          f"nominal {speed.REF_S} s; wall_s as measured {sum(op_times(untraced, nominal=False)):.4f} s")
    report = dict(e2e)
    report.update(kind_walls(untraced))
    for p in (90, 99):
        report[f"op_p{p}_ms"] = percentile_ms(times, p)
    for name, value in report.items():
        shown = "n/a (fewer than ten samples beyond it)" if value is None else f"{value:.6f}"
        print(f"  {name} {shown} {unit_of(name)}  [{len(times)} ops]"
              if name.startswith("op_p") else f"  {name} {shown} {unit_of(name)}")
    if args.trace:
        metrics = per_layer(untraced, traced, tracer)
        spans = OUT / f"spans-{args.workload}.tsv"
        tracer.write_spans(spans)
        print(f"per-layer metrics, per traced pass; spans in {spans.relative_to(BENCH.parent)}")
        for name, value in metrics.items():
            print(f"  {name} {value:.6f} {unit_of(name)}")
    else:
        metrics = e2e
    # the JSON line carries the metrics BENCHMARK.json names for this mode
    names = [m["name"] for m in json.loads(SPEC.read_text())[
        "per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit_of(name)} for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
