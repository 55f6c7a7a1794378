"""Layer tracing for the benchmark.

`Tracer.install()` replaces the public functions listed in `LAYERS` with
wrappers in every `weakindex` module that imported them by name, so calls
from inside the library are seen as well.  While `active` is set, each call
records a span (name, start, end, parent, op) and the counts taken from its
arguments.  A span's self time is its duration minus the durations of its
direct child spans; summed per layer, the self times plus the benchmark's
own share account for the traced op time.  `uninstall()` puts the original
functions back.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter

# layer (module name) -> public functions timed as spans of that layer
LAYERS = {
    "cli": ("main",),
    "formats": ("parse_automaton", "serialize_automaton"),
    "productivity": ("trim", "is_universal", "is_trimmed"),
    "graphs": ("tarjan_scc", "condensation", "reachable_from"),
    "patterns": ("find_replicated_flower", "find_split", "find_flower",
                 "find_weak_flower", "loop_ranks", "edge_tops", "replicated_set"),
    "classifier": ("classify", "borel_rank", "det_index", "weak_det_index", "relabel_to"),
    "transforms": ("weaken", "weaken_02", "weaken_13", "weaken_14", "restrict"),
    "semantics": ("bounded_equiv", "det_accepts", "alt_accepts",
                  "sample_regular_tree"),
    "games": ("solve_parity", "solve_weak", "eve_wins_arrays"),
}


def _positions(key, args):
    if key == "games.eve_wins_arrays":
        return len(args[0])
    return len(args[0].positions)


def _output_states(result):
    out = result[0] if isinstance(result, tuple) else result
    return len(out.states)


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.keys: list[str] = []
        self.span_key = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.incl: Counter = Counter()   # outermost calls of each function
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.top_level_s = 0.0
        self._stack: list[list] = []      # [span index, start, child seconds]
        self._depth: Counter = Counter()  # open spans per key and per layer
        self._originals: list[tuple] = []
        self._t0 = time.perf_counter()

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "weakindex" or name.startswith("weakindex.")]
        for layer, names in LAYERS.items():
            mod = importlib.import_module(f"weakindex.{layer}")
            for fn_name in names:
                orig = getattr(mod, fn_name)
                wrapped = self._wrap(f"{layer}.{fn_name}", layer, orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._originals.append((m, attr, orig))
                            setattr(m, attr, wrapped)

    def uninstall(self):
        for m, attr, orig in reversed(self._originals):
            setattr(m, attr, orig)
        self._originals.clear()

    def _wrap(self, key, layer, fn):
        tracer = self
        kid = len(self.keys)
        self.keys.append(key)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            outermost_layer = tracer._depth[layer] == 0
            tracer._open(kid, key, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(key, layer)
            tracer._count(key, layer, args, result, outermost_layer)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    # -- spans -------------------------------------------------------------

    def _open(self, kid, key, layer):
        idx = len(self.span_key)
        parent = self._stack[-1][0] if self._stack else -1
        self.span_key.append(kid)
        self.span_parent.append(parent)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self._depth[key] += 1
        self._depth[layer] += 1
        start = time.perf_counter()
        self.span_start.append(start - self._t0)
        self._stack.append([idx, start, 0.0])

    def _close(self, key, layer):
        end = time.perf_counter()
        idx, start, child = self._stack.pop()
        dur = end - start
        self.span_end[idx] = end - self._t0
        self._depth[key] -= 1
        self._depth[layer] -= 1
        self.calls[key] += 1
        self.self_time[key] += dur - child
        if self._depth[key] == 0:
            self.incl[key] += dur
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.top_level_s += dur

    def _count(self, key, layer, args, result, outermost_layer):
        if key == "graphs.tarjan_scc":
            self.counts["graphs.tarjan_scc_nodes"] += len(args[0])
        elif layer == "games":
            self.counts["games.positions"] += _positions(key, args)
        elif layer == "transforms" and outermost_layer:
            self.counts["transforms.output_states"] += _output_states(result)

    # -- results -----------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for key, s in self.self_time.items():
            out[key.split(".", 1)[0]] += s
        return out

    def write_spans(self, path):
        """Tab-separated span log: name, start, end, parent span, op index."""
        lines = ["name\tstart_s\tend_s\tparent\top"]
        for i in range(len(self.span_key)):
            lines.append(f"{self.keys[self.span_key[i]]}\t{self.span_start[i]:.9f}\t"
                         f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_op[i]}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
