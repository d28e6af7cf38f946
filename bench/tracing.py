"""Span tracing of mfmckit from outside the library.

The tracer wraps the public functions of each mfmckit module and
patches every module attribute that refers to them, so calls made
through names imported into other modules (``hilbert.facet_normals``,
``cones.solve_square``, ``cli.analyze``, ...) are traced too.  Nothing
in the library changes; ``uninstall`` puts the original functions back.

Each call becomes one span: function, job, parent span, start, end.
Spans are kept in flat arrays in memory and written out once at the
end.  A function's self time is its spans' duration minus the time
their child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from math import comb

LAYERS = ("linalg", "clutters", "cones", "hilbert", "ideals", "decisions",
          "reporting", "cli")

# Leaf arithmetic called once per inner-loop step of the double
# description and the eliminations; wrapping it would multiply the
# traced time and is charged to the caller's self time instead.
UNWRAPPED = {"linalg.dot", "linalg.primitive"}

# Functions whose repeated work the compute-once refactor targets:
# their calls are also counted per job, and their repeat is calls per
# distinct (job, argument) pair, the recomputation inside one CLI call.
REPEAT_TARGETS = (
    "ideals.symbolic_power", "ideals.closure_power",
    "cones.qa_vertices_direct", "cones.support_hyperplanes",
    "hilbert.hilbert_basis", "clutters.minimal_vertex_covers",
)

RENDER = ("render_text", "report_to_json", "report_to_dict", "generator_block",
          "hyperplane_block", "vertex_lines", "verdict_lines", "powers_lines",
          "tdi_lines")


def _matrix(source):
    """Clutters and exponent matrices with equal columns are one argument."""
    return getattr(source, "matrix", source)


def _power_box(fname, args):
    """Points of the box the power's generator scan visits."""
    m, i = args[0], args[1]
    if fname == "ideals.symbolic_power":
        return (i + 1) ** m.n
    return (i * m.max_entry() + 1) ** m.n


def _count_work(counts, fname, args, result):
    """Work counters derived from a call's arguments and result."""
    if fname in ("ideals.symbolic_power", "ideals.closure_power"):
        counts["ideals.box_points"] += _power_box(fname, args)
        counts["ideals.gens_out"] += len(result)
    elif fname == "cones.qa_vertices_direct":
        m = args[0]
        counts["cones.qa.systems"] += comb(m.n + m.q, m.n)
        counts["cones.qa.vertices"] += len(result.vertices)
    elif fname == "clutters.minimal_vertex_covers":
        counts["clutters.cover_masks"] += 2 ** args[0].n
    elif fname == "hilbert.hilbert_basis":
        counts["hilbert.basis_size"] += len(result)
    elif fname == "decisions.tdi_bounded_check":
        counts["decisions.tdi.vectors_checked"] += result.checked


def _repeat_key(fname, args):
    if fname in ("ideals.symbolic_power", "ideals.closure_power"):
        return (_matrix(args[0]), args[1])
    return _matrix(args[0])


class Tracer:
    """Wraps mfmckit's public functions and records one span per call."""

    def __init__(self, package):
        self.package = package
        self.modules = [m for name, m in sorted(sys.modules.items())
                        if name == package.__name__
                        or name.startswith(package.__name__ + ".")]
        self.names = []          # function id -> "module.function"
        self.originals = {}      # id(original) -> wrapper
        self.patched = []        # (module, attribute, original)
        self.reset()

    # -------------------------------------------------------------- spans

    def reset(self):
        self.fn = array("i")
        self.job = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = []          # [span id, child time]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.keys = defaultdict(set)
        self.job_calls = defaultdict(Counter)
        self.current_job = -1

    def _open(self, fid):
        sid = len(self.start)
        self.fn.append(fid)
        self.job.append(self.current_job)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append([sid, 0.0])
        self.start.append(time.perf_counter())
        return sid

    def _close(self, fid):
        t = time.perf_counter()
        sid, child = self.stack.pop()
        self.end[sid] = t
        dur = t - self.start[sid]
        self.self_s[fid] += dur - child
        self.calls[fid] += 1
        if self.stack:
            self.stack[-1][1] += dur

    # -------------------------------------------------------------- wrapping

    def _wrap(self, fid, fn):
        fname = self.names[fid]
        tracer = self
        repeat = fname in REPEAT_TARGETS

        if inspect.isgeneratorfunction(fn):
            # the work happens on each next(), so each step is one span
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    tracer._open(fid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(fid)
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._open(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(fid)
            _count_work(tracer.counts, fname, args, result)
            if repeat:
                tracer.keys[fname].add((tracer.current_job, _repeat_key(fname, args)))
                tracer.job_calls[tracer.current_job][fname] += 1
            return result
        return traced

    def install(self):
        """Wrap every public function of the layer modules and patch each
        module attribute that refers to one."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{self.package.__name__}.{layer}"]
            for name, obj in sorted(vars(mod).items()):
                fname = f"{layer}.{name}"
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or fname in UNWRAPPED):
                    continue
                if fname not in self.names:
                    self.names.append(fname)
                wrappers[id(obj)] = (obj, self._wrap(self.names.index(fname), obj))
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self.patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])

    def uninstall(self):
        for mod, attr, obj in reversed(self.patched):
            setattr(mod, attr, obj)
        self.patched = []

    # -------------------------------------------------------------- results

    def summary(self, scale=1.0):
        """Calls, self time and work counters of the recorded spans; self
        times are multiplied by scale."""
        total_self = scale * sum(self.self_s.values())
        funcs = {}
        for fid, fname in enumerate(self.names):
            if self.calls[fid]:
                funcs[fname] = {"calls": self.calls[fid],
                                "self_s": scale * self.self_s[fid]}
        for fname in REPEAT_TARGETS:
            if fname in funcs:
                funcs[fname]["repeat"] = funcs[fname]["calls"] / len(self.keys[fname])
        layers = {}
        for layer in LAYERS:
            s = sum(v["self_s"] for f, v in funcs.items() if f.startswith(layer + "."))
            layers[layer] = {"self_s": s,
                             "share": 100.0 * s / total_self if total_self else 0.0}
        render = sum(funcs.get(f"reporting.{f}", {}).get("self_s", 0.0) for f in RENDER)
        counts = dict(self.counts)
        box = counts.get("ideals.box_points", 0)
        systems = counts.get("cones.qa.systems", 0)
        counts["ideals.gen_yield"] = counts.get("ideals.gens_out", 0) / box if box else 0.0
        counts["cones.qa.vertex_yield"] = (counts.get("cones.qa.vertices", 0) / systems
                                           if systems else 0.0)
        return {"functions": funcs, "layers": layers, "render_self_s": render,
                "counts": counts, "spans": len(self.start)}

    def write_spans(self, path, job_keys):
        """Spans as a JSON header followed by the raw arrays, in the
        order the header lists them."""
        arrays = {"fn": self.fn, "job": self.job, "parent": self.parent,
                  "start": self.start, "end": self.end}
        header = {"names": self.names, "jobs": job_keys, "count": len(self.start),
                  "arrays": [[k, a.typecode, a.itemsize] for k, a in arrays.items()]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for a in arrays.values():
                a.tofile(fh)

