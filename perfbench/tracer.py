"""Spans around hashbound's layers, recorded from outside the package.

``Tracer.install`` rebinds the module-level names each caller looks up (and
``Configuration.assemble`` on its class) to thin wrappers that record one
span per call: name, start, end, parent span, the benchmark operation it
belongs to, and a few attributes read from the arguments or the result.
Spans stay in memory; ``layer_metrics`` reduces them to the per-layer
metrics and ``dump`` writes them once, at the end of a run.

A hooked name that no longer exists is listed in ``Tracer.absent`` and the
metrics that depend on it are left out; the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time

SMALL_ROWS = 1024      # sep_batch calls with at most this many rows are "small"
LARGE_ROWS = 8192      # and with more than this many rows "large"
DOMINATED_REL = 1e-5   # a configuration maximum this far below its cell maximum is wasted work


def _rows(args, kwargs, result):
    P = args[0] if args else kwargs["P"]
    return {"rows": int(P.shape[0]), "b": int(P.shape[1])}


def _configs(args, kwargs, result):
    dims = [0, 0, 0, 0]
    for cfg in result:
        dims[min(cfg.dim, 3)] += 1
    return {"count": len(result), "dims": dims}


def _maximized(args, kwargs, result):
    cfg = args[0] if args else kwargs["config"]
    return {"cfg": id(cfg), "value": None if result is None else result.value}


def _cell_max(args, kwargs, result):
    which = args[1] if len(args) > 1 else kwargs["which"]
    return {"sel": which.label, "certify": bool(kwargs.get("certify", False)),
            "value": result.value}


def _sampled(args, kwargs, result):
    return {"evaluated": int(result.evaluated)}


CLASSICAL = ("rate_from_form_bound", "fredman_komlos", "korner_marton", "dvj_bound",
             "conjectured_bound")

#: (module, attribute path, span name, attribute reader)
HOOKS = [
    ("hashbound.cli", "full_bound", "combiner.full_bound", None),
    ("hashbound.combiner", "full_bound", "combiner.full_bound", None),
    ("hashbound.combiner", "compute_all_cell_maxima", "optimize.cell_maxima", None),
    ("hashbound.combiner", "global_form_max", "optimize.global_max", None),
    ("hashbound.combiner", "combine", "combiner.combine", None),
    *(("hashbound.combiner", name, "classical." + name, None) for name in CLASSICAL),
    ("hashbound.optimize", "compute_cell_max", "optimize.cell_max", _cell_max),
    ("hashbound.optimize", "enumerate_candidates", "configs.enumerate", _configs),
    ("hashbound.optimize", "global_candidates", "configs.enumerate", _configs),
    ("hashbound.optimize", "maximize_config", "optimize.maximize", _maximized),
    ("hashbound.optimize", "sep_batch", "seppoly.sep_batch", _rows),
    ("hashbound.oracle", "sep_batch", "seppoly.sep_batch", _rows),
    ("hashbound.configs", "Configuration.assemble", "configs.assemble", None),
]

#: spans around the benchmark's own calls into the package, with their attribute readers
OWN_SPANS = {"cli.main": None, "oracle.sample": _sampled}

#: layer of each span name, by prefix, for the self-time breakdown
LAYERS = ("seppoly", "configs", "optimize", "combiner", "classical", "oracle", "cli")

#: metric name -> (unit, better); the order is the report order
METRICS = {
    "seppoly.calls": ("count", "lower"),
    "seppoly.rows": ("count", "lower"),
    "seppoly.busy_s": ("s", "lower"),
    "seppoly.rows_per_s": ("1/s", "higher"),
    "seppoly.rows.scan": ("count", "lower"),
    "seppoly.rows.certify": ("count", "lower"),
    "seppoly.rows.sample": ("count", "lower"),
    "seppoly.calls.small": ("count", "lower"),
    "seppoly.calls.large": ("count", "lower"),
    "seppoly.rows_per_s.small": ("1/s", "higher"),
    "seppoly.rows_per_s.large": ("1/s", "higher"),
    "seppoly.bytes_in_computed": ("B", "lower"),
    "configs.enumerate.calls": ("count", "lower"),
    "configs.enumerate.busy_s": ("s", "lower"),
    "configs.count": ("count", "lower"),
    "configs.count.dim0": ("count", "lower"),
    "configs.count.dim1": ("count", "lower"),
    "configs.count.dim2": ("count", "lower"),
    "configs.count.dim3": ("count", "lower"),
    "configs.assemble.calls": ("count", "lower"),
    "configs.assemble.busy_s": ("s", "lower"),
    "optimize.maximize.calls": ("count", "lower"),
    "optimize.maximize.self_s": ("s", "lower"),
    "optimize.maximize.vacuous": ("count", "lower"),
    "optimize.maximize.dominated_ratio": ("ratio", "lower"),
    "optimize.cell_max.busy_s.m1": ("s", "lower"),
    "optimize.cell_max.busy_s.m2": ("s", "lower"),
    "optimize.cell_max.busy_s.m3": ("s", "lower"),
    "optimize.cell_max.busy_s.m4": ("s", "lower"),
    "optimize.certify.busy_s": ("s", "lower"),
    "optimize.global_max.calls": ("count", "lower"),
    "optimize.global_max.busy_s": ("s", "lower"),
    "combiner.full_bound.calls": ("count", "lower"),
    "combiner.full_bound.self_s": ("s", "lower"),
    "combiner.combine.busy_s": ("s", "lower"),
    "classical.calls": ("count", "lower"),
    "classical.busy_s": ("s", "lower"),
    "oracle.sample.calls": ("count", "lower"),
    "oracle.sample.evaluated": ("count", "higher"),
    "oracle.sample.self_s": ("s", "lower"),
    "oracle.sample.samples_per_s": ("1/s", "higher"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

#: metrics that must repeat exactly between two traced runs with one seed
EXACT = ["configs.count", "configs.count.dim0", "configs.count.dim1", "configs.count.dim2",
         "configs.count.dim3", "seppoly.rows", "seppoly.rows.scan", "seppoly.rows.certify",
         "seppoly.rows.sample", "optimize.maximize.calls", "optimize.maximize.vacuous",
         "oracle.sample.evaluated"]

#: span names each metric group is computed from, to mark absent metrics
NEEDS = {
    "seppoly.": "seppoly.sep_batch",
    "configs.enumerate": "configs.enumerate",
    "configs.count": "configs.enumerate",
    "configs.assemble": "configs.assemble",
    "optimize.maximize": "optimize.maximize",
    "optimize.cell_max": "optimize.cell_max",
    "optimize.certify": "optimize.cell_max",
    "optimize.global_max": "optimize.global_max",
    "combiner.full_bound": "combiner.full_bound",
    "combiner.combine": "combiner.combine",
    "classical.": "classical.rate_from_form_bound",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op, attrs]
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op: int | None = None
        self.absent: list[str] = []
        self.hooked: set[str] = set()

    def wrap(self, name, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attrs is not None:
                rec[5] = attrs(args, kwargs, result)
            return result

        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run one call of the benchmark's own under a span."""
        return self.wrap(name, fn, OWN_SPANS[name])(*args, **kwargs)

    def install(self) -> None:
        for module, path, name, attrs in HOOKS:
            *owner_path, attr = path.split(".")
            try:
                owner = importlib.import_module(module)
                for part in owner_path:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{path}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, attrs))
            self.hooked.add(name)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def dump(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "op", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": self.absent,
                       "spans": [dict(zip(keys, rec)) for rec in self.spans]}, fh)

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the part its direct children cover."""
        out = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                out[rec[3]] -= rec[2] - rec[1]
        return out

    def layer_self_s(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for rec, own in zip(self.spans, self.self_times()):
            totals[rec[0].split(".", 1)[0]] += own
        return totals

    def layer_metrics(self, untraced_wall: float, traced_wall: float) -> dict[str, float]:
        spans = self.spans
        own = self.self_times()
        dur = [rec[2] - rec[1] for rec in spans]
        children: dict[int, list[int]] = {}
        for i, rec in enumerate(spans):
            children.setdefault(rec[3], []).append(i)

        def named(name):
            return [i for i, rec in enumerate(spans) if rec[0] == name]

        def busy(name):
            return math.fsum(dur[i] for i in named(name))

        def rate(n, secs):
            return n / secs if secs > 0 else 0.0

        m: dict[str, float] = {}
        sep = named("seppoly.sep_batch")
        rows = [spans[i][5]["rows"] for i in sep]
        kind = {"optimize.maximize": "scan", "optimize.cell_max": "certify",
                "oracle.sample": "sample"}
        by_parent = {"scan": 0, "certify": 0, "sample": 0}
        for i, n in zip(sep, rows):
            parent = spans[i][3]
            stage = kind.get(spans[parent][0]) if parent >= 0 else None
            if stage is not None:
                by_parent[stage] += n
        small = [(n, dur[i]) for i, n in zip(sep, rows) if n <= SMALL_ROWS]
        large = [(n, dur[i]) for i, n in zip(sep, rows) if n > LARGE_ROWS]
        m["seppoly.calls"] = len(sep)
        m["seppoly.rows"] = sum(rows)
        m["seppoly.busy_s"] = busy("seppoly.sep_batch")
        m["seppoly.rows_per_s"] = rate(m["seppoly.rows"], m["seppoly.busy_s"])
        for stage, n in by_parent.items():
            m["seppoly.rows." + stage] = n
        m["seppoly.calls.small"] = len(small)
        m["seppoly.calls.large"] = len(large)
        m["seppoly.rows_per_s.small"] = rate(sum(n for n, _ in small), math.fsum(t for _, t in small))
        m["seppoly.rows_per_s.large"] = rate(sum(n for n, _ in large), math.fsum(t for _, t in large))
        m["seppoly.bytes_in_computed"] = sum(spans[i][5]["rows"] * spans[i][5]["b"] * 16 for i in sep)

        enum = named("configs.enumerate")
        m["configs.enumerate.calls"] = len(enum)
        m["configs.enumerate.busy_s"] = busy("configs.enumerate")
        m["configs.count"] = sum(spans[i][5]["count"] for i in enum)
        for d in range(4):
            m[f"configs.count.dim{d}"] = sum(spans[i][5]["dims"][d] for i in enum)
        m["configs.assemble.calls"] = len(named("configs.assemble"))
        m["configs.assemble.busy_s"] = busy("configs.assemble")

        maxi = named("optimize.maximize")
        m["optimize.maximize.calls"] = len(maxi)
        m["optimize.maximize.self_s"] = math.fsum(own[i] for i in maxi)
        m["optimize.maximize.vacuous"] = sum(spans[i][5]["value"] is None for i in maxi)
        useful = dominated = 0
        cert_s = 0.0
        cell_s = {"m1": 0.0, "m2": 0.0, "m3": 0.0, "m4": 0.0}
        for c in named("optimize.cell_max"):
            attrs = spans[c][5]
            cell_s[attrs["sel"]] += dur[c]
            kids = children.get(c, [])
            if attrs["certify"]:
                cert_s += dur[c] - math.fsum(
                    dur[i] for i in kids if spans[i][0] in ("configs.enumerate", "optimize.maximize"))
            seen = set()
            for i in kids:
                if spans[i][0] != "optimize.maximize" or spans[i][5]["cfg"] in seen:
                    continue
                seen.add(spans[i][5]["cfg"])  # certification re-maximizes 0-dim configurations
                value = spans[i][5]["value"]
                if value is not None:
                    useful += 1
                    dominated += value < attrs["value"] * (1.0 - DOMINATED_REL)
        m["optimize.maximize.dominated_ratio"] = dominated / useful if useful else 0.0
        for sel, secs in cell_s.items():
            m["optimize.cell_max.busy_s." + sel] = secs
        m["optimize.certify.busy_s"] = cert_s
        m["optimize.global_max.calls"] = len(named("optimize.global_max"))
        m["optimize.global_max.busy_s"] = busy("optimize.global_max")

        fb = named("combiner.full_bound")
        m["combiner.full_bound.calls"] = len(fb)
        m["combiner.full_bound.self_s"] = math.fsum(own[i] for i in fb)
        m["combiner.combine.busy_s"] = busy("combiner.combine")
        cl = [i for i, rec in enumerate(spans) if rec[0].startswith("classical.")]
        m["classical.calls"] = len(cl)
        m["classical.busy_s"] = math.fsum(dur[i] for i in cl)

        sam = named("oracle.sample")
        m["oracle.sample.calls"] = len(sam)
        m["oracle.sample.evaluated"] = sum(spans[i][5]["evaluated"] for i in sam)
        m["oracle.sample.self_s"] = math.fsum(own[i] for i in sam)
        m["oracle.sample.samples_per_s"] = rate(m["oracle.sample.evaluated"], busy("oracle.sample"))
        m["cli.self_s"] = math.fsum(own[i] for i in named("cli.main"))
        m["trace.overhead_s"] = traced_wall - untraced_wall

        for prefix, needed in NEEDS.items():
            if needed not in self.hooked:
                for name in [k for k in m if k.startswith(prefix)]:
                    del m[name]
        return m
