"""Span tracing of mbcr from outside the program, and the per-layer metrics.

Wrappers replace the public functions of each mbcr module, in every mbcr
module that holds them: ``from .poly import interpolate`` binds the name
in codec and repair too, so each binding is wrapped. Global lookups
inside a module (``rank`` from ``lemma1_results``) see the wrapper set on
the module attribute. ``Field.*`` and ``eval_poly`` are not wrapped: they
run tens of millions of times per run, and a seeded microbenchmark of
``Field.mul/add/inv`` stands in for them.

A span is ``[name, start, end, parent, op]``; the op is the index of the
enclosing ``cli.main`` call. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name); a function is wrapped wherever it is bound.
FUNCTIONS = [
    ("mbcr.cli", "main", "cli.main"),
    ("mbcr.cli", "_atomic_write", "sharefile.write"),
    ("mbcr.sharefile", "write_share_file", "sharefile.write"),
    ("mbcr.sharefile", "read_share_file", "sharefile.read"),
    ("mbcr.sharefile", "file_to_stripes", "sharefile.stripe"),
    ("mbcr.sharefile", "stripes_to_file", "sharefile.stripe"),
    ("mbcr.codec", "validate_params", "codec.validate_params"),
    ("mbcr.codec", "derive_points", "codec.derive_points"),
    ("mbcr.codec", "encode", "codec.encode"),
    ("mbcr.codec", "reconstruct", "codec.reconstruct"),
    ("mbcr.codec", "share_polys", "codec.share_polys"),
    ("mbcr.poly", "interpolate", "poly.interpolate"),
    ("mbcr.repair", "make_plan", "repair.make_plan"),
    ("mbcr.repair", "run_repair", "repair.run_repair"),
    ("mbcr.repair", "phase1_assemble", "repair.phase1_assemble"),
    ("mbcr.repair", "phase2_send", "repair.phase2_send"),
    ("mbcr.repair", "regenerate", "repair.regenerate"),
    ("mbcr.subspace", "node_space", "subspace.node_space"),
    ("mbcr.subspace", "rank", "subspace.rank"),
    ("mbcr.subspace", "intersect", "subspace.intersect"),
    ("mbcr.subspace", "transfer_spaces", "subspace.transfer_spaces"),
    ("mbcr.subspace", "check_property1", "subspace.property1"),
    ("mbcr.subspace", "check_property2", "subspace.property2"),
    ("mbcr.subspace", "check_corollary1", "subspace.corollary1"),
    ("mbcr.subspace", "check_property3", "subspace.property3"),
    ("mbcr.subspace", "lemma1_results", "subspace.lemma1"),
    ("mbcr.subspace", "run_all_checks", "subspace.run_all_checks"),
    ("mbcr.bounds", "max_file_size", "bounds.max_file_size"),
]
# (module, class, method, span name)
METHODS = [
    ("mbcr.poly", "BiPoly", "eval", "poly.bipoly_eval"),
    ("mbcr.sharefile", "ShareFile", "stripes", "sharefile.stripe"),
]


def _counters(module: str, attr: str):
    """Counts recorded at a boundary from its arguments and result."""
    header = sys.modules["mbcr.sharefile"].HEADER_SIZE
    return {
        ("mbcr.cli", "_atomic_write"): lambda a, res: {
            "sharefile.files_written": 1, "sharefile.bytes_written": len(a[1])},
        ("mbcr.sharefile", "write_share_file"): lambda a, res: {
            "sharefile.files_written": 1,
            "sharefile.bytes_written": header + len(a[1].payload)},
        ("mbcr.sharefile", "read_share_file"): lambda a, res: {
            "sharefile.bytes_read": header + len(res.payload)},
        ("mbcr.repair", "run_repair"): lambda a, res: {"repair.ledger_symbols": res[1].total},
        ("mbcr.subspace", "run_all_checks"): lambda a, res: {"subspace.checks": len(res)},
    }.get((module, attr))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_kinds: list[str] = []
        self.counts: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, count=None):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if not stack:  # a root span starts a new op
                self.op_kinds.append(args[0][0] if name == "cli.main" else name)
            op = len(self.op_kinds) - 1
            idx = len(spans)
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1, op]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count:
                for key, value in count(args, result).items():
                    self.counts[key][op] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items()) if n == "mbcr" or n.startswith("mbcr.")]
        for module, attr, name in FUNCTIONS:
            orig = getattr(sys.modules[module], attr)
            wrapper = self.wrap(orig, name, _counters(module, attr))
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for module, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            orig = cls.__dict__[attr]
            self._restore.append((cls, attr, orig))
            setattr(cls, attr, self.wrap(orig, name))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"names": self.names, "op_kinds": self.op_kinds,
                       "fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


def gf_microbench(field, seed: int, calls: int = 20000, repeats: int = 5) -> dict[str, float]:
    """Median ns per call of Field.mul/add/inv on seeded operands."""
    rng = random.Random(f"mbcr-bench/gf/{seed}")
    a = [rng.randrange(field.order) for _ in range(calls)]
    b = [rng.randrange(1, field.order) for _ in range(calls)]
    out = {}
    for op in ("mul", "add", "inv"):
        fn = getattr(field, op)
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            if op == "inv":
                for y in b:
                    fn(y)
            else:
                for x, y in zip(a, b):
                    fn(x, y)
            times.append(time.perf_counter() - start)
        out[f"gf.{op}_ns"] = statistics.median(times) / calls * 1e9
    return out


# Per-layer metrics printed in the JSON line of a traced run. Each one has
# a value on every workload; layers a workload never calls report 0 calls.
JSON_LAYERS = [
    ("gf.mul_ns", "ns"), ("gf.add_ns", "ns"), ("gf.inv_ns", "ns"),
    ("cli.self_ms", "ms"), ("codec.setup_ms", "ms"), ("repair.make_plan.ms", "ms"),
    ("poly.bipoly_eval.calls", "count"), ("poly.interpolate.calls", "count"),
    ("poly.lagrange.misses", "count"), ("repair.ledger_symbols_per_stripe", "count"),
    ("sharefile.files_written", "count"), ("sharefile.bytes_written", "B"),
    ("sharefile.bytes_read", "B"), ("subspace.rank.calls", "count"),
    ("subspace.intersect.calls", "count"), ("subspace.checks", "count"),
    ("trace.overhead", "ratio"), ("src.lines", "count"),
]


def layer_metrics(tr: Tracer, r: int, alpha: int, lagrange: tuple[int, int]) -> dict[str, tuple]:
    """Per-layer metrics from the spans of one traced pass.

    "Per op" is the mean over the ops that made at least one such call;
    self time is a span's duration minus the durations of its children.
    """
    n = len(tr.names)
    calls, incl, self_t = [0] * n, [0.0] * n, [0.0] * n
    ops_with: list[set] = [set() for _ in range(n)]
    child = [0.0] * len(tr.spans)
    for nid, start, end, parent, op in tr.spans:
        if parent >= 0:
            child[parent] += end - start
    main_self: dict[int, float] = defaultdict(float)
    main_id = tr._name_ids.get("cli.main")
    for idx, (nid, start, end, parent, op) in enumerate(tr.spans):
        calls[nid] += 1
        incl[nid] += end - start
        self_t[nid] += end - start - child[idx]
        ops_with[nid].add(op)
        if nid == main_id:
            main_self[op] += end - start - child[idx]

    def stat(name: str, which: str):
        nid = tr._name_ids.get(name)
        if nid is None or not calls[nid]:
            return None
        total = {"calls": calls, "ms": incl, "self_ms": self_t}[which][nid]
        per_op = total / len(ops_with[nid])
        return per_op if which == "calls" else per_op * 1e3

    def per_call_ms(name: str):
        nid = tr._name_ids.get(name)
        return incl[nid] / calls[nid] * 1e3 if nid is not None and calls[nid] else None

    def count(key: str):
        per_op = tr.counts.get(key)
        return sum(per_op.values()) / len(per_op) if per_op else None

    out: dict[str, tuple] = {}

    def put(name, value, unit):
        if value is not None:
            out[name] = (value, unit)

    put("poly.bipoly_eval.calls", stat("poly.bipoly_eval", "calls"), "count")
    put("poly.bipoly_eval.self_ms", stat("poly.bipoly_eval", "self_ms"), "ms")
    put("poly.interpolate.calls", stat("poly.interpolate", "calls"), "count")
    put("poly.interpolate.self_ms", stat("poly.interpolate", "self_ms"), "ms")
    hits, misses = lagrange
    if hits + misses:
        put("poly.lagrange.hit_ratio", hits / (hits + misses), "ratio")
    put("poly.lagrange.misses", misses, "count")
    put("codec.encode.ms_per_stripe", per_call_ms("codec.encode"), "ms")
    put("codec.reconstruct.ms_per_stripe", per_call_ms("codec.reconstruct"), "ms")
    put("codec.share_polys.self_ms", stat("codec.share_polys", "self_ms"), "ms")
    setup = [stat(s, "ms") for s in ("codec.validate_params", "codec.derive_points")]
    if None not in setup:
        put("codec.setup_ms", sum(setup), "ms")
    put("repair.make_plan.ms", stat("repair.make_plan", "ms"), "ms")
    put("repair.run_repair.ms_per_stripe", per_call_ms("repair.run_repair"), "ms")
    put("repair.phase1_assemble.self_ms", stat("repair.phase1_assemble", "self_ms"), "ms")
    put("repair.regenerate.self_ms", stat("repair.regenerate", "self_ms"), "ms")
    nid = tr._name_ids.get("repair.run_repair")
    if nid is not None and calls[nid]:
        ledger = sum(tr.counts["repair.ledger_symbols"].values())
        put("repair.ledger_symbols_per_stripe", ledger / calls[nid], "count")
        put("repair.bandwidth_ratio", ledger / (r * alpha * calls[nid]), "ratio")
    put("sharefile.read.ms", stat("sharefile.read", "ms"), "ms")
    put("sharefile.write.ms", stat("sharefile.write", "ms"), "ms")
    put("sharefile.stripe.ms", stat("sharefile.stripe", "ms"), "ms")
    for key in ("sharefile.files_written", "sharefile.bytes_written", "sharefile.bytes_read"):
        put(key, count(key), "B" if "bytes" in key else "count")
    kinds = tr.op_kinds
    for kind in ("encode", "reconstruct", "repair", "verify"):
        ops = [op for op, k in enumerate(kinds) if k == kind]
        if ops:
            label = "read" if kind == "reconstruct" else kind
            put(f"cli.{label}.self_ms", sum(main_self[o] for o in ops) / len(ops) * 1e3, "ms")
    if kinds:
        put("cli.self_ms", sum(main_self.values()) / len(kinds) * 1e3, "ms")
    for name in ("rank", "intersect"):
        put(f"subspace.{name}.calls", stat(f"subspace.{name}", "calls"), "count")
        put(f"subspace.{name}.self_ms", stat(f"subspace.{name}", "self_ms"), "ms")
    for name in ("node_space", "lemma1", "property1", "property3"):
        put(f"subspace.{name}.ms", stat(f"subspace.{name}", "ms"), "ms")
    put("subspace.checks", count("subspace.checks"), "count")
    put("bounds.max_file_size.ms", stat("bounds.max_file_size", "ms"), "ms")
    return out
