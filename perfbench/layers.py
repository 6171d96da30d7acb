"""Per-layer self time, measured from outside the program.

A traced run replaces each layer's public entry point, at the place its
caller looks it up, with a timing wrapper.  Nothing inside ``src/``
changes: the wrappers are installed by attribute assignment and removed
again by :meth:`Tracer.uninstall`.

Each wrapper charges its call's *self* time (its own duration minus the
durations of wrapped calls nested inside it) to the layer's name, so
the layer times of one job add up to the job's wall time, with the
unwrapped remainder reported as ``other``.  Stacks are per thread, so
the server's executor threads and the client threads each keep their
own nesting.

Span trees for each job are kept in memory and written by
:meth:`Tracer.flush`, after the timed work, as ordinary
``repro.observe`` ledger records (``make_record`` + ``RunLedger``), so
``repro-observe report`` renders them.  Repeated calls of one layer
under one parent are folded into a single span whose ``calls``
attribute counts them; its duration is their sum.
"""

from __future__ import annotations

import functools
import gc
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: Self-time layers in report order (seconds).
TIME_LAYERS = (
    "workloads.generate",
    "compiler.lex",
    "compiler.parse",
    "compiler.check",
    "compiler.lower",
    "compiler.optimize",
    "compiler.regalloc",
    "compiler.codegen",
    "linker.link",
    "core.candidates",
    "core.greedy",
    "core.tokenize",
    "core.branch_patch",
    "core.jump_tables",
    "core.serialize",
    "image.encode",
    "image.decode",
    "verify.stream",
    "machine.decode",
    "machine.predecode",
    "machine.simulate",
    "client.submit",
    "client.wait",
    "client.artifact",
)

#: Counts the wrappers derive from the wrapped calls' results.
COUNTS = (
    "compiler.tokens",
    "compiler.functions",
    "linker.text_insns",
    "core.candidates",
    "core.dict_entries",
    "core.relaxations",
    "image.bytes",
    "machine.sim_insns",
)


def _count_tokens(counts, result, args):
    counts["compiler.tokens"] += len(result)


def _count_function(counts, result, args):
    counts["compiler.functions"] += 1


def _count_text(counts, result, args):
    counts["linker.text_insns"] += len(result.text)


def _count_candidates(counts, result, args):
    counts["core.candidates"] += len(result)


def _count_entries(counts, result, args):
    counts["core.dict_entries"] += len(result.dictionary.entries)


def _count_relaxations(counts, result, args):
    counts["core.relaxations"] += result[2]


def _count_image_bytes(counts, result, args):
    counts["image.bytes"] += len(result)


def _count_steps(counts, result, args):
    counts["machine.sim_insns"] += result.steps


def _targets():
    """``(layer, owner, attribute, counter)`` for every wrapped entry.

    ``owner`` is the module or class through which the layer's caller
    looks the entry up, so replacing the attribute there intercepts
    exactly the calls the pipeline makes.
    """
    from repro.client import client as client_mod
    from repro.compiler import driver, parser
    from repro.compiler.codegen import FunctionCodegen
    from repro.compiler.lowering import FunctionLowerer
    from repro.core import compressor, greedy
    from repro.core.image import CompressedImage
    from repro.machine import fastpath
    from repro.machine.compressed_sim import CompressedSimulator
    from repro.machine.decompressor import StreamDecoder
    from repro.workloads import suite

    return [
        ("workloads.generate", suite, "benchmark_source", None),
        ("compiler.lex", parser, "tokenize", _count_tokens),
        ("compiler.parse", driver, "parse", None),
        ("compiler.check", driver, "check", None),
        ("compiler.lower", FunctionLowerer, "__init__", None),
        ("compiler.lower", FunctionLowerer, "lower", None),
        ("compiler.optimize", driver, "optimize_function", None),
        ("compiler.regalloc", driver, "allocate", None),
        ("compiler.codegen", FunctionCodegen, "__init__", None),
        ("compiler.codegen", FunctionCodegen, "generate", _count_function),
        ("linker.link", driver, "link", _count_text),
        ("core.candidates", greedy, "candidate_store", _count_candidates),
        ("core.greedy", compressor, "build_dictionary", _count_entries),
        ("core.tokenize", compressor, "build_tokens", None),
        ("core.branch_patch", compressor, "patch_branches", _count_relaxations),
        ("core.jump_tables", compressor, "patch_jump_tables", None),
        ("core.serialize", compressor.Compressor, "compress", None),
        ("image.encode", CompressedImage, "from_compressed", None),
        ("image.encode", CompressedImage, "to_bytes", _count_image_bytes),
        ("image.decode", CompressedImage, "from_bytes", None),
        ("verify.stream", compressor.CompressedProgram, "verify_stream",
         None),
        ("machine.decode", StreamDecoder, "decode_all_columnar", None),
        ("machine.predecode", fastpath, "stream_cache", None),
        ("machine.simulate", CompressedSimulator, "run", _count_steps),
        ("client.submit", client_mod.ReproClient, "submit", None),
        ("client.wait", client_mod.ReproClient, "wait", None),
        ("client.artifact", client_mod.ReproClient, "artifact", None),
    ]


def _new_node(name: str, start_ns: int) -> dict:
    return {"name": name, "start_ns": start_ns, "dur_ns": 0, "calls": 0,
            "kids": {}}


def _span_dict(node: dict) -> dict:
    """A folded node as a ``repro.observe`` span dict."""
    doc = {
        "name": node["name"],
        "start_us": node["start_ns"] // 1_000,
        "duration_us": node["dur_ns"] // 1_000,
        "attrs": {"calls": node["calls"]},
    }
    if node["kids"]:
        doc["children"] = [_span_dict(kid) for kid in node["kids"].values()]
    return doc


class Tracer:
    """Installs the layer wrappers and accumulates their measurements."""

    def __init__(self, ledger_dir=None, kind: str = "perfbench.job") -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[dict] = []
        self._restore: list[tuple[object, str, object]] = []
        self._gc_start = 0
        self.ledger_dir = ledger_dir
        self.kind = kind
        self._jobs: list[tuple] = []
        self.gc_ns = 0
        self.gc_gen2 = 0

    # -- per-thread state ------------------------------------------------
    def _totals(self) -> dict:
        totals = getattr(self._local, "totals", None)
        if totals is None:
            totals = {
                "self_ns": defaultdict(int),
                "calls": defaultdict(int),
                "counts": defaultdict(int),
                "job_ns": 0,
                "jobs": 0,
            }
            self._local.totals = totals
            self._local.stack = []
            with self._lock:
                self._per_thread.append(totals)
        return totals

    # -- install / uninstall ---------------------------------------------
    def install(self) -> "Tracer":
        for layer, owner, attribute, counter in _targets():
            original = owner.__dict__[attribute] if isinstance(owner, type) \
                else getattr(owner, attribute)
            self._restore.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(layer, original, counter))
        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
            return
        self.gc_ns += time.perf_counter_ns() - self._gc_start
        if info.get("generation") == 2:
            self.gc_gen2 += 1

    def _wrap(self, layer: str, original, counter):
        if isinstance(original, classmethod):
            return classmethod(self._wrap(layer, original.__func__, counter))
        tracer = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            totals = tracer._totals()
            stack = tracer._local.stack
            start = time.perf_counter_ns()
            node = None
            if stack and stack[-1][1] is not None:
                kids = stack[-1][1]["kids"]
                node = kids.get(layer)
                if node is None:
                    node = kids[layer] = _new_node(layer, start)
            frame = [0, node]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                stack.pop()
                totals["self_ns"][layer] += elapsed - frame[0]
                totals["calls"][layer] += 1
                if stack:
                    stack[-1][0] += elapsed
                if node is not None:
                    node["dur_ns"] += elapsed
                    node["calls"] += 1
            if counter is not None:
                counter(totals["counts"], result, args)
            return result

        return timed

    # -- jobs --------------------------------------------------------------
    @contextmanager
    def job(self, program: str | None = None, encoding: str | None = None,
            **meta):
        """One job: the root span of its layer tree and one ledger record.

        Time inside the job that no wrapped layer claims is charged to
        ``other``.
        """
        totals = self._totals()
        stack = self._local.stack
        counts_before = dict(totals["counts"])
        start = time.perf_counter_ns()
        root = _new_node("job", start)
        frame = [0, root]
        stack.append(frame)
        outcome = "error"
        try:
            yield
            outcome = "ok"
        finally:
            elapsed = time.perf_counter_ns() - start
            stack.pop()
            totals["self_ns"]["other"] += elapsed - frame[0]
            totals["job_ns"] += elapsed
            totals["jobs"] += 1
            root["dur_ns"] = elapsed
            root["calls"] = 1
            counts = {
                name: totals["counts"][name] - counts_before.get(name, 0)
                for name in COUNTS
                if totals["counts"][name] != counts_before.get(name, 0)
            }
            with self._lock:
                self._jobs.append((root, program, encoding, outcome, meta,
                                   counts))

    def flush(self) -> None:
        """Write the finished jobs' span trees to the observe ledger."""
        from repro import observe

        with self._lock:
            jobs, self._jobs = self._jobs, []
        if self.ledger_dir is None or not jobs:
            return
        ledger = observe.RunLedger(self.ledger_dir)
        for root, program, encoding, outcome, meta, counts in jobs:
            ledger.append(observe.make_record(
                self.kind, program=program, encoding=encoding,
                spans=[_span_dict(root)], metrics=counts, outcome=outcome,
                wall_seconds=root["dur_ns"] / 1e9, meta=meta,
            ))

    # -- results -----------------------------------------------------------
    def snapshot(self) -> dict:
        """Totals over every thread, in seconds and counts."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        counts: dict[str, int] = defaultdict(int)
        job_s = 0.0
        jobs = 0
        with self._lock:
            threads = list(self._per_thread)
        for totals in threads:
            for name, value in totals["self_ns"].items():
                self_s[name] += value / 1e9
            for name, value in totals["calls"].items():
                calls[name] += value
            for name, value in totals["counts"].items():
                counts[name] += value
            job_s += totals["job_ns"] / 1e9
            jobs += totals["jobs"]
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "counts": dict(counts),
            "job_s": job_s,
            "jobs": jobs,
            "gc_s": self.gc_ns / 1e9,
            "gc_gen2": self.gc_gen2,
        }


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Sum several :meth:`Tracer.snapshot` results (passes, processes)."""
    merged = {"self_s": defaultdict(float), "calls": defaultdict(int),
              "counts": defaultdict(int), "job_s": 0.0, "jobs": 0,
              "gc_s": 0.0, "gc_gen2": 0}
    for snap in snapshots:
        for key in ("self_s", "calls", "counts"):
            for name, value in snap[key].items():
                merged[key][name] += value
        for key in ("job_s", "jobs", "gc_s", "gc_gen2"):
            merged[key] += snap[key]
    for key in ("self_s", "calls", "counts"):
        merged[key] = dict(merged[key])
    return merged


def thunk_stats() -> tuple[int, int]:
    """Cumulative (hits, misses) of the fast path's thunk memo."""
    from repro.machine import translation_cache_stats

    stats = translation_cache_stats()
    return stats["thunk_hits"], stats["thunk_misses"]


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")
