"""One pass of ``cold_suite`` or ``encoding_sweep`` in a fresh interpreter.

Usage: ``python3 perfbench/worker.py SPEC.json RESULT.json``.  The
parent (``run.py``) writes the spec, times the process from its start,
and reads the result.  Output checks against the reference interpreter
run here, after the timed jobs, so they never count as measured time.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
import traceback
from contextlib import nullcontext


def _load_repro(root: str) -> None:
    sys.path.insert(0, os.path.join(root, "src"))
    import repro  # noqa: F401 — fail early if the tree has no sources


def _job(program, encoding: str, max_codewords, max_entry_len: int):
    """compress → image round trip → run the decoded image to halt."""
    from repro.core import CompressedImage, compress, make_encoding
    from repro.machine import CompressedSimulator

    compressed = compress(program, make_encoding(encoding, max_codewords),
                          max_entry_len=max_entry_len)
    blob = CompressedImage.from_compressed(compressed).to_bytes()
    image = CompressedImage.from_bytes(blob)
    result = CompressedSimulator.from_image(image).run()
    return compressed, blob, result


def _job_record(key: str, latency: float, program, compressed, blob,
                result) -> dict:
    return {
        "key": key,
        "latency_s": latency,
        "stdout": result.output_text,
        "exit_code": result.exit_code,
        "ratio": compressed.compressed_bytes / compressed.original_bytes,
        "exact": {
            "sim_insns": result.steps,
            "text_insns": len(program.text),
            "dict_entries": len(compressed.dictionary.entries),
            "relaxations": compressed.relaxations,
            "image_bytes": len(blob),
        },
    }


def _reference_outputs(programs: dict) -> dict:
    """Run each uncompressed program on the independent reference engine."""
    from repro.machine import Simulator

    outputs = {}
    for key, program in programs.items():
        result = Simulator(program, implementation="reference").run()
        outputs[key] = {"stdout": result.output_text,
                        "exit_code": result.exit_code}
    return outputs


def _tracer(spec: dict):
    from layers import Tracer

    return Tracer(ledger_dir=spec.get("ledger"),
                  kind=f"perfbench.{spec['workload']}")


def _in_fork(function, *args):
    """``function(*args)`` in a fork of this process; its JSON result.

    The fork starts from this process's state, so every call sees the
    same heap, collector state and process-wide caches.
    """
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(function(*args), pipe)
            code = 0
        except BaseException:  # noqa: BLE001 — reported by the parent
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"job process {pid} ended with status {status}")
    return json.loads(data)


def _cold_job(name: str, scale: float, tracer, reference: bool) -> dict:
    """One cold job, run in a fork; with the reference output if asked."""
    from repro.compiler import compile_and_link
    from repro.workloads import suite

    start = time.perf_counter()
    with (tracer.job(program=name, encoding="nibble", scale=scale)
          if tracer else nullcontext()):
        source = suite.benchmark_source(name, scale)
        program = compile_and_link(source, name=name)
        compressed, blob, result = _job(program, "nibble", None, 4)
    latency = time.perf_counter() - start
    key = f"{name}@{scale}"
    out = {"job": _job_record(key, latency, program, compressed, blob,
                              result),
           "peak_rss_mb": _peak_rss()}
    if tracer is not None:
        tracer.uninstall()
        tracer.flush()
        from layers import thunk_stats

        out["trace"] = tracer.snapshot()
        out["trace"]["thunk"] = thunk_stats()
    if reference:
        out["reference"] = _reference_outputs({key: program})
    return out


def cold_pass(spec: dict) -> dict:
    """The ROADMAP cold job for each program of the pass, one at a time.

    Each job runs in a fork of this interpreter taken after the imports,
    so it starts as cold as the first job of a fresh process: no
    predecoded thunks, decode tables or collector debt left by the jobs
    before it, whatever its place in the seed's order.
    """
    import repro.compiler  # noqa: F401 — imports count as set-up
    import repro.core  # noqa: F401
    import repro.machine  # noqa: F401
    import repro.workloads  # noqa: F401

    from layers import merge_snapshots

    tracer = _tracer(spec).install() if spec["trace"] else None
    gc.collect()
    first = time.monotonic()
    runs = [_in_fork(_cold_job, name, scale, tracer, spec["reference"])
            for name, scale in spec["jobs"]]
    out = {"first_job_monotonic": first,
           "jobs": [run["job"] for run in runs],
           "peak_rss_mb": max(run["peak_rss_mb"] for run in runs)}
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = merge_snapshots([run["trace"] for run in runs])
        out["trace"]["thunk"] = [sum(run["trace"]["thunk"][i] for run in runs)
                                 for i in (0, 1)]
    if spec["reference"]:
        out["reference"] = {key: value for run in runs
                            for key, value in run["reference"].items()}
    return out


def sweep_pass(spec: dict) -> dict:
    """Whole cycles of the seed's configs over programs compiled in setup."""
    from repro.core.candidates import candidate_store
    from repro.machine import clear_translation_caches
    from repro.machine.decompressor import clear_decode_cache
    from repro.workloads import build_benchmark

    from layers import merge_snapshots, thunk_stats

    scale = spec["scale"]
    programs = {name: build_benchmark(name, scale) for name in spec["programs"]}
    for name, _, _, max_entry_len in spec["configs"]:
        candidate_store(programs[name], max_entry_len)
    first = time.monotonic()
    cycles, snapshots, thunk = [], [], [0, 0]
    measured = 0.0
    min_cycles = 2 if spec["trace"] else 1
    while len(cycles) < min_cycles or measured < spec["seconds"]:
        # Every cycle simulates images this process has never decoded.
        clear_decode_cache()
        clear_translation_caches()
        traced = spec["trace"] and len(cycles) % 2 == 1
        tracer = _tracer(spec).install() if traced else None
        jobs = []
        for name, encoding, max_codewords, max_entry_len in spec["configs"]:
            key = f"{name}@{scale}:{encoding}:{max_codewords}:{max_entry_len}"
            program = programs[name]
            start = time.perf_counter()
            with (tracer.job(program=name, encoding=encoding,
                             max_codewords=max_codewords,
                             max_entry_len=max_entry_len)
                  if tracer else nullcontext()):
                compressed, blob, result = _job(
                    program, encoding, max_codewords, max_entry_len)
            latency = time.perf_counter() - start
            jobs.append(_job_record(key, latency, program, compressed, blob,
                                    result))
        wall = sum(job["latency_s"] for job in jobs)
        measured += wall
        if tracer is not None:
            tracer.uninstall()
            tracer.flush()
            snapshots.append(tracer.snapshot())
            hits, misses = thunk_stats()
            thunk[0] += hits
            thunk[1] += misses
        cycles.append({"traced": traced, "wall_s": wall, "jobs": jobs})
    out = {"first_job_monotonic": first, "cycles": cycles,
           "peak_rss_mb": _peak_rss()}
    if snapshots:
        out["trace"] = merge_snapshots(snapshots)
        out["trace"]["thunk"] = thunk
    if spec["reference"]:
        out["reference"] = _reference_outputs(
            {f"{name}@{scale}": program for name, program in programs.items()})
    return out


def _peak_rss() -> float:
    from layers import peak_rss_mb

    return peak_rss_mb()


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    with open(spec_path) as handle:
        spec = json.load(handle)
    _load_repro(spec["root"])
    run = cold_pass if spec["workload"] == "cold_suite" else sweep_pass
    out = run(spec)
    tmp = result_path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(out, handle)
    os.replace(tmp, result_path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
