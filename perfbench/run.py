"""The repository benchmark: three seeded workloads over the public APIs.

Usage::

    python3 perfbench/run.py --workload cold_suite --seed 1 --seconds 40 --trace 0

Workloads (see ``perfbench/README.md`` for the full rationale):

``cold_suite``
    The cold job — generate → compile → link → compress(nibble) → image
    round trip → run to halt — for the 8 suite programs, one fresh
    interpreter per pass, one job in flight.
``encoding_sweep``
    The suite is compiled in set-up; the timed jobs are compress → image
    round trip → run to halt over a seed-drawn set of (program ×
    encoding × max_codewords × max_entry_len) configs.
``service_mix``
    ``repro-server`` in its own process; two closed-loop client threads
    run a seeded mix of exact repeats, compress-only misses, inline
    source misses and ``verify=full`` jobs through ``ReproClient``.

``BENCHMARK.json`` gates ``cold_suite`` and ``service_mix``;
``encoding_sweep`` is run by hand (the README says why).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
work half untraced and half with every layer's entry point wrapped
(:mod:`layers`), and prints per-layer self times, counts and ratios plus
the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Output
checks run outside the timed region; any failed check makes the run
exit 1 with ``"correct": false``.
"""

from __future__ import annotations

import time

PROCESS_START = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import http.client  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STATE_DIR = BENCH / ".state"
RUNS_DIR = BENCH / ".runs"
EXPECTED_STDOUT = BENCH / "expected_stdout.json"

WORKLOADS = ("cold_suite", "encoding_sweep", "service_mix")
DEFAULT_SEED = 1

#: cold_suite runs ceil(seconds / COLD_PASS_BUDGET_S) whole passes (at
#: least 3), so every run of one seed times the same jobs.
COLD_PASS_BUDGET_S = 10.0
COLD_MIN_PASSES = 3
COLD_SCALES = (0.95, 1.05)
SWEEP_SCALE = 0.5
SWEEP_PASSES = 2
#: The (encoding, max_codewords, max_entry_len) settings of one sweep
#: cycle, taken from the paper's Fig 4 (entry length), Fig 5 (codeword
#: budget), Fig 8 (1-byte dictionaries) and the nibble scheme.  The
#: seed assigns them to programs (two per program) and orders them.
SWEEP_SETTINGS = (
    ("baseline", None, 1), ("baseline", None, 2),
    ("baseline", None, 4), ("baseline", None, 8),
    ("baseline", 16, 4), ("baseline", 64, 4), ("baseline", 256, 4),
    ("baseline", 1024, 4), ("baseline", 4096, 4),
    ("onebyte", 8, 4), ("onebyte", 16, 4), ("onebyte", 32, 4),
    ("nibble", None, 4), ("nibble", 256, 4), ("nibble", 1024, 2),
    ("nibble", None, 8),
)
SERVICE_SCALE = 0.5
SERVICE_PROGRAMS = ("li", "m88ksim", "ijpeg")
SERVICE_ENCODINGS = ("baseline", "onebyte", "nibble")
SERVICE_SOURCE_PROGRAM = "go"
SERVICE_SOURCE_SCALES = (0.40, 0.44)
#: The verify=full jobs compile this small kernel, seeded per job, so
#: their lockstep run is short and every one costs about the same.
SERVICE_KERNEL = """int data[48];
int main() {
    int i;
    int s = 0;
    srand(%d);
    for (i = 0; i < 48; i = i + 1) {
        data[i] = rand() & 1023;
    }
    sort_i(data, 48);
    for (i = 0; i < 48; i = i + 1) {
        s = s + data[i] * (i + 1);
    }
    print_int(s);
    print_nl();
    return 0;
}
"""
#: One block of the miss thread's plan: 9 compress-only misses (each
#: program × encoding once), 2 inline-source misses and 1 verify=full
#: miss.  It stops only at block boundaries, so every run has this mix.
SERVICE_BLOCK = ("compress",) * 9 + ("source",) * 2 + ("full",)
#: code_size_ratio covers the distinct specs of the first
#: SERVICE_RATIO_BLOCKS blocks, which every run completes.
SERVICE_RATIO_BLOCKS = 2
#: Blocks planned: more than any run completes.
SERVICE_PLAN_BLOCKS = 24
#: Repeats planned for the repeat thread: more than any run completes.
SERVICE_PLAN_REPEATS = 4096
#: Repeat ``j`` names one of the first ``j // SERVICE_REPEAT_LAG + 1``
#: misses, which the miss thread has nearly always finished by then.
SERVICE_REPEAT_LAG = 8
SERVER_STARTS = 3
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark could not run (not an output-check failure)."""


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, n)`` for the highest of
    :data:`TAIL_PERCENTILES` that has at least 10 samples beyond it (the
    median when none has)."""
    n = len(latencies)
    pct = next((p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100 >= 10),
               50.0)
    if n < 2:
        return latencies[0], pct, n
    cuts = statistics.quantiles(latencies, n=1000, method="inclusive")
    return cuts[round(pct * 10) - 1], pct, n


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(setups, latencies, attempted, failed, ratios, rss,
               measured_s, unit: str = "jobs") -> dict:
    tail_value, tail_pct, n = tail(latencies)
    return {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(latencies) / measured_s,
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail_value,
        "completed_ratio": (attempted - failed) / attempted,
        "code_size_ratio": geomean(ratios),
        "peak_rss_mb": rss,
        "_tail": f"p{tail_pct:g} of {n} {unit}",
        "_fail_ratio": failed / attempted,
    }


# ---------------------------------------------------------------------------
# checks shared by the in-process workloads
# ---------------------------------------------------------------------------
def expected_stdout() -> dict:
    with open(EXPECTED_STDOUT) as handle:
        return json.load(handle)


def check_outputs(jobs: list[dict], reference: dict, problems: list) -> None:
    """Compressed-image output must equal the reference interpreter's
    run of the uncompressed program, and the committed golden stdout."""
    golden = expected_stdout()
    for job in jobs:
        program_key = job["key"].split(":", 1)[0]
        ref = reference[program_key]
        if (job["stdout"], job["exit_code"]) != (ref["stdout"],
                                                 ref["exit_code"]):
            problems.append(f"{job['key']}: output {job['stdout']!r}/"
                            f"{job['exit_code']} != reference "
                            f"{ref['stdout']!r}/{ref['exit_code']}")
        if program_key in golden and ref["stdout"] != golden[program_key]:
            problems.append(f"{program_key}: reference stdout "
                            f"{ref['stdout']!r} != committed "
                            f"{golden[program_key]!r}")


def check_repeats(jobs: list[dict], problems: list) -> dict:
    """Exact counts and ratio of one key must agree wherever it recurs."""
    seen: dict[str, dict] = {}
    for job in jobs:
        record = {**job["exact"], "ratio": job["ratio"]}
        first = seen.setdefault(job["key"], record)
        if first != record:
            problems.append(f"{job['key']}: exact counts differ between "
                            f"repeats: {first} vs {record}")
    return seen


def check_state(workload: str, seed: int, records: dict,
                problems: list) -> None:
    """Exact counts must repeat between runs of one seed.

    Each run stores its per-job exact counts under the benchmark's
    ``.state`` directory; a later run of the same seed fails on any
    difference for a job both ran.
    """
    STATE_DIR.mkdir(parents=True, exist_ok=True)
    path = STATE_DIR / f"{workload}-seed{seed}.json"
    stored = {}
    if path.exists():
        with open(path) as handle:
            stored = json.load(handle)
    for key, record in records.items():
        if key in stored and stored[key] != record:
            problems.append(f"{key}: exact counts {record} differ from an "
                            f"earlier run of seed {seed}: {stored[key]}")
    stored.update(records)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as handle:
        json.dump(stored, handle, sort_keys=True)
    os.replace(tmp, path)


def check_tracer_counts(snapshot: dict, jobs: list[dict], names,
                        problems: list) -> None:
    """The wrappers' counts must equal the counts read off the results."""
    for exact, layer in names:
        direct = sum(job["exact"][exact] for job in jobs)
        traced = snapshot["counts"].get(layer, 0)
        if direct != traced:
            problems.append(f"tracer counted {layer}={traced}, results "
                            f"give {direct}")


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------
_CHILDREN: list[subprocess.Popen] = []


def spawn(args: list[str], **kwargs) -> subprocess.Popen:
    # Each child leads a process group of its own, so killing the group
    # also stops what the child started: job forks, server workers.
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                            start_new_session=True, **kwargs)
    _CHILDREN.append(proc)
    return proc


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def reap(proc: subprocess.Popen, timeout: float) -> int:
    try:
        return proc.wait(timeout=timeout)
    finally:
        _kill_group(proc)
        if proc in _CHILDREN:
            _CHILDREN.remove(proc)


def stop_children() -> None:
    for proc in list(_CHILDREN):
        _kill_group(proc)
        _CHILDREN.remove(proc)


def _exit_on_sigterm(signum, frame) -> None:
    raise SystemExit(128 + signum)


def run_worker(run_dir: Path, name: str, spec: dict) -> dict:
    """One pass in a fresh interpreter; adds its ``setup_s``."""
    spec_path = run_dir / f"{name}.spec.json"
    result_path = run_dir / f"{name}.result.json"
    with open(spec_path, "w") as handle:
        json.dump({**spec, "root": str(ROOT)}, handle)
    start = time.monotonic()
    proc = spawn([str(BENCH / "worker.py"), str(spec_path),
                  str(result_path)])
    code = reap(proc, CHILD_TIMEOUT_S)
    if code != 0:
        raise BenchError(f"{name}: worker exited with code {code}")
    with open(result_path) as handle:
        result = json.load(handle)
    result["setup_s"] = result["first_job_monotonic"] - start
    return result


# ---------------------------------------------------------------------------
# cold_suite
# ---------------------------------------------------------------------------
def cold_scales(rng: random.Random) -> dict[str, float]:
    from repro.workloads import BENCHMARK_NAMES

    return {name: round(rng.uniform(*COLD_SCALES), 3)
            for name in BENCHMARK_NAMES}


def cold_suite(seed: int, seconds: int, trace: bool, run_dir: Path,
               problems: list) -> dict:
    from repro.workloads import BENCHMARK_NAMES

    rng = random.Random(f"cold_suite:{seed}")
    scales = cold_scales(rng)
    passes = max(COLD_MIN_PASSES, math.ceil(seconds / COLD_PASS_BUDGET_S))
    if trace:
        # Untraced passes on both sides of each traced one, so a drift in
        # machine speed does not read as tracing overhead.
        passes = max(3, passes | 1)
    results = []
    for index in range(passes):
        order = list(BENCHMARK_NAMES)
        rng.shuffle(order)
        results.append(run_worker(run_dir, f"pass{index}", {
            "workload": "cold_suite",
            "jobs": [[name, scales[name]] for name in order],
            "trace": trace and index % 2 == 1,
            "ledger": str(run_dir.parent / "observe"),
            "reference": index == 0,
        }))
    jobs = [job for result in results for job in result["jobs"]]
    check_outputs(jobs, results[0]["reference"], problems)
    records = check_repeats(jobs, problems)
    check_state("cold_suite", seed, records, problems)
    # Each program's job time is its median over the passes, so one pass
    # caught in a slow spell of the machine does not move the figures.
    by_program: dict[str, list[float]] = {}
    for job in jobs:
        by_program.setdefault(job["key"], []).append(job["latency_s"])
    latencies = [statistics.median(times) for times in by_program.values()]
    out = {
        "attempted": len(jobs), "failed": 0,
        "metrics": end_to_end(
            [r["setup_s"] for r in results], latencies, len(jobs), 0,
            [record["ratio"] for record in records.values()],
            max(r["peak_rss_mb"] for r in results), sum(latencies),
            unit="programs"),
    }
    if trace:
        from layers import merge_snapshots

        traced = [r for r in results if "trace" in r]
        untraced = [r for r in results if "trace" not in r]
        snapshot = merge_snapshots([r["trace"] for r in traced])
        thunk = [sum(r["trace"]["thunk"][i] for r in traced) for i in (0, 1)]
        traced_jobs = [job for r in traced for job in r["jobs"]]
        check_tracer_counts(snapshot, traced_jobs, (
            ("sim_insns", "machine.sim_insns"),
            ("text_insns", "linker.text_insns"),
            ("dict_entries", "core.dict_entries"),
            ("relaxations", "core.relaxations"),
            ("image_bytes", "image.bytes"),
        ), problems)
        traced_wall = statistics.mean(
            sum(job["latency_s"] for job in r["jobs"]) for r in traced)
        untraced_wall = statistics.mean(
            sum(job["latency_s"] for job in r["jobs"]) for r in untraced)
        out["layers"] = per_layer(snapshot, thunk, {
            "trace.overhead_ratio": traced_wall / untraced_wall - 1.0,
            "trace.untraced_wall_s": untraced_wall,
        })
    return out


# ---------------------------------------------------------------------------
# encoding_sweep
# ---------------------------------------------------------------------------
def sweep_configs(seed: int) -> list[list]:
    from repro.workloads import BENCHMARK_NAMES

    rng = random.Random(f"encoding_sweep:{seed}")
    settings = list(SWEEP_SETTINGS)
    rng.shuffle(settings)
    programs = list(BENCHMARK_NAMES) * 2
    configs = [[program, *setting]
               for program, setting in zip(programs, settings)]
    rng.shuffle(configs)
    return configs


def encoding_sweep(seed: int, seconds: int, trace: bool, run_dir: Path,
                   problems: list) -> dict:
    from repro.workloads import BENCHMARK_NAMES

    configs = sweep_configs(seed)
    results = [
        run_worker(run_dir, f"pass{index}", {
            "workload": "encoding_sweep",
            "scale": SWEEP_SCALE,
            "programs": list(BENCHMARK_NAMES),
            "configs": configs,
            "seconds": seconds / SWEEP_PASSES,
            "trace": trace,
            "ledger": str(run_dir.parent / "observe"),
            "reference": index == 0,
        })
        for index in range(SWEEP_PASSES)
    ]
    cycles = [cycle for result in results for cycle in result["cycles"]]
    jobs = [job for cycle in cycles for job in cycle["jobs"]]
    check_outputs(jobs, results[0]["reference"], problems)
    records = check_repeats(jobs, problems)
    check_state("encoding_sweep", seed, records, problems)
    measured = [job for cycle in cycles if not cycle["traced"]
                for job in cycle["jobs"]]
    latencies = [job["latency_s"] for job in measured]
    out = {
        "attempted": len(jobs), "failed": 0,
        "metrics": end_to_end(
            [r["setup_s"] for r in results], latencies, len(jobs), 0,
            [record["ratio"] for record in records.values()],
            max(r["peak_rss_mb"] for r in results), sum(latencies)),
    }
    if trace:
        from layers import merge_snapshots

        snapshot = merge_snapshots([r["trace"] for r in results])
        thunk = [sum(r["trace"]["thunk"][i] for r in results)
                 for i in (0, 1)]
        traced = [c for c in cycles if c["traced"]]
        untraced = [c for c in cycles if not c["traced"]]
        check_tracer_counts(snapshot, [j for c in traced for j in c["jobs"]], (
            ("sim_insns", "machine.sim_insns"),
            ("dict_entries", "core.dict_entries"),
            ("relaxations", "core.relaxations"),
            ("image_bytes", "image.bytes"),
        ), problems)
        traced_wall = statistics.mean(c["wall_s"] for c in traced)
        untraced_wall = statistics.mean(c["wall_s"] for c in untraced)
        out["layers"] = per_layer(snapshot, thunk, {
            "trace.overhead_ratio": traced_wall / untraced_wall - 1.0,
            "trace.untraced_wall_s": untraced_wall,
        })
    return out


# ---------------------------------------------------------------------------
# service_mix
# ---------------------------------------------------------------------------
def service_plan(seed: int) -> list[list[dict]]:
    """The two client threads' job sequences.

    Thread 0 runs misses: blocks of :data:`SERVICE_BLOCK` in seed-drawn
    order, each naming a spec no job has used before.  Programs,
    encodings and entry lengths are dealt from shuffled decks, so every
    seed draws them in the same proportions.  Thread 1 runs exact
    repeats of thread 0's specs; repeat ``j`` waits until the miss it
    names has completed, so it is an artifact-cache read whatever the
    timing.  Keeping the two apart means every repeat runs beside a
    miss in the server, so repeat latency has one mode, not two.
    """
    rng = random.Random(f"service_mix:{seed}")
    decks: dict[str, list] = {}

    def deal(name: str, items):
        deck = decks.setdefault(name, [])
        if not deck:
            deck.extend(items)
            rng.shuffle(deck)
        return deck.pop()

    used: set = set()
    pairs = [(p, e) for p in SERVICE_PROGRAMS for e in SERVICE_ENCODINGS]
    misses: list[dict] = []
    for _ in range(SERVICE_PLAN_BLOCKS):
        kinds = list(SERVICE_BLOCK)
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "source":
                spec = {"program": SERVICE_SOURCE_PROGRAM,
                        "scale": round(rng.uniform(*SERVICE_SOURCE_SCALES),
                                       3),
                        "tag": f"seed {seed} job {len(misses)}"}
            elif kind == "full":
                spec = {"kernel": seed * 100_003 + len(misses),
                        "encoding": deal("full", SERVICE_ENCODINGS)}
            else:
                program, encoding = deal("compress", pairs)
                spec = _compress_spec(rng, used, program, encoding,
                                      deal("entry_len", (2, 3, 4)))
            misses.append({"kind": kind, "spec": spec})
    repeats = []
    for index in range(SERVICE_PLAN_REPEATS):
        ref = rng.randrange(min(index // SERVICE_REPEAT_LAG + 1,
                                len(misses)))
        repeats.append({"kind": "hit", "ref": ref,
                        "spec": misses[ref]["spec"]})
    return [misses, repeats]


def _compress_spec(rng, used: set, program: str, encoding: str,
                   max_entry_len: int) -> dict:
    """A suite-program spec with a ``max_codewords`` no job used yet."""
    low, high = {"baseline": (1024, 2048), "onebyte": (8, 32),
                 "nibble": (1024, 2048)}[encoding]
    for _ in range(1000):
        max_codewords = rng.randint(low, high)
        key = (program, encoding, max_codewords, max_entry_len)
        if key not in used:
            used.add(key)
            break
    else:
        raise BenchError(f"no unused max_codewords left for {key}")
    return {"benchmark": program, "scale": SERVICE_SCALE,
            "encoding": encoding, "max_codewords": max_codewords,
            "max_entry_len": max_entry_len}


def wire_spec(spec: dict) -> dict:
    """The spec as sent; an inline-source plan entry names a generated
    suite program plus a unique comment, so its source is new text."""
    if "kernel" in spec:
        return {"source": SERVICE_KERNEL % spec["kernel"], "name": "kernel",
                "encoding": spec["encoding"], "verify": "full"}
    if "tag" not in spec:
        return spec
    from repro.workloads import benchmark_source

    source = (benchmark_source(spec["program"], spec["scale"])
              + f"\n// perfbench {spec['tag']}\n")
    return {"source": source, "name": f"src-{spec['program']}",
            "encoding": "nibble"}


class Server:
    """A ``repro-server`` child process (``perfbench/serve.py``)."""

    def __init__(self, run_dir: Path, name: str, traced: bool) -> None:
        self.cache_dir = run_dir / f"{name}-cache"
        self.trace_out = run_dir / f"{name}-trace.json" if traced else None
        ledger = run_dir.parent / "observe"
        start = time.monotonic()
        self.proc = spawn(
            [str(BENCH / "serve.py"), str(ROOT),
             str(self.trace_out) if traced else "-",
             str(ledger) if traced else "-", "--",
             "--port", "0", "--cache-dir", str(self.cache_dir)],
            stdout=subprocess.PIPE, text=True,
        )
        line = self._read_banner()
        self.url = line.split()[3]
        host, port = self.url.removeprefix("http://").rsplit(":", 1)
        self.address = (host, int(port))
        while not self._healthy():
            if time.monotonic() - start > 60:
                raise BenchError(f"{name}: /healthz never answered")
            time.sleep(0.005)
        self.setup_s = time.monotonic() - start
        # Keep draining stdout so the server never blocks on a full pipe.
        self._drain = threading.Thread(target=self.proc.stdout.read,
                                       daemon=True)
        self._drain.start()

    def _read_banner(self) -> str:
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise BenchError("server exited before listening")
            if "listening on" in line:
                return line

    def _healthy(self) -> bool:
        try:
            status, _ = self.get("/healthz")
        except OSError:
            return False
        return status == 200

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(*self.address, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stop(self) -> dict | None:
        """SIGTERM (the server drains), wait, return its trace totals."""
        self.proc.send_signal(signal.SIGTERM)
        code = reap(self.proc, 60)
        self._drain.join(timeout=5)
        if code != 0:
            raise BenchError(f"server exited with code {code}")
        if self.trace_out is None:
            return None
        with open(self.trace_out) as handle:
            return json.load(handle)


def run_session(server: Server, plans, seconds: float, tracer=None):
    """Closed-loop client threads: the miss thread runs whole blocks
    until ``seconds`` have passed; the repeat thread runs until the miss
    thread stops.  Returns per-thread results and the wall time."""
    from repro.client import ReproClient

    results: list[list[dict]] = [[] for _ in plans]
    errors: list[BaseException] = []
    progress = threading.Condition()
    state = {"done": 0, "stopped": False}
    start = time.perf_counter()

    def wait_for(plan_job) -> bool:
        """Block until the miss a repeat names has completed."""
        with progress:
            while state["done"] <= plan_job.get("ref", -1):
                if state["stopped"]:
                    return False
                progress.wait()
            return not state["stopped"]

    def client_loop(thread: int) -> None:
        client = ReproClient(server.address,
                             rng=random.Random(f"client:{thread}"))
        try:
            for index, plan_job in enumerate(plans[thread]):
                if thread == 0:
                    if (index >= SERVICE_RATIO_BLOCKS * len(SERVICE_BLOCK)
                            and index % len(SERVICE_BLOCK) == 0
                            and time.perf_counter() - start >= seconds):
                        break
                elif not wait_for(plan_job):
                    break
                spec = wire_spec(plan_job["spec"])
                # One tenant per job: the client's idempotency key would
                # otherwise fold an exact repeat into the first job.
                client.tenant = f"t{thread}-{index}"
                began = time.perf_counter()
                with (tracer.job(program=spec.get("name")
                                 or spec.get("benchmark"),
                                 encoding=spec["encoding"],
                                 kind=plan_job["kind"])
                      if tracer else nullcontext()):
                    outcome = client.run_job(spec)
                latency = time.perf_counter() - began
                results[thread].append(_service_result(
                    index, plan_job["kind"], spec, outcome, latency))
                if thread == 0:
                    with progress:
                        state["done"] += 1
                        progress.notify_all()
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)
        finally:
            if thread == 0:
                with progress:
                    state["stopped"] = True
                    progress.notify_all()

    threads = [threading.Thread(target=client_loop, args=(k,))
               for k in range(len(plans))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    wall = time.perf_counter() - start
    return results, wall


def _service_result(index, kind, spec, outcome, latency) -> dict:
    completed = next((e["data"] for e in outcome.events
                      if e["kind"] == "completed"), {})
    return {
        "index": index, "kind": kind, "spec": spec,
        "latency_s": latency, "outcome": outcome.outcome,
        "error": outcome.error, "retries": outcome.retries,
        "cache_hit": completed.get("cache_hit"),
        "wall_s": completed.get("wall_seconds", 0.0),
        "meta": completed.get("meta", {}), "data": outcome.data,
    }


def server_stats(server: Server) -> dict:
    status, body = server.get("/v1/stats")
    if status != 200:
        raise BenchError(f"/v1/stats answered {status}")
    stats = json.loads(body)
    status, body = server.get("/metrics")
    if status != 200:
        raise BenchError(f"/metrics answered {status}")
    sums = {}
    for line in body.decode().splitlines():
        name, _, value = line.partition(" ")
        if name.endswith("_seconds_sum"):
            sums[name] = float(value)
    stats["timer_sums"] = sums
    stats["peak_rss_mb"] = _server_rss(server)
    return stats


def _server_rss(server: Server) -> float:
    from layers import peak_rss_mb

    return peak_rss_mb(server.proc.pid)


def check_service(results: list[list[dict]], expected: dict,
                  problems: list) -> dict:
    """Every artifact decodes and equals the same spec compressed here
    (``expected`` caches those bytes by spec); returns exact counts."""
    from repro.core import CompressedImage
    from repro.errors import ReproError
    from repro.service import CompressionJob

    records = {}
    for thread, jobs in enumerate(results):
        for job in jobs:
            if job["outcome"] != "completed":
                continue
            digest = hashlib.sha256(json.dumps(
                job["spec"], sort_keys=True).encode()).hexdigest()[:12]
            label = f"t{thread}:{job['index']}:{digest}"
            try:
                CompressedImage.from_bytes(job["data"])
            except ReproError as exc:
                problems.append(f"{label}: artifact does not decode: {exc}")
            spec = {k: v for k, v in job["spec"].items() if k != "verify"}
            key = json.dumps(spec, sort_keys=True)
            if key not in expected:
                _, image = CompressionJob(**spec, verify="none").run()
                expected[key] = image.to_bytes()
            if job["data"] != expected[key]:
                problems.append(f"{label}: artifact differs from the spec "
                                f"compressed in-process")
            if job["cache_hit"] != (job["kind"] == "hit"):
                problems.append(f"{label}: cache_hit={job['cache_hit']} but "
                                f"the plan makes it a "
                                f"{'hit' if job['kind'] == 'hit' else 'miss'}")
            records[label] = {
                "hit": job["cache_hit"], "image_bytes": len(job["data"]),
                "relaxations": job["meta"].get("relaxations"),
                "compressed_bytes": job["meta"].get("compressed_bytes"),
            }
    return records


def service_mix(seed: int, seconds: int, trace: bool, run_dir: Path,
                problems: list) -> dict:
    import repro.client  # noqa: F401 — imports count as set-up
    import repro.workloads  # noqa: F401

    plans = service_plan(seed)
    expected: dict[str, bytes] = {}
    prep_s = time.monotonic() - PROCESS_START
    if not trace:
        setups = []
        for index in range(SERVER_STARTS - 1):
            server = Server(run_dir, f"start{index}", traced=False)
            setups.append(server.setup_s)
            server.stop()
        server = Server(run_dir, "server", traced=False)
        setups.append(server.setup_s)
        results, wall = run_session(server, plans, seconds)
        stats = server_stats(server)
        server.stop()
        jobs = [job for thread in results for job in thread]
        failed = sum(job["outcome"] != "completed" for job in jobs)
        records = check_service(results, expected, problems)
        check_state("service_mix", seed, records, problems)
        latencies = [job["latency_s"] for job in jobs
                     if job["outcome"] == "completed"]
        ratios = [
            job["meta"]["compressed_bytes"] / job["meta"]["original_bytes"]
            for job in results[0][:SERVICE_RATIO_BLOCKS * len(SERVICE_BLOCK)]
            if job["meta"]
        ]
        metrics = end_to_end(
            [prep_s + s for s in setups], latencies, len(jobs), failed,
            ratios, stats["peak_rss_mb"], wall)
        return {"attempted": len(jobs), "failed": failed, "metrics": metrics}

    # Traced run: the same plan against an untraced and then a traced
    # server, each from an empty cache, for half the time each.
    from layers import Tracer

    server = Server(run_dir, "untraced", traced=False)
    base_results, _ = run_session(server, plans, seconds / 2)
    server.stop()
    server = Server(run_dir, "traced", traced=True)
    tracer = Tracer(ledger_dir=run_dir.parent / "observe",
                    kind="perfbench.client_job").install()
    try:
        results, _ = run_session(server, plans, seconds / 2, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.flush()
    stats = server_stats(server)
    server_snapshot = server.stop()
    jobs = [job for thread in results for job in thread]
    failed = sum(job["outcome"] != "completed" for job in jobs)
    records = check_service(results, expected, problems)
    for label, record in check_service(base_results, expected,
                                       problems).items():
        if records.setdefault(label, record) != record:
            problems.append(f"{label}: exact counts differ between the "
                            f"untraced and traced sessions")
    check_state("service_mix", seed, records, problems)
    client = tracer.snapshot()
    traced_wall = untraced_wall = 0.0
    for base, traced in zip(base_results, results):
        common = min(len(base), len(traced))
        traced_wall += sum(job["latency_s"] for job in traced[:common])
        untraced_wall += sum(job["latency_s"] for job in base[:common])
    completed = [job for job in jobs if job["outcome"] == "completed"]
    hits = [job for job in completed if job["cache_hit"]]
    misses = [job for job in completed if not job["cache_hit"]]
    hit_wall = sum(job["wall_s"] for job in hits)
    miss_wall = sum(job["wall_s"] for job in misses)
    cache = stats["cache"]
    sums = stats["timer_sums"]
    snapshot = {
        **client,
        "self_s": {**server_snapshot["self_s"], **client["self_s"]},
        "counts": server_snapshot["counts"],
        "calls": {**server_snapshot["calls"], **client["calls"]},
        "gc_s": server_snapshot["gc_s"] + client["gc_s"],
        "gc_gen2": server_snapshot["gc_gen2"] + client["gc_gen2"],
    }
    layers = per_layer(snapshot, server_snapshot["thunk"], {
        "trace.overhead_ratio": traced_wall / untraced_wall - 1.0,
        "trace.untraced_wall_s": untraced_wall,
        "client.retries": sum(job["retries"] for job in jobs),
        "server.job_wall_s": hit_wall + miss_wall,
        "service.hit_wall_s": hit_wall,
        "service.miss_wall_s": miss_wall,
        "server.queue_wait_s": (client["self_s"].get("client.wait", 0.0)
                                - hit_wall - miss_wall),
        "service.cache_hit_ratio": (cache["hits"]
                                    / max(cache["hits"] + cache["misses"], 1)),
        "service.cache_lookups": cache["hits"] + cache["misses"],
        "service.hits": len(hits),
        "service.misses": len(misses),
        "service.stage.compile_s": sums.get("repro_stage_compile_seconds_sum",
                                            0.0),
        "service.stage.dict_build_s": sums.get(
            "repro_stage_dict_build_seconds_sum", 0.0),
        "verify.full_s": sums.get("repro_stage_verify_seconds_sum", 0.0),
        "server.rejected": stats["counters"].get("jobs.rejected", 0),
    })
    return {"attempted": len(jobs), "failed": failed, "layers": layers}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------
def per_layer(snapshot: dict, thunk, extra: dict) -> dict:
    from layers import COUNTS, TIME_LAYERS

    self_s = snapshot["self_s"]
    counts = snapshot["counts"]
    out: dict[str, float] = {}
    for layer in TIME_LAYERS:
        out[f"{layer}_s"] = self_s.get(layer, 0.0)
    for name in COUNTS:
        out[name] = counts.get(name, 0)
    lex = out["compiler.lex_s"]
    sim = out["machine.simulate_s"]
    out["compiler.tokens_per_s"] = out["compiler.tokens"] / lex if lex else 0.0
    out["machine.sim_insn_per_s"] = (out["machine.sim_insns"] / sim
                                     if sim else 0.0)
    hits, misses = thunk
    out["machine.thunk_lookups"] = hits + misses
    out["machine.thunk_hit_ratio"] = hits / (hits + misses) if hits + misses \
        else 0.0
    out["runtime.gc_s"] = snapshot["gc_s"]
    out["runtime.gc_gen2"] = snapshot["gc_gen2"]
    out["jobs.wall_s"] = snapshot["job_s"]
    out["layers.other_s"] = self_s.get("other", 0.0)
    out["layers.coverage_ratio"] = (1.0 - out["layers.other_s"]
                                    / snapshot["job_s"])
    out["trace.wrapped_calls"] = sum(snapshot["calls"].values())
    for name in SERVICE_LAYER_DEFAULTS:
        out[name] = 0
    out.update(extra)
    return out


SERVICE_LAYER_DEFAULTS = (
    "client.retries", "server.job_wall_s", "service.hit_wall_s",
    "service.miss_wall_s", "server.queue_wait_s", "service.cache_hit_ratio",
    "service.cache_lookups", "service.hits", "service.misses",
    "service.stage.compile_s", "service.stage.dict_build_s", "verify.full_s",
    "server.rejected",
)

#: Each ratio's base, printed beside it.
RATIO_BASES = {
    "compiler.tokens_per_s": "compiler.tokens / compiler.lex_s",
    "machine.sim_insn_per_s": "machine.sim_insns / machine.simulate_s",
    "machine.thunk_hit_ratio": "hits / machine.thunk_lookups",
    "service.cache_hit_ratio": "hits / service.cache_lookups",
    "layers.coverage_ratio": "layer self time / jobs.wall_s",
    "trace.overhead_ratio": "traced wall / trace.untraced_wall_s - 1",
}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------
def load_benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def report(workload: str, out: dict, trace: bool, spec: dict) -> dict:
    section = "per_layer" if trace else "end_to_end"
    values = out["layers"] if trace else out["metrics"]
    metrics = {}
    for metric in spec[section]:
        name = metric["name"]
        if name not in values:
            raise BenchError(f"{workload} did not measure {name}")
        metrics[name] = {"value": values[name], "unit": metric["unit"]}
    print(f"{workload}: {'per-layer' if trace else 'end-to-end'} metrics")
    for name, doc in metrics.items():
        note = ""
        if name == "job_tail_s":
            note = f"  ({values['_tail']})"
        elif name == "completed_ratio":
            note = f"  (fail_ratio {values['_fail_ratio']:.4f})"
        elif name in RATIO_BASES:
            note = f"  (base: {RATIO_BASES[name]})"
        print(f"  {name:30s} {doc['value']:>14.6g} {doc['unit']}{note}")
    if trace:
        print(f"  tracing overhead: {values['trace.overhead_ratio']:+.2%} of "
              f"untraced job wall time; layers cover "
              f"{values['layers.coverage_ratio']:.1%} of job wall time, "
              f"other {values['layers.other_s']:.3f} s")
    return metrics


def write_expected_stdout() -> None:
    """Regenerate the committed golden stdout: every program of the
    default seed's ``cold_suite`` and of ``encoding_sweep``, run on the
    reference interpreter."""
    from repro.machine import Simulator
    from repro.workloads import BENCHMARK_NAMES, build_benchmark

    keys = [(name, scale) for name, scale in
            cold_scales(random.Random(f"cold_suite:{DEFAULT_SEED}")).items()]
    keys += [(name, SWEEP_SCALE) for name in BENCHMARK_NAMES]
    golden = {}
    for name, scale in keys:
        program = build_benchmark(name, scale)
        result = Simulator(program, implementation="reference").run()
        golden[f"{name}@{scale}"] = result.output_text
    with open(EXPECTED_STDOUT, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured time (default: BENCHMARK.json "
                        "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate expected_stdout.json and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_expected:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.write_expected:
        write_expected_stdout()
        return 0
    # A terminated run still stops its children (the finally below).
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    spec = load_benchmark_spec()
    seconds = args.seconds or spec["run_seconds"]
    run_dir = RUNS_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    problems: list[str] = []
    workload = {"cold_suite": cold_suite, "encoding_sweep": encoding_sweep,
                "service_mix": service_mix}[args.workload]
    try:
        out = workload(args.seed, seconds, bool(args.trace), run_dir,
                       problems)
        metrics = report(args.workload, out, bool(args.trace), spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        stop_children()
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems and out["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
