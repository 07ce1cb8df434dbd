#!/usr/bin/env python3
"""tracezero benchmark: one workload as a closed loop with one client.

Usage, from the root of a tracezero checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each request goes in-process to ``tracezero.cli.run_from_args`` from the
checkout's ``src/``; the next is sent only when the previous one returned.
A run cycles through the workload's request pool until ``--seconds`` of
call time have passed and every request has run at least twice.  Every
time it reports is scaled to the host's reference speed by the yardstick of
``hostspeed.py``, timed around each document; the wall-clock figures are
printed beside them.
Inputs come from ``--seed`` through the benchmark's own generator.  Every
output is checked by ``checks.py`` outside the timed region, and repeated
requests must give byte-identical output.  The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with ``--trace 0``, the per-layer ones (see ``layertrace.py``) with
``--trace 1``.  Lines before it record the environment, the tail percentile
with its sample count, the output digest and any failure.
"""
import os

# One BLAS / OpenMP thread, set before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from hostspeed import REFERENCE_S, at_reference, yardstick  # noqa: E402
from layertrace import ROOT as ROOT_SPAN, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE.parent / ".perfbench_work"
SETUP_RUNS = 5  # fresh processes timed for setup_s; the median is reported
TAIL_ABOVE = 10  # samples that must lie above the reported tail percentile


def load_cli():
    package = SRC / "tracezero"
    if not (package / "cli.py").is_file():
        sys.exit(f"perfbench: no tracezero sources at {package}")
    sys.path.insert(0, str(SRC))
    import tracezero.cli as cli
    if Path(cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: tracezero was imported from {cli.__file__}, not {package}")
    return cli


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "jsonschema": importlib.metadata.version("jsonschema"), "blas": blas,
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "nproc": os.cpu_count(), "loadavg": os.getloadavg()}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Ledger:
    """The first output of each request, and the verdict on each timed document.

    A document fails on a wrong exit code, on output bytes that differ from
    the request's first output, or when that first output fails its check.
    First outputs wait in files until ``check`` runs after the timed loop,
    so they neither take time in it nor count in its peak memory.
    """

    def __init__(self, requests, work: Path):
        self.requests = requests
        self.work = work
        self.digests = {}  # request index -> sha256 of its first output
        self.docs = []  # (request index, passed, output bytes) per timed document
        self.bad = set()  # request indices whose first output failed its check
        self.problems = {}  # request index -> first reason a document failed

    def note(self, index: int, reason: str):
        self.problems.setdefault(index, reason)

    def record(self, index: int, code, text: str, timed: bool = True):
        data = text.encode()
        digest = sha256(data)
        passed = code == self.requests[index].code
        if not passed:
            self.note(index, f"exit code {code}, expected {self.requests[index].code}")
        if index not in self.digests:
            self.digests[index] = digest
            (self.work / f"{index}.out").write_bytes(data)
        elif digest != self.digests[index]:
            passed = False
            self.note(index, "output bytes differ from an earlier run of the same request")
        if timed:
            self.docs.append((index, passed, len(data)))

    def check(self):
        for index in sorted(self.digests):
            text = (self.work / f"{index}.out").read_text(encoding="utf-8")
            try:
                self.requests[index].check(json.loads(text))
            except Exception as exc:  # a malformed document fails like a wrong one
                self.bad.add(index)
                self.note(index, f"check failed: {type(exc).__name__}: {exc}")

    def failed(self) -> int:
        return sum(1 for index, passed, _ in self.docs if not passed or index in self.bad)

    def digest(self) -> str:
        return sha256("".join(self.digests[i] for i in sorted(self.digests)).encode())


def call(run, request):
    argv = list(request.argv)
    start = time.perf_counter()
    try:
        code, text = run(argv, request.stdin)
    except Exception as exc:  # a crash is a failed document, not a failed benchmark
        code, text = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, text


def closed_loop(run, ledger: Ledger, seconds: float, docs: int) -> list:
    """Send documents one after another, cycling through the pool, until at
    least `docs` are sent and their call times add up to `seconds`.
    Returns (wall time, yardstick time) per document, the yardstick time
    being the mean of the yardsticks just before and just after it."""
    samples = []
    total = 0.0
    before = yardstick()
    while len(samples) < docs or total < seconds:
        index = len(samples) % len(ledger.requests)
        elapsed, code, text = call(run, ledger.requests[index])
        after = yardstick()
        samples.append((elapsed, (before + after) / 2.0))
        before = after
        total += elapsed
        ledger.record(index, code, text)
    return samples


def setup_samples(request, work: Path) -> list:
    """(setup_s, yardstick time, exit code, sha256) of SETUP_RUNS fresh
    processes on one request; the yardstick runs just before and after each."""
    path = work / "setup_request.json"
    path.write_text(json.dumps({"argv": list(request.argv), "stdin": request.stdin}))
    samples = []
    for _ in range(SETUP_RUNS):
        before = yardstick()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(path)],
                              capture_output=True, text=True, timeout=150, check=False)
        if proc.returncode != 0:
            sys.exit(f"perfbench: setup probe failed:\n{proc.stderr[-2000:]}")
        after = yardstick()
        probe = json.loads(proc.stdout.splitlines()[-1])
        samples.append((probe["setup_s"], (before + after) / 2.0, probe["code"], probe["sha256"]))
    return samples


def tail(latencies_ms: list):
    """(value, percentile, samples above): the highest nearest-rank percentile
    with TAIL_ABOVE samples above it.  With 20 samples or fewer that
    percentile would not lie above the median, so the one with a single
    sample above it is taken; it moves less from run to run than the maximum."""
    ordered = sorted(latencies_ms)
    above = TAIL_ABOVE if len(ordered) > 2 * TAIL_ABOVE else min(1, len(ordered) - 1)
    j = len(ordered) - 1 - above
    return ordered[j], 100.0 * (j + 1) / len(ordered), above


def warm_up(cli, ledger: Ledger):
    """Run the first request once, untimed; its output is the reference."""
    _, code, text = call(cli.run_from_args, ledger.requests[0])
    ledger.record(0, code, text, timed=False)


def end_to_end(cli, ledger: Ledger, seconds: float) -> dict:
    samples = setup_samples(ledger.requests[0], ledger.work)
    warm_up(cli, ledger)
    for _, _, code, digest in samples:
        if code != ledger.requests[0].code or digest != ledger.digests[0]:
            ledger.bad.add(0)
            ledger.note(0, "a fresh process gave other output for the warm-up request")
    loop = closed_loop(cli.run_from_args, ledger, seconds, 2 * len(ledger.requests))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ms = [1000.0 * at_reference(wall, stick) for wall, stick in loop]
    wall_ms = [1000.0 * wall for wall, _ in loop]
    tail_ms, percentile, above = tail(ms)
    print(f"latency_ms_tail is p{percentile:.1f} of {len(ms)} samples, {above} above it")
    print(f"yardstick median {1000.0 * statistics.median(y for _, y in loop):.2f} ms, "
          f"reference {1000.0 * REFERENCE_S:.2f} ms; wall clock: "
          f"latency p50 {statistics.median(wall_ms):.1f} ms, "
          f"{len(wall_ms) / (sum(wall_ms) / 1000.0):.3f} docs/s, "
          f"setup {statistics.median(s for s, _, _, _ in samples):.3f} s")
    print("latencies_ms at reference speed " + " ".join(f"{x:.1f}" for x in ms))
    return {
        "latency_ms_p50": (statistics.median(ms), "ms"),
        "latency_ms_tail": (tail_ms, "ms"),
        "docs_per_s": (len(ms) / (sum(ms) / 1000.0), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(at_reference(s, y) for s, y, _, _ in samples), "s"),
    }


def per_layer(cli, ledger: Ledger, seconds: float) -> dict:
    """The documents of half a run untraced, then the same documents traced."""
    warm_up(cli, ledger)
    plain = closed_loop(cli.run_from_args, ledger, seconds / 2.0, 2 * len(ledger.requests))
    tracer = Tracer()
    tracer.install()
    try:
        traced = closed_loop(tracer.wrap(ROOT_SPAN, cli.run_from_args), ledger, 0.0, len(plain))
    finally:
        tracer.uninstall()
    if tracer.absent:
        print("absent functions, reported as 0: " + ", ".join(tracer.absent))
    timed = ledger.docs[-len(traced):]
    scale = REFERENCE_S / statistics.median(y for _, y in traced)
    metrics = {name: (value * scale, "ms") if name.endswith("_ms") else (value, "count")
               for name, value in tracer.per_document(len(traced)).items()}
    metrics["cli.bytes_in"] = (sum(len(ledger.requests[i].stdin.encode()) for i, _, _ in timed)
                               / len(timed), "B")
    metrics["cli.bytes_out"] = (sum(size for _, _, size in timed) / len(timed), "B")
    metrics["trace.overhead_ratio"] = (sum(at_reference(*x) for x in traced)
                                       / sum(at_reference(*x) for x in plain), "ratio")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, exit through the finally blocks that remove the work files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    cli = load_cli()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("environment " + json.dumps(environment()))

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        requests = WORKLOADS[args.workload](np.random.default_rng(args.seed), cli.run_from_args)
        ledger = Ledger(requests, work)
        if args.trace:
            metrics = per_layer(cli, ledger, args.seconds)
        else:
            metrics = end_to_end(cli, ledger, args.seconds)
        ledger.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    failed = ledger.failed()
    print(f"fail_ratio {failed}/{len(ledger.docs)}")
    print(f"sha256 {ledger.digest()} over {len(ledger.digests)} distinct requests")
    for index, reason in sorted(ledger.problems.items()):
        print(f"request {index} {' '.join(requests[index].argv)}: {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ledger.docs), "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
