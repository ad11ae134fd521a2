"""ripslab benchmark: four exact-arithmetic workloads, timed end to end and
traced per module.

    python3 perfbench/run.py --workload rips_bk_itm --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports ``ripslab`` from that
checkout's ``src``.  One process runs one closed-loop client: the next op
starts when the last one ends.  Ops repeat until ``--seconds`` have passed,
at least once.  Each op parses its inputs afresh, outside the timed region,
and its output is checked against references the timed code does not
produce; every op must also give the same output as the first.

``--trace 0`` reports the end-to-end metrics: ``op_s`` (median seconds per
op), ``setup_s`` (median over fresh interpreters of the time to the first
op being ready) and ``peak_rss_mb``.  ``--trace 1`` runs one untraced op,
installs the tracing wrappers of ``tracing.py`` and reports the per-layer
metrics of the traced ops, the import times of ``ripslab.cli`` and
``sympy`` and the tracing overhead; the spans go to ``perfbench/out``.

The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it holds the per-op samples
and the machine facts.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import ripslab  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
IMPORT_PROBES = 3


def setup_seconds(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the workload's first op
    being ready."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)]
    start = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return ready - start


def import_seconds() -> tuple[float, float]:
    """Cumulative import seconds of ripslab.cli and of sympy in a fresh
    interpreter, as ``python -X importtime`` attributes them."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ripslab.cli"],
                          cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            cumulative[fields[2].strip()] = int(fields[1]) / 1e6
    return cumulative.get("ripslab.cli", 0.0), cumulative.get("sympy", 0.0)


def machine_facts() -> dict:
    h = hashlib.sha256()
    package = os.path.dirname(ripslab.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "sympy": importlib.metadata.version("sympy"), "commit": commit,
            "source_sha256": h.hexdigest()}


class Client:
    """One closed-loop client running one workload's ops in this process."""

    def __init__(self, workload: str, seed: int):
        self.work = workloads.WORKLOADS[workload]
        self.texts = self.work.texts(seed)
        self.refs = self.work.references(seed)
        self.seconds: list[float] = []
        self.failures: list[str] = []
        self.first_digest = None

    def run(self, budget: float, recorder=None) -> list[float]:
        """Run ops until `budget` seconds have passed, at least one; return
        the seconds of each."""
        times = []
        start = perf_counter()
        while not times or perf_counter() - start < budget:
            if recorder is not None:
                recorder.begin()
            inputs = self.work.parse(self.texts)
            t0 = perf_counter()
            try:
                result = self.work.op(inputs)
            except Exception:
                result = None
                self.failures.append(traceback.format_exc(limit=3))
            times.append(perf_counter() - t0)
            if recorder is not None:
                recorder.end()
            if result is not None:
                self.check(result)
        self.seconds += times
        return times

    def check(self, result) -> None:
        try:
            digest = self.work.check(self.refs, result)
        except workloads.CheckFailed as exc:
            self.failures.append(f"check failed: {exc}")
            return
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            self.failures.append("output differs from the first op's")


def end_to_end(client: Client, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setups = [setup_seconds(workload, seed) for _ in range(SETUP_PROBES)]
    client.run(seconds)
    return {
        "op_s": (statistics.median(client.seconds), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, {"setup_seconds": setups}


def per_layer(client: Client, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    untraced = client.run(0)[0]
    recorder = tracing.Recorder()
    tracing.install(recorder)
    traced = client.run(seconds, recorder)
    metrics = {name: (value, tracing.LAYER_METRICS[name][0])
               for name, value in recorder.metrics().items()}
    imports = [import_seconds() for _ in range(IMPORT_PROBES)]
    metrics["cli.import_s"] = (statistics.median(t[0] for t in imports), "s")
    metrics["cli.sympy_import_s"] = (statistics.median(t[1] for t in imports), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - untraced, "s")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans-{workload}-seed{seed}.tsv")
    recorder.write_spans(spans)
    return metrics, {"untraced_op_seconds": untraced, "spans_file": os.path.relpath(spans, ROOT),
                     "spans": len(recorder.spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.path.dirname(os.path.realpath(ripslab.__file__)) != os.path.realpath(os.path.join(SRC, "ripslab")):
        sys.exit(f"ripslab was imported from {ripslab.__file__}, not from {SRC}")

    client = Client(args.workload, args.seed)
    measure = per_layer if args.trace else end_to_end
    metrics, details = measure(client, args.workload, args.seed, args.seconds)
    for message in client.failures:
        print(message, file=sys.stderr)
    attempted = len(client.seconds)
    failed = len(client.failures)
    details.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   op_samples=attempted, op_seconds=client.seconds,
                   fail_ratio=failed / attempted, machine=machine_facts())
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
