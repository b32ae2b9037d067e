#!/usr/bin/env python3
"""Benchmark of the grossone package, end to end and layer by layer.

Usage, from the repository root:

    python3 benchmarks/run.py --workload arith-wide --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):

  arith-wide      *, +/-, compare, ** and divide on numerals of 3 to 60 terms
  solve-inject    solve_grossone on n = 4..16 systems with 0-3 zero pivots
  repl-stream     one ``python -m grossone repl`` process fed seeded lines
  text-roundtrip  parse, print_canonical, parse, print_decimal on numeral text

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Inputs come from ``--seed`` only; the
package sees nothing but the generated inputs.  Every output is checked
against this directory's reference code, and the result line reports how
many operations were attempted and how many failed.

``--trace 0`` measures with tracing off and reports the end-to-end metrics:

  setup_s          program-side set-up, median of 15 fresh processes.  For the
                   in-process workloads: ``import grossone`` plus building the
                   inputs into numerals.  For repl-stream: spawning the repl
                   until it answers its first line.
  ops_per_s        operations completed per second spent inside them
  latency_p50_ms   median latency of one operation
  latency_p90_ms   90th percentile; every run has at least 100 operations,
                   so ten or more lie beyond it
  peak_rss_mb      peak resident set of the process doing the work

``--trace 1`` runs an untraced pass, then the same operations with span
wrappers installed at the package's module attributes (tracer.py), and
reports per-layer figures: calls and self seconds per operation, work
counters, the solver's ratio to the rational oracle, and trace overhead.
It also splits the traced wall time into self times, the tracer's
bookkeeping, the loop's own time measured on the untraced pass, and what
is left unaccounted (program time outside every span, plus noise).
Spans are written to ``.bench_out/``.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_RUNS = 15
PYTHON_START_RUNS = 5
CHILD_TIMEOUT = 170
LINE_TIMEOUT = 30

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

_SPAN_METRICS = [
    (f"{span}.{kind}", "1/op" if kind == "calls" else "s/op")
    for span in ("core.mul", "core.add", "core.compare", "core._normalize",
                 "core.divide", "core.pow", "notation.parse",
                 "notation.print_canonical", "notation.print_decimal")
    for kind in ("calls", "self_s")
]
PER_LAYER = _SPAN_METRICS + [
    ("core.divide.quotient_terms", "terms/call"),
    ("core.divide.inexact_frac", "frac"),
    ("core.result_terms.max", "terms"),
    ("core.digit_bits.max", "bits"),
    ("linsolve.solve_grossone.self_s", "s/op"),
    ("linsolve.solve_exact_oracle.s", "s"),
    *[(f"linsolve.oracle_ratio.n{n}.z{z}", "ratio") for n, z in workloads.SOLVE_CASES],
    *[(f"linsolve.oracle_s.n{n}.z{z}", "s") for n, z in workloads.SOLVE_CASES],
    ("linsolve.injections", "1/op"),
    ("linsolve.extra_injections", "1/op"),
    ("linsolve.solution_terms.max", "terms"),
    ("linsolve.solution_digit_bits.max", "bits"),
    ("linsolve.tail_terms_frac", "frac"),
    ("expr.parse_expr.self_s", "s/op"),
    ("expr.eval_at.self_s", "s/op"),
    ("expr.eval_at.inexact_frac", "frac"),
    ("cli.start_s", "s"),
    ("cli.python_start_s", "s"),
    ("cli.line.self_s", "s/op"),
    ("trace.overhead_frac", "frac"),
    ("trace.ops", "count"),
    ("trace.wall_s", "s/op"),
    ("trace.client_s", "s/op"),
    ("trace.bookkeeping_s", "s/op"),
    ("trace.loop_s", "s/op"),
    ("trace.unspanned_s", "s/op"),
]
WORKLOAD_NAMES = ("arith-wide", "solve-inject", "repl-stream", "text-roundtrip")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _python_start_s() -> float:
    times = []
    for _ in range(PYTHON_START_RUNS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=CHILD_TIMEOUT)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _worker(workload: str, inputs: Path, mode: str, seconds: float, trace_out=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--inputs", str(inputs), "--mode", mode, "--seconds", str(seconds)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- repl subprocess ----------------------------------------------------------


class Repl:
    """A ``python -m grossone repl`` child driven one line at a time."""

    def __init__(self):
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "grossone", "repl"],
            cwd=ROOT, env=_child_env(), bufsize=0,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        self.out_fd, self.err_fd = self.proc.stdout.fileno(), self.proc.stderr.fileno()
        self.buffers = {self.out_fd: b"", self.err_fd: b""}

    def send(self, line: str) -> None:
        self.proc.stdin.write(line.encode() + b"\n")

    def answer(self):
        """("out" | "err", line) for the next line the child writes."""
        out_fd, err_fd = self.out_fd, self.err_fd
        deadline = perf_counter() + LINE_TIMEOUT
        while True:
            for fd, kind in ((out_fd, "out"), (err_fd, "err")):
                buf = self.buffers[fd]
                if b"\n" in buf:
                    line, self.buffers[fd] = buf.split(b"\n", 1)
                    return kind, line.decode()
            remaining = deadline - perf_counter()
            if remaining <= 0:
                raise BenchError("repl did not answer within the line timeout")
            ready, _, _ = select.select([out_fd, err_fd], [], [], remaining)
            for fd in ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise BenchError("repl closed its output")
                self.buffers[fd] += chunk

    def peak_rss_mb(self):
        try:
            with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return None

    def close(self) -> tuple:
        """Send end of input; return (exit code, remaining stdout, stderr)."""
        try:
            out, err = self.proc.communicate(timeout=LINE_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise BenchError("repl did not exit at end of input") from None
        out = self.buffers[self.out_fd] + out
        err = self.buffers[self.err_fd] + err
        return self.proc.returncode, out.decode(), err.decode()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()


def _first_answer(repl: Repl, stream) -> tuple:
    """Feed lines up to the first expression; (seconds since spawn, next index, ok)."""
    i = 0
    while stream[i][1] is None:
        repl.send(stream[i][0])
        i += 1
    repl.send(stream[i][0])
    kind, line = repl.answer()
    return perf_counter() - repl.started, i + 1, (kind, line) == ("out", stream[i][1])


def _repl_run(stream, seconds: float) -> dict:
    setups = []
    for _ in range(SETUP_RUNS - 1):
        repl = Repl()
        try:
            setup_s, _, ok = _first_answer(repl, stream)
            code, _, err = repl.close()
        finally:
            repl.kill()
        if not ok or code != 0 or err:
            raise BenchError("repl set-up run gave a wrong first answer")
        setups.append(setup_s)
    repl = Repl()
    try:
        setup_s, i, ok = _first_answer(repl, stream)
        setups.append(setup_s)
        lat, failed = [], 0 if ok else 1
        start = perf_counter()
        while perf_counter() - start < seconds or len(lat) < workloads.MIN_OPS:
            t0 = perf_counter()
            line, expected = stream[i % len(stream)]
            i += 1
            repl.send(line)
            if expected is None:
                continue
            kind, got = repl.answer()
            lat.append(perf_counter() - t0)
            if kind != "out" or got != expected:
                failed += 1
        rss = repl.peak_rss_mb()
        code, rest, err = repl.close()
    finally:
        repl.kill()
    if code != 0 or rest or err:
        failed += 1
    if rss is None:
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {
        "setup_s": statistics.median(setups),
        "attempted": len(lat) + 1,
        "failed": failed,
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1e3,
        "peak_rss_mb": rss,
    }


# -- measurement --------------------------------------------------------------


def _generate(workload: str, seed: int):
    if workload == "repl-stream":
        return workloads.repl_stream(seed)
    return workloads.WORKLOADS[workload].generate(seed)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    # Keep the client and its children on one CPU.  With the repl child on
    # the other CPU every line pays a cross-CPU wake-up, whose cost on a
    # shared host swung repl-stream throughput by 2x between runs.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    data = _generate(workload, seed)
    inputs = OUT / f"inputs-{workload}-{seed}.pickle"
    with open(inputs, "wb") as handle:
        pickle.dump(data, handle)
    try:
        python_start = _python_start_s()
        if trace:
            result = _worker(workload, inputs, "trace", seconds,
                             OUT / f"spans-{workload}-{seed}.json.gz")
            layers = dict(result["metrics"], **{"cli.python_start_s": python_start})
            metrics = {name: layers.get(name, 0) for name, _ in PER_LAYER}
            return {"attempted": result["attempted"], "failed": result["failed"],
                    "metrics": metrics, "python_start_s": python_start}
        if workload == "repl-stream":
            result = _repl_run(data, seconds)
        else:
            setups = [_worker(workload, inputs, "setup", seconds)["setup_s"]
                      for _ in range(SETUP_RUNS - 1)]
            result = _worker(workload, inputs, "run", seconds)
            result["setup_s"] = statistics.median(setups + [result["setup_s"]])
    finally:
        inputs.unlink()
    return {"attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: result[name] for name, _ in END_TO_END},
            "python_start_s": python_start}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="grossone benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "grossone" / "__init__.py").is_file():
        print(f"error: no grossone package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = dict(PER_LAYER if args.trace else END_TO_END)
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"one closed-loop client  samples {attempted}")
    for name, value in result["metrics"].items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
        if name == "setup_s":
            print(f"  {'python_start_s (bare python -c pass)':40s} "
                  f"{result['python_start_s']:14.6g} s")
    print(f"  {'failed_frac':40s} {failed / attempted:14.6g} frac")
    if args.trace:
        metrics = result["metrics"]
        spans = sum(value for name, value in metrics.items() if name.endswith(".self_s"))
        wall, left = metrics["trace.wall_s"], metrics["trace.unspanned_s"]
        print(f"  traced wall {wall:.6g} s/op = self times {spans:.6g} "
              f"+ tracer bookkeeping {metrics['trace.bookkeeping_s']:.6g} "
              f"+ loop time of the untraced pass {metrics['trace.loop_s']:.6g} "
              f"+ unaccounted {left:.6g} ({left / wall:.1%})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
