"""One benchmark client process: set up the package, run a workload, check it.

Started by ``run.py``, which generates the workload's inputs and pickles
them to ``--inputs``; prints one JSON object as its last stdout line.

Modes:
  setup  load the inputs, then time ``import grossone`` plus building them;
  run    set up, then run operations for ``--seconds`` with tracing off;
  trace  set up, run an untraced pass, then the same operations again with
         span wrappers installed, and report per-layer figures.
"""

from __future__ import annotations

import argparse
import io
import json
import pickle
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import reference as R
from workloads import MIN_OPS, SOLVE_CASES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
TRACE_SHARE = 0.35  # share of --seconds given to the untraced pass of a trace run


def _import_package(with_cli: bool = False):
    sys.path.insert(0, str(ROOT / "src"))
    import grossone  # noqa: F401
    from grossone import applications, core, expr, linsolve, notation

    pkg = SimpleNamespace(core=core, notation=notation, expr=expr, linsolve=linsolve,
                          applications=applications, cli=None)
    if with_cli:
        from grossone import cli

        pkg.cli = cli
    return pkg


def _percentiles(lat):
    lat = sorted(lat)
    return statistics.median(lat), statistics.quantiles(lat, n=10)[-1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Pass:
    """One closed-loop pass over the pool: latencies and observed outputs."""

    def __init__(self, wl, pkg, data, built, pool):
        self.wl, self.pkg, self.data, self.built, self.pool = wl, pkg, data, built, pool
        self.lat = []
        self.first = {}  # pool index -> record of its first occurrence
        self.same = {}  # pool index -> occurrences that matched the first
        self.failed = 0
        self.wall = 0.0

    def go(self, seconds=None, count=None, tracer=None):
        wl, pkg, data, built = self.wl, self.pkg, self.data, self.built
        start = perf_counter()
        i = 0
        while True:
            if count is not None:
                if i >= count:
                    break
            else:
                elapsed = perf_counter() - start
                if elapsed >= seconds and (i >= MIN_OPS or elapsed >= 3 * seconds):
                    break
            j = i % self.pool
            if tracer is not None:
                tracer.op = i
            t0 = perf_counter()
            try:
                out = wl.run(pkg, data, built, j)
            except Exception:  # noqa: BLE001 - counted as a failed operation
                self.lat.append(perf_counter() - t0)
                self.failed += 1
                if self.failed <= 3:
                    traceback.print_exc(file=sys.stderr)
                i += 1
                continue
            self.lat.append(perf_counter() - t0)
            record = wl.observe(data, j, out)
            if j not in self.first:
                self.first[j] = record
                self.same[j] = 1
            elif self.first[j] == record:
                self.same[j] += 1
            else:
                self.failed += 1
            i += 1
        self.wall = perf_counter() - start
        return self

    def check(self, checked=None) -> int:
        """Failed operations: raised, differed from an earlier repeat, or wrong.

        ``checked`` is an earlier pass whose records were checked already; a
        record equal to that pass's record is not checked again.
        """
        failed = self.failed
        for j, record in self.first.items():
            if checked is not None and j in checked.first and checked.first[j] == record:
                continue
            try:
                ok = self.wl.check(self.pkg, self.data, self.built, j, record)
            except Exception:  # noqa: BLE001 - a malformed output fails its check
                traceback.print_exc(file=sys.stderr)
                ok = False
            if not ok:
                failed += self.same[j]
                if failed <= 3:
                    print(f"check failed: {self.wl.name} pool item {j}", file=sys.stderr)
        return failed


def _inprocess(args, data):
    wl = WORKLOADS[args.workload]
    t0 = perf_counter()
    pkg = _import_package()
    built = wl.build(pkg, data)
    setup_s = perf_counter() - t0
    if args.mode == "setup":
        return {"setup_s": setup_s}
    pool = wl.size(data)
    if args.mode == "run":
        run = Pass(wl, pkg, data, built, pool).go(seconds=args.seconds)
        peak_rss_mb = _peak_rss_mb()  # before the reference checks allocate
        failed = run.check()
        p50, p90 = _percentiles(run.lat)
        return {
            "setup_s": setup_s,
            "attempted": len(run.lat),
            "failed": failed,
            "ops_per_s": len(run.lat) / sum(run.lat),
            "latency_p50_ms": p50 * 1e3,
            "latency_p90_ms": p90 * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
    from tracer import Tracer, install

    plain = Pass(wl, pkg, data, built, pool).go(seconds=args.seconds * TRACE_SHARE)
    tracer = Tracer()
    install(tracer, pkg)
    traced = Pass(wl, pkg, data, built, pool).go(count=len(plain.lat), tracer=tracer)
    own = (plain.wall - sum(plain.lat)) / len(plain.lat)
    metrics = _layer_metrics(tracer, len(traced.lat), traced.wall, own)
    metrics["trace.overhead_frac"] = sum(traced.lat) / sum(plain.lat) - 1
    if args.workload == "solve-inject":
        metrics.update(_solve_metrics(pkg, data, built, plain, traced))
    failed = plain.check() + traced.check(checked=plain)
    tracer.dump(args.trace_out)
    return {"attempted": len(plain.lat) + len(traced.lat), "failed": failed,
            "metrics": metrics}


LAYER_SPANS = [
    "core.mul", "core.add", "core.compare", "core._normalize", "core.divide", "core.pow",
    "notation.parse", "notation.print_canonical", "notation.print_decimal",
    "expr.parse_expr", "expr.eval_at", "linsolve.solve_grossone", "cli.line",
]


def _layer_metrics(tracer, ops: int, wall: float, own: float) -> dict:
    """Per-operation calls and self seconds per span name, plus the accounting.

    ``own`` is the benchmark loop's own seconds per operation, measured on
    the untraced pass.  What the traced wall time holds beyond the spans,
    the tracer's bookkeeping and that loop time is ``trace.unspanned_s``:
    program time outside every span, plus the noise between the two passes.
    """
    totals = tracer.totals()
    out = {}
    for name in LAYER_SPANS:
        t = totals.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = t["calls"] / ops
        out[f"{name}.self_s"] = t["self_s"] / ops
    c = tracer.counters
    divides = totals.get("core.divide", {"calls": 0})["calls"]
    evals = totals.get("expr.eval_at", {"calls": 0})["calls"]
    out["core.divide.quotient_terms"] = c.get("core.divide.quotient_terms", 0) / max(divides, 1)
    out["core.divide.inexact_frac"] = c.get("core.divide.inexact", 0) / max(divides, 1)
    out["core.result_terms.max"] = c.get("core.result_terms.max", 0)
    out["core.digit_bits.max"] = c.get("core.digit_bits.max", 0)
    out["expr.eval_at.inexact_frac"] = c.get("expr.eval_at.inexact", 0) / max(evals, 1)
    out["trace.ops"] = ops
    out["trace.wall_s"] = wall / ops
    out["trace.client_s"] = (wall - tracer.top_s) / ops
    out["trace.bookkeeping_s"] = tracer.paused / ops
    out["trace.loop_s"] = own
    out["trace.unspanned_s"] = (wall - tracer.top_s - tracer.paused) / ops - own
    return out


def _solve_metrics(pkg, data, built, plain, traced) -> dict:
    """Oracle ratio per (n, z) with its base, and solution size figures."""
    systems = data["systems"]
    own = {}
    for i, lat in enumerate(plain.lat):
        own.setdefault(i % plain.pool, []).append(lat)
    ratio_in = {}
    oracle_all = []
    for j, lats in own.items():
        t0 = perf_counter()
        pkg.linsolve.solve_exact_oracle(built[j])
        oracle = perf_counter() - t0
        oracle_all.append(oracle)
        key = (systems[j]["n"], systems[j]["z"])
        ratio_in.setdefault(key, ([], []))
        ratio_in[key][0].append(statistics.median(lats))
        ratio_in[key][1].append(oracle)
    out = {"linsolve.solve_exact_oracle.s": statistics.mean(oracle_all)}
    for n, z in SOLVE_CASES:
        mine, oracle = ratio_in.get((n, z), ([], []))
        base = statistics.median(oracle) if oracle else 0.0
        out[f"linsolve.oracle_s.n{n}.z{z}"] = base
        out[f"linsolve.oracle_ratio.n{n}.z{z}"] = statistics.median(mine) / base if base else 0.0
    terms = tail = bits = widest = injections = extra = 0
    for j, (_, z, solution) in traced.first.items():
        injections += z * traced.same[j]
        extra += (z - systems[j]["z"]) * traced.same[j]
        for x in solution:
            widest = max(widest, len(x))
            bits = max(bits, R.digit_bits(x))
            terms += len(x)
            tail += sum(1 for _, p in x if R.cmp(p, R.rat(-z)) < 0)
    solves = max(sum(traced.same.values()), 1)
    out["linsolve.injections"] = injections / solves
    out["linsolve.extra_injections"] = extra / solves
    out["linsolve.solution_terms.max"] = widest
    out["linsolve.solution_digit_bits.max"] = bits
    out["linsolve.tail_terms_frac"] = tail / max(terms, 1)
    return out


# -- in-process repl, traced -------------------------------------------------


class _Feed:
    """``sys.stdin`` for an in-process repl: cycles the stream until told to stop.

    With a tracer it opens a ``cli.line`` span when it hands a line to the
    repl and closes it when the repl asks for the next one.
    """

    def __init__(self, lines, seconds=None, count=None, tracer=None):
        self.lines, self.seconds, self.count, self.tracer = lines, seconds, count, tracer
        self.fed = 0
        self.first_read = None
        self.start = None
        self.open = False
        self.own = 0.0  # seconds spent in readline

    def isatty(self) -> bool:
        return False

    def readline(self) -> str:
        now = perf_counter()
        line = self._next(now)
        self.own += perf_counter() - now
        return line

    def _next(self, now: float) -> str:
        if self.first_read is None:
            self.first_read = self.start = now
        if self.open:
            self.tracer.end()
            self.open = False
        if self.count is not None:
            done = self.fed >= self.count
        else:
            done = now - self.start >= self.seconds and self.fed >= MIN_OPS
        if done:
            return ""
        line = self.lines[self.fed % len(self.lines)]
        self.fed += 1
        if self.tracer is not None:
            self.tracer.op = self.fed
            self.tracer.begin("cli.line")
            self.open = True
        return line + "\n"


def _repl_pass(cli, lines, **feed_args):
    feed = _Feed(lines, **feed_args)
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = feed, out, err
    try:
        t0 = perf_counter()
        code = cli.main(["repl"])
        wall = perf_counter() - t0
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return feed, code, wall, out.getvalue(), err.getvalue()


def _repl_failures(stream, fed: int, code: int, out: str, err: str) -> tuple:
    """(expression lines fed, failed): compare stdout with the expected lines."""
    expected = [stream[i % len(stream)][1] for i in range(fed)]
    expected = [e for e in expected if e is not None]
    got = out.split("\n")[:-1]
    failed = sum(1 for a, b in zip(got, expected) if a != b) + abs(len(got) - len(expected))
    if code != 0 or err:
        failed = max(failed, 1)
    return len(expected), failed


def _repl_trace(args, stream):
    lines = [line for line, _ in stream]
    t0 = perf_counter()
    pkg = _import_package(with_cli=True)
    cli = pkg.cli
    feed, code, wall0, out, err = _repl_pass(cli, lines, seconds=args.seconds * TRACE_SHARE)
    start_s = feed.first_read - t0
    ops0, failed0 = _repl_failures(stream, feed.fed, code, out, err)

    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer, pkg)
    feed1, code, wall1, out, err = _repl_pass(cli, lines, count=feed.fed, tracer=tracer)
    ops1, failed1 = _repl_failures(stream, feed1.fed, code, out, err)
    metrics = _layer_metrics(tracer, ops1, wall1, feed.own / ops0)
    metrics["trace.overhead_frac"] = wall1 / wall0 - 1
    metrics["cli.start_s"] = start_s
    tracer.dump(args.trace_out)
    return {"attempted": ops0 + ops1, "failed": failed0 + failed1, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, help="pickle written by run.py")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    with open(args.inputs, "rb") as handle:
        data = pickle.load(handle)
    if args.workload == "repl-stream":
        result = _repl_trace(args, data)
    else:
        result = _inprocess(args, data)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
