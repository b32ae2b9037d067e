#!/usr/bin/env python3
"""Point measurements that reproduce the ROADMAP baseline table.

Usage, from the repository root:

    python3 benchmarks/baseline.py --label seed --out BENCH_seed.json

Each case runs ``REPEATS`` times in this process (the CLI cases
``PROCESS_REPEATS`` times, as fresh processes) and is reported as median
and interquartile range in seconds, with the machine, the Python version
and the git revision when there is one.  Cases:

  solve.n{N}.z{Z}.grossone / .oracle  solve_grossone against the rational
                                      oracle on seeded systems, n = 4..16,
                                      with 0 and 2 injected pivots
  mul3, add3, compare3                one operation on numerals of at most 3
                                      terms, per call
  divide_1_by_G+1_to_-2000            divide(1, G+1) down to G^-2000
  pow_G+1_60, square_G+1_60           (G+1)**60, then squaring it
  pow_G+1_200, square_G+1_200         the same at 200
  cli.eval, cli.import, python_start  ``grossone eval "1/(G+1)" --min-power
                                      -3``, ``import grossone.cli``, and a
                                      bare ``python -c pass``, per process
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPEATS = 3
PROCESS_REPEATS = 5
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import reference as R  # noqa: E402
import workloads  # noqa: E402


def _timed(fn, repeats: int = REPEATS, inner: int = 1) -> dict:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(inner):
            fn()
        times.append((perf_counter() - t0) / inner)
    q = statistics.quantiles(times, n=4) if len(times) > 1 else [times[0]] * 3
    return {"median_s": statistics.median(times), "iqr_s": q[2] - q[0], "runs": repeats}


def _process(cmd) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return _timed(lambda: subprocess.run(cmd, cwd=ROOT, env=env, check=True,
                                         capture_output=True), PROCESS_REPEATS)


def _revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def measure() -> dict:
    from grossone import G, GrossNumber, compare, divide, linsolve

    cases = {}
    rng = random.Random("baseline")
    for n in (4, 8, 12, 16):
        for z in (0, 2):
            a, b = workloads._system(rng, n, z)
            system = linsolve.LinearSystem.from_rows(a, b)
            report = linsolve.solve_grossone(system)
            solution = [R.from_package(x) for x in report.solution]
            mine = _timed(lambda: linsolve.solve_grossone(system))
            oracle = _timed(lambda: linsolve.solve_exact_oracle(system), inner=10)
            mine["slowdown"] = mine["median_s"] / oracle["median_s"]
            mine["terms_per_entry_max"] = max(len(x) for x in solution)
            mine["digit_bits_max"] = max(R.digit_bits(x) for x in solution)
            cases[f"solve.n{n}.z{z}.grossone"] = mine
            cases[f"solve.n{n}.z{z}.oracle"] = oracle

    def small():
        x = R.norm((workloads._digit(rng), R.rat(rng.randint(-6, 6)))
                   for _ in range(rng.randint(1, 3)))
        return GrossNumber.from_terms([(d, GrossNumber.from_rational(R.value(p)))
                                       for d, p in x])

    pairs = [(small(), small()) for _ in range(200)]
    for name, op in (("mul3", lambda x, y: x * y), ("add3", lambda x, y: x + y),
                     ("compare3", compare)):
        cases[name] = _timed(lambda: [op(x, y) for x, y in pairs])
        cases[name]["median_s"] /= len(pairs)
        cases[name]["iqr_s"] /= len(pairs)

    one_plus = G + 1
    cases["divide_1_by_G+1_to_-2000"] = _timed(lambda: divide(1, one_plus, -2000))
    for k in (60, 200):
        wide = one_plus**k
        cases[f"pow_G+1_{k}"] = _timed(lambda: one_plus**k)
        cases[f"square_G+1_{k}"] = _timed(lambda: wide * wide)

    py = sys.executable
    cases["cli.eval"] = _process([py, "-m", "grossone", "eval", "1/(G+1)", "--min-power", "-3"])
    cases["cli.import"] = _process([py, "-c", "import grossone.cli"])
    cases["python_start"] = _process([py, "-c", "pass"])
    return cases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    result = {
        "label": args.label,
        "revision": _revision(),
        "python": platform.python_version(),
        "machine": f"{platform.machine()} {platform.processor() or ''}".strip(),
        "cpus": os.cpu_count(),
        "cases": measure(),
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for name, case in result["cases"].items():
        extra = f"  slowdown {case['slowdown']:.1f}x" if "slowdown" in case else ""
        print(f"{name:32s} {case['median_s'] * 1e3:12.3f} ms{extra}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
