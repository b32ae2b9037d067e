"""Seeded workloads: input generators, the timed operation, and output checks.

Every generator is a pure function of the seed and uses only this
directory's reference code, so the inputs exist as plain data (Fractions and
tuples) before the package is imported.  ``build`` turns them into package
values; it is the program-side set-up that ``setup_s`` times.  ``run`` is the
one timed operation.  ``observe`` reads an output into plain data off the
clock, and ``check`` compares that record with the reference, never with
the arithmetic under test.

Pools are built in rounds.  A round has the same mix of operation kinds and
size strata for every seed, and only the contents vary, so latency
quantiles depend on the seed as little as possible.  A run cycles through
the pool until its time is up.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

import reference as R

MIN_OPS = 100  # operations per run at least, so 10 or more lie beyond p90

# -- helpers ------------------------------------------------------------------


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _digit(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 9))


def _spread(lo, hi, k: int, geometric: bool = True) -> list:
    """``k`` fixed values from ``lo`` to ``hi``, one per stratum."""
    if geometric:
        return [round(lo * (hi / lo) ** (i / (k - 1))) for i in range(k)]
    return [round(lo + (hi - lo) * i / (k - 1)) for i in range(k)]


def _build(core, x):
    """A reference numeral as a package GrossNumber, through ``from_terms``."""
    return core.GrossNumber.from_terms([(d, _build(core, p)) for d, p in x])


# -- arith-wide ---------------------------------------------------------------
#
# Rational grosspowers sit on the half-integer grid in [-15, 15], so a wide
# product collapses onto at most 121 powers, like squaring (G+1)^60.  Sizes,
# cutoffs and divisor lengths are fixed per stratum and only paired up by the
# seed, so every round costs about the same whatever the seed.  Nested
# numerals put each term at level 0, lam1 (depth 1) or lam2 (depth 2) plus a
# half-integer offset.  Divisors have integer gaps below one level, so the
# quotient walks a fixed grid down to the cutoff and always terminates.

HALF_GRID = [Fraction(k, 2) for k in range(-30, 31)]
ARITH_SIZES = _spread(3, 60, 8)  # terms of rational-power numerals
NESTED_SIZES = _spread(3, 20, 5)  # terms of nested numerals


def _rational_numeral(rng, m):
    return R.norm((_digit(rng), R.rat(p)) for p in rng.sample(HALF_GRID, m))


def _divisor(rng, top, k):
    lead = rng.choice(HALF_GRID[40:])
    return R.norm(
        (Fraction(rng.randint(1, 9)), R.add(top, R.rat(lead - j))) for j in range(k)
    )


def _levels(rng):
    lam1 = ((Fraction(rng.randint(1, 3)), R.rat(rng.choice((Fraction(1, 2), 1, 2)))),)
    lam2 = ((Fraction(1), ((Fraction(rng.randint(1, 2)), R.ONE),)),)
    return [R.ZERO, lam1, lam2]


def _nested_numeral(rng, levels, m):
    """A numeral with terms at the given levels; returns it and its top level."""
    slots = rng.sample([(lv, q) for lv in range(3) for q in HALF_GRID[10:51]], m)
    x = R.norm((_digit(rng), R.add(levels[lv], R.rat(q))) for lv, q in slots)
    return x, levels[max(lv for lv, _ in slots)]


def _deep_twin(rng, x):
    """``x`` with one digit in its lower half changed: compare must look deep."""
    i = rng.randrange(len(x) // 2, len(x))
    d, p = x[i]
    d = d + 1 if d != -1 else d + 2
    return x[:i] + ((d, p),) + x[i + 1:]


class ArithWide:
    name = "arith-wide"
    rounds = 3

    def generate(self, seed):
        rng = _rng(self.name, seed)
        levels = _levels(rng)
        nums, ops = [], []

        def put(x):
            nums.append(x)
            return len(nums) - 1

        def rational(m):
            return put(_rational_numeral(rng, m))

        def nested(m):
            x, top = _nested_numeral(rng, levels, m)
            return put(x), top

        def pairing(values, k):
            values = list(values)
            rng.shuffle(values)
            return values[:k]

        for _ in range(self.rounds):
            batch = []
            cutoffs = pairing(_spread(-50, -500, len(ARITH_SIZES), False), len(ARITH_SIZES))
            lengths = pairing([2, 3, 4] * 3, len(ARITH_SIZES))
            for m, cutoff, k in zip(ARITH_SIZES, cutoffs, lengths):
                a = rational(m)
                twin = put(_deep_twin(rng, nums[a]))
                batch.append(("mul", False, a, rational(m), None))
                batch.append(("add", False, rational(m), rational(m), None))
                batch.append(("sub", False, rational(m), rational(m), None))
                batch.append(("sub", False, a, twin, None))
                batch.append(("compare", False, a, twin, None))
                batch.append(("compare", False, a, put(nums[a]), None))
                batch.append(("compare", False, rational(m), rational(m), None))
                e = 2 if m > 12 else 3 if m > 5 else 4
                batch.append(("pow", False, rational(m), None, e))
                divisor = put(_divisor(rng, R.ZERO, k))
                batch.append(("divide", False, rational(m), divisor, cutoff))
            cutoffs = pairing(_spread(-50, -500, len(NESTED_SIZES), False), len(NESTED_SIZES))
            lengths = pairing([2, 3] * 3, len(NESTED_SIZES))
            for m, cutoff, k in zip(NESTED_SIZES, cutoffs, lengths):
                a, _ = nested(m)
                twin = put(_deep_twin(rng, nums[a]))
                batch.append(("mul", True, a, nested(m)[0], None))
                batch.append((rng.choice(("add", "sub")), True, a, nested(m)[0], None))
                batch.append(("sub", True, a, twin, None))
                batch.append(("compare", True, a, twin, None))
                batch.append(("pow", True, nested(m)[0], None, 2))
                c, top = nested(m)
                divisor = put(_divisor(rng, top, k))
                batch.append(("divide", True, c, divisor, cutoff))
            rng.shuffle(batch)
            ops.extend(batch)
        return {"nums": nums, "ops": ops}

    def size(self, data) -> int:
        return len(data["ops"])

    def build(self, pkg, data):
        core = pkg.core
        return [_build(core, x) for x in data["nums"]]

    def run(self, pkg, data, built, i):
        kind, _, a, b, extra = data["ops"][i]
        x = built[a]
        if kind == "mul":
            return x * built[b]
        if kind == "add":
            return x + built[b]
        if kind == "sub":
            return x - built[b]
        if kind == "compare":
            return pkg.core.compare(x, built[b])
        if kind == "pow":
            return x**extra
        return pkg.core.divide(x, built[b], extra)

    def observe(self, data, i, out):
        kind = data["ops"][i][0]
        if kind == "compare":
            return out
        if kind == "divide":
            return (R.from_package(out.quotient), R.from_package(out.remainder), out.exact)
        return R.from_package(out)

    def check(self, pkg, data, built, i, got) -> bool:
        kind, nested, a, b, extra = data["ops"][i]
        x = data["nums"][a]
        y = data["nums"][b] if b is not None else None
        if kind == "divide":
            q, r, exact = got
            if not (R.is_normal(q) and R.is_normal(r)):
                return False
            if nested:
                # c = q*b + r, and the cutoff rule decides where it stopped.
                if R.add(R.mul(q, y), r) != x:
                    return False
                if exact:
                    return r == R.ZERO
                return bool(r) and R.cmp(R.sub(r[0][1], y[0][1]), R.rat(extra)) < 0
            eq, er, eexact = R.laurent_divide(R.to_laurent(x), R.to_laurent(y), Fraction(extra))
            return (q, r, exact) == (R.from_laurent(eq), R.from_laurent(er), eexact)
        if kind == "compare":
            return got == (R.cmp(x, y) if nested else _laurent_sign(x, y))
        if not R.is_normal(got):
            return False
        if nested:
            if kind == "pow":
                return got == R.power(x, extra)
            op = {"mul": R.mul, "add": R.add, "sub": R.sub}[kind]
            return got == op(x, y)
        lx = R.to_laurent(x)
        if kind == "mul":
            want = R.laurent_mul(lx, R.to_laurent(y))
        elif kind == "add":
            want = R.laurent_add(lx, R.to_laurent(y))
        elif kind == "sub":
            want = R.laurent_add(lx, R.to_laurent(y), -1)
        else:
            want = {Fraction(0): Fraction(1)}
            for _ in range(extra):
                want = R.laurent_mul(want, lx)
        return got == R.from_laurent(want)


def _laurent_sign(x, y) -> int:
    diff = R.laurent_add(R.to_laurent(x), R.to_laurent(y), -1)
    return 0 if not diff else (1 if diff[max(diff)] > 0 else -1)


# -- solve-inject -------------------------------------------------------------
#
# The top-left z-by-z block is strictly lower triangular, so elimination
# without row interchange meets z zero pivots in columns 0..z-1.  Every
# larger leading minor is nonzero: then each later pivot has a finite
# nonzero leading part, which truncation below G^-z cannot remove, so the
# solver injects exactly z times.  Half of the z = 0 systems instead have
# one vanishing leading minor of size k = 2..n-1, with all others nonzero:
# the solver meets a zero pivot of its own in column k-1, mid-elimination,
# and truncates below G^-1 from there on.  The check asks for at least z
# injections; ``linsolve.extra_injections`` counts the ones beyond z.
#
# Left out: z > 0 systems with a vanishing leading minor larger than z.
# There a later pivot keeps only an infinitesimal part, and truncating
# below G^-z can leave the finite solution wrong (A x != b), so such
# operations would fail.

# Systems per round, by z and then n.  The weights put the median inside the
# n = 8, z = 0 systems without a vanishing minor (about 9 ms), with the 18
# n = 4 systems below and the n = 8, z = 0 ones with a vanishing minor
# above, and the 90th percentile among the 0.3 s systems (n = 12 with
# z = 2, n = 16 with z = 0 and a vanishing minor), below n = 12 with z = 3
# and n = 16 with z = 1..2, and above the 0.17 s of n = 12 with z = 1:
# away from the jumps between groups.  n = 16 stops at z = 2, whose 1 s
# solve would otherwise leave too few rounds in a run.
SOLVE_MIX = {
    0: {4: 12, 8: 12, 12: 2, 16: 1},
    1: {4: 2, 8: 1, 12: 1, 16: 1},
    2: {4: 2, 8: 1, 12: 3, 16: 1},
    3: {4: 2, 8: 2, 12: 1},
}
SOLVE_CASES = [(n, z) for n in (4, 8, 12, 16) for z in SOLVE_MIX if n in SOLVE_MIX[z]]
_ENTRIES = (-4, -3, -2, -1, 0, 0, 1, 2, 3, 4)


def _system(rng, n, z, zero_minor=None):
    """A nonsingular system with z forced zero pivots.

    Every leading minor larger than z is nonzero, except the one of size
    ``zero_minor`` when given: its last row is made the sum or difference
    of two rows above it.
    """
    while True:
        a = [[Fraction(rng.choice(_ENTRIES)) for _ in range(n)] for _ in range(n)]
        for i in range(z):
            for j in range(z):
                a[i][j] = Fraction(0) if j >= i else Fraction(rng.choice((-2, -1, 1, 2)))
        if zero_minor is not None:
            k = zero_minor
            rows = rng.sample(range(k - 1), min(2, k - 1))
            signs = [1, rng.choice((-1, 1))]
            a[k - 1][:k] = [sum(s * a[r][c] for s, r in zip(signs, rows)) for c in range(k)]
        if all((_det([row[:k] for row in a[:k]]) == 0) == (k == zero_minor)
               for k in range(z + 1, n + 1)):
            return a, [Fraction(rng.randint(-9, 9)) for _ in range(n)]


def _det(a) -> Fraction:
    """Determinant by Gaussian elimination with row interchange."""
    m = [row[:] for row in a]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            if f:
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


class SolveInject:
    name = "solve-inject"
    rounds = 6

    def generate(self, seed):
        rng = _rng(self.name, seed)
        systems = []
        made = {}  # n -> z = 0 systems so far; every other one gets a zero minor
        for _ in range(self.rounds):
            batch = [(n, z, None) for z, by_n in SOLVE_MIX.items() if z > 0
                     for n, k in by_n.items() for _ in range(k)]
            for n, k in SOLVE_MIX[0].items():
                for _ in range(k):
                    count = made.get(n, 0)
                    made[n] = count + 1
                    # Zero-minor sizes cycle through 2..n-1.
                    zero_minor = 2 + count // 2 % (n - 2) if count % 2 else None
                    batch.append((n, 0, zero_minor))
            rng.shuffle(batch)
            for n, z, zero_minor in batch:
                a, b = _system(rng, n, z, zero_minor)
                systems.append({"n": n, "z": z, "a": a, "b": b})
        return {"systems": systems}

    def size(self, data) -> int:
        return len(data["systems"])

    def build(self, pkg, data):
        make = pkg.linsolve.LinearSystem.from_rows
        return [make(s["a"], s["b"]) for s in data["systems"]]

    def run(self, pkg, data, built, i):
        return pkg.linsolve.solve_grossone(built[i])

    def observe(self, data, i, out):
        return (tuple(out.finite_solution), out.injected_pivots,
                tuple(R.from_package(x) for x in out.solution))

    def check(self, pkg, data, built, i, got) -> bool:
        s = data["systems"][i]
        x, injected, _ = got
        if injected < s["z"] or len(x) != s["n"]:
            return False
        if any(sum(c * v for c, v in zip(row, x)) != rhs for row, rhs in zip(s["a"], s["b"])):
            return False
        return x == tuple(pkg.linsolve.solve_exact_oracle(built[i]))


# -- text-roundtrip -----------------------------------------------------------
#
# The shape of every text (term counts, term kinds, digit formats, nesting)
# comes from fixed cycles, so each round of 120 texts has the same structure
# for every seed; the seed picks the values, signs and whitespace.

_SPACE = ("", "", " ", " ", "  ", "\t")
_TERM_KINDS = ("zero", "one", "rational", "nested", "rational", "one", "nested",
               "rational", "zero", "nested")
_DIGIT_FORMATS = ("int", "rational", "decimal", "decimal", "rational")
TEXT_ROUND = 120  # texts per round: ten of each term count 1..12


class _Cycles:
    """Seeded values plus named counters that step through fixed cycles."""

    def __init__(self, rng):
        self.rng = rng
        self.counts = {}

    def _next(self, key, cycle):
        k = self.counts.get(key, 0)
        self.counts[key] = k + 1
        return cycle[k % len(cycle)]


class _TextMaker(_Cycles):
    def sp(self) -> str:
        return self.rng.choice(_SPACE)

    def digit(self):
        """(text, value) for a positive digit in the next format."""
        rng, fmt = self.rng, self._next("fmt", _DIGIT_FORMATS)
        if fmt == "int":
            d = rng.randint(1, 99)
            return str(d), Fraction(d)
        if fmt == "rational":
            num, den, scale = rng.randint(1, 99), rng.randint(2, 12), rng.choice((1, 1, 2, 3))
            return f"{num * scale}/{den * scale}", Fraction(num, den)
        places = rng.randint(1, 4)
        units = rng.randint(1, 99999)
        whole, frac = divmod(units, 10**places)
        pad = "0" * rng.randint(0, 1)
        return f"{whole}.{frac:0{places}d}{pad}", Fraction(units, 10**places)

    def power(self, depth: int):
        """(text, ref) for the grosspower of the next term kind, or None for 0."""
        kind = self._next("kind", _TERM_KINDS)
        if kind == "zero":
            return None, R.ZERO
        if kind == "one":
            return "", R.ONE
        if kind == "nested" and depth > 0:
            text, x = self.numeral(self._next("inner", (1, 2, 3)), depth - 1)
            return f"({self.sp()}{text}{self.sp()})", x
        p = Fraction(self.rng.randint(-12, 12), self.rng.choice((1, 2, 3, 4)))
        text = str(p.numerator) if p.denominator == 1 else f"{p.numerator}/{p.denominator}"
        return text, R.rat(p)

    def numeral(self, terms: int, depth: int):
        """(text, ref) for a numeral whose grosspowers nest at most ``depth``."""
        rng, out, pairs = self.rng, [], []
        for i in range(terms):
            negative = rng.random() < 0.4
            power_text, power = self.power(depth)
            digit_text, d = self.digit()
            if power_text is None:
                body = digit_text
            else:
                suffix = f"{self.sp()}^{self.sp()}{power_text}" if power_text else ""
                body = f"{digit_text}{self.sp()}*{self.sp()}G{suffix}"
                if rng.random() < 0.1:
                    body, d = f"G{suffix}", Fraction(1)
            if i == 0:
                sign = "-" if negative else rng.choice(("", "+"))
            else:
                sign = "-" if negative else "+"
            out.append(f"{self.sp()}{sign}{self.sp()}{body}")
            pairs.append((-d if negative else d, power))
        return "".join(out) + self.sp(), R.norm(pairs)


class TextRoundtrip:
    name = "text-roundtrip"
    rounds = 10

    def generate(self, seed):
        rng = _rng(self.name, seed)
        maker = _TextMaker(rng)
        texts, refs = [], []
        for _ in range(self.rounds):
            batch = [maker.numeral(1 + k % 12, 2) for k in range(TEXT_ROUND)]
            rng.shuffle(batch)
            texts += [text for text, _ in batch]
            refs += [x for _, x in batch]
        return {"texts": texts, "refs": refs}

    def size(self, data) -> int:
        return len(data["texts"])

    def build(self, pkg, data):
        return data["texts"]

    def run(self, pkg, data, built, i):
        notation = pkg.notation
        first = notation.parse(built[i])
        canonical = notation.print_canonical(first)
        second = notation.parse(canonical)
        return first, canonical, second, notation.print_decimal(second)

    def observe(self, data, i, out):
        first, canonical, second, decimal = out
        return R.from_package(first), canonical, R.from_package(second), decimal

    def check(self, pkg, data, built, i, got) -> bool:
        x = data["refs"][i]
        return got == (x, R.render(x), x, R.render_decimal(x))


# -- repl-stream --------------------------------------------------------------
#
# Closed expressions over G-polynomials with integer exponents, from a fixed
# cycle of shapes.  Divisors come from a list of nonzero forms, so no line
# raises.  Each block fixes both settings before its lines, so cycling the
# stream replays the same outputs, and every round of three blocks has the
# same structure for every seed.

_SHAPES = (
    "{p} + {p}", "{p} * {p}", "{p} - {p} * {p}", "{p} / {d}", "{d}^{e}", "{d}^-{n}",
    "({p} * {p}) / {d}", "({p} / {d}) + {p}", "({r} + {r}) * {r}", "{f} * G + {f}",
    "({p} - {p}) / {d}", "{p} * {p} * {p}",
)
_DIVISORS = ("k", "G", "G+k", "G-k", "2*G+k", "G^2+k", "k*G^2-G+k")
_BLOCK_POWERS = ((-2, -8), (-5, -12), (-3, -10))  # min_power pairs, one per block
REPL_BLOCK = 24  # expression lines per block, each shape twice
REPL_ROUNDS = 20


class _ExprMaker(_Cycles):
    def sp(self) -> str:
        return self.rng.choice(_SPACE[:4])

    def poly(self) -> str:
        rng, sp = self.rng, self.sp
        atoms = []
        for _ in range(self._next("poly", (1, 2, 3))):
            kind = self._next("atom", ("int", "G", "dec", "G^", "G", "int"))
            if kind == "int":
                atoms.append(str(rng.randint(1, 9)))
            elif kind == "dec":
                atoms.append(f"{rng.randint(1, 99)}.{rng.randint(1, 9)}")
            elif kind == "G":
                atoms.append("G")
            else:
                atoms.append(f"{rng.randint(1, 9)}{sp()}*{sp()}G^{rng.randint(2, 3)}")
        text = atoms[0]
        for atom in atoms[1:]:
            text += f"{sp()}{rng.choice('+-')}{sp()}{atom}"
        return f"({sp()}{text}{sp()})"

    def divisor(self) -> str:
        form = self._next("divisor", _DIVISORS)
        text = form.replace("k", str(self.rng.randint(1, 9)))
        return "(" + text.replace("+", f"{self.sp()}+{self.sp()}") + ")"

    def expression(self) -> str:
        """The next shape with its placeholders filled and spaces varied."""
        rng = self.rng
        fill = {
            "p": self.poly,
            "d": self.divisor,
            "e": lambda: str(self._next("e", (2, 3))),
            "n": lambda: str(self._next("n", (1, 2))),
            "r": lambda: f"({rng.randint(1, 9)}/{rng.randint(1, 9)})",
            "f": lambda: f"{rng.randint(0, 9)}.{rng.randint(1, 999)}",
        }
        shape = self._next("shape", _SHAPES)
        return re.sub(r"\{(\w)\}| ", lambda m: fill[m[1]]() if m[1] else self.sp(), shape)


def repl_stream(seed: int):
    """[(line, expected stdout line or None)] for a seeded repl stream."""
    rng = _rng("repl-stream", seed)
    maker = _ExprMaker(rng)
    evaluator = RefEval()
    stream = []
    for block in range(3 * REPL_ROUNDS):
        low, high = _BLOCK_POWERS[block % 3]
        settings = [("canonical", low), ("decimal", high), ("canonical", high), ("decimal", low)]
        for mode, min_power in settings:
            stream.append((f":set output {mode}", None))
            stream.append((f":set min_power {min_power}", None))
            for _ in range(REPL_BLOCK // len(settings)):
                text = maker.expression()
                value, exact = evaluator.evaluate(text, min_power)
                shown = R.render(value) if mode == "canonical" else R.render_decimal(value)
                stream.append((text, shown + ("" if exact else "  (inexact)")))
    return stream


class RefEval:
    """Evaluates the generated expression texts with reference arithmetic.

    The texts are fully parenthesized apart from the poly atoms, so a small
    precedence parser over the same token set suffices: ``^`` binds an
    integer literal exponent, then ``* /``, then ``+ -``.
    """

    def evaluate(self, text: str, min_power: int):
        self.tokens = _tokens(text)
        self.i = 0
        self.cutoff = R.rat(min_power)
        self.exact = True
        value = self._sum()
        return value, self.exact

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _sum(self):
        value = self._product()
        while self._peek() in ("+", "-"):
            op = self._next()
            rhs = self._product()
            value = R.add(value, rhs) if op == "+" else R.sub(value, rhs)
        return value

    def _product(self):
        value = self._power()
        while self._peek() in ("*", "/"):
            op = self._next()
            rhs = self._power()
            value = R.mul(value, rhs) if op == "*" else self._divide(value, rhs)
        return value

    def _divide(self, c, b):
        q, _, exact = R.divide(c, b, self.cutoff)
        self.exact = self.exact and exact
        return q

    def _power(self):
        base = self._atom()
        if self._peek() != "^":
            return base
        self._next()
        sign = -1 if self._peek() == "-" else 1
        if self._peek() in ("+", "-"):
            self._next()
        e = sign * int(self._next())
        if e >= 0:
            return R.power(base, e)
        return self._divide(R.ONE, R.power(base, -e))

    def _atom(self):
        tok = self._next()
        if tok == "(":
            value = self._sum()
            self._next()
            return value
        if tok == "G":
            return ((Fraction(1), R.ONE),)
        return R.rat(Fraction(tok))


def _tokens(text: str):
    out, i = [], 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] == "."):
                j += 1
            out.append(text[i:j])
            i = j
        else:
            out.append(ch)
            i += 1
    return out


WORKLOADS = {w.name: w for w in (ArithWide(), SolveInject(), TextRoundtrip())}
