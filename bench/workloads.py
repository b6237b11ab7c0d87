"""The four benchmark workloads.

Each workload builds its inputs from the seed (``build``), then runs timed
passes (``run_pass``).  A pass makes calls into saitodual -- CLI commands
through ``cli.main`` or library calls -- and checks every output.  Each
call is reported as a ``Call``: how many operations it covered (a
polynomial, a query or a group), how many of them failed, and its raw
wall-clock interval and CPU time.  The harness in ``run.py`` turns
those into metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction


class Stopwatch:
    """Wall-clock interval and calling-thread CPU time of a block."""

    def __enter__(self):
        self.start = time.perf_counter()
        self._cpu = time.thread_time()
        return self

    def __exit__(self, *exc):
        self.cpu = time.thread_time() - self._cpu
        self.end = time.perf_counter()


@dataclass
class Call:
    """One call into saitodual and its checked outcome."""

    ops: int
    failed: int
    watch: Stopwatch
    serial: bool = True
    output_bytes: int = 0
    zeta_needed: int = 0  # equivariant_zeta calls the call cannot avoid
    note: str = ""


def payload_digest(result):
    """sha256 of the canonical JSON text of a ``result`` payload."""
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(sd, argv, watch):
    """Run ``cli.main(argv)`` in-process, timed by ``watch``, with stdout
    captured; returns (exit code, captured text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), watch:
        code = sd.cli.main(argv)
    return code, buf.getvalue()


def _enumerate_call(sd, argv, out_path, expected, check, serial):
    """Run one ``enumerate --out`` command over ``expected`` polynomials;
    ``check(code, result)`` says whether its output is right.  A crash or
    a wrong output fails every polynomial of the call."""
    out_path.unlink(missing_ok=True)
    watch = Stopwatch()
    text, note = "", ""
    try:
        with watch:
            code = sd.cli.main(argv)
        text = out_path.read_text()
        ok = check(code, json.loads(text)["result"])
    except Exception as exc:
        ok, note = False, repr(exc)
    return Call(ops=expected, failed=0 if ok else expected, watch=watch,
                serial=serial, output_bytes=len(text.encode()),
                zeta_needed=2 * expected, note=note)


# -- corpus45 --------------------------------------------------------------

# sha256 of the `result` payload of
# `enumerate --max-vars 4 --max-exp 5 --sums --json`, serial and with
# --workers 2 alike (canonical JSON, see payload_digest).
CORPUS45_PIN = ("ff895fcc7f47440c1a75aa1a0467c0b934b76a9b"
                "7d3e9e3634c9125e8fb26b81")
CORPUS45_TOTAL = 1576


class Corpus45:
    """The acceptance corpus through `enumerate`, serial then --workers 2."""

    name = "corpus45"

    def build(self, sd, seed, work):
        out = work / "corpus45.json"
        base = ["enumerate", "--max-vars", "4", "--max-exp", "5", "--sums",
                "--json", "--out", str(out)]
        return {"out": out, "serial": base + ["--workers", "1"],
                "w2": base + ["--workers", "2"]}

    def warm(self, sd, inputs, work, parallel):
        out = work / "warm.json"
        with parallel():
            sd.cli.main(["enumerate", "--max-vars", "2", "--max-exp", "3",
                         "--workers", "2", "--json", "--out", str(out)])

    @staticmethod
    def _check(code, result):
        return (code == 0 and result["total"] == CORPUS45_TOTAL
                and result["theoremFail"] == 0
                and result["corollaryFail"] == 0
                and payload_digest(result) == CORPUS45_PIN)

    def run_pass(self, sd, inputs, tracer, serial_only, parallel):
        calls = []
        if tracer is not None:
            tracer.begin_operation()
        calls.append(_enumerate_call(sd, inputs["serial"], inputs["out"],
                                     CORPUS45_TOTAL, self._check, True))
        if not serial_only:
            with parallel():
                calls.append(_enumerate_call(sd, inputs["w2"], inputs["out"],
                                             CORPUS45_TOTAL, self._check,
                                             False))
        return calls


# -- corpus55s -------------------------------------------------------------

CORPUS55S_SAMPLE = 300


class Corpus55s:
    """The (5,5) sums corpus generated in full, a seeded sample verified."""

    name = "corpus55s"

    def build(self, sd, seed, work):
        out = work / "corpus55s.json"
        sample_seed = random.Random(f"corpus55s-{seed}").randrange(2 ** 31)
        argv = ["enumerate", "--max-vars", "5", "--max-exp", "5", "--sums",
                "--sample", str(CORPUS55S_SAMPLE), "--seed", str(sample_seed),
                "--workers", "1", "--json", "--out", str(out)]
        return {"out": out, "argv": argv, "digest": None}

    def warm(self, sd, inputs, work, parallel):
        out = work / "warm.json"
        sd.cli.main(["enumerate", "--max-vars", "2", "--max-exp", "3",
                     "--json", "--out", str(out)])

    def run_pass(self, sd, inputs, tracer, serial_only, parallel):
        def check(code, result):
            digest = payload_digest(result)
            if inputs["digest"] is None:
                inputs["digest"] = digest
            return (code == 0 and result["total"] == CORPUS55S_SAMPLE
                    and not result["truncated"]
                    and result["theoremFail"] == 0
                    and result["corollaryFail"] == 0
                    and digest == inputs["digest"])

        if tracer is not None:
            tracer.begin_operation()
        call = _enumerate_call(sd, inputs["argv"], inputs["out"],
                               CORPUS55S_SAMPLE, check, True)
        return [call]


# -- bigdet ----------------------------------------------------------------

def chain_text(ps):
    names = "xyzw"[:len(ps)]
    terms = [f"{names[i]}^{p}*{names[i + 1]}" for i, p in enumerate(ps[:-1])]
    return " + ".join(terms + [f"{names[-1]}^{ps[-1]}"])


def loop_text(ps):
    names = "xyzw"[:len(ps)]
    n = len(ps)
    return " + ".join(f"{names[i]}^{p}*{names[(i + 1) % n]}"
                      for i, p in enumerate(ps))


def chain_matrix(ps):
    n = len(ps)
    return [[p if j == i else 1 if j == i + 1 else 0 for j in range(n)]
            for i, p in enumerate(ps)]


def loop_matrix(ps):
    n = len(ps)
    return [[p if j == i else 1 if j == (i + 1) % n else 0 for j in range(n)]
            for i, p in enumerate(ps)]


def milnor_number(rows):
    """Milnor number from the weight formula, computed here independently
    of saitodual: solve E q = 1 over the rationals, then prod(1/q_i - 1)."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(1)] for row in rows]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col])
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col] / a[col][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    mu = Fraction(1)
    for i in range(n):
        mu *= a[i][i] / a[i][n] - 1  # 1/q_i - 1 with q_i = a[i][n] / a[i][i]
    return mu


def _near(rng, anchor, share):
    """The least prime at or above an integer drawn within ``share`` of
    ``anchor``.  The cost of a query depends on the common factors of its
    exponents as much as on their size, so every exponent is prime."""
    anchor = round(anchor)
    span = round(anchor * share)
    n = anchor + rng.randint(-span, span)
    while n < 2 or any(n % k == 0 for k in range(2, int(n ** 0.5) + 1)):
        n += 1
    return n


def _spread(lo, hi, u):
    return lo + (hi - lo) * (u % 1.0)


# Every query's exponents are drawn near a fixed anchor, so that each seed
# gives other polynomials with the same cost profile.  Slow queries, whose
# cost grows as p^2 or p^3: (family, command, anchors, share).  The 16
# 3-loop `roots` queries at p = 29 or 31, where `geometric_roots` takes
# almost all the time, hold the 90th percentile; the other 8 lie beyond it.
BIGDET_SLOW = (
    ("loop3", "roots", (30,) * 16, 0.04),
    ("chain4", "zeta", (1400,), 0.01),
    ("chain4", "dual", (1009, 1150), 0.01),
    ("chain4", "roots", (1009,), 0.01),
    ("loop3", "roots", (95, 130), 0.01),
    ("loop4", "roots", (16, 22), 0.01),
)
# Fast queries: anchors spread evenly over each family's exponent range.
BIGDET_FAST = 136
FAST_SHARE = 0.03
COMMANDS = ("zeta", "dual", "roots")


class BigDet:
    """Seeded CLI queries on polynomials with large d = |det E|."""

    name = "bigdet"

    def build(self, sd, seed, work):
        rng = random.Random(f"bigdet-{seed}")
        queries = []
        for family, command, anchors, share in BIGDET_SLOW:
            for anchor in anchors:
                p = _near(rng, anchor, share)
                queries.append((command, family, (p,) * int(family[-1])))
        per_family = -(-BIGDET_FAST // 4)
        for i in range(BIGDET_FAST):
            u = (i // 4 + 0.5) / per_family
            if i % 4 == 0:
                ps = tuple(_near(rng, _spread(2, 400, u + shift), FAST_SHARE)
                           for shift in (0, 0.37))
                queries.append((COMMANDS[i % 3], "loop2", ps))
            elif i % 4 == 1:
                ps = tuple(_near(rng, _spread(2, 60, u + shift), FAST_SHARE)
                           for shift in (0, 0.33, 0.67))
                queries.append((COMMANDS[i % 3], "chain3", ps))
            elif i % 4 == 2:
                p = _near(rng, _spread(90, 220, u), FAST_SHARE)
                queries.append((COMMANDS[(i // 4) % 2], "loop3", (p,) * 3))
            else:
                p = _near(rng, _spread(15, 30, u), FAST_SHARE)
                queries.append((COMMANDS[(i // 4) % 2], "loop4", (p,) * 4))
        rng.shuffle(queries)
        built = []
        for command, family, ps in queries:
            is_loop = family.startswith("loop")
            text = loop_text(ps) if is_loop else chain_text(ps)
            rows = loop_matrix(ps) if is_loop else chain_matrix(ps)
            built.append({"argv": [command, text, "--json"],
                          "command": command, "n": len(ps),
                          "mu": milnor_number(rows)})
        return {"queries": built}

    def warm(self, sd, inputs, work, parallel):
        run_cli(sd, ["roots", "x^2*y + y^3", "--json"], Stopwatch())

    @staticmethod
    def _check(query, code, text):
        if code != 0:
            return False
        result = json.loads(text)["result"]
        command = query["command"]
        if command == "dual":
            return result["equal"] is True
        if command == "roots":
            return bool(result["roots"]) and \
                result["corollary"]["equal"] is True
        factors = result["classical"]["factors"]
        degree = sum(int(m) * s for m, s in factors.items())
        sign = 1 if query["n"] % 2 else -1
        return degree == 1 + sign * query["mu"]

    def run_pass(self, sd, inputs, tracer, serial_only, parallel):
        calls = []
        for query in inputs["queries"]:
            if tracer is not None:
                tracer.begin_operation()
            watch = Stopwatch()
            text, note = "", ""
            try:
                code, text = run_cli(sd, query["argv"], watch)
                ok = self._check(query, code, text)
            except Exception as exc:
                ok, note = False, repr(exc)
            calls.append(Call(
                ops=1, failed=0 if ok else 1, watch=watch,
                output_bytes=len(text.encode()),
                zeta_needed=1 if query["command"] == "zeta" else 2,
                note=note))
        return calls


# The known geometric_roots defect: this polynomial has gcd factor
# c = 1,038,484,040, and `roots` tries to list every solution of c*g = h.
PROBE_ARGV = ["roots", loop_text((1013,) * 4), "--json"]


# -- subgroup_lattice --------------------------------------------------------

SUBGROUP_MAX_ORDER = 200
SUBGROUP_SAMPLE = 160


class SubgroupLattice:
    """Subgroup lattices, duals, products and restrictions on a seeded
    sample of the corpus45 groups of order <= 200, both sides."""

    name = "subgroup_lattice"

    def build(self, sd, seed, work):
        corpus, _ = sd.enumeration.generate_corpus(4, 5, include_sums=True)
        seen = {}
        for f in corpus:
            for e in (f.exponents, f.exponents.transpose()):
                if e not in seen:
                    seen[e] = abs(sd.linalg.determinant(e))
        # The work on a group follows its class: its order, its invariant
        # factors and its rank.  A few classes cost seconds a group, so a
        # plain sample's cost swings with how many of those it catches.
        # Every seed therefore takes the same number of groups from each
        # class (a systematic sample of the class-sorted list from a fixed
        # start) and draws which members from the seed.
        classes = {}
        for e, d in seen.items():
            if d <= SUBGROUP_MAX_ORDER:
                key = (d, sd.linalg.invariant_factors(e), e.nrows)
                classes.setdefault(key, []).append(e.rows)
        ordered = [key for key in sorted(classes)
                   for _ in range(len(classes[key]))]
        step = len(ordered) / SUBGROUP_SAMPLE
        counts = {}
        for i in range(SUBGROUP_SAMPLE):
            key = ordered[int(step / 2 + i * step)]
            counts[key] = counts.get(key, 0) + 1
        rng = random.Random(f"subgroup_lattice-{seed}")
        picked = [rows for key in sorted(counts)
                  for rows in rng.sample(sorted(classes[key]), counts[key])]
        rng.shuffle(picked)
        return {"matrices": picked}

    def warm(self, sd, inputs, work, parallel):
        f = sd.polynomials.parse_polynomial("x^2*y + y^3")
        sd.groups.enumerate_subgroups(sd.groups.symmetry_group(f))

    @staticmethod
    def _process(sd, rows):
        """Every library call of one group; False on a broken law."""
        groups, burnside = sd.groups, sd.burnside
        f = sd.polynomials.InvertiblePolynomial(sd.linalg.IntMatrix(rows))
        p = groups.symmetry_group(f)
        a = sd.zeta.equivariant_zeta(f, p).equivariant
        subs = groups.enumerate_subgroups(p)
        ok = len(set(subs)) == len(subs)
        for h in subs:
            dual = groups.dual_subgroup(h)
            ok &= h.order * dual.order == p.order
            ok &= groups.dual_subgroup(dual) == h
        square = burnside.multiply(a, a)
        size = a.cardinality()
        for h in subs:
            ok &= burnside.mark(square, h) == burnside.mark(a, h) ** 2
            ok &= burnside.restrict(a, h).cardinality() == size
        return ok

    def run_pass(self, sd, inputs, tracer, serial_only, parallel):
        calls = []
        for rows in inputs["matrices"]:
            if tracer is not None:
                tracer.begin_operation()
            note = ""
            try:
                with Stopwatch() as watch:
                    ok = self._process(sd, rows)
            except Exception as exc:
                ok, note = False, repr(exc)
            calls.append(Call(ops=1, failed=0 if ok else 1, watch=watch,
                              zeta_needed=1, note=note))
        return calls


WORKLOADS = {w.name: w for w in (Corpus45(), Corpus55s(), BigDet(),
                                 SubgroupLattice())}
