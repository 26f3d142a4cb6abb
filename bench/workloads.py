"""The three benchmark workloads: seeded input generation and the ops themselves.

Generation and measurement run in different processes.  ``python3
bench/workloads.py --workload W --seed N --size S --out FILE`` writes the op
list for one workload as JSON; the measured worker (``worker.py``) loads that
file and calls :func:`run_op` on each entry.  Generating in the measured
process would pre-fill ``monomials._CANONICAL_CACHE`` (the (w=8, sigma=3)
draws alone enumerate for over a second), so a pass would no longer start
cold the way a fresh ``invar`` process does.

Every op is one user-level request with an exact check against an
independent reference.  :func:`run_op` returns ``(ok, output)``; the output
is what the digest covers (coefficients, decomposition witnesses, oracle
values).  Library entry points are looked up through their modules at call
time, so the traced run's rebinding of module globals reaches them.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import random
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from invar import (  # noqa: E402
    bergman,
    calculus,
    fourier,
    geometry,
    invariants,
    jets,
    rationals,
    solver,
)
from invar.chern import chern_invariant, partitions_of  # noqa: E402
from invar.monomials import PHI  # noqa: E402

WORKLOADS = ("kernel", "decompose", "oracle")
SIZES = ("full", "tiny")

# kernel: (n, j) symbolic a_j checked against the curvature closed form
SYMBOLIC = {
    "full": [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3)],
    "tiny": [(1, 1), (1, 2)],
}
# kernel: (n, j) linearized a_j == j/(j+1)! lap^(j-1) S
LINEAR = {
    "full": [(1, j) for j in range(1, 6)] + [(2, j) for j in range(1, 4)],
    "tiny": [(1, 1), (1, 2)],
}
# kernel: Fubini-Study chains a_j / a_0 == e_j(1..n), j <= 3
FUBINI_STUDY = {"full": [1, 2, 3], "tiny": [1]}
# kernel: random Hermitian a_3 per dimension.  op_p50_ms falls inside the
# n = 2 class and op_p90_ms inside the n = 3 class; beyond it lie the n = 3
# top quarter and the symbolic and linearized ops above 0.2 s.  Symbolic a_3
# at n = 2 (7 s) and linearized j = 4 at n = 2 (6.5 s) are left out: either
# would double a pass, and a regression check repeats each workload many
# times.
RANDOM_A3 = {"full": {2: 80, 3: 40}, "tiny": {2: 2}}

# decompose: (sigma, weight, restriction-or-None) -> ops drawn from that block.
# The first op of a block is cold (enumerate, canonicalize, factor); the
# rest reuse solver._SYSTEM_CACHE.  The cold (3, 8) factorization dominates
# ops_per_s; op_p50_ms falls inside the warm (3, 6) class (about 6 ms) and
# op_p90_ms inside the warm (3, 8) / restricted sigma = 4 class (50-150 ms),
# whose 46 ops keep it steady across seeds.
R11 = "(1,1)"
BLOCKS = {
    "full": {
        (1, 2, None): 8, (1, 3, None): 8, (1, 4, None): 8,
        (2, 4, None): 12, (2, 5, None): 12, (2, 6, None): 12,
        (3, 6, None): 50, (3, 7, None): 14, (3, 5, R11): 14,
        (3, 8, None): 24, (4, 5, R11): 24,
    },
    "tiny": {(1, 2, None): 2, (2, 4, None): 2, (2, 5, None): 2},
}

# oracle: every chern_invariant(p) with sigma <= max, at n in {sigma-1, sigma}
CHERN_MAX_SIGMA = {"full": 4, "tiny": 2}
CHERN_TRIALS = 1
# oracle: random w <= 6 invariants, (sigma, origin) -> count, sampled at
# n = sigma.  Basis combinations are mostly not co-exact; co-exact draws
# come from random_coexact_invariant.  The 120 co-exact sigma = 3 ops
# (30-80 ms) hold op_p50_ms in their lower third and op_p90_ms in their top
# tenth, under the ten sigma = 4 Chern ops (0.2-0.7 s) that lie beyond it.
RANDOM_ORACLE = {
    "full": {(1, "basis"): 2, (1, "coexact"): 2, (2, "basis"): 10,
             (2, "coexact"): 10, (3, "basis"): 20, (3, "coexact"): 120},
    "tiny": {(1, "basis"): 1, (1, "coexact"): 1, (2, "basis"): 1, (2, "coexact"): 1},
}
RANDOM_TRIALS = 3
MODE_BOUND = 2


class _Split:
    """Random source for the library's draw functions: which terms to take
    (``sample``) from the shape stream, coefficient values (``randint``)
    from the seeded one.  A zero coefficient would drop its term and so
    change the structure with the seed; ranges around zero skip it."""

    def __init__(self, shape, values):
        self.shape = shape
        self.values = values

    def sample(self, population, k):
        return self.shape.sample(population, k)

    def randint(self, a, b):
        if a < 0 < b:
            return self.values.choice([v for v in range(a, b + 1) if v])
        return self.values.randint(a, b)


def _nonzero_fraction(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))


def _jets_to_json(raw):
    return [
        [list(a), list(b), rationals.format_fraction(v.re), rationals.format_fraction(v.im)]
        for (a, b), v in sorted(raw.items())
    ]


def _jets_from_json(entries):
    return {
        (tuple(a), tuple(b)): rationals.GaussRat(Fraction(re), Fraction(im))
        for a, b, re, im in entries
    }


# -- generation ---------------------------------------------------------------


def generate(workload, seed, size="full"):
    """Seeded op list for one workload; the same seed gives the same list.

    The structure of every input -- which jets a sparse potential has,
    which monomials an invariant combines, which weights are drawn, which
    Fourier modes a random invariant is sampled on -- comes from a stream
    fixed per workload; ``seed`` draws every coefficient and the Chern
    ops' oracle trials.  An op's cost follows its structure (the middle half
    of random a3 costs spans 0.75x-1.45x of their median), so this
    keeps one seed's percentiles from jumping against another's, while the
    exact values each op checks change with the seed.
    """
    shape = random.Random(f"bench:{workload}:shape")
    values = random.Random(f"bench:{workload}:{seed}")
    if workload == "kernel":
        return _generate_kernel(shape, values, size)
    if workload == "decompose":
        return _generate_decompose(_Split(shape, values), size)
    if workload == "oracle":
        return _generate_oracle(shape, values, seed, size)
    raise ValueError(f"unknown workload {workload!r}")


def _generate_kernel(shape, values, size):
    ops = [{"kind": "symbolic", "n": n, "j": j} for n, j in SYMBOLIC[size]]
    ops += [{"kind": "linear", "n": n, "j": j} for n, j in LINEAR[size]]
    ops += [
        {"kind": "fubini_study", "n": n, "j": 3,
         "jets": _jets_to_json(jets.fubini_study_jets(n, 8))}
        for n in FUBINI_STUDY[size]
    ]
    for n, count in RANDOM_A3[size].items():
        for _ in range(count):
            pattern = jets.random_hermitian_jets(n, 3, shape)
            raw = {}
            for (a, b) in sorted(pattern):
                if (a, b) in raw:
                    continue
                if a == b:
                    raw[(a, b)] = rationals.GaussRat(_nonzero_fraction(values))
                else:
                    v = rationals.GaussRat(
                        _nonzero_fraction(values),
                        Fraction(values.randint(-3, 3), values.randint(1, 3)),
                    )
                    raw[(a, b)] = v
                    raw[(b, a)] = v.conjugate()
            ops.append({"kind": "random_a3", "n": n, "j": 3, "jets": _jets_to_json(raw)})
    return ops


@contextlib.contextmanager
def _enumeration_memo():
    """random_coexact_invariant re-enumerates its generators on every draw;
    memoizing them speeds up only this generator process."""
    cache = {}
    original = solver.enumerate_monomials

    def enumerate_once(*args):
        if args not in cache:
            cache[args] = original(*args)
        return cache[args]

    solver.enumerate_monomials = enumerate_once
    try:
        yield enumerate_once
    finally:
        solver.enumerate_monomials = original


def _generate_decompose(rng, size):
    per_block = []
    with _enumeration_memo():
        for (sigma, w, restrict), count in BLOCKS[size].items():
            restriction = ((1, 1),) * sigma if restrict == R11 else None
            draws = []
            while len(draws) < count:
                inv = solver.random_coexact_invariant(w, sigma, rng, restriction)
                if inv:
                    draws.append({
                        "kind": "decompose",
                        "block": [sigma, w, restrict],
                        "invariant": json.dumps(inv.to_json_dict(), sort_keys=True),
                        "restrict": [list(p) for p in restriction] if restriction else None,
                    })
            per_block.append(draws)
    # round-robin over blocks: each block's cold op comes in the first round
    return [op for round_ in itertools.zip_longest(*per_block) for op in round_ if op]


def _generate_oracle(shape, values, seed, size):
    # Chern trials are drawn per benchmark seed; the random invariants'
    # trials are part of their structure (each random_phi seed fixes the
    # sampled modes, which set an evaluation's cost)
    base = 10_000 * (seed + 1)
    ops = []
    for sigma in range(1, CHERN_MAX_SIGMA[size] + 1):
        for p in partitions_of(sigma):
            text = json.dumps(chern_invariant(p).to_json_dict(), sort_keys=True)
            for n in sorted({max(1, sigma - 1), sigma}):
                ops.append({
                    "kind": "chern", "partition": list(p), "n": n,
                    "invariant": text,
                    "seeds": [base + len(ops) * 10 + t for t in range(CHERN_TRIALS)],
                })
    with _enumeration_memo() as enumerate_once:
        for (sigma, origin), count in RANDOM_ORACLE[size].items():
            ops.extend(_draw_sampled(shape, values, len(ops), sigma, origin, count,
                                     enumerate_once))
    return ops


def _draw_sampled(shape, values, first, sigma, origin, count, enumerate_once):
    ops = []
    while len(ops) < count:
        weight = shape.randint(max(2, sigma), 6)
        if origin == "basis":
            basis = enumerate_once(weight, sigma)
            if not basis:
                continue
            picks = shape.sample(basis, min(len(basis), shape.randint(1, 3)))
            terms = [(m, _nonzero_fraction(values)) for m in picks]
            inv = invariants.Invariant(PHI, (0, 0), terms)
        else:
            inv = solver.random_coexact_invariant(weight, sigma, _Split(shape, values))
        if not inv:
            continue
        index = first + len(ops)
        ops.append({
            "kind": "sampled", "origin": origin, "n": sigma,
            "invariant": json.dumps(inv.to_json_dict(), sort_keys=True),
            "seeds": [index * 10 + t for t in range(RANDOM_TRIALS)],
        })
    return ops


# -- loading and running --------------------------------------------------------


def load(ops):
    """Turn generated JSON into op inputs; part of the measured set-up."""
    for op in ops:
        if "jets" in op:
            op["jets"] = _jets_from_json(op["jets"])
        if op.get("restrict") is not None:
            op["restrict"] = tuple(tuple(p) for p in op["restrict"])
    return ops


def run_op(op):
    """Run one op; returns (ok, output).  Raises on library errors."""
    return _RUNNERS[op["kind"]](op)


def _lap_name(k):
    return "S" if k == 0 else ("lap_S" if k == 1 else f"lap{k}_S")


def _symbolic(op):
    n, j = op["n"], op["j"]
    pot = jets.Potential.symbolic(n, j)
    got = bergman.bergman_coefficients(pot, j)[j]
    want = geometry.kernel_coefficient_reference(pot, j)
    return got == want, got


def _linear(op):
    n, j = op["n"], op["j"]
    pot = jets.Potential.symbolic(n, j, linear=True)
    got = bergman.bergman_coefficients(pot, j)[j]
    want = pot.ring.scale(
        geometry.named_scalar(pot, _lap_name(j - 1)), Fraction(j, factorial(j + 1))
    )
    return got == want, got


def _elementary_symmetric(n, j):
    total = 0
    for subset in itertools.combinations(range(1, n + 1), j):
        prod = 1
        for v in subset:
            prod *= v
        total += prod
    return total


def _graded_total(element):
    total = rationals.GR_ZERO
    for part in element.values():
        total = total + part
    return total


def _fubini_study(op):
    n, j = op["n"], op["j"]
    pot = jets.Potential.graded_numeric(n, op["jets"], j)
    coeffs = bergman.bergman_coefficients(pot, j)
    a0 = _graded_total(coeffs[0])
    chain = [_graded_total(coeffs[k]) / a0 for k in range(1, j + 1)]
    want = [rationals.GaussRat(_elementary_symmetric(n, k)) for k in range(1, j + 1)]
    return chain == want, coeffs


def _random_a3(op):
    n, j = op["n"], op["j"]
    pot = jets.Potential.graded_numeric(n, op["jets"], j)
    got = bergman.bergman_coefficients(pot, j)[j]
    want = geometry.kernel_coefficient_reference(pot, j)
    return got == want, got


def _decompose(op):
    inv = invariants.Invariant.from_json_dict(json.loads(op["invariant"]))
    dec = solver.decompose(inv, op["restrict"])
    return solver.verify_decomposition(inv, dec), dec.to_json_dict()


def _sample(inv, n, seeds):
    """Oracle trials as ``invar oracle`` runs them for a phi-invariant."""
    return [fourier.eval_integral(inv, fourier.random_phi(n, MODE_BOUND, s)) for s in seeds]


def _chern(op):
    inv = invariants.Invariant.from_json_dict(json.loads(op["invariant"]))
    formal = calculus.integrates_to_zero(inv)
    values = _sample(inv, op["n"], op["seeds"])
    return formal and not any(values), [formal, values]


def _sampled(op):
    inv = invariants.Invariant.from_json_dict(json.loads(op["invariant"]))
    formal = calculus.integrates_to_zero(inv)
    values = _sample(inv, op["n"], op["seeds"])
    return formal == (not any(values)), [formal, values]


_RUNNERS = {
    "symbolic": _symbolic,
    "linear": _linear,
    "fubini_study": _fubini_study,
    "random_a3": _random_a3,
    "decompose": _decompose,
    "chern": _chern,
    "sampled": _sampled,
}


def main(argv=None):
    ap = argparse.ArgumentParser(description="write one workload's seeded op list")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=SIZES, default="full")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    ops = generate(args.workload, args.seed, args.size)
    Path(args.out).write_text(json.dumps(ops), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
