"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single [PASS]/[FAIL] line so a plain pytest run reads as a
checklist.  Every comparison is exact rational arithmetic; there are no
tolerances anywhere in this file.
"""

import itertools
import random
from fractions import Fraction
from math import factorial

from invar.bergman import adjoint, bergman_coefficients, build_A
from invar.calculus import integrates_to_zero
from invar.chern import chern_invariant, chern_reduce, partitions_of
from invar.fourier import eval_integral, random_phi
from invar.geometry import named_scalar
from invar.invariants import Invariant, PHI
from invar.jets import Potential, fubini_study_jets, random_hermitian_jets
from invar.rationals import GR_ZERO, GaussRat
from invar.solver import (
    decompose,
    enumerate_monomials,
    random_coexact_invariant,
    verify_decomposition,
)

LAP_POWER_NAMES = {0: "S", 1: "lap_S", 2: "lap2_S", 3: "lap3_S", 4: "lap4_S"}


def _report(num, ok, text):
    line = f"[{'PASS' if ok else 'FAIL'}] {num:02d} {text}"
    print(line)
    return line


def _graded_total(element):
    total = GR_ZERO
    for part in element.values():
        total = total + part
    return total


def test_01_first_coefficient_is_half_scalar_curvature():
    ok = True
    for n in (1, 2, 3):
        pot = Potential.symbolic(n, 1)
        got = bergman_coefficients(pot, 1)[1]
        want = pot.ring.scale(named_scalar(pot, "S"), Fraction(1, 2))
        ok = ok and got == want
    line = _report(1, ok, "a1 == S/2 symbolically for n = 1, 2, 3")
    assert ok, line


def test_02_second_coefficient_closed_form():
    ok = True
    for n in (1, 2):
        pot = Potential.symbolic(n, 2)
        got = bergman_coefficients(pot, 2)[2]
        ring = pot.ring
        want = ring.add(
            named_scalar(pot, "P2"),
            ring.scale(named_scalar(pot, "lap_S"), Fraction(1, 3)),
        )
        ok = ok and got == want
    line = _report(2, ok, "a2 == P_2 + lap(S)/3 symbolically for n = 1, 2")
    assert ok, line


def test_03_third_coefficient_closed_form_at_random_jets():
    rng = random.Random(12)
    ok = True
    for _ in range(10):
        jets = random_hermitian_jets(2, 3, rng)
        pot = Potential.graded_numeric(2, jets, 3)
        got = bergman_coefficients(pot, 3)[3]
        ring = pot.ring
        want = ring.add(
            ring.add(named_scalar(pot, "P3"), named_scalar(pot, "div_Q")),
            ring.scale(named_scalar(pot, "lap2_S"), Fraction(1, 8)),
        )
        ok = ok and got == want
    line = _report(3, ok, "a3 == P_3 + div(Q) + lap^2(S)/8 at 10 random jets, n = 2")
    assert ok, line


def test_04_linear_part_of_every_coefficient():
    ok = True
    for n in (1, 2):
        pot = Potential.symbolic(n, 5, linear=True)
        coeffs = bergman_coefficients(pot, 5)
        for j in range(1, 6):
            want = pot.ring.scale(
                named_scalar(pot, LAP_POWER_NAMES[j - 1]),
                Fraction(j, factorial(j + 1)),
            )
            ok = ok and coeffs[j] == want
    line = _report(4, ok, "linearized a_j == j/(j+1)! lap^(j-1) S for j <= 5, n = 1, 2")
    assert ok, line


def _elementary_symmetric(n, j):
    total = 0
    for subset in itertools.combinations(range(1, n + 1), j):
        prod = 1
        for v in subset:
            prod *= v
        total += prod
    return total


def test_05_fubini_study_chain_matches_elementary_symmetric_values():
    ok = True
    for n in (1, 2):
        pot = Potential.graded_numeric(n, fubini_study_jets(n, 8), 3)
        coeffs = bergman_coefficients(pot, 3)
        a0 = _graded_total(coeffs[0])
        chain = [_graded_total(coeffs[j]) / a0 for j in range(1, 4)]
        want = [GaussRat(_elementary_symmetric(n, j)) for j in range(1, 4)]
        ok = ok and chain == want
    line = _report(5, ok, "FS chain a_j/a_0 equals e_j(1..n) for j <= 3, n = 1, 2")
    assert ok, line


def test_06_cycle_invariants_integrate_to_zero():
    bad = []
    for sigma in (1, 2, 3, 4):
        for p in partitions_of(sigma):
            inv = chern_invariant(p)
            for n in sorted({max(1, sigma - 1), sigma}):
                for trial in range(20):
                    phi = random_phi(n, mode_bound=2, seed=1000 * sigma + trial)
                    if eval_integral(inv, phi) != GR_ZERO:
                        bad.append((p, n, trial))
    ok = not bad
    line = _report(6, ok, "cycle invariants integrate to zero: sigma <= 4, 20 samples each")
    assert ok, (line, bad)


def test_07_formal_test_agrees_with_the_sampling_oracle():
    rng = random.Random(20260817)
    checked = 0
    attempt = 0
    disagreements = []
    while checked < 100:
        attempt += 1
        sigma = rng.randint(1, 3)
        weight = rng.randint(max(2, sigma), 6)
        if checked % 2 == 0:
            basis = enumerate_monomials(weight, sigma)
            if not basis:
                continue
            picks = rng.sample(basis, min(len(basis), rng.randint(1, 3)))
            terms = [(m, Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for m in picks]
            inv = Invariant(PHI, (0, 0), terms)
        else:
            inv = random_coexact_invariant(weight, sigma, rng)
        if not inv:
            continue
        formal = integrates_to_zero(inv)
        sampled_zero = all(
            eval_integral(inv, random_phi(sigma, mode_bound=2, seed=attempt * 31 + trial))
            == GR_ZERO
            for trial in range(20)
        )
        if formal != sampled_zero:
            disagreements.append((checked, sigma, weight, formal, sampled_zero))
        checked += 1
    ok = not disagreements
    line = _report(7, ok, "integrates_to_zero matches 20-sample oracle on 100 invariants")
    assert ok, (line, disagreements)


def test_08_decomposition_round_trip_on_random_coexact_inputs():
    rng = random.Random(8)
    done = 0
    ok = True
    while done < 50:
        sigma = rng.randint(1, 3)
        weight = rng.randint(max(2, sigma), 6)
        inv = random_coexact_invariant(weight, sigma, rng)
        if not inv:
            continue
        dec = decompose(inv)
        ok = ok and verify_decomposition(inv, dec)
        done += 1
    line = _report(8, ok, "decompose + verify on 50 random co-exact inputs")
    assert ok, line


def test_09_reduction_structure_on_top_weight_inputs():
    rng = random.Random(9)
    ok = True
    done = 0
    while done < 50:
        sigma = rng.randint(1, 3)
        basis = enumerate_monomials(2 * sigma, sigma)
        picks = rng.sample(basis, min(len(basis), rng.randint(1, 4)))
        terms = [(m, Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for m in picks]
        inv = Invariant(PHI, (0, 0), terms)
        if not inv:
            continue
        chern, rem = chern_reduce(inv)
        rebuilt = rem
        for p, c in chern.items():
            rebuilt = rebuilt + chern_invariant(p).scale(c)
        ok = ok and rebuilt == inv
        for mono, _ in rem.terms.items():
            ok = ok and any(
                mono.edges[i][i] == 0 for i in range(mono.sigma)
            )
        done += 1
    # co-exact top-weight inputs reduce with no remainder at all
    for trial in range(10):
        sigma = rng.randint(2, 3)
        combo = Invariant(PHI, (0, 0), [])
        drawn = {}
        for p in partitions_of(sigma):
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            if c:
                drawn[p] = c
                combo = combo + chern_invariant(p).scale(c)
        if not combo:
            continue
        chern, rem = chern_reduce(combo)
        ok = ok and not rem and dict(chern) == drawn
    line = _report(9, ok, "chern_reduce: exact rebuild, trace-free remainders, zero on co-exact")
    assert ok, line


def _laplacian_power_terms(alpha, beta, m):
    """Multi-indices mu <= min(alpha, beta), |mu| = m, with multinomial weight."""
    caps = [min(a, b) for a, b in zip(alpha, beta)]

    def rec(i, rem):
        if i == len(caps):
            if rem == 0:
                yield ()
            return
        for v in range(0, min(caps[i], rem) + 1):
            for rest in rec(i + 1, rem - v):
                yield (v,) + rest

    for mu in rec(0, m):
        mult = factorial(m)
        for v in mu:
            mult //= factorial(v)
        for a, b, v in zip(alpha, beta, mu):
            for k in range(v):
                mult *= (a - k) * (b - k)
        if mult:
            yield mu, mult


def test_10_linear_adjoint_matches_the_intermediate_display():
    """Pin the linearized adjoint against the one-piece Laplacian ladder.

    With the degree cap at 1, A = det g(z, zeta/t) * exp(-H t) keeps only the
    identity, the term -H t and the trace of the metric.  The adjoint rule of
    invar.bergman (all-plus signs, t-order j' = j + |g| - |d|) then gives,
    after the Hermitian relabel conj(h[b|a]) = h[a|b],

        A* - 1 = sum_(a,b) h[a|b] sum_{m>=0} (m-1)/m! lap^m(z^a d^b) t^(1-|b|)

    with lap^m(z^a d^b) = sum_{|mu|=m} m!/mu! (a)_mu (b)_mu z^(a-mu) d^(b-mu),
    the sum _laplacian_power_terms enumerates.  The -1/m! part is the adjoint
    of -H t and the +m/m! part the adjoint of the trace term, so the m = 1
    rung vanishes and every rung stays at the source jet's t-order |b| - 1.
    The expectation is built from the jets alone.

    An earlier transcription of the intermediate display differed in three
    ways: lead sign (-1)^|b| (zeta sent to -(1/t) d), lap^(j+1) placed at
    t-order j, and no rung below j = 2, which drops the scalar 2*h[2|2] at
    t-order 1 for n = 1.  Put in place of the adjoint in the kernel
    extractor, that operator gives a_1 = 0 instead of S/2 (tests 01 and 04).
    """
    jmax = 5
    ok = True
    details = []
    for n in (1, 2):
        pot = Potential.symbolic(n, 3, linear=True)
        ring = pot.ring
        ident = ((0,) * n, (0,) * n, 0)
        operator = adjoint(build_A(pot, jmax), ring)
        got = {}
        for key, val in operator.items():
            if key == ident:
                val = ring.add(val, ring.scale(ring.one, -1))
            if val and key[2] <= jmax:
                got[key] = val

        want = {}

        def add(key, val):
            cur = want.get(key)
            new = ring.add(cur, val) if cur is not None else val
            if not new:
                want.pop(key, None)
            else:
                want[key] = new

        for (alpha, beta) in pot.jets:
            order = sum(beta) - 1
            if order > jmax:
                continue
            h = ring.symbol((alpha, beta))
            for m in range(min(sum(alpha), sum(beta)) + 1):
                for mu, mult in _laplacian_power_terms(alpha, beta, m):
                    key = (
                        tuple(a - v for a, v in zip(alpha, mu)),
                        tuple(b - v for b, v in zip(beta, mu)),
                        order,
                    )
                    add(key, ring.scale(h, Fraction((m - 1) * mult, factorial(m))))

        if got != want:
            ok = False
            got_keys, want_keys = set(got), set(want)
            details.append(
                {
                    "dim": n,
                    "only_in_pipeline": sorted(got_keys - want_keys)[:3],
                    "only_in_ladder": sorted(want_keys - got_keys)[:3],
                    "coeff_mismatches": sorted(
                        k for k in got_keys & want_keys if got[k] != want[k]
                    )[:3],
                }
            )
    line = _report(10, ok, "linearized adjoint matches the one-piece Laplacian ladder")
    if not ok:
        for d in details:
            print(f"       dim {d['dim']}: pipeline-only keys {d['only_in_pipeline']}, "
                  f"ladder-only keys {d['only_in_ladder']}, "
                  f"coefficient mismatches at {d['coeff_mismatches']}")
    assert ok, (line, details)
