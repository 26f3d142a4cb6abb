"""Command line surface.

Subcommands: canon, decompose, chern, bergman, oracle, and verify with a
handful of named checks.  Machine-readable output goes to stdout (JSON, or
JSON-lines reports with fields check/status/lhs/rhs/dim/seed); the human
summary goes to stderr.  Exit codes: 0 success, 1 verification failure, a
not-co-exact input, no witness under the restriction, or a stdout its
reader closed early, 2 malformed input, a file that cannot be read or
written, or a refused random draw.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from functools import partial
from math import factorial

from .bergman import bergman_coefficients
from .calculus import integrates_to_zero
from .chern import _CHERN_DEGREE_LIMIT, chern_invariant, partitions_of
from .fourier import eval_integral, random_phi
from .geometry import kernel_coefficient_reference, named_scalar
from .invariants import Invariant
from .jets import Potential, fubini_study_jets, random_hermitian_jets
from .monomials import PHI, _floor_pairs
from .rationals import GR_ZERO
from .rings import GradedRing
from .solver import (
    InfeasibleError,
    NotCoexactError,
    decompose,
    random_coexact_invariant,
    verify_decomposition,
)

class Reporter:
    """JSON-lines check reports on stdout, counting failures."""

    def __init__(self):
        self.checks = 0
        self.failures = 0

    def line(self, check, ok, lhs, rhs, dim=None, seed=None):
        self.checks += 1
        if not ok:
            self.failures += 1
        print(
            json.dumps(
                {
                    "check": check,
                    "status": "ok" if ok else "failed",
                    "lhs": lhs,
                    "rhs": rhs,
                    "dim": dim,
                    "seed": seed,
                }
            )
        )

    def summary(self, text):
        status = "ok" if not self.failures else f"{self.failures} FAILED"
        sys.stderr.write(f"{text} [{self.checks} checks: {status}]\n")

    @property
    def exit_code(self):
        return 1 if self.failures else 0


# -- value rendering -------------------------------------------------------


def _fmt_gauss(c) -> str:
    return str(c).replace("i", "*i")


def _fmt_monomial(mono) -> str:
    if not mono:
        return "1"
    parts = []
    for (alpha, beta), e in mono:
        s = "a[{}|{}]".format(",".join(map(str, alpha)), ",".join(map(str, beta)))
        parts.append(s if e == 1 else f"{s}^{e}")
    return "*".join(parts)


def fmt_element(ring, x, limit=None) -> str:
    """Human rendering of a graded or symbolic ring element; optionally
    truncated."""
    if isinstance(ring, GradedRing):
        return _fmt_gauss(sum(x.values(), GR_ZERO))
    if not x:
        return "0"
    parts = [f"({_fmt_gauss(c)})*{_fmt_monomial(m)}" for m, c in sorted(x.items())]
    out = " + ".join(parts)
    if limit and len(out) > limit:
        out = out[: limit - 20] + f" ... [{len(parts)} terms]"
    return out


def _element_json(ring, x):
    if isinstance(ring, GradedRing):
        total = sum(x.values(), GR_ZERO)
        return {"re": str(total.re), "im": str(total.im)}
    return [
        {
            "monomial": [
                {"alpha": list(a), "beta": list(b), "power": e} for (a, b), e in m
            ],
            "re": str(c.re),
            "im": str(c.im),
        }
        for m, c in sorted(x.items())
    ]


# -- input helpers ----------------------------------------------------------


class InputError(Exception):
    pass


def _load(path, what, parse):
    """parse(d) for the JSON value d in path; a file that cannot be read or
    parsed ends in one InputError line naming the file and the fault."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(d)
    except KeyError as exc:
        raise InputError(f"bad {what} in {path}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad {what} in {path}: {exc}") from exc


def _at_least(minimum):
    """argparse type: an integer no smaller than minimum."""

    def integer(text):
        if int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {text}")
        return int(text)

    return integer


def _emit(args, payload):
    """Write payload, a text or a JSON value, to --out or stdout."""
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from exc
    else:
        print(text)


# -- plain subcommands -------------------------------------------------------


def cmd_canon(args):
    inv = _load(args.invariant, "invariant", Invariant.from_json_dict)
    _emit(args, inv.to_json_dict())
    return 0


def cmd_chern(args):
    try:
        inv = chern_invariant([int(v) for v in args.partition.split(",")])
    except ValueError as exc:
        raise InputError(f"bad partition {args.partition!r}: {exc}") from exc
    _emit(args, inv.to_json_dict())
    return 0


def cmd_decompose(args):
    inv = _load(args.invariant, "invariant", Invariant.from_json_dict)
    restriction = None
    if args.restrict is not None:
        # any length passes here; decompose checks it against each block
        restriction = _load(args.restrict, "restriction list", _floor_pairs)
    try:
        dec = decompose(inv, restriction)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    except InfeasibleError as exc:
        sys.stderr.write(f"no witness: {exc}\n")
        return 1
    except NotCoexactError as exc:
        sys.stderr.write(
            f"not co-exact: {exc}\nnonzero first-slot residue:\n"
            + json.dumps(exc.residue.to_json_dict(), sort_keys=True)
            + "\n"
        )
        return 1
    if not verify_decomposition(inv, dec):
        sys.stderr.write("internal error: witness failed re-verification\n")
        return 1
    _emit(args, dec.to_json_dict())
    sys.stderr.write("decomposed: witness verified exactly\n")
    return 0


def _draw(n, mode_bound, seed):
    """random_phi, with a refused draw (no mode triangle closed) as one line."""
    try:
        return random_phi(n, mode_bound, seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def cmd_oracle(args):
    inv = _load(args.invariant, "invariant", Invariant.from_json_dict)
    if inv.valence != (0, 0):
        raise InputError("the oracle integrates scalar invariants only")
    if inv.kind != PHI and len(inv.degrees()) > 1:
        raise InputError("a psi-invariant must have one degree: one function per factor")
    n = args.dim
    formal = integrates_to_zero(inv)
    rep = Reporter()
    witnessed = False
    sigma = max(inv.degrees(), default=1)
    for t in range(args.trials):
        seed = args.seed + t
        if inv.kind == PHI:
            phi = _draw(n, args.mode_bound, seed)
        else:
            phi = [_draw(n, args.mode_bound, seed * sigma + i) for i in range(sigma)]
        value = eval_integral(inv, phi)
        ok = (not value) if formal else True
        witnessed = witnessed or bool(value)
        rep.line(
            "oracle-trial",
            ok,
            _fmt_gauss(value),
            "0" if formal else "generically nonzero",
            dim=n,
            seed=seed,
        )
    if formal:
        rep.summary(f"formally zero; {args.trials} trials evaluated")
    else:
        rep.line("oracle-witness", witnessed, "nonzero witnessed" if witnessed else "all zero", "nonzero", dim=n, seed=args.seed)
        rep.summary("formally nonzero; oracle sampled")
    return rep.exit_code


def cmd_bergman(args):
    order = args.order
    if args.symbolic:
        pot = Potential.symbolic(args.dim, order)
    elif args.fubini_study:
        pot = Potential.graded_numeric(
            args.dim, fubini_study_jets(args.dim, 2 * order + 2), order
        )
    else:
        raw = _load(args.potential, "potential", Potential.from_json_dict)
        if raw.n != args.dim:
            raise InputError(f"--dim {args.dim} but potential file has n={raw.n}")
        pot = Potential.graded_numeric(raw.n, raw.jets, order)
    coeffs = bergman_coefficients(pot, order)
    if args.format == "json":
        payload = {
            "dim": pot.n,
            "order": order,
            "coefficients": [_element_json(pot.ring, c) for c in coeffs],
        }
    else:
        payload = "\n".join(
            f"a_{j} = {fmt_element(pot.ring, c, limit=2000)}" for j, c in enumerate(coeffs)
        )
    _emit(args, payload)
    return 0


# -- verify suites ------------------------------------------------------------


def _verify_closed_form(j, formula, potentials, args, rep):
    """a_j against its closed form on each (seed, potential) pair that
    potentials(j, args) yields."""
    for seed, pot in potentials(j, args):
        got = bergman_coefficients(pot, j)[j]
        want = kernel_coefficient_reference(pot, j)
        rep.line(
            f"a{j}",
            got == want,
            fmt_element(pot.ring, got, 400),
            fmt_element(pot.ring, want, 400),
            dim=pot.n,
            seed=seed,
        )
    rep.summary(f"a{j} == {formula}: exact" if not rep.failures else f"a{j} check")


def _symbolic_potentials(j, args):
    """The symbolic potential of weight j, at --dim or else at n = 1 and 2."""
    for n in [args.dim] if args.dim else [1, 2]:
        yield None, Potential.symbolic(n, j)


def _random_potentials(j, args):
    """One seeded random potential of weight j per trial."""
    n = args.dim or 2
    for t in range(args.trials or 3):
        seed = (args.seed or 0) + t
        yield seed, Potential.graded_numeric(
            n, random_hermitian_jets(n, j, random.Random(seed)), j
        )


def _verify_linear(args, rep):
    n = args.dim or 1
    jmax = args.order or 5
    pot = Potential.symbolic(n, jmax, linear=True)
    coeffs = bergman_coefficients(pot, jmax)
    for j in range(1, jmax + 1):
        k = j - 1
        name = "S" if k == 0 else ("lap_S" if k == 1 else f"lap{k}_S")
        want = pot.ring.scale(named_scalar(pot, name), Fraction(j, factorial(j + 1)))
        rep.line(
            "linear",
            coeffs[j] == want,
            fmt_element(pot.ring, coeffs[j], 400),
            f"{j}/{j + 1}! * lap^{k}(S)",
            dim=n,
            seed=None,
        )
    rep.summary("linearized a_j == j/(j+1)! lap^(j-1) S: exact")


def _verify_chern_integrals(args, rep):
    max_sigma = args.order or 3
    if max_sigma > _CHERN_DEGREE_LIMIT:
        raise InputError(f"--order {max_sigma} is above the Chern degree limit {_CHERN_DEGREE_LIMIT}")
    trials = args.trials or 5
    for sigma in range(1, max_sigma + 1):
        n = args.dim or sigma
        for p in partitions_of(sigma):
            inv = chern_invariant(p)
            for t in range(trials):
                seed = (args.seed or 0) + t
                value = eval_integral(inv, _draw(n, args.mode_bound or 2, seed))
                rep.line(
                    f"chern-integral[{','.join(map(str, p))}]",
                    not value,
                    _fmt_gauss(value),
                    "0",
                    dim=n,
                    seed=seed,
                )
    rep.summary("cycle invariants integrate to zero")


def _verify_roundtrip(args, rep):
    trials = args.trials or 10
    seed = args.seed or 0
    rng = random.Random(seed)
    done = 0
    while done < trials:
        sigma = rng.randint(1, 3)
        weight = rng.randint(max(2, sigma), 6)
        inv = random_coexact_invariant(weight, sigma, rng)
        if not inv:
            continue
        done += 1
        try:
            dec = decompose(inv)
            ok = verify_decomposition(inv, dec)
            msg = "witness reconstructs input"
        except Exception as exc:  # noqa: BLE001 - failure is the report
            ok = False
            msg = f"{type(exc).__name__}: {exc}"
        rep.line(
            "roundtrip",
            ok,
            msg,
            "exact reconstruction",
            dim=None,
            seed=seed,
        )
    rep.summary("decompose/verify round-trip")


# each suite with the flags it reads; the parser leaves every flag None, so a
# suite applies its own default and any other flag given is refused
VERIFY_SUITES = {
    "a1": (partial(_verify_closed_form, 1, "S/2", _symbolic_potentials), {"dim"}),
    "a2": (
        partial(_verify_closed_form, 2, "P_2 + lap(S)/3", _symbolic_potentials),
        {"dim"},
    ),
    "a3": (
        partial(
            _verify_closed_form, 3, "P_3 + div(Q) + lap^2(S)/8", _random_potentials
        ),
        {"dim", "trials", "seed"},
    ),
    "linear": (_verify_linear, {"dim", "order"}),
    "chern-integrals": (
        _verify_chern_integrals,
        {"dim", "order", "trials", "mode_bound", "seed"},
    ),
    "roundtrip": (_verify_roundtrip, {"trials", "seed"}),
}
# each verify flag and its argparse type: the parser and the refusal of a
# flag the suite does not read both come from this one table
VERIFY_FLAGS = {
    "dim": _at_least(1),
    "order": _at_least(1),
    "trials": _at_least(1),
    "mode_bound": _at_least(1),
    "seed": int,
}


def _option(flag):
    return "--" + flag.replace("_", "-")


def cmd_verify(args):
    suite, reads = VERIFY_SUITES[args.suite]
    for flag in VERIFY_FLAGS:
        if getattr(args, flag) is not None and flag not in reads:
            raise InputError(f"verify {args.suite} does not read {_option(flag)}")
    rep = Reporter()
    suite(args, rep)
    return rep.exit_code


# -- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="invar",
        description="exact local Kahler invariants: canonical forms, witnesses, kernel coefficients",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canon", help="canonicalize an invariant JSON file")
    p.add_argument("invariant")
    p.add_argument("--out")
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("decompose", help="decompose a co-exact invariant")
    p.add_argument("invariant")
    p.add_argument(
        "--restrict",
        help="JSON file with a list of [alpha, beta] derivative floors, "
        "matched to factors up to relabeling",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("chern", help="emit a cycle invariant")
    p.add_argument("--partition", required=True, help="comma-separated parts, e.g. 2,1")
    p.add_argument("--out")
    p.set_defaults(func=cmd_chern)

    p = sub.add_parser("bergman", help="kernel expansion coefficients")
    p.add_argument("--dim", type=_at_least(1), required=True)
    p.add_argument("--order", type=_at_least(0), required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--potential", help="potential-jet JSON file")
    src.add_argument("--symbolic", action="store_true")
    src.add_argument("--fubini-study", action="store_true")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bergman)

    p = sub.add_parser("oracle", help="integrate an invariant over random Fourier data")
    p.add_argument("invariant")
    p.add_argument("--dim", type=_at_least(1), required=True)
    p.add_argument("--trials", type=_at_least(1), default=20)
    p.add_argument("--mode-bound", type=_at_least(1), default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=sorted(VERIFY_SUITES))
    for flag, kind in VERIFY_FLAGS.items():
        p.add_argument(_option(flag), type=kind)
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BrokenPipeError:
        # the reader closed stdout: drop the unwritten rest, with no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
