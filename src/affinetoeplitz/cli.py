"""Batch command-line front end: reduce words, evaluate states, run check suites.

Every subcommand writes one JSON document (or CSV lines with --format csv) to
stdout and exits 0 on success / verified, 1 on a verification failure (the
payload carries the first counterexample), 2 on usage or parse errors (which
go to stderr).  Output is deterministic: keys are sorted and every real is a
fixed-precision decimal string, with the digit count echoed in a "precision"
field; exact rationals are "p/q" strings.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from math import inf, isnan

from . import bostconnes, spectrum, states
from .algebra import Monomial, WordSyntaxError, monomial_grid, reduce_word
from .numtheory import PrimeWindow, float_power
from .semigroup import SemigroupElement, euclid_smallest, join

REAL_DIGITS = 12


def _fmt_real(x: float) -> str:
    return f"{x:.{REAL_DIGITS}e}"


def _fmt_complex(z: complex) -> dict:
    return {"re": _fmt_real(z.real), "im": _fmt_real(z.imag)}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, bool) or isinstance(obj, int) or obj is None:
        return obj
    if isinstance(obj, float):
        return _fmt_real(obj)
    if isinstance(obj, complex):
        return _fmt_complex(obj)
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    return str(obj)


def _render(payload: dict, fmt: str) -> str:
    """The payload as one JSON line or as CSV `path,value` lines."""
    payload = _jsonable({**payload, "precision": REAL_DIGITS})
    if fmt == "json":
        return json.dumps(payload, sort_keys=True)

    def walk(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                yield from walk(f"{prefix}.{k}" if prefix else k, value[k])
        elif isinstance(value, list):
            for i, v in enumerate(value):
                yield from walk(f"{prefix}[{i}]", v)
        else:
            yield f"{prefix},{value}"

    return "\n".join(walk("", payload))


def _parse_beta(text: str) -> float:
    beta = inf if text == "inf" else float(text)
    if isnan(beta):
        raise ValueError("beta must be a number, got nan")
    return beta


def _parse_precision(text: str) -> int:
    """Tolerance bits: the verification tolerance is 2^-precision, so at least 1."""
    bits = int(text)
    if bits < 1:
        raise argparse.ArgumentTypeError(f"precision must be at least 1 bit, got {bits}")
    return bits


def _parse_csv_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _state_from_args(args) -> states.StateSpec:
    if args.state.startswith("{"):
        return states.state_from_json(json.loads(args.state))
    beta = _parse_beta(args.beta)
    if args.state == "psi_beta":
        return states.PsiBeta(beta)
    if args.state == "psi_beta_mu":
        mu = states.CircleMeasure.point(0) if args.mu is None else states.measure_from_json(json.loads(args.mu))
        return states.PsiBetaMu(beta, mu)
    raise ValueError(f"unknown state {args.state!r}")


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_reduce(args) -> tuple[int, dict]:
    mono = reduce_word(args.word, expand_composite=args.expand_composite)
    return 0, mono.to_json()


def _cmd_join(args) -> tuple[int, dict]:
    result = join(SemigroupElement(args.m, args.a), SemigroupElement(args.n, args.b))
    if result is None:
        return 0, {"infinite": True}
    return 0, result._asdict()


def _cmd_euclid(args) -> tuple[int, dict]:
    alpha, beta = euclid_smallest(args.c, args.d, args.k)
    return 0, {"alpha": alpha, "beta": beta}


def _cmd_state_eval(args) -> tuple[int, dict]:
    phi = _state_from_args(args)
    if args.monomial is None:
        mono = reduce_word(args.word, expand_composite=args.expand_composite)
    else:
        mono = Monomial.from_json(json.loads(args.monomial))
    return 0, {"monomial": mono.to_json(), "value": _fmt_complex(states.evaluate(phi, mono))}


def _cmd_kms_check(args) -> tuple[int, dict]:
    phi = _state_from_args(args)
    beta = None if args.at_beta is None else _parse_beta(args.at_beta)
    monos = monomial_grid(args.grid, args.mults)
    if not monos:
        raise ValueError("empty monomial grid: need --grid >= 0 and a non-empty --mults")
    tol = 2.0 ** (-args.precision)
    defect, (x, y), char, at = states.kms_grid(phi, monos, beta)
    worst = max(defect, char)
    payload = {"max_defect": worst, "pairs": len(monos) ** 2, "tolerance": tol}
    if worst <= tol:
        return 0, payload
    # a tie reports the characterisation witness
    if defect > char:
        payload["counterexample"] = {"kind": "defect", "x": x.to_json(), "y": y.to_json()}
    else:
        payload["counterexample"] = {"kind": "characterisation", "x": at.to_json()}
    return 1, payload


def _cmd_ground_check(args) -> tuple[int, dict]:
    if args.state is not None:
        phi = states.state_from_json(json.loads(args.state))
    elif args.vector is not None:
        phi = states.Ground(states.VectorState(args.vector))
    elif args.evaluation is not None:
        phi = states.Ground(states.CircleMeasure.point(args.evaluation))
    else:
        raise ValueError("pass --vector, --evaluation or --state")
    tol = 2.0 ** (-args.precision)
    monos = [x for x in monomial_grid(args.grid, args.mults) if x.a != 1 or x.b != 1]
    if not monos:
        raise ValueError("empty monomial grid: need --grid >= 0 and a --mults entry other than 1")
    for x in monos:
        if not states.ground_check(phi, x, tol):
            return 1, {"counterexample": x.to_json(), "tolerance": tol}
    return 0, {"checked": len(monos), "tolerance": tol}


def _cmd_rep_check(args) -> tuple[int, dict]:
    from .representation import relation_suite

    report = relation_suite(args.model, args.primes, args.window)
    ok = all(entry["pass"] for entry in report["relations"].values())
    return (0 if ok else 1), report


def _cmd_measure(args) -> tuple[int, dict]:
    beta = _parse_beta(args.beta)
    value, tail = states.measure_cylinder(beta, args.m, args.a)
    closed = 1 / args.a if beta == 1 else float_power(args.a, -beta)
    payload = {"series": value, "tail": tail, "closed_form": closed}
    if abs(value - closed) > tail + 2.0 ** (-args.precision):
        return 1, payload
    return 0, payload


def _cmd_reconstruct(args) -> tuple[int, dict]:
    if args.n < 0:
        raise ValueError(f"--n must be >= 0, got {args.n}")
    phi = _state_from_args(args)
    window = PrimeWindow.of(args.primes)
    tol = 2.0 ** (-args.precision)
    worst = 0.0
    worst_n = 0
    for n in range(0, args.n + 1):
        defect = states.reconstruct_sn(phi, window, n)
        if defect > worst:
            worst, worst_n = defect, n
    payload = {"max_defect": worst, "worst_n": worst_n, "n_max": args.n, "tolerance": tol}
    return (0 if worst <= tol else 1), payload


def _cmd_bc(args) -> tuple[int, dict]:
    chi = (
        bostconnes.character_from_json(json.loads(args.character))
        if args.character
        else bostconnes.DirichletCharacter.quadratic_mod4()
    )
    beta = _parse_beta(args.beta)
    if args.mode == "euler":
        res = bostconnes.char_euler_sum(chi, args.primes, beta, args.truncation)
        defect = abs(res.series - res.product)
        payload = {
            "series": res.series,
            "product": res.product,
            "defect": defect,
            "tail_bound": res.tail_bound,
            "terms": res.terms,
        }
        return (0 if defect <= res.tail_bound + 2.0 ** (-args.precision) else 1), payload
    if args.mode == "invariance":
        ratios = bostconnes.invariance_ratio(chi, beta, args.kmax)
        return 0, {"ratios": ratios}
    if args.mode == "reconstruct":
        defect = bostconnes.bc_reconstruct_check(args.primes, beta, args.k)
        tol = 2.0 ** (-args.precision)
        return (0 if defect <= tol else 1), {"defect": defect, "k": args.k, "tolerance": tol}
    raise ValueError(f"unknown bc mode {args.mode!r}")


def _cmd_spectrum(args) -> tuple[int, dict]:
    point = spectrum.point_from_json(json.loads(args.point))
    if args.contains:
        m, a = args.contains
        member = spectrum.contains(point, SemigroupElement(m, a))
        return 0, {"contains": member, "m": m, "a": a}
    if args.act:
        m, a = args.act
        if not isinstance(point, spectrum.BPoint):
            raise ValueError("the action applies to B-points")
        moved = spectrum.boundary_act(SemigroupElement(m, a), point)
        return 0, spectrum.point_to_json(moved)
    if args.decompose:
        if not isinstance(point, spectrum.BPoint):
            raise ValueError("decompose applies to B-points")
        parts = spectrum.decompose(point, level=args.level)
        return 0, {str(p): {"value": t.value, "level": t.level} for p, t in parts.items()}
    ok = spectrum.verify_hereditary_directed(point, args.bound)
    return (0 if ok else 1), {"hereditary_directed": ok, "bound": args.bound}


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first `run` and reused by every later one."""
    parser = argparse.ArgumentParser(
        prog="affinetoeplitz",
        description="Canonical-form rewriting and equilibrium-state evaluation "
        "for the Toeplitz algebra of the affine monoid over N.",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("reduce", _cmd_reduce, help="reduce a word to its normal form")
    p.add_argument("word")
    p.add_argument("--expand-composite", action="store_true")

    p = add("join", _cmd_join, help="least upper bound of (m,a) and (n,b)")
    for name in ("m", "a", "n", "b"):
        p.add_argument(name, type=int)

    p = add("euclid", _cmd_euclid, help="smallest non-negative solution of k = alpha*c - beta*d")
    for name in ("c", "d", "k"):
        p.add_argument(name, type=int)

    def state_flags(p):
        p.add_argument("--state", required=True, help="psi_beta | psi_beta_mu | a state JSON object")
        p.add_argument("--beta", default="inf")
        p.add_argument("--mu", default=None, help="circle measure JSON")

    p = add("state-eval", _cmd_state_eval, help="evaluate a state on a word or monomial")
    state_flags(p)
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--word")
    target.add_argument("--monomial", help="monomial JSON")
    p.add_argument("--expand-composite", action="store_true")

    p = add("kms-check", _cmd_kms_check, help="equilibrium defect over a monomial grid")
    state_flags(p)
    p.add_argument("--grid", type=int, default=2, help="additive exponent bound")
    p.add_argument("--mults", type=_parse_csv_ints, default=[1, 2, 3, 4, 6])
    p.add_argument("--at-beta", default=None, help="check the condition at a different temperature")
    p.add_argument("--precision", type=_parse_precision, default=30, help="tolerance bits")

    p = add("ground-check", _cmd_ground_check, help="ground-state vanishing over a grid")
    p.add_argument("--vector", type=int, default=None)
    p.add_argument("--evaluation", default=None, help="rational angle, e.g. 1/4")
    p.add_argument("--state", default=None, help="check an arbitrary state JSON instead")
    p.add_argument("--grid", type=int, default=2)
    p.add_argument("--mults", type=_parse_csv_ints, default=[1, 2, 3, 4, 6])
    p.add_argument("--precision", type=_parse_precision, default=30)

    p = add("rep-check", _cmd_rep_check, help="relation report on a concrete model")
    p.add_argument("--model", choices=("x", "z"), required=True)
    p.add_argument("--primes", type=_parse_csv_ints, default=[2, 3, 5])
    p.add_argument("--window", type=int, default=20)

    p = add("measure", _cmd_measure, help="cylinder mass: truncated series vs closed form")
    p.add_argument("--beta", required=True)
    p.add_argument("m", type=int)
    p.add_argument("a", type=int)
    p.add_argument("--precision", type=_parse_precision, default=30)

    p = add("reconstruct", _cmd_reconstruct, help="conditional-state reconstruction defect")
    state_flags(p)
    p.add_argument("--primes", type=_parse_csv_ints, required=True)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--precision", type=_parse_precision, default=30, help="tolerance bits")

    p = add("bc", _cmd_bc, help="character Euler sums and the invariance ratio")
    p.add_argument("--mode", choices=("euler", "invariance", "reconstruct"), required=True)
    p.add_argument("--character", default=None, help="character JSON (default: quadratic mod 4)")
    p.add_argument("--beta", default="1")
    p.add_argument("--primes", type=_parse_csv_ints, default=[3, 5, 7])
    p.add_argument("--truncation", type=int, default=10**4)
    p.add_argument("--kmax", type=int, default=40)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--precision", type=_parse_precision, default=30)

    p = add("spectrum", _cmd_spectrum, help="membership, action and verification for spectrum points")
    p.add_argument("--point", required=True, help="spectrum point JSON")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--contains", nargs=2, type=int, metavar=("M", "A"), default=None)
    mode.add_argument("--act", nargs=2, type=int, metavar=("M", "A"), default=None)
    mode.add_argument("--decompose", action="store_true")
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--bound", type=int, default=20)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, payload = args.fn(args)
        # an int past Python's int-to-str digit limit fails here, before any output
        text = _render(payload, args.format)
    except (WordSyntaxError, ValueError, KeyError, json.JSONDecodeError, ZeroDivisionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
