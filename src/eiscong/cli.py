"""Command-line interface.

Exit codes: 0 = ran fine (including "conditions not satisfied" reports),
1 = a congruence verification ran and failed, 2 = usage or data errors,
3 = an internal error (any other exception), reported on one line.
Characters are named by Conrey labels "modulus.index" ("1.1" is the
trivial character).  Newform data comes only from fixture files
<label>.json: --fixtures is searched before EISCONG_FIXTURES, both before
the packaged data.  Nothing is downloaded, so --offline is accepted, for
scripts that pass it, and ignored.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain

from .characters import DirichletChar
from .congruence import bk_report, check_conditions_above, search_congruence_primes, value_conductor
from .eisenstein import CuspMatrix, DeltaChoice, EisensteinParams, c_gamma, \
    constant_term_e_delta, e_delta
from .errors import EiscongError
from .lvalues import l_value_at_negative
from .newforms import load_fixture, verify_at_ell, verify_congruence
from .residue import primes_above


def _build_params(args) -> EisensteinParams:
    psi = DirichletChar.from_label(args.psi)
    phi = DirichletChar.from_label(args.phi)
    return EisensteinParams(psi.conductor * phi.conductor, args.M, args.k, psi, phi)


def _parse_delta(params: EisensteinParams, spec: str) -> DeltaChoice:
    if spec in ("psi", "phi"):
        return DeltaChoice.constant(params, spec)
    selection = {}
    for item in spec.split(","):
        fields = item.split(":")
        if len(fields) != 2 or not fields[0].isdecimal():
            raise EiscongError(f"--delta item {item!r} is not of the form p:psi or p:phi")
        p = int(fields[0])
        if p in selection:
            raise EiscongError(f"--delta item {item!r} repeats the prime {p}")
        selection[p] = fields[1]
    return DeltaChoice(params, selection)


def _emit(args, payload, human_lines):
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=1))
    else:
        for line in human_lines:
            print(line)


def cmd_search(args) -> int:
    if args.ell_max is not None and args.ell_max < 2:
        raise EiscongError(f"--ell-max must be at least 2, got {args.ell_max}")
    params = _build_params(args)
    triples = search_congruence_primes(params, ell_max=args.ell_max)
    payload = [rep.to_json() for _, _, rep in triples]
    limited = "" if args.ell_max is None else f" (only ell <= {args.ell_max} searched)"
    lines = [f"search N={params.N} M={params.M} k={params.k} "
             f"psi={params.psi.label} phi={params.phi.label}{limited}:"]
    if triples:
        for ell, lam, _rep in triples:
            lines.append(f"  congruence prime: ell={ell}  lambda'={lam.pretty()}")
    else:
        lines.append("  no admissible congruence primes")
    _emit(args, payload, lines)
    return 0


def cmd_check(args) -> int:
    params = _build_params(args)
    reports = check_conditions_above(params, args.ell)
    payload = [r.to_json() for r in reports]
    lines = []
    for r in reports:
        verdict = "satisfied" if r.satisfied else "not satisfied"
        lines.append(f"ell={args.ell} lambda'={r.lambda_prime.pretty()}: {verdict} "
                     f"(cond1={r.cond1}, cond2={r.cond2_ok}, admissible={r.admissible})")
    _emit(args, payload, lines)
    return 0


def cmd_verify(args) -> int:
    params = _build_params(args)
    nf = load_fixture(args.label, args.fixtures)
    cert = verify_at_ell(nf, params, args.ell, bound=args.bound,
                         include_ell=not args.exclude_ell)
    payload = cert.to_json()
    verdict = "PASS" if cert.passed else f"FAIL at q={cert.first_failing_q}"
    lines = [f"verify {args.label} mod {cert.lambda_prime.pretty()} "
             f"(bound {cert.bound}, {len(cert.checked_primes)} primes): {verdict}"]
    _emit(args, payload, lines)
    return 0 if cert.passed else 1


def cmd_eis(args) -> int:
    params = _build_params(args)
    delta = _parse_delta(params, args.delta)
    if args.eis_command == "qexp":
        f = e_delta(params, delta, args.prec)
        # only the printed form is built (the lines lazily): at a long
        # precision either one costs as much as the series
        lines = chain([f"E_delta[{delta.label()}] level {f.level} weight {f.weight} "
                       f"char {f.character.label}:"],
                      (f"  a_{n} = {f[n]!r}" for n in range(f.precision + 1)))
        _emit(args, f.to_json() if args.json else None, lines)
    else:
        gamma = CuspMatrix(args.a, args.beta, args.b, args.d)
        ct = constant_term_e_delta(params, delta, gamma)
        payload = {"gamma": [gamma.a, gamma.beta, gamma.b, gamma.d],
                   "delta": delta.label(),
                   "constant_term": ct.to_json()}
        lines = [f"a_0(E_delta[gamma]) at gamma={gamma!r}: {ct!r}"]
        if gamma.b % params.v == 0:
            cg = c_gamma(params, gamma)
            payload["c_gamma"] = cg.to_json()
            lines.append(f"C_gamma = {cg!r}")
        _emit(args, payload, lines)
    return 0


def cmd_lvalue(args) -> int:
    chi = DirichletChar.from_label(args.chi)
    val = l_value_at_negative(args.k, chi)
    _emit(args, val.to_json(), [f"L(1-{args.k}, chi[{chi.label}]) = {val!r}"])
    return 0


def cmd_bk(args) -> int:
    params = _build_params(args)
    reports = [bk_report(params, lam, args.d)
               for lam in primes_above(args.ell, value_conductor(params))]
    payload = [r.to_json() for r in reports]
    lines = [f"lambda'={r.lambda_prime.pretty()}: ord_k={r.order_k} "
             f"ord_k2={r.order_k2} S={list(r.p_new_primes)}" for r in reports]
    _emit(args, payload, lines)
    return 0


# -- reproduce ----------------------------------------------------------

_EXAMPLES = {
    "ramanujan": {"M": 1, "k": 12, "psi": "1.1", "phi": "1.1",
                  "label": "1.12.a.a", "bound": 200},
    "5.1": {"M": 2, "k": 8, "psi": "1.1", "phi": "5.4",
            "label": "10.8.b.a", "bound": 100},
    "5.2": {"M": 2, "k": 7, "psi": "1.1", "phi": "7.3",
            "label": "14.7.d.a", "bound": None},
    "5.3": {"M": 6, "k": 6, "psi": "1.1", "phi": "7.4",
            "label": "42.6.e.c", "bound": None},
}


def cmd_reproduce(args) -> int:
    spec = _EXAMPLES[args.example]
    params = _build_params(argparse.Namespace(**spec))
    triples = search_congruence_primes(params)
    nf = load_fixture(spec["label"], args.fixtures)
    cert = verify_congruence(nf, params, triples[0][1], bound=spec["bound"])
    verdict = "PASS" if cert.passed else f"FAIL at q={cert.first_failing_q}"
    lines = [f"params: {params.describe()}"]
    lines += [f"  predicted congruence prime ell={ell} lambda'={lam.pretty()}"
              for ell, lam, _rep in triples]
    lines.append(f"  verify {spec['label']} mod {cert.lambda_prime.pretty()}: "
                 f"{verdict} (bound {cert.bound})")
    payload = {"example": args.example, "certificates": [cert.to_json()],
               "search": [rep.to_json() for _, _, rep in triples]}
    _emit(args, payload, lines)
    return 0 if cert.passed else 1


# -- argument plumbing ----------------------------------------------------


def _add_param_flags(sp):
    sp.add_argument("--M", type=int, required=True, help="square-free lift level factor")
    sp.add_argument("--k", type=int, required=True, help="weight (must exceed 2)")
    sp.add_argument("--psi", required=True, help="Conrey label of psi, e.g. 1.1")
    sp.add_argument("--phi", required=True, help="Conrey label of phi, e.g. 5.4")


def _common_flags(ap, suppress=False):
    d = argparse.SUPPRESS if suppress else None
    ap.add_argument("--json", action="store_true",
                    default=argparse.SUPPRESS if suppress else False,
                    help="machine-readable output")
    ap.add_argument("--fixtures", default=d, help="fixture directory")
    ap.add_argument("--offline", action="store_true",
                    default=argparse.SUPPRESS if suppress else False,
                    help="accepted and ignored: newform data only ever comes from fixtures")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="eiscong",
        description="Predict and verify Eisenstein congruence primes for "
                    "newforms of square-free level with character.")
    _common_flags(ap)
    # the same flags are accepted after the subcommand as well
    common = argparse.ArgumentParser(add_help=False)
    _common_flags(common, suppress=True)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("search", parents=[common],
                        help="find all congruence primes for one parameter set")
    _add_param_flags(sp)
    sp.add_argument("--ell-max", type=int, default=None)
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("check", parents=[common],
                        help="evaluate Conditions (1)/(2) at a given ell")
    _add_param_flags(sp)
    sp.add_argument("--ell", type=int, required=True)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("verify", parents=[common],
                        help="verify the congruence against newform data")
    _add_param_flags(sp)
    sp.add_argument("--label", required=True, help="LMFDB newform label")
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--bound", type=int, default=None,
                    help="coefficient bound (default: the Sturm bound)")
    sp.add_argument("--exclude-ell", action="store_true",
                    help="check only q with q not dividing N*M*ell")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("eis", help="q-expansions and cusp constants")
    eis_sub = sp.add_subparsers(dest="eis_command", required=True)
    for name in ("qexp", "cusp"):
        esp = eis_sub.add_parser(name, parents=[common])
        _add_param_flags(esp)
        esp.add_argument("--delta", default="psi",
                         help="'psi', 'phi', or per-prime like '2:psi,3:phi'")
        if name == "qexp":
            esp.add_argument("--prec", type=int, default=10)
        else:
            esp.add_argument("--a", type=int, required=True)
            esp.add_argument("--beta", type=int, required=True)
            esp.add_argument("--b", type=int, required=True)
            esp.add_argument("--d", type=int, required=True)
        esp.set_defaults(func=cmd_eis)

    sp = sub.add_parser("lvalue", parents=[common], help="exact L(1-k, chi)")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--chi", required=True, help="Conrey label")
    sp.set_defaults(func=cmd_lvalue)

    sp = sub.add_parser("bk", parents=[common],
                        help="Selmer quotient orders (exact valuations)")
    _add_param_flags(sp)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--d", type=int, default=1, help="proper divisor of M")
    sp.set_defaults(func=cmd_bk)

    sp = sub.add_parser("reproduce", parents=[common],
                        help="run a bundled example end to end")
    sp.add_argument("example", choices=sorted(_EXAMPLES))
    sp.set_defaults(func=cmd_reproduce)
    return ap


def run(argv=None) -> int:
    # a value the commands compute may have more digits than the
    # interpreter's default int <-> str limit, and must still print; argv
    # is bounded by the OS, so parsing stays bounded without the limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except (EiscongError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # any other error is a fault of the program: without this it would
        # exit 1, which means "verification ran and failed", with a traceback
        detail = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 3


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
