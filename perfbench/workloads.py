"""The benchmark's four workloads: seeded op lists, one call per op, and the
check of every result.

A workload yields its ops one *pass* at a time.  The composition of a pass
is fixed; the seed and the pass number pick the parameters inside it, so
every pass does the same amount of work of the same kinds.  (The e_delta
and Hecke ops of qexp-identities are the acceptance grid itself, the same
in every pass.)  The in-process workloads keep an op order that does not
depend on the seed, so the same op pays each cold cost on every seed;
qexp-identities and cusp-constants use a fixed shuffle, which spreads ops
of like cost over the pass, so that their latencies are not all taken in
the same few seconds.  The benchmark
runs each pass of an in-process workload in a fresh process, so library
caches keyed by inputs are never warm when a pass starts.

Importing this module imports eiscong, so the caller puts the checkout's
``src`` first on ``sys.path``.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

# layer functions are called through their modules, so the wrappers the
# traced run binds there see the benchmark's own calls too
from eiscong import characters, congruence, eisenstein, newforms
from eiscong.characters import DirichletChar
from eiscong.cyclotomic import CycNum
from eiscong.eisenstein import DeltaChoice, EisensteinParams, cusp_matrix_for
from eiscong.residue import PrimeAbove

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_PATH = HERE / "golden.json"
LAUNCHER = HERE / "cli_launcher.py"

CLI_EXAMPLES = ("ramanujan", "5.1", "5.2", "5.3")
CLI_LABELS = {"ramanujan": "1.12.a.a", "5.1": "10.8.b.a", "5.2": "14.7.d.a",
              "5.3": "42.6.e.c"}
CLI_TIME_LIMIT_S = 60.0

# (psi, phi, M, k).  psi trivial and nontrivial, phi of conductor up to 29,
# M in {1, 2, 6}, k in 6..12; norm numerators of the Condition-(1) quantity
# run from 9 to 157 digits, and several searches split 20-64 digit ell in
# primes_above.  Every fourth entry of the 60 is one of 15 searches of
# 50-200 ms, so that the median latency falls among many ops of like cost
# spread over the pass, not on one or two.  The seed replaces each entry by a Galois conjugate
# (psi^s, phi^s), which has the same norm and the same amount of work.
SEARCH_POOL = (
    ("5.2", "1.1", 2, 7), ("1.1", "7.2", 1, 8), ("1.1", "23.22", 1, 9),
    ("5.4", "13.3", 2, 6), ("3.2", "19.18", 1, 8), ("1.1", "19.8", 1, 7),
    ("1.1", "23.22", 6, 7), ("5.4", "11.10", 6, 9), ("5.4", "13.12", 6, 6),
    ("5.4", "29.28", 1, 8), ("3.2", "29.12", 1, 6), ("1.1", "7.3", 6, 11),
    ("3.2", "5.2", 2, 8), ("3.2", "7.2", 1, 9), ("1.1", "13.4", 1, 10),
    ("1.1", "17.2", 2, 6), ("3.2", "19.18", 1, 12), ("5.2", "29.12", 1, 6),
    ("1.1", "13.5", 1, 11), ("5.2", "29.12", 2, 6), ("3.2", "17.16", 2, 11),
    ("3.2", "13.4", 2, 7), ("5.4", "29.28", 2, 10), ("5.2", "19.18", 1, 10),
    ("1.1", "21.5", 1, 12), ("3.2", "13.3", 1, 11), ("5.2", "13.5", 1, 10),
    ("5.4", "13.3", 2, 8), ("3.2", "17.4", 1, 11), ("5.4", "17.4", 1, 10),
    ("5.2", "29.28", 1, 9), ("5.4", "7.2", 2, 8), ("1.1", "13.2", 2, 9),
    ("1.1", "11.2", 6, 7), ("1.1", "13.3", 6, 12), ("3.2", "17.4", 2, 9),
    ("1.1", "19.2", 1, 11), ("5.2", "11.10", 6, 12), ("5.2", "19.18", 6, 10),
    ("1.1", "11.2", 2, 7), ("5.4", "29.12", 1, 7), ("1.1", "19.4", 1, 6),
    ("5.4", "7.2", 6, 10), ("1.1", "13.4", 6, 12), ("5.2", "13.4", 1, 7),
    ("5.2", "7.3", 2, 10), ("3.2", "13.2", 2, 8), ("5.2", "7.2", 1, 9),
    ("5.2", "13.4", 1, 11), ("1.1", "19.2", 6, 11), ("3.2", "29.4", 2, 9),
    ("5.2", "23.22", 2, 10), ("1.1", "19.4", 2, 10), ("1.1", "17.3", 6, 9),
    ("3.2", "11.2", 2, 12), ("5.2", "23.22", 1, 8), ("1.1", "23.5", 2, 11),
    ("5.4", "19.4", 6, 6), ("1.1", "29.2", 6, 7), ("5.4", "19.8", 6, 7),
)
SEARCH_TIME_LIMIT_S = 60.0

# ROADMAP's known non-terminating input (a 1113-digit norm to factor).  It
# is probed once per timed run under its own limit and reported beside the
# metrics, outside the timed ops.
KNOWN_DEFECT = ("1.1", "61.2", 30, 21)
KNOWN_DEFECT_LIMIT_S = 3.0

# cusp constants: phi of conductor 5..13, value fields up to Q(zeta_156)
CUSP_ORDER_SEED = 0
CUSP_PARAMS = (("5.2", 6, 7), ("7.3", 2, 7), ("11.2", 6, 7), ("13.2", 2, 7),
               ("13.2", 6, 7), ("13.4", 2, 8))
CUSP_MATRICES_PER_CHOICE = 3
GAUSS_MAX_CONDUCTOR = 40
IDENTITY_TIME_LIMIT_S = 60.0

# the acceptance-suite grid (levels 1*2, 5*2, 7*6 and k in {6, 8}) at its
# precisions: each Hecke op takes e_delta to 8 * 29 coefficients, so the
# series cache of a parameter set fills once, on its first such op
QEXP_GRID = (("1.1", 2), ("5.4", 2), ("7.4", 6))
QEXP_WEIGHTS = (6, 8)
QEXP_PRECISION = 40
HECKE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
HECKE_PRECISION = 8
# 480 of a pass's 656 ops, so that the median latency falls well inside the
# dense band of divisor-sum ops, not on the step between them and the ten
# times dearer Hecke ops
QEXP_DIVISOR_CASES = 480
QEXP_ORDER_SEED = 0


# small-integer helpers, so that the benchmark itself never imports sympy
def prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + ([n] if n > 1 else [])


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def make_params(psi: str, phi: str, m: int, k: int) -> EisensteinParams:
    psi_c, phi_c = DirichletChar.from_label(psi), DirichletChar.from_label(phi)
    return EisensteinParams(psi_c.conductor * phi_c.conductor, m, k, psi_c, phi_c)


def search_key(psi: str, phi: str, m: int, k: int) -> str:
    return f"{psi}|{phi}|{m}|{k}"


def galois_variants(psi: str, phi: str) -> list[tuple[str, str]]:
    """(psi^s, phi^s) labels for every s prime to lcm of the two orders."""
    a, b = DirichletChar.from_label(psi), DirichletChar.from_label(phi)
    o = lcm(a.order, b.order)
    return [(a.power(s).label, b.power(s).label) for s in range(1, o + 1) if gcd(s, o) == 1]


def report_fields(rep: dict) -> dict:
    """The fields of a search report that the golden results fix."""
    return {"ell": rep["ell"], "lambda_factor": rep["lambda_prime"]["factor"],
            "cond1": rep["cond1"], "cond2": rep["cond2"], "admissible": rep["admissible"]}


def certificate_fields(cert: dict) -> dict:
    return {"passed": cert["passed"], "bound": cert["bound"],
            "checked_primes": cert["checked_primes"], "twist_f": cert["twist_f"],
            "twist_cyc": cert["twist_cyc"]}


def reproduce_fields(payload: dict) -> dict:
    return {"search": [report_fields(r) for r in payload["search"]],
            "certificates": [certificate_fields(c) for c in payload["certificates"]]}


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def cli_command(example: str, trace_out: str | None = None) -> list[str]:
    cmd = [sys.executable, str(LAUNCHER)]
    if trace_out is not None:
        cmd += ["--trace-out", trace_out]
    return cmd + ["reproduce", example, "--offline", "--json"]


class CliReproduce:
    """A fresh interpreter per op running the documented entry point."""

    name = "cli-reproduce"
    time_limit_s = CLI_TIME_LIMIT_S
    reference = "startup"  # calibrate.py

    def __init__(self, golden: dict):
        self.golden = golden[self.name]
        self.fixtures = {label: newforms.load_fixture(label) for label in CLI_LABELS.values()}
        self.trace_dir: str | None = None
        self._runs = 0

    def pass_ops(self, rng) -> list:
        ops = list(CLI_EXAMPLES)
        rng.shuffle(ops)
        return ops

    def run(self, op):
        trace_out = None
        if self.trace_dir is not None:
            self._runs += 1
            trace_out = os.path.join(self.trace_dir, f"cli-{self._runs:05d}.spans")
        proc = subprocess.run(cli_command(op, trace_out), cwd=ROOT,
                              capture_output=True, text=True, timeout=self.time_limit_s)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, op, result) -> str | None:
        code, out, err = result
        if code != 0:
            return f"exit code {code}: {err.strip()[-200:]}"
        payload = json.loads(out)
        got = reproduce_fields(payload)
        if got != self.golden[op]:
            return f"fields differ from golden: {got}"
        for cert in payload["certificates"]:
            if not newforms.replay_certificate(_certificate(cert), self.fixtures[cert["label"]]):
                return f"certificate for {cert['label']} does not replay"
        return None

    def digest(self, op, result) -> str:
        return json.dumps(reproduce_fields(json.loads(result[1])), sort_keys=True)


def _certificate(obj: dict) -> newforms.CongruenceCertificate:
    p = obj["params"]
    return newforms.CongruenceCertificate(
        label=obj["label"], params=make_params(p["psi"], p["phi"], p["M"], p["k"]),
        ell=obj["ell"], lambda_prime=PrimeAbove.from_json(obj["lambda_prime"]),
        field_poly_factor=tuple(obj["field_poly_factor"]),
        embedding_degree=obj["embedding_degree"], twist_f=obj["twist_f"],
        twist_cyc=obj["twist_cyc"], bound=obj["bound"],
        checked_primes=tuple(obj["checked_primes"]), include_ell=obj["include_ell"],
        passed=obj["passed"], first_failing_q=obj["first_failing_q"])


class SearchGrid:
    """search_congruence_primes over the whole pool, one Galois conjugate
    of each entry per pass."""

    name = "search-grid"
    time_limit_s = SEARCH_TIME_LIMIT_S
    reference = "compute"  # calibrate.py

    def __init__(self, golden: dict):
        self.golden = golden[self.name]
        self.variants = {entry: galois_variants(entry[0], entry[1]) for entry in SEARCH_POOL}

    def pass_ops(self, rng) -> list:
        ops = []
        for entry in SEARCH_POOL:
            psi, phi = rng.choice(self.variants[entry])
            ops.append((psi, phi, entry[2], entry[3]))
        return ops

    def run(self, op):
        return congruence.search_congruence_primes(make_params(*op))

    @staticmethod
    def fields(result) -> list:
        return [report_fields(rep.to_json()) for _, _, rep in result]

    def check(self, op, result) -> str | None:
        got = self.fields(result)
        want = self.golden[search_key(*op)]
        return None if got == want else f"fields differ from golden: {got}"

    def digest(self, op, result) -> str:
        return json.dumps(self.fields(result), sort_keys=True)


class QexpIdentities:
    """Small-conductor q-expansion identities of the acceptance suite."""

    name = "qexp-identities"
    time_limit_s = IDENTITY_TIME_LIMIT_S
    reference = "compute"  # calibrate.py

    def __init__(self, golden: dict):
        self.grid = [make_params("1.1", phi, m, k) for k in QEXP_WEIGHTS
                     for phi, m in QEXP_GRID]
        self.choices = [DeltaChoice.all_choices(p) for p in self.grid]

    def pass_ops(self, rng) -> list:
        ops = []
        for gi, choices in enumerate(self.choices):
            for di in range(len(choices)):
                ops.append(("e_delta", gi, di))
                ops += [("hecke", gi, di, p) for p in HECKE_PRIMES]
        for _ in range(QEXP_DIVISOR_CASES):
            gi = rng.randrange(len(self.grid))
            n_level = self.grid[gi].N
            p = rng.choice([q for q in HECKE_PRIMES if q < 24 and n_level % q])
            ops.append(("divisor", gi, p, rng.randrange(1, 60)))
        # the same permutation on every seed and pass, so the same ops fill
        # each parameter set's series cache
        random.Random(QEXP_ORDER_SEED).shuffle(ops)
        return ops

    def run(self, op):
        kind, gi = op[0], op[1]
        params = self.grid[gi]
        if kind == "e_delta":
            dc, b = self.choices[gi][op[2]], QEXP_PRECISION
            return (eisenstein.e_delta(params, dc, b).coeffs,
                    eisenstein.e_delta_via_hecke(params, dc, b).coeffs)
        k, psi, phi = params.k, params.psi, params.phi
        if kind == "hecke":
            dc, p, b = self.choices[gi][op[2]], op[3], HECKE_PRECISION
            f = eisenstein.e_delta(params, dc, b * HECKE_PRIMES[-1])
            if p in params.m_primes:
                eigen = dc.eps(p)
            else:
                eigen = psi(p) + phi(p) * Fraction(p) ** (k - 1)
            return eisenstein.hecke_tp(f, p, b).coeffs, f.truncate(b).scale(eigen).coeffs
        p, n = op[2], op[3]
        lhs = eisenstein.sigma_power_div(n * p, k, psi, phi)
        if n % p == 0:
            lhs = lhs + params.chi(p) * Fraction(p) ** (k - 1) * \
                eisenstein.sigma_power_div(n // p, k, psi, phi)
        rhs = (psi(p) + phi(p) * Fraction(p) ** (k - 1)) * \
            eisenstein.sigma_power_div(n, k, psi, phi)
        return lhs, rhs

    def check(self, op, result) -> str | None:
        lhs, rhs = result
        return None if lhs == rhs else f"identity fails: {op}"

    def digest(self, op, result) -> str:
        return repr(result[0])


class CuspConstants:
    """Cusp constant terms and Gauss-sum norms: few operations on long
    cyclotomic vectors, with inverses through qpoly.ext_gcd."""

    name = "cusp-constants"
    time_limit_s = IDENTITY_TIME_LIMIT_S
    reference = "compute"  # calibrate.py

    def __init__(self, golden: dict):
        self.gauss_labels = [ch.label for v in range(1, GAUSS_MAX_CONDUCTOR + 1)
                             for ch in characters.primitive_characters(v)]
        self.cusp = [(phi, m, k, len(prime_factors(m))) for phi, m, k in CUSP_PARAMS]

    def pass_ops(self, rng) -> list:
        ops = [("gauss", label) for label in self.gauss_labels]
        for ci, (phi, m, k, n_primes) in enumerate(self.cusp):
            v = int(phi.split(".")[0])
            for di in range(2 ** n_primes):
                for _ in range(CUSP_MATRICES_PER_CHOICE):
                    while True:
                        a, t = rng.randrange(-50, 51), rng.randrange(-10, 11)
                        if t and gcd(a, v * t) == 1:
                            break
                    ops.append(("cusp", ci, di, a, v * t))
        # the same permutation on every seed: it depends only on the length
        random.Random(CUSP_ORDER_SEED).shuffle(ops)
        return ops

    def run(self, op):
        if op[0] == "gauss":
            phi = DirichletChar.from_label(op[1])
            lhs = characters.gauss_sum(phi) * characters.gauss_sum(phi.inverse())
            return lhs, phi(-1) * Fraction(phi.modulus)
        ci, di, a, b = op[1:]
        phi, m, k, _ = self.cusp[ci]
        params = make_params("1.1", phi, m, k)
        dc = DeltaChoice.all_choices(params)[di]
        gamma = cusp_matrix_for(a, b)
        total = CycNum.zero(1)
        for d in divisors(m):
            w = dc.delta_m(d) * (-1) ** len(prime_factors(d))
            total = total + w * eisenstein.constant_term_alpha_m(params, d, gamma)
        return total, eisenstein.constant_term_e_delta(params, dc, gamma)

    def check(self, op, result) -> str | None:
        lhs, rhs = result
        return None if lhs == rhs else f"identity fails: {op}"

    def digest(self, op, result) -> str:
        return repr(result[0])


WORKLOADS = {cls.name: cls for cls in (CliReproduce, SearchGrid, QexpIdentities, CuspConstants)}
