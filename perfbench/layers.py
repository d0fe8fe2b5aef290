"""Per-layer metrics of the traced run, each with the end-to-end metric and
workload it is expected to move.

Times are seconds summed over the traced pass (wrapper cost included);
counts are exact and repeat for a given seed.  A layer a workload does not
reach reads 0.
"""

from __future__ import annotations

from collections import Counter

from tracer import MUL_BUCKETS

_IMPORT_TARGET = "setup_s and op_p50_s on cli-reproduce; setup_s elsewhere"

# (name, unit, better, target)
LAYER_METRICS = [
    ("import.sympy_s", "s", "lower", _IMPORT_TARGET),
    ("import.eiscong_self_s", "s", "lower", _IMPORT_TARGET),
    ("cli.run_s", "s", "lower", "op_p50_s on cli-reproduce"),
]
for _b in MUL_BUCKETS:
    _target = ("ops_per_s on qexp-identities" if _b in ("n1", "n2-12") else
               "ops_per_s and op_tail_s on cusp-constants" if _b == "n100plus" else
               "ops_per_s on search-grid and cusp-constants")
    LAYER_METRICS += [(f"cyclotomic.mul.calls.{_b}", "count", "lower", _target),
                      (f"cyclotomic.mul.self_s.{_b}", "s", "lower", _target)]
LAYER_METRICS += [
    ("cyclotomic.add.calls", "count", "lower", "ops_per_s on qexp-identities"),
    ("cyclotomic.add.self_s", "s", "lower", "ops_per_s on qexp-identities"),
    ("cyclotomic.inverse.calls", "count", "lower", "ops_per_s and op_tail_s on cusp-constants"),
    ("cyclotomic.inverse.self_s", "s", "lower", "ops_per_s and op_tail_s on cusp-constants"),
    ("cyclotomic.norm.calls", "count", "lower", "ops_per_s on search-grid"),
    ("cyclotomic.norm.self_s", "s", "lower", "ops_per_s on search-grid"),
    ("qpoly.resultant.self_s", "s", "lower", "ops_per_s on search-grid"),
    ("qpoly.ext_gcd.self_s", "s", "lower", "ops_per_s on cusp-constants"),
    ("characters.eval.calls", "count", "lower", "ops_per_s on qexp-identities"),
    ("characters.eval.self_s", "s", "lower", "ops_per_s on qexp-identities"),
    ("characters.exponent.calls", "count", "lower", "ops_per_s on qexp-identities"),
    ("characters.gauss_sum.calls", "count", "lower", "ops_per_s on cusp-constants"),
    ("characters.gauss_sum.self_s", "s", "lower", "ops_per_s on cusp-constants"),
    ("lvalues.l_value.calls", "count", "lower", "ops_per_s on search-grid and cusp-constants"),
    ("lvalues.l_value.self_s", "s", "lower", "ops_per_s on search-grid and cusp-constants"),
    ("lvalues.l_value.calls_per_search", "calls/search", "lower", "ops_per_s on search-grid"),
    ("eisenstein.sigma_power_div.calls", "count", "lower", "ops_per_s on qexp-identities"),
    ("eisenstein.sigma_power_div.self_s", "s", "lower", "ops_per_s on qexp-identities"),
    ("eisenstein.e_delta.self_s", "s", "lower", "ops_per_s on qexp-identities"),
    ("eisenstein.e_delta_via_hecke.self_s", "s", "lower", "ops_per_s on qexp-identities"),
    ("eisenstein.hecke_tp.self_s", "s", "lower", "ops_per_s on qexp-identities"),
    ("eisenstein.constant_term.self_s", "s", "lower", "ops_per_s on cusp-constants"),
    ("congruence.search.self_s", "s", "lower", "ops_per_s on search-grid"),
    ("congruence.check_conditions.calls", "count", "lower", "ops_per_s on search-grid"),
    ("congruence.check_conditions.self_s", "s", "lower", "ops_per_s on search-grid"),
    ("congruence.satisfied_ratio", "1", "higher", "ops_per_s on search-grid"),
    ("congruence.factorint.self_s", "s", "lower", "op_tail_s on search-grid"),
    ("congruence.norm_digits.max", "digits", "lower", "op_tail_s on search-grid"),
    ("congruence.norm_digits.sum", "digits", "lower", "op_tail_s on search-grid"),
    ("residue.primes_above.calls", "count", "lower", "op_tail_s on search-grid"),
    ("residue.primes_above.self_s", "s", "lower", "op_tail_s on search-grid"),
    ("residue.reduce_cyc.calls", "count", "lower", "ops_per_s on search-grid"),
    ("residue.reduce_cyc.self_s", "s", "lower", "ops_per_s on search-grid"),
    ("residue.ord_exact.calls", "count", "lower", "ops_per_s on search-grid"),
    ("residue.ord_exact.self_s", "s", "lower", "ops_per_s on search-grid"),
    ("residue.ff_embed.calls", "count", "lower", "op_p50_s on cli-reproduce"),
    ("residue.ff_embed.self_s", "s", "lower", "op_p50_s on cli-reproduce"),
    ("fppoly.factor_squarefree.calls", "count", "lower", "op_tail_s on search-grid"),
    ("fppoly.factor_squarefree.self_s", "s", "lower", "op_tail_s on search-grid"),
    ("newforms.load_fixture.self_s", "s", "lower", "op_p50_s on cli-reproduce"),
    ("newforms.verify.calls", "count", "lower", "op_p50_s on cli-reproduce"),
    ("newforms.verify.self_s", "s", "lower", "op_p50_s on cli-reproduce"),
    ("newforms.replay.self_s", "s", "lower",
     "none: replay is cli-reproduce's check of each certificate, outside the ops"),
    ("trace.overhead_ratio", "1", "lower",
     "none: traced pass wall time / that time less the tracing cost (spans x calibrated "
     "cost per span, plus wrapper installs)"),
]

# counters that hold a running maximum rather than a sum
_MAX_COUNTERS = {"congruence.norm_digits.max"}

# spans whose count and self time are reported as <span>.calls / <span>.self_s
_CALLS = ("cyclotomic.add", "cyclotomic.inverse", "cyclotomic.norm", "characters.eval",
          "characters.exponent", "characters.gauss_sum", "lvalues.l_value",
          "eisenstein.sigma_power_div", "congruence.check_conditions",
          "residue.primes_above", "residue.reduce_cyc", "residue.ord_exact",
          "residue.ff_embed", "fppoly.factor_squarefree", "newforms.verify")
_SELF = _CALLS + ("qpoly.resultant", "qpoly.ext_gcd", "eisenstein.e_delta",
                  "eisenstein.e_delta_via_hecke", "eisenstein.hecke_tp",
                  "eisenstein.constant_term", "congruence.search", "congruence.factorint",
                  "newforms.load_fixture", "newforms.replay")


def compute(summaries: list[dict], imports: dict, overhead_ratio: float) -> dict:
    """Per-layer metric values from span summaries (see tracer.summarize).

    A ``checker`` summary (the cli-reproduce worker checking results)
    contributes only its certificate replays.
    """
    layers: dict[str, list] = {}
    counters: Counter = Counter()
    lvalue_in_search = 0
    for s in summaries:
        for span, (calls, self_s, incl_s) in s["layers"].items():
            if s["role"] == "checker" and span != "newforms.replay":
                continue
            rec = layers.setdefault(span, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += self_s
            rec[2] += incl_s
        if s["role"] == "checker":
            continue
        lvalue_in_search += s["lvalue_in_search"]
        for key, value in s["counters"].items():
            counters[key] = max(counters[key], value) if key in _MAX_COUNTERS \
                else counters[key] + value

    def get(span, i):
        return layers.get(span, [0, 0.0, 0.0])[i]

    out = {"import.sympy_s": imports["sympy_s"],
           "import.eiscong_self_s": imports["eiscong_self_s"],
           "cli.run_s": get("cli.run", 2)}
    for b in MUL_BUCKETS:
        out[f"cyclotomic.mul.calls.{b}"] = get(f"cyclotomic.mul.{b}", 0)
        out[f"cyclotomic.mul.self_s.{b}"] = get(f"cyclotomic.mul.{b}", 1)
    for span in _CALLS:
        out[f"{span}.calls"] = get(span, 0)
    for span in _SELF:
        out[f"{span}.self_s"] = get(span, 1)
    searches = get("congruence.search", 0)
    checks = get("congruence.check_conditions", 0)
    out["lvalues.l_value.calls_per_search"] = lvalue_in_search / searches if searches else 0.0
    out["congruence.satisfied_ratio"] = \
        counters["congruence.satisfied"] / checks if checks else 0.0
    out["congruence.norm_digits.max"] = counters["congruence.norm_digits.max"]
    out["congruence.norm_digits.sum"] = counters["congruence.norm_digits.sum"]
    out["trace.overhead_ratio"] = overhead_ratio
    return {name: out[name] for name, _, _, _ in LAYER_METRICS}
