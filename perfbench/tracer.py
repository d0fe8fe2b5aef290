"""Span tracing of eiscong's layers, installed from outside the package.

Every wrapped callable records one span: name, start, end, parent span
and op id.  Spans live in flat arrays (28 bytes each) until the process
writes them out with :meth:`Tracer.dump`; :func:`summarize` derives
per-layer calls and self time (span time minus child-span time) from a
dumped file.

Wrappers are bound where callers look the name up: a function imported
with ``from .residue import primes_above`` is a separate binding in every
importing module, so each ``eiscong.*`` module attribute that is the
original object is replaced.  ``congruence.factorint`` is the exception:
sympy's ``factorint`` is bound into several modules and only the
congruence binding (the norm factoring of the search) is traced.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from array import array
from collections import Counter
from time import perf_counter

# span name -> (defining module, attribute); every eiscong binding of the
# original function object is replaced
FUNCTIONS = [
    ("qpoly.resultant", "eiscong.qpoly", "resultant"),
    ("qpoly.ext_gcd", "eiscong.qpoly", "ext_gcd"),
    ("characters.gauss_sum", "eiscong.characters", "gauss_sum"),
    ("lvalues.l_value", "eiscong.lvalues", "l_value_at_negative"),
    ("eisenstein.sigma_power_div", "eiscong.eisenstein", "sigma_power_div"),
    ("eisenstein.e_delta", "eiscong.eisenstein", "e_delta"),
    ("eisenstein.e_delta_via_hecke", "eiscong.eisenstein", "e_delta_via_hecke"),
    ("eisenstein.hecke_tp", "eiscong.eisenstein", "hecke_tp"),
    ("eisenstein.constant_term", "eiscong.eisenstein", "constant_term_e_delta"),
    ("eisenstein.constant_term", "eiscong.eisenstein", "constant_term_alpha_m"),
    ("eisenstein.constant_term", "eiscong.eisenstein", "c_gamma"),
    ("congruence.search", "eiscong.congruence", "search_congruence_primes"),
    ("congruence.check_conditions", "eiscong.congruence", "check_conditions"),
    ("residue.primes_above", "eiscong.residue", "primes_above"),
    ("residue.reduce_cyc", "eiscong.residue", "reduce_cyc"),
    ("residue.ord_exact", "eiscong.residue", "ord_exact"),
    ("residue.ff_embed", "eiscong.residue", "ff_embed"),
    ("fppoly.factor_squarefree", "eiscong.fppoly", "factor_squarefree"),
    ("newforms.load_fixture", "eiscong.newforms", "load_fixture"),
    ("newforms.verify", "eiscong.newforms", "verify_congruence"),
    ("newforms.replay", "eiscong.newforms", "replay_certificate"),
    ("cli.run", "eiscong.cli", "run"),
]

# span name -> (defining module, class, attribute)
METHODS = [
    ("cyclotomic.mul", "eiscong.cyclotomic", "CycNum", "__mul__"),
    ("cyclotomic.mul", "eiscong.cyclotomic", "CycNum", "__rmul__"),
    # __rsub__ delegates to __add__, so it is not wrapped separately
    ("cyclotomic.add", "eiscong.cyclotomic", "CycNum", "__add__"),
    ("cyclotomic.add", "eiscong.cyclotomic", "CycNum", "__radd__"),
    ("cyclotomic.add", "eiscong.cyclotomic", "CycNum", "__sub__"),
    ("cyclotomic.inverse", "eiscong.cyclotomic", "CycNum", "inverse"),
    ("cyclotomic.norm", "eiscong.cyclotomic", "CycNum", "norm"),
    ("characters.eval", "eiscong.characters", "DirichletChar", "__call__"),
    ("characters.exponent", "eiscong.characters", "DirichletChar", "exponent"),
]

MUL_BUCKETS = ("n1", "n2-12", "n13-99", "n100plus")


def mul_bucket(conductor: int) -> str:
    if conductor == 1:
        return "n1"
    if conductor <= 12:
        return "n2-12"
    if conductor <= 99:
        return "n13-99"
    return "n100plus"


class Tracer:
    """In-memory span store; span i occupies index i of every array."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counters: Counter = Counter()
        self.install_s = 0.0
        self._undo: list = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def exit(self, i: int):
        self.end[i] = perf_counter()
        self.stack.pop()

    # -- installation ----------------------------------------------------

    def _wrap(self, span: str, fn, after=None):
        nid = self.name_id(span)
        enter, leave = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = enter(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                leave(i)
            if after is not None:
                after(i, args, out)
            return out

        return traced

    def _after_mul(self, i, args, out):
        n = out.conductor if hasattr(out, "conductor") else args[0].conductor
        self.name[i] = self._bucket_ids[mul_bucket(n)]

    def _after_check(self, i, args, out):
        if out.satisfied:
            self.counters["congruence.satisfied"] += 1

    def _before_factorint(self, fn):
        counters = self.counters

        def factorint(n, *args, **kwargs):
            digits = len(str(abs(int(n))))
            counters["congruence.norm_digits.sum"] += digits
            counters["congruence.norm_digits.max"] = max(
                counters["congruence.norm_digits.max"], digits)
            return fn(n, *args, **kwargs)

        return factorint

    def install(self):
        """Wrap every layer of the already imported eiscong modules."""
        t0 = perf_counter()
        mods = {name: mod for name, mod in list(sys.modules.items())
                if mod is not None and (name == "eiscong" or name.startswith("eiscong."))}
        self._bucket_ids = {b: self.name_id(f"cyclotomic.mul.{b}") for b in MUL_BUCKETS}
        for span, owner, attr in FUNCTIONS:
            if owner not in mods:
                continue
            original = getattr(mods[owner], attr)
            after = self._after_check if span == "congruence.check_conditions" else None
            wrapper = self._wrap(span, original, after)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)
        for span, owner, cls_name, attr in METHODS:
            cls = getattr(mods[owner], cls_name)
            original = cls.__dict__[attr]
            after = self._after_mul if span == "cyclotomic.mul" else None
            self._rebind(cls, attr, self._wrap(span, original, after))
        cong = mods["eiscong.congruence"]
        self._rebind(cong, "factorint",
                     self._wrap("congruence.factorint", self._before_factorint(cong.factorint)))
        self.install_s = perf_counter() - t0

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def dump(self, path, role: str = "ops"):
        """Header line (JSON) followed by the five span arrays."""
        n = len(self.name)
        header = {"role": role, "spans": n, "names": self.names,
                  "counters": dict(self.counters), "install_s": self.install_s}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.op, self.start, self.end):
                arr.tofile(fh)


def wrapper_cost(calls: int = 20000, repeats: int = 7) -> dict:
    """Seconds one span's bookkeeping adds to a call, for a plain span and
    for a ``cyclotomic.mul`` span (which also files itself under a
    conductor bucket): wrapped no-ops against the bare no-op, in a scratch
    tracer, median of the repeats."""
    scratch = Tracer()
    scratch._bucket_ids = {b: scratch.name_id(f"cyclotomic.mul.{b}") for b in MUL_BUCKETS}

    class Num:
        conductor = 1

    def noop(x):
        return x

    num = Num()
    wrapped = {"plain": scratch._wrap("noop", noop),
               "mul": scratch._wrap("noop", noop, scratch._after_mul)}
    costs: dict[str, list] = {kind: [] for kind in wrapped}
    for _ in range(repeats):
        for kind, fn in wrapped.items():
            t0 = perf_counter()
            for _ in range(calls):
                noop(num)
            t1 = perf_counter()
            for _ in range(calls):
                fn(num)
            t2 = perf_counter()
            costs[kind].append(((t2 - t1) - (t1 - t0)) / calls)
    return {kind: statistics.median(xs) for kind, xs in costs.items()}


def load_spans(path):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in ("i", "i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return header, arrays


def summarize(path) -> dict:
    """Per span name: calls, self seconds and inclusive seconds, plus the
    l_value calls made inside a search and the file's counters."""
    header, (name, parent, _op, start, end) = load_spans(path)
    names = header["names"]
    n = len(name)
    dur = [end[i] - start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
    search_id = names.index("congruence.search") if "congruence.search" in names else -1
    lvalue_id = names.index("lvalues.l_value") if "lvalues.l_value" in names else -1
    in_search = [False] * n
    lvalue_in_search = 0
    layers: dict[str, list] = {}
    for i in range(n):
        p = parent[i]
        if p >= 0:
            in_search[i] = in_search[p] or name[p] == search_id
        if name[i] == lvalue_id and in_search[i]:
            lvalue_in_search += 1
        rec = layers.setdefault(names[name[i]], [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += dur[i] - child[i]
        rec[2] += dur[i]
    return {"role": header["role"], "spans": n, "install_s": header["install_s"],
            "layers": layers,
            "counters": header["counters"], "lvalue_in_search": lvalue_in_search}
