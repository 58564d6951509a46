"""In-memory spans around the public entry points of each sjk module.

``Tracer.install()`` replaces each traced function with a wrapper in every
``sjk`` module, and every class, that holds it under some name, so callers
that imported it by name see the wrapper too.  A name that no longer exists
is recorded as absent and skipped.  Each call records a span: name, start,
end, parent span and request id.  Self time is a span's duration minus the
time its child spans cover.  ``uninstall()`` puts every original back.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import defaultdict

# (module, class or None, names, span name).  The layer is the span name's
# first dotted part.
TARGETS = (
    ("sjk.families", None, (
        "sj_family", "hermite_family", "sj_closed_mm", "sj_closed_beta",
        "sj_beta_rescaled", "jacobi_classical", "hermite_closed", "sj_umbral",
        "sj_egf_coeff", "hermite_egf", "sj_egf", "tricomi_series",
        "egf_beta_shifted"), "families"),
    ("sjk.poly", "Poly", ("__mul__", "__rmul__"), "poly.mul"),
    ("sjk.poly", "Poly", ("__pow__",), "poly.pow"),
    ("sjk.poly", "Poly", ("substitute", "shift"), "poly.subst"),
    ("sjk.poly", "Poly", ("text", "latex"), "poly.render"),
    ("sjk.hyper", None, ("pfq_coeff",), "hyper.pfq"),
    ("sjk.hyper", None, (
        "pfq_derivative", "pochhammer_proliferate", "gamma_multiplication",
        "tricomi_coeff"), "hyper"),
    ("sjk.umbral", None, ("itransform",), "umbral.itransform"),
    ("sjk.umbral", None, ("itransform_scalar", "gen_product", "expand_exponential"), "umbral"),
    ("sjk.lacunary", None, ("multisection_oracle",), "lacunary.oracle"),
    ("sjk.lacunary", None, (
        "hermite_lacunary_closed", "hermite_lacunary_shift", "sj_lacunary_closed",
        "sj_lacunary_closed_printed", "sj_lacunary_shift_gen", "mu_slice"),
        "lacunary.closed"),
    ("sjk.lacunary", None, ("lacunary_dilate", "coeff_bridge_check"), "lacunary"),
    ("sjk.connect", None, (
        "sj_connection", "hermite_connection", "reconstruct_monomial",
        "biorthogonality_check", "gaussian_pair", "sj_pair_factors",
        "hermite_pair_factors", "exp_product_truncation", "connection_gf_coeff",
        "connection_gf_coeff_direct", "reaction_solve", "reaction_residual"),
        "connect"),
    ("sjk.opcalc", None, (
        "apply_diagonal", "apply_inverse_diagonal", "conjugate_shift", "gp_series",
        "exp_resolvent_sj", "exp_B_bivariate", "hermite_exp",
        "jacobi_operator_apply"), "opcalc"),
    ("sjk.verify", None, ("run_suites",), "verify"),
    ("sjk.jsonio", None, ("poly_to_obj", "series_to_obj", "dumps", "poly_from_obj"), "jsonio"),
    ("sjk.cli", None, ("run",), "cli"),
)

INSPECT = "trace.inspect"  # size counting done by the tracer itself


def _coef_sizes(result):
    """(terms, largest coefficient bit length) of a Poly or a series of them."""
    polys = getattr(result, "coeffs", None) or [result]
    terms = bits = 0
    for p in polys:
        coefs = getattr(p, "terms", {})
        terms += len(coefs)
        for c in coefs.values():
            q = getattr(c, "rat", c)
            bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
    return terms, bits


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.code = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.request = -1
        self.patches = []
        self.absent = []
        self.families_terms = 0
        self.families_bits = 0
        self.json_bytes = 0

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        i = len(self.code)
        self.code.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.req.append(self.request)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        return i

    def _wrap(self, fn, name, attr):
        nid = self._id(name)
        inspect_id = self._id(INSPECT)
        families_id = self._id("families")
        perf = time.perf_counter
        start, end, code, stack = self.start, self.end, self.code, self.stack
        outermost_family = name == "families"
        is_dumps = name == "jsonio" and attr == "dumps"

        def traced(*args, **kwargs):
            i = self._open(nid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                start[i], end[i] = t0, t1
            if is_dumps:
                self.json_bytes += len(result)
            elif outermost_family and not (stack and code[stack[-1]] == families_id):
                j = self._open(inspect_id)
                t2 = perf()
                terms, bits = _coef_sizes(result)
                self.families_terms += terms
                self.families_bits = max(self.families_bits, bits)
                stack.pop()
                start[j], end[j] = t2, perf()
            return result

        for kept in ("cache_clear", "cache_info", "__name__", "__doc__"):
            if hasattr(fn, kept):
                setattr(traced, kept, getattr(fn, kept))
        return traced

    def install(self):
        self.absent = []
        wrappers = set()  # ids of the wrappers made here
        mods = [m for k, m in sorted(sys.modules.items()) if k == "sjk" or k.startswith("sjk.")]
        for modname, clsname, attrs, span in TARGETS:
            owner = sys.modules.get(modname)
            if owner is not None and clsname is not None:
                owner = getattr(owner, clsname, None)
            for attr in attrs:
                fn = None if owner is None else vars(owner).get(attr)
                if fn is None:
                    self.absent.append(f"{modname}.{clsname + '.' if clsname else ''}{attr}")
                    continue
                if id(fn) in wrappers:
                    continue  # an alias of a name wrapped above, e.g. __rmul__
                wrapper = self._wrap(fn, span, attr)
                wrappers.add(id(wrapper))
                holders = [owner] if clsname else mods
                for holder in holders:
                    for key, val in list(vars(holder).items()):
                        if val is fn:
                            setattr(holder, key, wrapper)
                            self.patches.append((holder, key, fn))

    def uninstall(self):
        for holder, key, fn in reversed(self.patches):
            setattr(holder, key, fn)
        self.patches.clear()

    def summary(self):
        """Per span name: calls, self seconds, inclusive seconds of the
        outermost spans of that name's layer."""
        n = len(self.code)
        code, parent, start, end = self.code, self.parent, self.start, self.end
        layer = [name.split(".")[0] for name in self.names]
        covered = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        for i in range(n):
            dur = end[i] - start[i]
            name = self.names[code[i]]
            calls[name] += 1
            self_s[name] += dur - covered[i]
            p = parent[i]
            if p < 0 or layer[code[p]] != layer[code[i]]:
                incl_s[layer[code[i]]] += dur
        return calls, self_s, incl_s

    def write(self, path, extra):
        """Spans as columns, gzip-compressed JSON."""
        obj = dict(
            extra,
            names=self.names,
            absent=self.absent,
            columns=["name", "start", "end", "parent", "request"],
            spans=[list(self.code), list(self.start), list(self.end),
                   list(self.parent), list(self.req)],
        )
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(obj, fh)
