"""Output checks that share no code with the program under test.

Every printed polynomial is parsed back from its text, LaTeX or JSON form
and checked with plain ``fractions`` arithmetic: eigen-equations,
recurrences and rebuilt monomials, or a second construction where no cheap
identity exists.  A parsed polynomial is a dict from a sorted tuple of
``(variable, exponent)`` pairs to ``(Fraction, sqrt_pi_power)``.

``check(req, rc, text)`` returns ``(ok, terms, coef_bits)``: whether the
request passed, and the term count and largest coefficient bit length of
everything it printed.  Nothing here imports ``sjk``.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache
from math import factorial

_RAT = re.compile(r"^\d+(?:/\d+)?$")
_FRAC_TEX = re.compile(r"^\\frac\{(\d+)\}\{(\d+)\}$")
_VAR = re.compile(r"^\\?([A-Za-z]+)(?:\^\{?(\d+)\}?)?$")
_PI_TEXT = {"sqrt(pi)": 1, "pi": 2}
_PI_TEX = re.compile(r"^\\pi(?:\^\{(-?\d+)(/2)?\})?$")


class CheckError(Exception):
    pass


# -- parsing -----------------------------------------------------------------


def _pi_power(tok: str):
    """sqrt(pi) exponent of a text or LaTeX pi token, or None."""
    if tok in _PI_TEXT:
        return _PI_TEXT[tok]
    if tok == r"\sqrt{\pi}":
        return 1
    if tok.startswith("sqrt(pi)^"):
        return int(tok[len("sqrt(pi)^"):])
    if tok.startswith("pi^"):
        return 2 * int(tok[3:])
    m = _PI_TEX.match(tok)
    if m:
        if m.group(1) is None:
            return 2
        k = int(m.group(1))
        return k if m.group(2) else 2 * k
    return None


def parse_poly(line: str) -> dict:
    """Parse one polynomial printed in text or LaTeX form."""
    line = line.strip()
    if line == "0":
        return {}
    out = {}
    sign, mag, pi, mono = 1, None, 0, {}

    def flush():
        key = tuple(sorted(mono.items()))
        if key in out:
            raise CheckError(f"repeated monomial {key} in {line!r}")
        out[key] = (sign * (Fraction(1) if mag is None else mag), pi)

    toks = line.split(" ")
    if toks[0].startswith("-") and toks[0] != "-":
        sign, toks[0] = -1, toks[0][1:]
    started = False
    for tok in toks:
        if tok in ("+", "-"):
            if not started:
                raise CheckError(f"dangling sign in {line!r}")
            flush()
            sign, mag, pi, mono = (1 if tok == "+" else -1), None, 0, {}
            started = False
            continue
        started = True
        if _RAT.match(tok):
            mag = Fraction(tok)
            continue
        m = _FRAC_TEX.match(tok)
        if m:
            mag = Fraction(int(m.group(1)), int(m.group(2)))
            continue
        k = _pi_power(tok)
        if k is not None:
            pi = k
            continue
        m = _VAR.match(tok)
        if not m:
            raise CheckError(f"unreadable token {tok!r} in {line!r}")
        mono[m.group(1)] = int(m.group(2) or 1)
    if not started:
        raise CheckError(f"empty term in {line!r}")
    flush()
    return out


def poly_from_json(obj: dict) -> dict:
    names = obj["variables"]
    out = {}
    for t in obj["terms"]:
        key = tuple(sorted((v, e) for v, e in zip(names, t["exps"]) if e))
        out[key] = (Fraction(int(t["num"]), int(t["den"])), t["sqrt_pi_pow"])
    return out


def rational(p: dict, grade: int = 0) -> dict:
    """The coefficients of p, all of which must carry sqrt(pi)^grade."""
    out = {}
    for key, (c, g) in p.items():
        if c == 0 or g != grade:
            raise CheckError(f"coefficient {c} sqrt(pi)^{g}, want grade {grade}")
        out[key] = c
    return out


def size_of(polys) -> tuple:
    """Total term count and largest coefficient bit length."""
    terms = bits = 0
    for p in polys:
        terms += len(p)
        for c, _ in p.values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return terms, bits


# -- plain-fraction polynomial arithmetic --------------------------------------


def _key(**exps) -> tuple:
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def pmul(a: dict, b: dict) -> dict:
    out = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            e = dict(k1)
            for v, n in k2:
                e[v] = e.get(v, 0) + n
            key = tuple(sorted(e.items()))
            s = out.get(key, 0) + v1 * v2
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def pdiff(p: dict, var: str) -> dict:
    out = {}
    for k, c in p.items():
        e = dict(k)
        n = e.get(var, 0)
        if n:
            e[var] = n - 1
            key = tuple(sorted((v, m) for v, m in e.items() if m))
            out[key] = out.get(key, 0) + c * n
    return {k: v for k, v in out.items() if v}


def pscale(p: dict, c) -> dict:
    return {k: v * c for k, v in p.items()} if c else {}


def univariate(p: dict, var: str = "x") -> dict:
    out = {}
    for key, c in p.items():
        e = dict(key)
        if set(e) - {var}:
            raise CheckError(f"unexpected variables {key}")
        out[e.get(var, 0)] = c
    return out


def x_pow(n: int) -> dict:
    return {_key(x=n): Fraction(1)}


# -- reference families, built from their eigen-equations ----------------------


def _jacobi_monic(n: int, a, b) -> dict:
    """Monic degree-n solution of the Jacobi equation, from the leading
    coefficient down:  c_k (L_k - L_n) = (k+2)(k+1) c_{k+2} + (b-a)(k+1) c_{k+1}
    with L_k = k(k+a+b+1)."""
    a, b = Fraction(a), Fraction(b)
    lam = n * (n + a + b + 1)
    c = {n: Fraction(1), n + 1: Fraction(0), n + 2: Fraction(0)}
    for k in range(n - 1, -1, -1):
        c[k] = ((k + 2) * (k + 1) * c[k + 2] + (b - a) * (k + 1) * c[k + 1]) / (
            k * (k + a + b + 1) - lam
        )
    return {_key(x=k): v for k, v in c.items() if v}


@lru_cache(maxsize=None)
def sj_ref(n: int) -> dict:
    """(-1,-1) member of degree n: monic, degree-one constant zero."""
    if n <= 1:
        return x_pow(n)
    return _jacobi_monic(n, -1, -1)


@lru_cache(maxsize=None)
def hermite_ref(n: int) -> dict:
    """Two-variable Hermite H_n(x, z) from H_{n+1} = x H_n + 2 n z H_{n-1}."""
    if n == 0:
        return x_pow(0)
    prev, cur = {}, x_pow(0)
    for m in range(n):
        nxt = padd(pmul(cur, x_pow(1)), pmul(prev, {_key(z=1): Fraction(2 * m)}))
        prev, cur = cur, nxt
    return cur


def _recip_gamma(a: Fraction):
    """1/Gamma(a) for integer or half-integer a > 0, as (rational, grade)."""
    if a.denominator == 1:
        return Fraction(1, factorial(int(a) - 1)), 0
    m = int(a - Fraction(1, 2))  # Gamma(m + 1/2) = (2m)! / (4^m m!) sqrt(pi)
    return Fraction(4**m * factorial(m), factorial(2 * m)), -1


def _binom(a: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for j in range(k):
        out *= a - j
    return out / factorial(k)


def beta_shifted_ref(n: int, beta: Fraction):
    """lambda^n coefficient of the 1-shifted EGF of the rescaled (-1, beta)
    family, built from the monic Jacobi member of degree n+1 instead of the
    Tricomi product: binom(2m+beta-1, m) / Gamma(m+beta+1) P_m / n!."""
    m = n + 1
    inv_g, grade = _recip_gamma(m + beta + 1)
    scale = _binom(2 * m + beta - 1, m) * inv_g / factorial(n)
    return pscale(_jacobi_monic(m, -1, beta), scale), grade


# -- per-verb checks -------------------------------------------------------------


def _expect(cond, what):
    if not cond:
        raise CheckError(what)


def check_sj(p: dict, n: int):
    """Monic and (1 - x^2) p'' = -n(n-1) p: the Jacobi equation at (-1, -1)."""
    check_jacobi(p, n, -1, -1, monic=True)


def check_jacobi(p: dict, n: int, a, b, monic: bool):
    """The Jacobi equation, plus monic or P_n(1) = binom(n + a, n)."""
    c = univariate(p)
    a, b = Fraction(a), Fraction(b)
    _expect(max(c, default=-1) == n, f"jacobi degree {n}: wrong degree")
    lam = n * (n + a + b + 1)
    for k in range(n + 1):
        lhs = (
            (k + 2) * (k + 1) * c.get(k + 2, 0)
            + (b - a) * (k + 1) * c.get(k + 1, 0)
            - (k * (k + a + b + 1) - lam) * c.get(k, 0)
        )
        _expect(lhs == 0, f"jacobi degree {n} fails the Jacobi equation")
    if monic:
        _expect(c[n] == 1, f"degree {n} not monic")
    else:
        _expect(sum(c.values()) == _binom(n + a, n), f"jacobi degree {n}: P(1) wrong")


def check_hermite(p: dict, n: int):
    """d/dz H = d^2/dx^2 H and H(x, 0) = x^n."""
    _expect(pdiff(p, "z") == pdiff(pdiff(p, "x"), "x"), f"H_{n} fails the heat equation")
    at_zero = {k: v for k, v in p.items() if "z" not in dict(k)}
    _expect(at_zero == x_pow(n), f"H_{n}(x, 0) != x^{n}")


def _lines(text: str, head: str):
    """Bodies of ``<head><k>: <body>`` lines, checked to run k = 0, 1, ..."""
    bodies = []
    for k, line in enumerate(text.splitlines()):
        label, sep, body = line.partition(": ")
        want = (f"{head}{k}", f"{head}{{{k}}}")
        _expect(sep and label in want, f"line {k} reads {line[:40]!r}")
        bodies.append(parse_poly(body))
    return bodies


def _series(req, text):
    if req["format"] == "json":
        obj = json.loads(text)
        _expect(obj["order"] == len(obj["coefficients"]) - 1, "series order mismatch")
        return [poly_from_json(c) for c in obj["coefficients"]]
    return _lines(text, req["param"] + "^")


def _poly(req, text):
    if req["format"] == "json":
        return poly_from_json(json.loads(text))
    lines = text.splitlines()
    _expect(len(lines) == 1, "expected one line")
    return parse_poly(lines[0])


def _check_poly(req, text):
    p = _poly(req, text)
    n, fam = req["n"], req["family"]
    if fam == "sj":
        check_sj(rational(p), n)
    elif fam == "sj-beta":
        check_jacobi(rational(p), n, -1, req["beta"], monic=True)
    elif fam == "jacobi":
        check_jacobi(rational(p), n, req["alpha"], req["beta"], monic=False)
    else:
        check_hermite(rational(p), n)
    return [p]


def _check_egf(req, text):
    series = _series(req, text)
    _expect(len(series) == req["order"] + 1, "wrong series length")
    fam = req["family"]
    for n, p in enumerate(series):
        if fam == "sj-beta-shifted":
            want, grade = beta_shifted_ref(n, req["beta"])
            _expect(rational(p, grade) == want, f"lambda^{n} differs from the Jacobi rebuild")
            continue
        q = pscale(rational(p), factorial(n))
        if fam == "sj":
            _expect(q == sj_ref(n), f"lambda^{n} differs from p_{n}/{n}!")
        else:
            check_hermite(q, n)
    return series


def _check_table(req, text):
    polys = _lines(text, "")
    _expect(len(polys) == req["max_n"] + 1, "wrong row count")
    for n, p in enumerate(polys):
        if req["family"] == "sj":
            check_sj(rational(p), n)
        else:
            check_hermite(rational(p), n)
    return polys


def _check_connect(req, text):
    """sum_n A[M, n] p_n must rebuild x^M."""
    M, fam = req["M"], req["family"]
    ref = sj_ref if fam == "sj" else hermite_ref
    weights = []
    if req["format"] == "json":
        obj = json.loads(text)
        _expect(obj["M"] == M and len(obj["weights"]) == M + 1, "wrong row count")
        for n, row in enumerate(obj["weights"]):
            _expect(row["n"] == n, "rows out of order")
            if fam == "sj":
                c = Fraction(int(row["num"]), int(row["den"]))
                weights.append({(): (c, 0)} if c else {})
            else:
                weights.append(poly_from_json(row["poly"]))
    else:
        lines = text.splitlines()
        _expect(len(lines) == M + 1, "wrong row count")
        for n, line in enumerate(lines):
            label, _, body = line.partition(" = ")
            _expect(label == f"A[{M},{n}]", f"bad row label {label!r}")
            weights.append(parse_poly(body))
    total = {}
    for n, w in enumerate(weights):
        total = padd(total, pmul(rational(w), ref(n)))
    _expect(total == x_pow(M), f"connection row does not rebuild x^{M}")
    return weights


def _check_react(req, text):
    """c_0 = x^N0 and (j+1) c_{j+1} = (1 - x^2) c_j''."""
    series = [rational(p) for p in _series(req, text)]
    _expect(len(series) == req["t_order"] + 1, "wrong series length")
    _expect(series[0] == x_pow(req["N0"]), "c_0 != x^N0")
    one_minus_x2 = {(): Fraction(1), _key(x=2): Fraction(-1)}
    for j in range(req["t_order"]):
        rhs = pmul(one_minus_x2, pdiff(pdiff(series[j], "x"), "x"))
        _expect(pscale(series[j + 1], j + 1) == rhs, f"t^{j + 1} fails the recurrence")
    return [{k: (v, 0) for k, v in p.items()} for p in series]


def _check_lacunary(req, text):
    _expect(text == "closed-form == oracle: PASS\n", "lacunary check did not PASS")
    return []


def _check_verify(req, text):
    lines = text.splitlines()
    _expect(lines and not any(ln.startswith("[FAIL]") for ln in lines), "verify failed")
    done, _, total = lines[-1].split(" ")[0].partition("/")
    _expect(done == total and int(total) == len(lines) - 1, "verify summary mismatch")
    return []


CHECKERS = {
    "poly": _check_poly,
    "egf": _check_egf,
    "table": _check_table,
    "connect": _check_connect,
    "react": _check_react,
    "lacunary": _check_lacunary,
    "verify": _check_verify,
}


def check(req: dict, rc: int, text: str):
    """(ok, terms, coef_bits) for one request's exit code and stdout."""
    if rc != 0:
        return False, 0, 0
    try:
        polys = CHECKERS[req["verb"]](req, text)
    except (CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
        req["error"] = str(exc)
        return False, 0, 0
    return (True,) + size_of(polys)
