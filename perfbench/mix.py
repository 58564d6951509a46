"""The three workloads: request mixes drawn from a seed, and their set-up.

A workload is a sequence of *cycles*.  Each cycle holds the same number of
requests of each verb.  Sizes and parameters are dealt from decks: each
deck is a short, fixed grid of values up to the per-verb ceiling, dealt
out in successive seeded shuffles, so one run goes through each deck
several times and every seed gives nearly the same composition.  The seed moves
the order of requests and which sizes meet in a cycle.  Requests are dicts
holding the argv passed to ``sjk.cli.run`` and the parameters that
``checks`` needs.  Rationals are always passed in the ``--beta=-1/2`` form.
This module does not import ``sjk``.
"""

from __future__ import annotations

import random
from fractions import Fraction

FAMILY_CACHES = ("sj_family", "hermite_family")

# Jacobi parameters > -1, and half-integers > -1 for the shifted beta EGF.
RATIONALS = tuple(Fraction(s) for s in ("-1/2", "-1/3", "0", "1/3", "1/2", "1", "3/2", "2"))
HALF_INTS = tuple(Fraction(s) for s in ("-1/2", "0", "1/2", "1", "3/2"))
FORMATS = ("text", "latex", "json")


def _req(verb, fmt="text", **params):
    argv = [verb]
    for key in ("family", "n", "order", "K", "L", "M", "N0", "t_order", "max_n"):
        if key in params:
            argv.append("--" + key.replace("_", "-") + "=" + str(params[key]))
    for key in ("alpha", "beta"):
        if key in params:
            argv.append(f"--{key}={params[key]}")
    if verb == "lacunary":
        argv.append("--check")
    if fmt != "text":
        argv.append(f"--format={fmt}")
    param = {"react": "t"}.get(verb, "lambda")
    return dict(params, verb=verb, format=fmt, param=param, argv=argv)


def poly(family, n, fmt="text", **params):
    return _req("poly", fmt, family=family, n=n, **params)


def egf(family, order, fmt="text", **params):
    return _req("egf", fmt, family=family, order=order, **params)


def lacunary(family, K, L, order):
    return _req("lacunary", family=family, K=K, L=L, order=order)


def connect(family, M, fmt="text"):
    return _req("connect", fmt, family=family, M=M)


def react(N0, t_order, fmt="text"):
    return _req("react", fmt, N0=N0, t_order=t_order)


def table(family, max_n, fmt="text"):
    return _req("table", fmt, family=family, max_n=max_n)


def verify(suite=None):
    req = _req("verify")
    if suite:
        req["argv"] += ["--suite", suite]
    return req


class Dealer:
    """Deals values from one deck per key; a deck is refilled with a fresh
    seeded shuffle of its values when it runs out."""

    def __init__(self, rng):
        self.rng = rng
        self.decks = {}

    def __call__(self, key, values, k=1):
        pile = self.decks.setdefault(key, [])
        out = []
        for _ in range(k):
            if not pile:
                pile.extend(values)
                self.rng.shuffle(pile)
            out.append(pile.pop())
        return out

    def one(self, key, values):
        return self(key, values)[0]


class Workload:
    name = ""
    cold = True  # clear the family caches before every request
    cycle_s = 1.0  # rough cycle wall time at the seed; sizes the traced pass

    def cycle(self, deal: Dealer) -> list:
        raise NotImplementedError

    def setup(self, families):
        """Workload set-up after import; timed into setup_s."""

    def requests(self, seed: int):
        """Endless stream of cycles, each a shuffled list of requests."""
        rng = random.Random(f"{self.name}:{seed}")
        deal = Dealer(rng)
        while True:
            reqs = self.cycle(deal)
            rng.shuffle(reqs)
            yield reqs


class CliCold(Workload):
    """All seven verbs, family caches cleared before each request as a
    fresh shell invocation would find them."""

    name = "cli-cold"
    cycle_s = 1.6
    CEILINGS = {
        "poly": 20, "poly.hermite": 64, "egf.sj": 16, "egf.hermite": 32,
        "egf.sj-beta-shifted": 8, "lacunary.degree": 12, "connect": 64,
        "react.N0": 16, "react.t_order": 8, "table.sj": 14, "table.hermite": 32,
    }
    SUITES = ("scalar", "opcalc", "umbral", "hyper", "lacunary", "connect")

    def cycle(self, deal):
        c = self.CEILINGS
        sizes = range(2, c["poly"] + 1)
        out = [poly("sj", n) for n in deal("poly.sj", sizes, 10)]
        out += [
            poly("sj-beta", n, beta=deal.one("beta", RATIONALS))
            for n in deal("poly.sj-beta", sizes, 5)
        ]
        out += [
            poly("jacobi", n, alpha=deal.one("alpha", RATIONALS), beta=deal.one("beta", RATIONALS))
            for n in deal("poly.jacobi", sizes, 5)
        ]
        out += [poly("hermite", n) for n in deal("poly.hermite", range(0, c["poly.hermite"] + 1, 4), 4)]
        out += [egf("sj", o) for o in deal("egf.sj", range(2, c["egf.sj"] + 1, 2), 3)]
        out += [egf("hermite", o) for o in deal("egf.hermite", range(2, c["egf.hermite"] + 1, 3), 3)]
        out += [
            egf("sj-beta-shifted", o, beta=deal.one("half", HALF_INTS))
            for o in deal("egf.sjbs", range(1, c["egf.sj-beta-shifted"] + 1), 3)
        ]
        for K in (1, 2, 3, 4):
            for family in ("sj", "hermite"):
                L = deal.one(f"lacunary.{family}.{K}", range(3))
                out.append(lacunary(family, K, L, (c["lacunary.degree"] - L) // K))
        for family in ("sj", "hermite"):
            out += [connect(family, M) for M in deal(f"connect.{family}", range(0, c["connect"] + 1, 4), 2)]
        out += [
            react(N0, deal.one("react.t", range(1, c["react.t_order"] + 1)))
            for N0 in deal("react.N0", range(2, c["react.N0"] + 1, 2), 3)
        ]
        out += [table("sj", m) for m in deal("table.sj", range(2, c["table.sj"] + 1, 2), 2)]
        out += [table("hermite", m) for m in deal("table.hermite", range(2, c["table.hermite"] + 1, 3), 2)]
        out += [verify(), verify(deal.one("suite", self.SUITES))]
        return out


class SeriesWarm(Workload):
    """A long-lived library session: the family caches are filled once in
    set-up, then every lacunary (K, L) check and the shifted beta EGF."""

    name = "series-warm"
    cold = False
    cycle_s = 0.7
    DEGREE = 16  # family degrees filled in set-up; bounds K*order + L

    def setup(self, families):
        for name in FAMILY_CACHES:
            fn = getattr(families, name, None)
            if fn is not None:
                for n in range(self.DEGREE + 1):
                    fn(n)

    def cycle(self, deal):
        out = []
        for family in ("sj", "hermite"):
            for K in (1, 2, 3, 4):
                for L in (0, 1, 2, 3):
                    top = (self.DEGREE - L) // K
                    order = deal.one(f"{family}.{K}.{L}", range((top + 1) // 2, top + 1))
                    out.append(lacunary(family, K, L, order))
        out += [
            egf("sj-beta-shifted", o, beta=deal.one("half", HALF_INTS))
            for o in deal("egf.sjbs", range(2, 9), 4)
        ]
        return out


class EmitLarge(Workload):
    """Large outputs of the cheap families in every format: rendering,
    JSON and the bivariate (x, z) Poly path."""

    name = "emit-large"
    cycle_s = 0.35

    def cycle(self, deal):
        sizes = range(40, 65)
        out = [egf("hermite", n, f) for n, f in zip(deal("egf.hermite", sizes, 3), FORMATS)]
        out += [table("hermite", m, f) for m, f in zip(deal("table.hermite", sizes, 2), FORMATS)]
        out += [egf("sj", n, f) for n, f in zip(deal("egf.sj", range(16, 25), 3), FORMATS)]
        out += [poly("hermite", n, deal.one("format", FORMATS)) for n in deal("poly.hermite", sizes, 2)]
        out += [
            connect("hermite", M, deal.one("format", FORMATS))
            for M in deal("connect.hermite", sizes, 2)
        ]
        out.append(connect("sj", deal.one("connect.sj", sizes), "json"))
        return out


WORKLOADS = {w.name: w for w in (CliCold(), SeriesWarm(), EmitLarge())}
