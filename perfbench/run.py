"""sjk benchmark: drive ``sjk.cli.run`` in process on a seeded request mix.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 20 --trace 0

One client, one process, closed loop: each request is sent only after the
previous one has completed and its output has been checked (``checks``).
Workloads are defined in ``mix``.

--trace 0 reports the end-to-end metrics: set-up time (median of several
fresh processes), latency p50/p90 and throughput over a pass of whole
cycles lasting at least --seconds, peak RSS and the share of requests
that passed their checks.  Latency is the request's thread CPU time, which
equals its wall time on an idle machine (the program is single-threaded
and does no I/O), rescaled to a reference CPU speed (``refspeed``) because
the speed of a shared machine drifts by tens of percent.

--trace 1 replays a fixed number of cycles, each untraced and then traced
(``spans``), and reports per-layer self times (wall clock), call counts,
sizes and the tracing overhead (traced / untraced CPU time), then the
scalar probe and one pass of each at-cap row (CPU seconds, not rescaled).

The last stdout line is the JSON result; progress goes to stderr.  Full
results and the spans are written under perfbench-out/.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict, namedtuple
from pathlib import Path

import checks
import mix
import probes
import refspeed
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
SETUP_RUNS = 7  # fresh set-up processes per timed run, spread over the pass
MIN_BEYOND_P90 = 10
TRACE_SECONDS = 10  # untraced plus traced replay, whatever --seconds says
SPEED_WINDOW = 5  # reference slices on each side of a request that rescale it

# wall and cpu are seconds inside sjk.cli.run; cpu is this thread's CPU time.
Result = namedtuple("Result", "wall cpu ok terms bits")

SETUP_CHILD = """\
import sys, time
sys.path.insert(0, {bench!r})
import mix, refspeed
slices = [refspeed.slice_s() for _ in range(8)]
t0 = time.process_time()
sys.path.insert(0, {src!r})
import sjk.cli
from sjk import families
getattr(sjk.cli, "build_parser", lambda: None)()
mix.WORKLOADS[{name!r}].setup(families)
cpu = time.process_time() - t0
slices += [refspeed.slice_s() for _ in range(8)]
print(cpu * refspeed.speed(slices))
"""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fresh_setup_s(name: str) -> float:
    """Import sjk, build the parser and run the workload set-up in a new
    interpreter; its CPU seconds at the reference speed."""
    code = SETUP_CHILD.format(bench=str(BENCH), src=str(SRC), name=name)
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code], cwd=ROOT, capture_output=True,
        text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.split()[-1])


def import_sjk():
    if not (SRC / "sjk" / "__init__.py").is_file():
        raise RuntimeError(f"no sjk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sjk
    import sjk.cli

    if SRC.resolve() not in Path(sjk.__file__).resolve().parents:
        raise RuntimeError(f"sjk imported from {sjk.__file__}, not from {SRC}")
    return sjk


class Session:
    """Sends requests to the in-process CLI and checks their output."""

    def __init__(self, sjk, workload):
        self.cli = sjk.cli
        self.families = sjk.families
        self.workload = workload
        self.hits = self.misses = 0

    def _caches(self):
        for name in mix.FAMILY_CACHES:
            fn = getattr(self.families, name, None)
            if fn is not None:
                yield fn

    def _live(self):
        hits = misses = 0
        for fn in self._caches():
            info = getattr(fn, "cache_info", None)
            if info is not None:
                now = info()
                hits, misses = hits + now.hits, misses + now.misses
        return hits, misses

    def cache_stats(self):
        """(hits, misses) since the session began, summed across clears."""
        hits, misses = self._live()
        return self.hits + hits, self.misses + misses

    def clear_caches(self):
        self.hits, self.misses = self.cache_stats()
        for fn in self._caches():
            clear = getattr(fn, "cache_clear", None)
            if clear is not None:
                clear()

    def send(self, req):
        """Send one request and check its output."""
        if self.workload.cold:
            self.clear_caches()
        out, err = io.StringIO(), io.StringIO()
        t0, c0 = time.perf_counter(), time.thread_time()
        try:
            rc = self.cli.run(list(req["argv"]), out=out, err=err)
        except Exception as exc:  # a crash is a failed request, not a crashed benchmark
            rc, req["error"] = None, f"{type(exc).__name__}: {exc}"
        cpu, wall = time.thread_time() - c0, time.perf_counter() - t0
        if rc is None:
            return Result(wall, cpu, False, 0, 0)
        ok, terms, bits = checks.check(req, rc, out.getvalue())
        if not ok:
            req.setdefault("error", f"exit {rc}: {err.getvalue().strip()[:200]}")
        return Result(wall, cpu, ok, terms, bits)


def p90(latencies):
    return statistics.quantiles(latencies, n=10)[-1]


def report_failures(reqs, results):
    bad = [(r, res) for r, res in zip(reqs, results) if not res.ok]
    for r, _ in bad[:5]:
        log(f"FAILED {' '.join(r['argv'])}: {r.get('error', '')}")
    return len(bad)


def timed_run(sjk, workload, seed, seconds):
    session = Session(sjk, workload)
    workload.setup(sjk.families)
    reqs, results, setups, slices = [], [], [], []
    stream = workload.requests(seed)
    t0 = time.perf_counter()
    while True:
        # Set-up samples are taken between cycles, spread over the pass, so
        # a slow spell of the machine does not land on all of them.
        if len(setups) < SETUP_RUNS * (time.perf_counter() - t0) / seconds:
            setups.append(fresh_setup_s(workload.name))
        for req in next(stream):
            reqs.append(req)
            results.append(session.send(req))
            slices.append(refspeed.slice_s())
        cpu = [r.cpu for r in results]
        beyond = sum(1 for x in cpu if x > p90(cpu)) if len(cpu) > 1 else 0
        if time.perf_counter() - t0 >= seconds and beyond >= MIN_BEYOND_P90:
            break
    setups += [fresh_setup_s(workload.name) for _ in range(SETUP_RUNS - len(setups))]
    # Each request's CPU time is rescaled by the reference slices taken
    # around it, which follow the machine's speed from moment to moment.
    w = SPEED_WINDOW
    lat = [c * refspeed.speed(slices[max(0, i - w):i + w + 1]) for i, c in enumerate(cpu)]
    beyond = sum(1 for x in lat if x > p90(lat))
    failed = report_failures(reqs, results)
    ok = len(reqs) - failed
    log(f"{workload.name}: {len(reqs)} requests, {beyond} beyond p90, "
        f"{time.perf_counter() - t0:.1f} s pass, set-up runs {[round(s, 4) for s in setups]}, "
        f"speed factor {refspeed.speed(slices):.3f}")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "req_per_s": (ok / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (p90(lat) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_ratio": (ok / len(reqs), "ratio"),
    }
    return metrics, len(reqs), failed


def traced_run(sjk, workload, seed, seconds):
    session = Session(sjk, workload)
    workload.setup(sjk.families)
    cycles = max(1, round(min(seconds, TRACE_SECONDS) / 2 / workload.cycle_s))
    stream = workload.requests(seed)
    tracer = spans.Tracer()
    reqs, plain, traced = [], [], []
    hits = misses = 0
    # Each cycle runs untraced, then traced, so drift in machine speed
    # falls on both sides of trace.overhead_ratio alike.
    for _ in range(cycles):
        cycle = next(stream)
        reqs += cycle
        plain += [session.send(r) for r in cycle]
        hits0, misses0 = session.cache_stats()
        tracer.install()
        try:
            for req in cycle:
                tracer.request = len(traced)
                traced.append(session.send(req))
        finally:
            tracer.uninstall()
        hits1, misses1 = session.cache_stats()
        hits, misses = hits + hits1 - hits0, misses + misses1 - misses0
    if tracer.absent:
        log(f"absent, not traced: {', '.join(tracer.absent)}")

    metrics = layer_metrics(tracer, plain, traced, hits, misses)
    for name, value in probes.scalar_probe(sjk.scalar, seed).items():
        metrics[name] = (value, "ns")

    cap = getattr(sjk.cli, "DEFAULT_MAX_ORDER", 64)
    cap_reqs, cap_results = [], []
    for name, req in probes.cap_rows(cap):
        result = Session(sjk, mix.WORKLOADS["cli-cold"]).send(req)
        cap_reqs.append(req)
        cap_results.append(result)
        metrics[name] = (result.cpu, "s")
        log(f"{name}: {result.cpu:.2f} s")

    all_reqs = reqs + reqs + cap_reqs
    failed = report_failures(all_reqs, plain + traced + cap_results)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}-s{seed}.json.gz",
                 {"workload": workload.name, "seed": seed,
                  "requests": [r["argv"] for r in reqs]})
    return metrics, len(all_reqs), failed


def layer_metrics(tracer, plain, traced, hits, misses):
    calls, self_s, incl_s = tracer.summary()
    wall = sum(r.wall for r in traced)

    def own(*names):
        return sum(self_s[n] for n in names)

    m = {
        "families.calls": (calls["families"], "count"),
        "families.self_s": (own("families"), "s"),
        "families.incl_s": (incl_s["families"], "s"),
        "families.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "families.terms_out": (tracer.families_terms, "count"),
        "families.coef_bits_max": (tracer.families_bits, "bits"),
        "poly.mul_calls": (calls["poly.mul"], "count"),
        "poly.mul_self_s": (own("poly.mul", "poly.pow"), "s"),
        "poly.subst_self_s": (own("poly.subst"), "s"),
        "poly.render_self_s": (own("poly.render"), "s"),
        "jsonio.self_s": (own("jsonio"), "s"),
        "jsonio.bytes_out": (tracer.json_bytes, "bytes"),
        "hyper.pfq_calls": (calls["hyper.pfq"], "count"),
        "hyper.self_s": (own("hyper", "hyper.pfq"), "s"),
        "lacunary.closed_self_s": (own("lacunary.closed"), "s"),
        "lacunary.oracle_self_s": (own("lacunary.oracle"), "s"),
        "umbral.itransform_calls": (calls["umbral.itransform"], "count"),
        "umbral.self_s": (own("umbral", "umbral.itransform"), "s"),
        "connect.self_s": (own("connect"), "s"),
        "opcalc.self_s": (own("opcalc"), "s"),
        "verify.self_s": (own("verify"), "s"),
        "cli.self_s": (own("cli"), "s"),
        "trace.overhead_ratio": (sum(r.cpu for r in traced) / sum(r.cpu for r in plain), "ratio"),
        "trace.wall_s": (wall, "s"),
        "trace.spans": (len(tracer.code), "count"),
        "out.terms": (sum(r.terms for r in traced), "count"),
        "out.coef_bits_max": (max(r.bits for r in traced), "bits"),
    }
    shares = defaultdict(float)
    for name, s in self_s.items():
        shares[name.split(".")[0]] += s / wall
    log("self-time share of traced wall: "
        + ", ".join(f"{k} {v:.3f}" for k, v in sorted(shares.items()))
        + f"; families inclusive {incl_s['families'] / wall:.3f}")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(mix.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.environ.pop("SJK_MAX_ORDER", None)
    try:
        sjk = import_sjk()
        workload = mix.WORKLOADS[args.workload]
        run = traced_run if args.trace else timed_run
        metrics, attempted, failed = run(sjk, workload, args.seed, args.seconds)
    except (RuntimeError, ImportError, subprocess.SubprocessError) as exc:
        log(f"benchmark cannot run: {exc}")
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
