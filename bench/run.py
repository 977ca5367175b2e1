"""Benchmark for spbw: theorem suites, the degree frontier and arithmetic.

Run from the repository root, for example

    python3 bench/run.py --workload suite-deep --seed 1 --seconds 30 --trace 0

The program is imported from `src/` next to this directory and driven only
through its public functions, in this one single-threaded process.  Each
timed pass parses its instances afresh, so no cache or context carries over
from one pass to the next, as with one CLI process per command.  Times are
scaled by the machine speed sampled while they run (see SpeedProbe).  Every
output is checked outside the timed region.  The last line of standard
output is one JSON object: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics from a traced run with `--trace 1`.
A human-readable summary goes to standard error.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference"
# Set-up is timed in batches of SETUP_BATCH repetitions, each batch scaled
# by the machine speed sampled during it: SETUP_BATCHES batches before the
# timed passes and one more before each pass, so that the samples span the run.
SETUP_BATCH = 20
SETUP_BATCHES = 5
# The speed probe runs one calibration chunk of CALIB_LOOPS iterations every
# PROBE_INTERVAL_S seconds of timed work.  Times are reported in reference
# seconds: scaled to a machine speed at which one chunk takes REF_CALIB_S.
PROBE_INTERVAL_S = 0.1
CALIB_LOOPS = 20_000
REF_CALIB_S = 0.005

# (corpus instance, degree) per workload and size.  suite-deep runs each
# case at the deepest degree with no skipped report; frontier runs each
# instance one degree past that, where the budget guard refuses.
CASES = {
    "suite-deep": {"full": [("z3-trivial", 2), ("z4-regular", 4),
                            ("weyl-dual-quotient", 5)],
                   "smoke": [("z4-regular", 2), ("weyl-dual-quotient", 2)]},
    "frontier": {"full": [("quantum-plane-z5", 2), ("z6-commutative", 2),
                          ("z3-trivial", 3), ("z4-regular", 5),
                          ("z2xz2-swap", 5)],
                 "smoke": [("z4-regular", 5), ("z2xz2-swap", 5)]},
}
SKIPPED = "skipped_search_space"
VIOLATION = "violation"
STATUSES = ("confirmed", "hypothesis_not_met", VIOLATION, SKIPPED)


def load_spbw():
    """Import spbw from this checkout's sources, and nothing else."""
    src = ROOT / "src"
    if not (src / "spbw" / "__init__.py").is_file():
        raise SystemExit(f"error: no spbw sources in {src}")
    sys.path.insert(0, str(src))
    import spbw
    import spbw.cli
    import spbw.corpus
    if Path(spbw.__file__).resolve().parent != (src / "spbw").resolve():
        raise SystemExit(f"error: imported spbw from {spbw.__file__}")
    return spbw


# ---------------------------------------------------------------------------
# output checks (pure functions of the report text, so tests can corrupt it)


def _reports(text: str) -> list:
    return json.loads(text)["result"]["reports"]


def check_identical(text: str, reference: str) -> int:
    """Failed reports: any report that differs from the reference or is a
    violation; the whole text must match byte for byte."""
    got, want = _reports(text), _reports(reference)
    bad = sum(g != w or g["status"] == VIOLATION for g, w in zip(got, want))
    bad += abs(len(got) - len(want))
    return max(bad, 1) if text != reference else bad


def check_frontier(text: str, reference: str) -> int:
    """Failed reports: a report decided in the reference must keep its status
    and conclusion; a newly decided one must not be a violation."""
    got, want = _reports(text), _reports(reference)
    if len(got) != len(want):
        return max(len(got), len(want))
    bad = 0
    for g, w in zip(got, want):
        if g["theorem"] != w["theorem"] or g["status"] == VIOLATION:
            bad += 1
        elif w["status"] != SKIPPED and (g["status"], g["conclusion"]) != \
                (w["status"], w["conclusion"]):
            bad += 1
    return bad


# ---------------------------------------------------------------------------
# machine speed


def calibrate(loops: int = CALIB_LOOPS) -> float:
    """Seconds for a fixed pure-Python loop of tuple-keyed dict updates and
    modular arithmetic, the kind of work the program's inner loops do.  It
    uses nothing from spbw, so no change to the program can move it."""
    t0 = time.perf_counter()
    table = {}
    for i in range(loops):
        key = (i % 977, i % 13)
        table[key] = (table.get(key, 0) + i * i) % 7919
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples how fast the shared machine runs while the benchmark works.

    The speed of one core on a shared host drifts by tens of percent from
    second to second and from minute to minute, so raw times of the same
    code differ as much from run to run.  While the probe runs, a SIGALRM
    handler times one `calibrate` chunk every PROBE_INTERVAL_S seconds, in
    this same thread.  `clock` leaves the handler's time out, so spans timed
    with it hold only the benchmark's own work.  `speed` is the mean of
    REF_CALIB_S / chunk time over the samples taken during a span: the time
    of that span multiplied by it is the time the same work would take on a
    machine where a chunk takes REF_CALIB_S.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - t0

    def clock(self) -> float:
        spent = self.spent
        return time.perf_counter() - spent

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, first: int = 0) -> float:
        """Speed over the samples from index `first` on; a span too short to
        hold a sample uses one taken now."""
        window = self.samples[first:]
        if not window:
            self._sample()
            window = self.samples[-1:]
        return statistics.fmean(REF_CALIB_S / t for t in window)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One workload: `texts` maps each instance it loads to its JSON text.
    `clock` times its work; main sets it to the speed probe's clock."""

    clock = staticmethod(time.perf_counter)

    def setup(self) -> float:
        """Seconds to parse and validate every instance a pass loads."""
        t0 = self.clock()
        for text in self.texts.values():
            self.spbw.cli.parse_instance(text)
        return self.clock() - t0

    def setup_batch(self, probe) -> float:
        """Median set-up time of one batch, in reference seconds."""
        first = len(probe.samples)
        times = [self.setup() for _ in range(SETUP_BATCH)]
        return statistics.median(times) * probe.speed(first)


class Theorems(Workload):
    """`spbw INSTANCE theorems --degree D` on a fixed list of cases."""

    def __init__(self, spbw, name: str, size: str, rng: random.Random):
        self.spbw = spbw
        self.cases = CASES[name][size]
        self.check = check_identical if name == "suite-deep" else check_frontier
        self.rng = rng
        self.texts = {n: spbw.corpus.load(n) for n, _ in self.cases}
        self.reference = {(n, d): (REFERENCE / f"{n}-d{d}.json").read_text("utf-8")
                          for n, d in self.cases}
        self.options = {"max_space": spbw.bounded.DEFAULT_MAX_SPACE, "seed": 0}

    def run_pass(self, tracer=None) -> dict:
        cli = self.spbw.cli
        emit = json.dumps if tracer is None else tracer.span("cli.emit", json.dumps)
        out = {"attempted": 0, "decided": 0,
               "statuses": Counter(), "cases": {}, "checks": []}
        order = list(self.cases)
        self.rng.shuffle(order)
        for name, degree in order:
            inst = cli.parse_instance(self.texts[name])
            t1 = self.clock()
            report, _ = cli.run_command(inst, "theorems", [],
                                        dict(self.options, degree=degree))
            text = emit(report, indent=2, sort_keys=True) + "\n"
            t2 = self.clock()
            reports = _reports(text)
            skips = sum(r["status"] == SKIPPED for r in reports)
            out["statuses"].update(r["status"] for r in reports)
            out["attempted"] += len(reports)
            out["decided"] += len(reports) - skips
            out["checks"].append(
                lambda text=text, ref=self.reference[(name, degree)]:
                self.check(text, ref))
            out["cases"][(name, degree)] = (t2 - t1, skips)
        return out


class Arith(Workload):
    """Seeded `mul` and `act` lists: a cold pass on fresh presentations that
    fills the rewriting caches, then a warm pass over the same list."""

    def __init__(self, spbw, size: str, rng: random.Random):
        import arith
        self.spbw = spbw
        self.texts = arith.instance_texts(spbw.corpus)
        # Untraced warm-op latencies, in 0.1 us bins, so memory stays flat.
        self.warm_us = Counter()
        self.ops = {}
        for name, text in self.texts.items():
            inst = spbw.cli.parse_instance(text)
            self.ops[name] = arith.OpList(name, inst.presentation.n,
                                          inst.ring.order, inst.module.order,
                                          size, rng)

    def run_pass(self, tracer=None) -> dict:
        clock = self.clock
        out = {"attempted": 0, "decided": 0,
               "statuses": Counter(), "cases": {}, "checks": []}
        warm_us = self.warm_us if tracer is None else Counter()
        for name, text in self.texts.items():
            inst = self.spbw.cli.parse_instance(text)
            ops = self.ops[name]
            calls = ops.calls(self.spbw, inst)
            t0 = clock()
            cold = [fn(a, b) for fn, a, b in calls]
            cold_s = clock() - t0
            warm = []
            for fn, a, b in calls:
                t0 = clock()
                warm.append(fn(a, b))
                warm_us[round((clock() - t0) * 1e6, 1)] += 1
            out["attempted"] += 2 * len(calls)
            out["decided"] += 2 * len(calls)
            out["checks"].append(
                lambda ops=ops, inst=inst, cold=cold, warm=warm:
                ops.check(self.spbw, inst, cold, warm))
            out["cases"][(name, None)] = (cold_s, 0)
        return out


def percentile(hist: Counter, q: float) -> float:
    """Nearest-rank percentile of a {value: count} histogram, q in (0, 100)."""
    rank = int(sum(hist.values()) * q / 100)
    for value in sorted(hist):
        rank -= hist[value]
        if rank < 0:
            return value
    return max(hist)


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["suite-deep", "frontier", "arith"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "smoke"], default="full",
                   help="smoke runs tiny cases, for the benchmark's own test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    spbw = load_spbw()
    rng = random.Random(args.seed)
    if args.workload == "arith":
        workload = Arith(spbw, args.size, rng)
    else:
        workload = Theorems(spbw, args.workload, args.size, rng)

    probe = SpeedProbe()
    clock = workload.clock = probe.clock
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(spbw)
    plain, traced = [], []
    gc.collect()
    probe.start()
    try:
        setup = [workload.setup_batch(probe) for _ in range(SETUP_BATCHES)]
        deadline = time.perf_counter() + args.seconds
        while True:
            start = time.perf_counter()
            gc.collect()
            setup.append(workload.setup_batch(probe))
            first = len(probe.samples)
            t0 = clock()
            plain.append(workload.run_pass())
            plain[-1]["wall_s"] = clock() - t0
            plain[-1]["speed"] = probe.speed(first)
            if tracer is not None:
                probe.stop()
                gc.collect()
                tracer.install()
                try:
                    t0 = clock()
                    tracer.enter("bench.pass")
                    traced.append(workload.run_pass(tracer))
                    tracer.exit()
                    traced[-1]["wall_s"] = clock() - t0
                finally:
                    tracer.uninstall()
                    probe.start()
            # Checks run untraced and outside the timed region.
            for res in [plain[-1]] + traced[-1:]:
                res["failed"] = sum(check() for check in res.pop("checks"))
            # Stop once the deadline is less than half a round away, so that
            # a run lasts about --seconds however long a round takes.
            now = time.perf_counter()
            if now + (now - start) / 2 >= deadline:
                break
    finally:
        probe.stop()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    every = plain + traced
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    decided_share = (sum(r["decided"] for r in plain)
                     / sum(r["attempted"] for r in plain))
    # Times are in reference seconds (see SpeedProbe): each pass and each
    # set-up batch is scaled by the machine speed sampled during it.
    for r in plain:
        r["raw_s"] = sum(t for t, _ in r["cases"].values())
    pass_s = statistics.median(r["raw_s"] * r["speed"] for r in plain)
    setup_s = statistics.median(setup)
    log = sys.stderr
    print(f"{args.workload}: {len(plain)} untraced passes, "
          f"pass_s={pass_s:.4f} setup_s={setup_s:.5f} "
          f"decided_share={decided_share:.4f} failed={failed}/{attempted}; "
          f"measured median pass "
          f"{statistics.median(r['raw_s'] for r in plain):.4f} s at speed "
          f"{probe.speed():.3f} ({len(probe.samples)} samples)", file=log)
    if args.workload == "arith":
        warm = workload.warm_us
        print(f"  arith_cold_s={pass_s:.4f} arith_warm_us.p50="
              f"{percentile(warm, 50):.1f} arith_warm_us.p99="
              f"{percentile(warm, 99):.1f} (n={sum(warm.values())} warm ops)",
              file=log)

    if args.trace:
        values = tracer.metrics(len(traced))
        for status in STATUSES:
            values[f"properties.reports.{status}"] = \
                sum(r["statuses"][status] for r in traced) / len(traced)
        untraced = statistics.median(r["wall_s"] for r in plain)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        values["bench.untraced_pass_s"] = untraced
        values["bench.traced_pass_s"] = traced_wall
        values["bench.trace_overhead_s"] = traced_wall - untraced
        tracer.write(BENCH / "out" / f"spans-{args.workload}-{args.seed}.jsonl")
        # The ROADMAP baseline rows for the cases run: wall time and skips.
        for case in plain[0]["cases"]:
            wall = statistics.median(r["cases"][case][0] for r in plain)
            name, degree = case
            deg = "" if degree is None else f" d={degree}"
            print(f"baseline {name}{deg}: wall_s={wall:.4f} "
                  f"skips={plain[0]['cases'][case][1]}")
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": setup_s, "pass_s": pass_s,
                  "decided_share": decided_share, "peak_rss_mb": peak_rss_mb}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
