"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py`` with a fixed environment.  The run has four phases:

1. set-up: import cosmo and build the warm-up round and the first timed
   round through cosmo's constructors and parsers.  ``setup_s`` is the
   process CPU time of the interpreter's start (up to the first line of this
   file), of importing cosmo and of cosmo's constructors and parsers; the
   benchmark's own imports and input draws are left out;
2. the self-test of every property check, and one warm-up round;
3. the timed phase: whole rounds, one item at a time, each item timed on a
   CPU clock, until ``--seconds`` of wall time have passed and at least
   ``MIN_ITEMS`` items ran.  Each round's outputs are checked after the
   round, outside the item timings;
4. the report: one JSON object on the last line of stdout.

On a shared virtual machine the CPU speed drifts by a fifth and more
within seconds, from other tenants' load on the host, and CPU clocks see it
too.  So after each round the worker measures the slowdown of the CPU
against a reference with ``Workload.slowdown``, which runs calibration work
that uses no cosmo code, and divides each of the round's item CPU times by
it: the timings are in reference CPU seconds.  The raw figures and the
run's overall ``slowdown`` are reported too.

Item timings are kept in a uniform sample of fixed size, allocated before
the timed phase, and the peak resident memory is read before the report is
computed, so the worker's own memory does not grow with the number of items.

With ``--traced`` the tracer is installed around each round's items only,
and the per-layer figures and spans are reported as well.
"""

from __future__ import annotations

import time

START_CPU = time.process_time()  # the interpreter's start-up and compiling this file

# the benchmark's own imports, which set-up leaves out
import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

MIN_ITEMS = 120
SAMPLE_SIZE = 1 << 16  # item timings kept for the percentiles
SETUP_CALIB_CHILDREN = 3  # calibration interpreters run right after set-up, to scale setup_s
OUT_DIR = Path(__file__).resolve().parent / "out"


def per_layer(self_ns: Counter, counts: Counter, items: int, slowdown: float) -> dict[str, float]:
    """Per-layer figures per attempted item; times in reference seconds."""

    def per(value: float) -> float:
        return value / items

    def seconds(ns: float) -> float:
        return ns / 1e9 / items / slowdown

    hits, entries = counts["links.memo_hits"], counts["links.memo_entries"]
    return {
        "arith.calls": per(counts["arith.calls"]),
        "arith.self_s": seconds(self_ns["arith"]),
        "arith.euclid_steps": per(counts["arith.euclid_steps"]),
        "casson_walker.calls": per(counts["casson_walker.calls"]),
        "casson_walker.self_s": seconds(self_ns["casson_walker"]),
        "obstructions.calls": per(counts["obstructions.calls"]),
        "obstructions.self_s": seconds(self_ns["obstructions"]),
        "links.calls": per(counts["links.calls"]),
        "links.self_s": seconds(self_ns["links"] + self_ns["links.build"] + self_ns["links.key"]),
        "links.build_s": seconds(self_ns["links.build"]),
        "links.key_s": seconds(self_ns["links.key"]),
        "links.crossings": per(counts["links.crossings"]),
        "links.skein_nodes": per(counts["links.skein_nodes"]),
        "links.diagrams_built": per(counts["links.diagrams_built"]),
        "links.key_calls": per(counts["links.key_calls"]),
        "links.memo_entries": per(entries),
        "links.memo_hit_ratio": hits / (hits + entries) if hits + entries else 0.0,
        "seifert.det.calls": per(counts["seifert.det.calls"]),
        "seifert.det.self_s": seconds(self_ns["seifert.det"]),
        "seifert.det.size_sum": per(counts["seifert.det.size_sum"]),
        "seifert.signature.calls": per(counts["seifert.signature.calls"]),
        "seifert.signature.self_s": seconds(self_ns["seifert.signature"]),
        "seifert.signature.size_sum": per(counts["seifert.signature.size_sum"]),
        "seifert.tau.calls": per(counts["seifert.tau.calls"]),
        "seifert.tau.self_s": seconds(self_ns["seifert.tau"]),
        "cli.calls": per(counts["cli.calls"]),
        "cli.interpreter_s": seconds(counts["cli.interpreter_ns"]),
        "cli.import_s": seconds(counts["cli.import_ns"]),
        "cli.parse_s": seconds(self_ns["cli.parse"]),
        "cli.run_s": seconds(self_ns["cli.run"]),
    }


class Sample:
    """Running sums of the item timings, raw and scaled, and a uniform
    sample of at most ``size`` of them (reservoir sampling), in arrays
    allocated up front."""

    def __init__(self, size: int, seed: int) -> None:
        self.size = size
        self.raw = array("d", bytes(8 * size))
        self.scaled = array("d", bytes(8 * size))
        self.count = 0
        self.raw_sum = self.scaled_sum = 0.0
        self.rng = random.Random(f"perfbench:sample:{seed}")

    def add(self, raw: float, scaled: float) -> None:
        self.raw_sum += raw
        self.scaled_sum += scaled
        at = self.count if self.count < self.size else self.rng.randrange(self.count + 1)
        if at < self.size:
            self.raw[at], self.scaled[at] = raw, scaled
        self.count += 1

    def deciles(self, values: array) -> list[float]:
        return statistics.quantiles(values[: min(self.count, self.size)], n=10, method="inclusive")


def check_round(items, outs, tally: Counter, problems: list[str]) -> None:
    for item, out in zip(items, outs):
        tally["attempted"] += 1
        if isinstance(out, Exception):
            tally["failed"] += 1
            problems.append(f"{item.op} raised {type(out).__name__}: {out}")
            continue
        try:
            ok = item.check(out)
        except Exception as exc:  # a check that cannot read the output rejects it
            ok = False
            problems.append(f"{item.op}: check raised {type(exc).__name__}: {exc}")
        if not ok:
            if item.known_fault:
                tally["failed"] += 1
            else:
                tally["wrong"] += 1
                problems.append(f"{item.op}: wrong output for {item.call[2] if isinstance(item.call, tuple) else item.call}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--cap", type=float, required=True, help="wall seconds after which the timed phase stops")
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)
    # one CPU for the worker, its CLI children and the calibration, so the
    # calibration sees the speed of the CPU that does the work
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    import_start = time.process_time()
    import cosmo  # noqa: F401  (imports every compute module)

    if args.workload == "cli_calls":
        import cosmo.cli  # noqa: F401
    import_s = time.process_time() - import_start
    import workloads

    workload = workloads.make(args.workload, args.seed)
    warmup, first = workload.round(-1), workload.round(0)
    setup_s = START_CPU + import_s + workload.build_ns / 1e9
    setup_slowdown = workloads.child_slowdown(SETUP_CALIB_CHILDREN)

    try:
        problems = workload.self_test()
    except Exception as exc:  # cosmo raising inside a self-test fails the run's checks
        problems = [f"self-test raised {type(exc).__name__}: {exc}"]
    selftest_ok = not problems
    warm: Counter = Counter()
    check_round(warmup, [workload.execute(item)[0] for item in warmup], warm, problems)
    tally: Counter = Counter()

    tracer = None
    if args.traced and workload.name == "cli_calls":
        workload.traced = True  # each child process traces itself
    elif args.traced:
        from tracing import Tracer

        tracer = Tracer()
    sample = Sample(SAMPLE_SIZE, args.seed)  # raw item CPU ns, and over the slowdown measured after its round
    round_times = array("q")
    rounds = 0
    items = first
    start = time.perf_counter()
    while True:
        outs = []
        del round_times[:]
        if tracer is not None:
            tracer.install()
        for item in items:
            out, cpu_ns = workload.execute(item)
            outs.append(out)
            round_times.append(cpu_ns)
        if tracer is not None:
            tracer.uninstall()
        local = workload.slowdown(sum(round_times))
        for t in round_times:
            sample.add(t, t / local)
        check_round(items, outs, tally, problems)
        rounds += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= args.seconds and tally["attempted"] >= MIN_ITEMS) or elapsed >= args.cap:
            break
        items = workload.round(rounds)

    peak_rss_mb = workload.peak_rss_mb()  # before the report's own allocations
    slowdown = sample.raw_sum / sample.scaled_sum
    deciles = sample.deciles(sample.raw)
    raw = {
        "setup_s": setup_s,
        "items_per_s": tally["attempted"] / (sample.raw_sum / 1e9),
        "item_p50_ms": deciles[4] / 1e6,
        "item_p90_ms": deciles[8] / 1e6,
    }
    deciles = sample.deciles(sample.scaled)
    report = {
        "correct": selftest_ok and warm["wrong"] == 0 and tally["wrong"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "setup_s": raw["setup_s"] / setup_slowdown,
        "items_per_s": tally["attempted"] / (sample.scaled_sum / 1e9),
        "item_p50_ms": deciles[4] / 1e6,
        "item_p90_ms": deciles[8] / 1e6,
        "peak_rss_mb": peak_rss_mb,
        "slowdown": slowdown,
        "raw": raw,
        "rounds": rounds,
        "wall_s": elapsed,
        "items_per_wall_s": tally["attempted"] / elapsed,
        "problems": problems[:20],
    }
    if args.traced:
        if tracer is not None:
            traces = [tracer.summary()]
        else:
            traces = workload.child_traces
        self_ns: Counter = Counter()
        counts: Counter = Counter()
        for t in traces:
            self_ns.update(t["self_ns"])
            counts.update(t["counts"])
        report["per_layer"] = per_layer(self_ns, counts, tally["attempted"], slowdown)
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "span_fields": ["id", "name", "start_ns", "end_ns", "parent_id"],
                    "processes": [{"spans": t["spans"], "dropped": t["dropped"]} for t in traces],
                },
                fh,
            )
        report["trace_file"] = str(trace_file)
    for line in problems[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
