#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload district-soak --seed 1 \\
        --seconds 25 --trace 0

Run from the repository root (the program is imported from ``src/``).
With ``--trace 0`` it prints the end-to-end metrics, measured with no
tracing; with ``--trace 1`` it first runs the workload's deterministic
prefix untraced in a child process, then the traced run, checks that
both did the same simulated work, and prints the per-layer metrics.
Every line names a metric, its value, its unit and its sample count;
the last line is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  The exit code is 0 only when every output
check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: set-ups per untraced run; setup_s is their median
SETUPS = 3
#: fewest steps in a window: the p50 of step times needs 20
MIN_STEPS = 20
#: host seconds the untraced reference of a traced run may take
REFERENCE_TIMEOUT = 150.0

#: end-to-end metrics (tracing off), put in the JSON result
END_TO_END = ("setup_s", "peak_rss_mb", "ops_per_s", "sim_p50_ms",
              "sim_p99_ms")

#: per-layer metrics (tracing on), put in the JSON result: every count,
#: ratio and self time the tracer gives, all over the deterministic
#: prefix
PER_LAYER = (
    "scheduler.events", "scheduler.self_s", "scheduler.heap_peak",
    "scheduler.compactions",
    "transport.messages", "transport.bytes", "transport.dropped",
    "transport.size_estimates", "transport.self_s",
    "transport.msgs_per_sample",
    "http.requests", "http.self_s", "http.non2xx", "http.timeouts",
    "http.retries",
    "device.reads", "device.self_s", "codec.frames_encoded",
    "codec.frames_decoded", "codec.self_s", "codec.frames_rejected",
    "radio.frames_dropped",
    "proxy.samples_in", "proxy.batches", "proxy.samples_per_batch",
    "proxy.self_s", "proxy.models_translated", "proxy.translate_self_s",
    "lineproto.frames", "lineproto.lines", "lineproto.self_s",
    "mdb.inserts", "mdb.insert_self_s", "mdb.duplicates", "mdb.rejected",
    "mdb.range_queries", "mdb.range_self_s", "mdb.rollup_served_ratio",
    "localdb.queries", "localdb.self_s",
    "broker.published", "broker.deliveries", "broker.fanout_per_publish",
    "broker.topic_matches", "broker.matches_per_publish",
    "broker.match_self_s", "broker.self_s", "broker.pending_peak",
    "broker.redeliveries", "peer.callbacks", "peer.self_s",
    "master.resolves", "master.resolve_self_s", "master.registrations",
    "master.self_s", "client.self_s", "client.integrate_self_s",
)


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="host seconds of measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fingerprint", action="store_true",
                        help="run set-up and the deterministic prefix "
                             "only; print its simulated counters")
    return parser.parse_args(argv)


class Window:
    """One measured window: normalised and raw host time, counter edges.

    ``prefix_rss_mb`` is the process's peak RSS when the deterministic
    prefix completes: a fixed amount of simulated work, so a faster
    program that stores more samples in its window does not read as
    using more memory.

    Host time is kept by a :class:`measure.Clock`, which scales it to a
    reference host speed (see measure.py): ``steps`` holds normalised
    seconds per step and ``wall`` their sum; ``raw_wall`` is plain host
    time; ``prefix_raw_s`` is the plain host time of the prefix and
    ``probe_ms`` the median probe time.  Only ``workload.step()`` is
    timed: the workload's per-step output checks (``verify_last``), the
    window's bookkeeping and the clock's probes are outside the window,
    so every rate's numerator and denominator cover the same steps.
    """

    def __init__(self, workload, seconds: float, on_prefix=None):
        """Step *workload* for *seconds* host seconds, at least its
        prefix and at least MIN_STEPS steps; *on_prefix()* runs when
        the prefix completes."""
        from measure import Clock, peak_rss_mb
        from workloads import counters

        verify = getattr(workload, "verify_last", None)
        clock = Clock()
        workload.tick = clock.tick
        gc.collect()
        prefix_steps = None
        self.first = counters(workload.d)
        clock.resume()
        while True:
            workload.step()
            clock.tick()
            clock.key += 1
            if prefix_steps is None and workload.prefix_done:
                prefix_steps = clock.key
                self.prefix_raw_s = clock.raw_s
                self.prefix_rss_mb = peak_rss_mb()
                if on_prefix is not None:
                    on_prefix()
            if verify is not None:
                verify()
            if prefix_steps is not None and clock.key >= MIN_STEPS and \
                    clock.raw_s >= seconds:
                break
            clock.resume()
        clock.finish()
        self.last = counters(workload.d)
        normalized = clock.normalized()
        self.steps = [normalized[k] for k in range(clock.key)]
        self.wall = sum(self.steps)
        self.raw_wall = clock.raw_s
        self.prefix_s = sum(self.steps[:prefix_steps])
        self.probes = len(clock.probes)
        self.probe_ms = statistics.median(clock.probes) * 1e3

    @property
    def steps_ms(self):
        return [s * 1e3 for s in self.steps]

    def delta(self, key: str) -> int:
        return self.last[key] - self.first[key]


def timed_setup(cls, seed: int):
    """Set up a workload; returns it and its normalised set-up time."""
    from measure import Clock

    clock = Clock()
    workload = cls(seed)
    workload.tick = clock.tick
    clock.resume()
    workload.setup()
    clock.tick()
    clock.finish()
    return workload, sum(clock.normalized().values())


def run_untraced(cls, args, report) -> int:
    from measure import percentile

    workload, setup = timed_setup(cls, args.seed)
    setups = [setup]
    window = Window(workload, args.seconds)
    attempted, failed, problems = workload.check()
    steps = window.steps
    report.note(f"window {window.raw_wall:.3f} host s = {window.wall:.3f} "
                f"normalised s, {len(steps)} steps of {workload.step_unit}, "
                f"{window.probes} probes of median {window.probe_ms:.3f} ms; "
                f"one op = one {workload.op}")
    report.note("the same figures under the workload's own names: " +
                ", ".join(f"{ours} = {theirs}" for ours, theirs in
                          workload.aliases.items()))
    for name, value, unit, n in workload.named_metrics(window):
        report.add(name, value, unit, n, emit=False)
    report.add("ops_per_s", workload.ops / window.wall, "1/s",
               workload.ops)
    report.add("ops_per_host_s", workload.ops / window.raw_wall, "1/s",
               workload.ops, emit=False)
    report.add("step_p50_ms", percentile(window.steps_ms, 50), "ms",
               len(window.steps), emit=False)
    p50, p99 = workload.sim_values()
    report.add("sim_p50_ms", p50, "ms", workload.sim_count)
    report.add("sim_p99_ms", p99, "ms", workload.sim_count)
    report.add("peak_rss_mb", window.prefix_rss_mb, "MB")
    report.add("failed_ratio", failed / max(attempted, 1), "ratio",
               attempted, emit=False)
    report.note("fingerprint " + json.dumps(workload.fingerprint,
                                             sort_keys=True))
    del workload
    for _ in range(SETUPS - 1):
        gc.collect()
        setups.append(timed_setup(cls, args.seed)[1])
    report.add("setup_s", statistics.median(setups), "s", len(setups))
    return report.finish(attempted, failed, problems)


def run_reference(args):
    """The untraced prefix, in a fresh interpreter: (fingerprint, s)."""
    command = [sys.executable, str(HERE / "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--fingerprint"]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=REFERENCE_TIMEOUT)
    if done.returncode != 0:
        raise RuntimeError(f"untraced reference failed: {done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["fingerprint"], result["prefix_s"]


def run_traced(cls, args, report) -> int:
    import layers

    reference, reference_s = run_reference(args)
    tracer = layers.Tracer()
    tracer.install()
    workload = cls(args.seed)
    workload.setup()
    tracer.attach(workload.d)
    before = layers.snapshot(workload.d)
    tracer.reset()
    prefix = []
    window = Window(workload, args.seconds, on_prefix=lambda: prefix.append(
        (layers.snapshot(workload.d), tracer.counts(), dict(tracer.self_s),
         tracer.traced_s)))
    after, counts, self_s, traced_s = prefix[0]
    metrics = layers.layer_metrics(before, after, counts)
    metrics["mdb.rollup_served_ratio"] = workload.rollup_served_ratio()
    scale = window.prefix_s / window.prefix_raw_s
    for name, seconds in self_s.items():
        metrics[name] = seconds * scale
    covered = traced_s / window.prefix_raw_s
    attempted, failed, problems = workload.check()
    if workload.fingerprint != reference:
        problems.append(
            "traced run did different simulated work: "
            f"{workload.fingerprint} != untraced {reference}")
    report.note(f"traced window {window.raw_wall:.3f} host s, "
                f"{len(window.steps_ms)} steps; spans cover "
                f"{covered:.1%} of its prefix")
    report.note(f"tracing overhead x{window.prefix_s / reference_s:.3f} "
                f"(prefix {window.prefix_s:.3f} s traced, "
                f"{reference_s:.3f} s untraced); simulated counters "
                + ("identical" if workload.fingerprint == reference
                   else "DIFFER"))
    report.note("counts, ratios and self times (_self_s, in normalised s) "
                "all cover the deterministic prefix")
    for name in PER_LAYER:
        unit = "s" if name.endswith("_s") else \
            "ratio" if "_per_" in name or name.endswith("_ratio") \
            else "count"
        report.add(name, metrics[name], unit)
    return report.finish(attempted, failed, problems)


def run_fingerprint(cls, args) -> int:
    workload = cls(args.seed)
    workload.setup()
    window = Window(workload, 0.0)
    print(json.dumps({"fingerprint": workload.fingerprint,
                      "prefix_s": window.prefix_s}))
    return 0


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from measure import Report
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.fingerprint:
        return run_fingerprint(cls, args)
    report = Report(args.workload)
    if args.trace:
        return run_traced(cls, args, report)
    return run_untraced(cls, args, report)


if __name__ == "__main__":
    sys.exit(main())
