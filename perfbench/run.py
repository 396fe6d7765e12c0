"""The repository benchmark: four KF1 workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload jacobi-sim --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` first measures a third of ``--seconds`` untraced, then
installs the span wrappers (:mod:`perfbench.tracer`), sets up again and
measures the rest traced, and reports the per-layer metrics plus
``tracing.overhead`` (traced / untraced ``op_ms_p50`` - 1).  Every op's
output is checked; a wrong answer, an error, a changed trace signature
or a leaked worker or shared-memory segment makes the run incorrect
(exit code 1).  Refused and late requests count as failed, not wrong.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).
Results and the recorded spans also go to ``perfbench/out/``.

Metric and workload names are the contract in :mod:`perfbench.metrics`.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: fresh set-ups per run; setup_s is their median
SETUPS = 15
#: set-ups in the traced part of a --trace 1 run
TRACED_SETUPS = 3
#: a serve-mix run whose generator sent its p99 request later than
#: this is invalid (the host, not the system, set the latency)
LAG_BOUND_S = 0.2


def _shm_segments() -> set:
    """Names of this host's POSIX shared-memory segments made by
    Python's ``multiprocessing.shared_memory`` (the ``psm_`` prefix)."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # no /dev/shm: nothing can leak there
        return set()


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest reaped child
    (Linux reports kilobytes); shared pages count in both."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing.shared_memory``
    starts, so that no process of the run outlives it (Python stops it
    only at interpreter exit, without waiting)."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def host_info() -> dict:
    import numpy

    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _window(wl, inst, seconds, tracer, traced, sigs):
    from perfbench import drivers

    loop = drivers.closed_loop if wl.mode == "closed" else drivers.serve_loop
    return loop(wl, inst, seconds, tracer, traced, sigs)


def end_to_end(win, setup_times, peak_mb) -> dict:
    """The gated end-to-end metrics and the ungated ones (see
    :data:`perfbench.metrics.UNGATED`)."""
    from perfbench.drivers import percentile, percentile_ms

    fail_share = win.failed / max(win.attempted, 1)
    return {
        "setup_s": _median(setup_times),
        "slowdown_vs_listing1": percentile(win.ratios, 50),
        "slowdown_p90_vs_listing1": percentile(win.ratios, 90),
        "slowdown_p95_vs_listing1": percentile(win.ratios, 95),
        "slowdown_p99_vs_listing1": percentile(win.ratios, 99),
        "ok_share": 1.0 - fail_share,
        "peak_rss_mb": peak_mb,
        "op_ms_p50": percentile_ms(win.samples, 50),
        "op_ms_p90": percentile_ms(win.samples, 90),
        "op_ms_p95": percentile_ms(win.samples, 95),
        "op_ms_p99": percentile_ms(win.samples, 99),
        "ops_per_s": win.good_in_limit / win.seconds if win.seconds else 0.0,
        "fail_share": fail_share,
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str = "full"):
    """Run one workload; returns ``(result, meta, tracer or None)``."""
    from perfbench import drivers, metrics, workloads
    from perfbench.tracer import Tracer, instrument

    shm_before = _shm_segments()
    wl = workloads.make(workload, seed, size)
    sigs = drivers.Signatures()
    tracer = Tracer()
    checked = drivers.Window()   # set-ups and the untraced part of --trace 1

    if not trace:
        inst, setup_times, _ = drivers.setups(
            wl, SETUPS, tracer, False, checked, sigs
        )
        win = _window(wl, inst, seconds, tracer, False, sigs)
    else:
        inst, _, _ = drivers.setups(wl, 1, tracer, False, checked, sigs)
        plain = _window(wl, inst, seconds / 3, tracer, False, sigs)
        checked.absorb(plain)
        inst.close()
        with instrument(tracer):
            inst, setup_times, tables = drivers.setups(
                wl, TRACED_SETUPS, tracer, True, checked, sigs
            )
            win = _window(wl, inst, seconds - seconds / 3, tracer, True, sigs)
    rates = inst.session.hit_rates() if hasattr(inst, "session") else {}
    inst.close()
    wl.close()

    # resources: every worker joined, every segment unlinked
    workers_leaked = len(multiprocessing.active_children())
    shm_leaked = len(_shm_segments() - shm_before)
    for _ in range(workers_leaked + shm_leaked):
        win.fail("leaked a worker process or shared-memory segment")
    win.absorb(checked)

    lag_p99 = drivers.percentile_ms(win.lags, 99)
    if lag_p99 > LAG_BOUND_S * 1e3:
        raise RuntimeError(
            f"load generator ran {lag_p99:.1f} ms late at p99 (bound "
            f"{LAG_BOUND_S * 1e3:.0f} ms): the host was too busy for an "
            "open-loop measurement"
        )

    ungated = {}
    if not trace:
        values = end_to_end(win, setup_times, _peak_rss_mb())
        names = [m[0] for m in metrics.END_TO_END]
        ungated = {k: values[k] for k, _ in metrics.UNGATED}
    else:
        sig_values = list(sigs.first.values())
        n_sig = max(len(sig_values), 1)
        plain_p50 = drivers.percentile_ms(plain.samples, 50)
        extra = {
            "simulator.messages_per_sweep":
                sum(s[0] for s in sig_values) / n_sig,
            "simulator.bytes_per_sweep": sum(s[1] for s in sig_values) / n_sig,
            "simulator.makespan_us_per_sweep":
                sum(s[2] for s in sig_values) / n_sig,
            "commsched.schedule_hit_rate": rates.get("repartition", 0.0),
            "mpbackend.shm_leaked": shm_leaked,
            "mpbackend.workers_leaked": workers_leaked,
            "serve.queue_wait_ms_p50": drivers.percentile_ms(win.queue_waits, 50),
            "serve.queue_wait_ms_p99": drivers.percentile_ms(win.queue_waits, 99),
            "serve.rejected": win.rejected,
            "serve.deadline_missed": win.deadline_missed,
            "elastic.checkpoint_bytes": _median(win.ckpt_bytes),
            "loadgen.lag_ms_p99": lag_p99,
            "listing1.ms_per_sweep": _median(win.ref_s) * 1e3,
            "tracing.overhead": (
                drivers.percentile_ms(win.samples, 50) / plain_p50 - 1.0
                if plain_p50 else 0.0
            ),
        }
        values = metrics.per_layer(
            tracer.totals(phases={"op"}), tracer.counts(phases={"op"}),
            tables, ops=win.ops, sweeps=win.sweeps,
            members=win.members, extra=extra,
        )
        names = [m[0] for m in metrics.PER_LAYER]
        ops = max(win.ops, 1)
        span_table = {
            name: [spans, incl / 1e6 / ops, own / 1e6 / ops]
            for name, (spans, incl, own) in sorted(
                tracer.totals(phases={"op"}).items())
        }

    result = {
        "correct": win.wrong == 0,
        "attempted": int(win.attempted),
        "failed": int(win.failed),
        "metrics": {
            k: {"value": float(values[k]), "unit": metrics.UNITS[k]}
            for k in names
        },
    }
    meta = {
        "workload": workload,
        "why": metrics.WORKLOADS[workload],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "host": host_info(),
        "backend": "multiprocessing" if workload == "jacobi-mp2" else "simulator",
        "offered_rate_per_s": getattr(wl, "RATE", None),
        "latency_limit_s": getattr(wl, "LATENCY_LIMIT_S", None),
        "samples": len(win.samples),
        "samples_ms": [round(x * 1e3, 6) for x in win.samples],
        "ratios": [round(x, 4) for x in win.ratios],
        "kinds": win.kinds,
        "failures": win.reasons,
        "ungated": ungated,
    }
    if trace:
        #: span name -> [spans, inclusive ms per op, self ms per op]
        meta["span_table"] = span_table
    return result, meta, tracer if trace else None


def report(result: dict, meta: dict) -> list[str]:
    from perfbench import metrics

    lines = [
        f"workload {meta['workload']}  seed {meta['seed']}  "
        f"{'traced' if meta['trace'] else 'untraced'}  "
        f"{meta['samples']} timed ops  host {meta['host']['cpus']} cpus",
    ]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    if meta["ungated"]:
        lines.append("  not gated:")
    for name, value in meta["ungated"].items():
        lines.append(f"  {name:<40} {value:>14.6g} {metrics.UNITS[name]}")
    lines.append(f"  {result['failed']} of {result['attempted']} ops failed")
    if "span_table" in meta:
        lines.append(f"  {'span (traced window)':<32} {'spans':>9} "
                     f"{'incl ms/op':>11} {'self ms/op':>11}")
        for name, (spans, incl, own) in meta["span_table"].items():
            lines.append(f"  {name:<32} {spans:>9} {incl:>11.4f} {own:>11.4f}")
    for why, k in meta["failures"].items():
        lines.append(f"  FAILED x{k}: {why}")
    return lines


def main(argv=None) -> int:
    from perfbench import metrics

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(metrics.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs every workload at toy sizes (tests)")
    args = ap.parse_args(argv)

    try:
        result, meta, tracer = run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.size
        )
    finally:
        _stop_resource_tracker()
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )
    with open(stem + ".json", "w") as fh:
        json.dump({"result": result, "meta": meta}, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + "-spans.jsonl")
    for line in report(result, meta):
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def _bootstrap() -> None:
    """Make the checkout's ``src/`` and this package importable."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"error: no src/repro under {ROOT}: run the benchmark from "
                 "a checkout of the repository")
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


if __name__ == "__main__":
    _bootstrap()
    sys.exit(main())
