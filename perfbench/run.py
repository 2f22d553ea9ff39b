"""Benchmark of the qrtorsion library: generate, verify and batch --corrupt.

Usage, from the root of the repository:

    python3 perfbench/run.py                      # every workload, untraced
                                                  # then traced, with checks
    python3 perfbench/run.py --workload lift-page2-f7 --seed 3 \\
        --seconds 25 --trace 0
    python3 perfbench/smoke.py                    # checks the benchmark

One process and one thread drive the library as a closed loop with one
client: the next op starts when the previous one has returned.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
wraps the library's public functions (see tracer.py) and reports per-layer
metrics, then replays the first ops untraced to check that tracing changed
no output.  The last line of standard output is one JSON object with the
metrics BENCHMARK.json names; the lines before it are a readable report
with every metric.  The exit code is 0 when every correctness check passed,
1 when one failed and 2 when the benchmark cannot run.

End-to-end times are scaled to a nominal machine speed measured by a
reference kernel between ops (see reference.py); the measured times are
reported beside them under ``raw.``.  Per-layer times are as measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

import tracer as tracing                                     # noqa: E402
from reference import NOMINAL_MS, SpeedProbe                 # noqa: E402
from workloads import WORKLOADS, CheckFailed, Lib, OpResult  # noqa: E402


class Loop:
    """Timings, counts and the corpus digest of one timed loop.  The timing
    lists hold one entry per op that passed, ``spans`` its start and end."""

    def __init__(self):
        self.op_ms, self.generate_ms, self.verify_ms = [], [], []
        self.spans = []
        self.attempted = self.failed = 0
        self.mutants = self.detected = self.unmutatable = 0
        self.errors = []
        self.elapsed = 0.0
        self.digest = None
        self.probe = SpeedProbe()


def run_loop(wl, lib, inputs, seconds, tracer=None, max_ops=None):
    """Run ops until ``seconds`` have passed and the digest corpus is done.

    An op that raises counts as failed and the loop goes on.  With
    ``max_ops`` the loop runs exactly that many ops and ignores the clock.
    Between ops, untimed, the reference kernel samples the machine's speed.
    """
    loop = Loop()
    loop.probe.sample()
    digest = hashlib.sha256()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while (i < max_ops if max_ops is not None
           else i < wl.digest_ops or time.perf_counter() < deadline):
        res = OpResult()
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            wl.op(lib, inputs, i, res)
        except Exception as e:  # a failing op is counted; the run goes on
            loop.failed += 1
            kind = "check" if isinstance(e, CheckFailed) else "error"
            loop.errors.append(f"op {i}: {kind}: {e}")
            if len(loop.errors) == 1:
                traceback.print_exc(file=sys.stderr)
        else:
            t1 = time.perf_counter()
            loop.op_ms.append((t1 - t0) * 1e3)
            loop.spans.append((t0, t1))
            loop.generate_ms.append(res.generate_ms)
            loop.verify_ms.append(res.verify_ms)
        finally:
            if tracer is not None:
                tracer.end_op()
        loop.attempted += 1
        loop.mutants += res.mutants
        loop.detected += res.detected
        loop.unmutatable += res.unmutatable
        if i < wl.digest_ops:
            for text in res.texts:
                digest.update(text.encode())
        i += 1
        loop.probe.maybe_sample()
    loop.elapsed = time.perf_counter() - start - loop.probe.spent_s()
    loop.digest = digest.hexdigest()
    return loop


class Setup:
    """The set-up reps' times and spans, and the speed samples around them."""

    def __init__(self):
        self.times, self.spans = [], []
        self.probe = SpeedProbe()


def setup(wl, seed):
    """Set the workload up ``setup_reps`` times, each from a fresh import of
    the library; returns the live library, the op inputs and a Setup."""
    st, reps = Setup(), []
    for rep in range(wl.setup_reps):
        st.probe.sample_burst()
        t0 = time.perf_counter()
        lib = Lib()
        reps.append(wl.setup(lib, seed, rep, st.probe.sample))
        t1 = time.perf_counter()
        st.times.append(t1 - t0)
        st.spans.append((t0, t1))
    st.probe.sample_burst()
    return lib, wl.merge(reps), st


# -- statistics ------------------------------------------------------------

def tail(values):
    """(percentile, value): the highest whole percentile, at least the
    median, with at least ten samples above it; None when there are too few
    samples."""
    n = len(values)
    if n < 20:
        return None
    p = 100 * (n - 10) // n
    return p, sorted(values)[math.ceil(p * n / 100) - 1]


def scaled(probe, values, spans):
    """Each value divided by the machine's slowdown around its span."""
    return [v / probe.slowdown(t0, t1) for v, (t0, t1) in zip(values, spans)]


def timing(metrics, notes, name, values, adjusted, unit="ms"):
    """Median and tail of the values scaled to nominal machine speed, and of
    the measured ones under ``raw.``."""
    if not values:
        return
    t = tail(values)
    if t is None:
        notes.append(f"{name}.tail n/a: {len(values)} samples, fewer than 20")
    else:
        notes.append(f"{name}.tail is p{t[0]} of {len(values)} samples")
    for prefix, vals in (("", adjusted), ("raw.", values)):
        metrics[f"{prefix}{name}.p50"] = (statistics.median(vals), unit)
        if t is not None:
            metrics[f"{prefix}{name}.tail"] = (tail(vals)[1], unit)


def end_to_end(wl, inputs, loop, st):
    """End-to-end metrics.  Each time is scaled to nominal machine speed by
    the reference kernel's slowdown around it; the measured values are kept
    under ``raw.``."""
    metrics, notes = {}, []
    metrics["machine.slowdown.setup"] = (st.probe.slowdown(), "ratio")
    metrics["machine.slowdown.loop"] = (loop.probe.slowdown(), "ratio")
    notes.append(f"times are scaled to a machine on which the reference "
                 f"kernel takes {NOMINAL_MS:g} ms")
    setup_adj = scaled(st.probe, st.times, st.spans)
    metrics["setup_s"] = (statistics.median(setup_adj), "s")
    metrics["raw.setup_s"] = (statistics.median(st.times), "s")
    op_adj = scaled(loop.probe, loop.op_ms, loop.spans)
    timing(metrics, notes, "op_ms", loop.op_ms, op_adj)
    ops_per_s = len(loop.op_ms) / loop.elapsed
    speedup = sum(loop.op_ms) / sum(op_adj) if op_adj else 1.0
    metrics["ops_per_s"] = (ops_per_s * speedup, "1/s")
    metrics["raw.ops_per_s"] = (ops_per_s, "1/s")
    if "generate" in inputs:
        notes.append("generate_ms is timed in set-up")
        spans = [(t0, t1) for t0, t1, _ in inputs["generate"]]
        gen = [ms for _, _, ms in inputs["generate"]]
        timing(metrics, notes, "generate_ms", gen, scaled(st.probe, gen, spans))
    else:
        timing(metrics, notes, "generate_ms", loop.generate_ms,
               scaled(loop.probe, loop.generate_ms, loop.spans))
    timing(metrics, notes, "verify_ms", loop.verify_ms,
           scaled(loop.probe, loop.verify_ms, loop.spans))
    metrics["failed_frac"] = (loop.failed / loop.attempted, "fraction")
    if loop.mutants:
        metrics["mutants_detected_frac"] = (loop.detected / loop.mutants,
                                            "fraction")
        metrics["mutants_skipped"] = (loop.unmutatable, "count")
        notes.append("mutants_skipped counts clean instances with a zero d2, "
                     "which mutate_d2 refuses")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics, notes


def per_layer(tr, loop, overhead):
    """Per-op means of every layer's calls and self time, plus counters."""
    metrics = {}
    ops = max(loop.attempted, 1)
    for layer, (calls, self_ns, raised) in tr.stats.items():
        if layer == tracing.ROOT_SPAN:
            continue
        metrics[f"{layer}.calls"] = (calls / ops, "count")
        metrics[f"{layer}.self_s"] = (self_ns / ops / 1e9, "s")
        if raised:
            metrics[f"{layer}.raised"] = (raised / ops, "count")
    c = tr.counters
    for name in ("linalg.rref.entries", "linalg.matrix_new.calls",
                 "models.solve_leibniz_derivation.entries",
                 "models.lift.attempts", "models.lift.lifts"):
        metrics[name] = (c[name] / ops, "count")
    metrics["linalg.rref.max_entries"] = (c["linalg.rref.max_entries"], "count")
    if c["models.lift.attempts"]:
        metrics["models.lift.useful_ratio"] = (
            c["models.lift.lifts"] / c["models.lift.attempts"], "ratio")
    verifies = tr.stats["verifier.verify_main_theorem"][0]
    if verifies:
        metrics["spectral.page1.per_verify"] = (
            c["verify.page1.calls"] / verifies, "count")
        metrics["spectral.Contraction.per_verify"] = (
            c["verify.Contraction.calls"] / verifies, "count")
    metrics["trace.unattributed_s"] = (
        tr.stats[tracing.ROOT_SPAN][1] / ops / 1e9, "s")
    metrics["trace.op_ms.p50"] = (statistics.median(loop.op_ms) if loop.op_ms
                                  else 0.0, "ms")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


# -- one workload --------------------------------------------------------------

def traced(wl, lib, inputs, seconds, seed, untraced=None):
    """A traced run; its digest and op median are compared with an untraced
    loop over the same inputs (replayed here when none is given)."""
    tr = tracing.Tracer()
    tr.install()
    try:
        loop = run_loop(wl, lib, inputs, seconds, tracer=tr)
    finally:
        tr.uninstall()
    problems = [f"wrapper left after uninstall: {name}"
                for name in tracing.leftover_wrappers()]
    n = len(loop.op_ms)
    if untraced is None:
        n = min(wl.digest_ops, loop.attempted)
        untraced = run_loop(wl, lib, inputs, 0, max_ops=n)
    if untraced.digest != loop.digest:
        problems.append(f"corpus_digest differs: traced {loop.digest}, "
                        f"untraced {untraced.digest}")
    # scaling each loop by its own speed samples cancels a change of machine
    # speed between the two loops
    base = (statistics.median(scaled(untraced.probe, untraced.op_ms,
                                     untraced.spans))
            if untraced.op_ms else 0.0)
    traced_p50 = (statistics.median(scaled(loop.probe, loop.op_ms[:n],
                                           loop.spans[:n]))
                  if loop.op_ms else 0.0)
    overhead = traced_p50 / base if base else 0.0
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{wl.name}-s{seed}.json"
    tr.write(path, {"workload": wl.name, "seed": seed, "ops": loop.attempted})
    return loop, per_layer(tr, loop, overhead), problems, tr, path.relative_to(ROOT)


def report(title, wl, loop, metrics, notes):
    print(f"== {wl.name} ({title}): {loop.attempted} ops in "
          f"{loop.elapsed:.2f} s, {loop.failed} failed")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"  {name:<48} {value:>14.6g} {unit}")
    for note in notes:
        print(f"  note: {note}")
    print(f"  corpus_digest {loop.digest} (first {wl.digest_ops} ops)")
    for err in loop.errors[:5]:
        print(f"  FAILED {err}")


def report_paths(tr, loop, limit=12):
    total = sum(tr.paths.values()) or 1
    ops = max(loop.attempted, 1)
    print("  top self time by call path (per op; share of traced time):")
    for path, ns in sorted(tr.paths.items(), key=lambda kv: -kv[1])[:limit]:
        print(f"  {ns / ops / 1e9:>10.6f} s {100 * ns / total:5.1f}%  {path}")
    untraced_mods = ", ".join(tracing.UNTRACED_MODULES)
    print(f"  not traced: {untraced_mods} (on no generate/verify/batch path)")


def select(metrics, names):
    """The listed metrics, in the JSON form of the result line."""
    out = {}
    for name in names:
        if name in metrics:
            value, unit = metrics[name]
            out[name] = {"value": value, "unit": unit}
    return out


def load_config():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def check_library():
    """Import the library from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "qrtorsion" / "__init__.py").is_file():
        raise RuntimeError(f"no qrtorsion sources under {src}")
    sys.path.insert(0, str(src))
    import qrtorsion
    if Path(qrtorsion.__file__).resolve().parent != (src / "qrtorsion").resolve():
        raise RuntimeError(f"qrtorsion imported from {qrtorsion.__file__}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed loop length (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    try:
        config = load_config()
        check_library()
    except (OSError, ValueError, RuntimeError, ImportError) as e:
        print(f"perfbench: cannot run: {e}", file=sys.stderr)
        return 2
    seconds = config["run_seconds"] if args.seconds is None else args.seconds
    e2e_names = [m["name"] for m in config["end_to_end"]]
    layer_names = [m["name"] for m in config["per_layer"]]

    if args.workload != "all":
        wl = WORKLOADS[args.workload]
        lib, inputs, setup_result = setup(wl, args.seed)
        if args.trace:
            loop, metrics, problems, tr, path = traced(wl, lib, inputs, seconds,
                                                       args.seed)
            report("traced", wl, loop, metrics, [f"spans written to {path}"])
            report_paths(tr, loop)
            names = layer_names
        else:
            loop = run_loop(wl, lib, inputs, seconds)
            metrics, notes = end_to_end(wl, inputs, loop, setup_result)
            report("untraced", wl, loop, metrics, notes)
            problems, names = [], e2e_names
        for problem in problems:
            print(f"  FAILED {problem}")
        correct = loop.failed == 0 and not problems
        print(json.dumps({"correct": correct, "attempted": loop.attempted,
                          "failed": loop.failed,
                          "metrics": select(metrics, names)}))
        return 0 if correct else 1

    print(f"python {platform.python_version()}, {os.cpu_count()} cpus, "
          f"{platform.machine()}, seed {args.seed}, {seconds:g} s per loop")
    correct, attempted, failed, summary = True, 0, 0, {}
    for wl in WORKLOADS.values():
        lib, inputs, setup_result = setup(wl, args.seed)
        loop = run_loop(wl, lib, inputs, seconds)
        metrics, notes = end_to_end(wl, inputs, loop, setup_result)
        report("untraced", wl, loop, metrics, notes)
        tloop, layers, problems, tr, path = traced(wl, lib, inputs, seconds,
                                                   args.seed, untraced=loop)
        report("traced", wl, tloop, layers, [f"spans written to {path}"])
        report_paths(tr, tloop)
        for problem in problems:
            print(f"  FAILED {problem}")
        correct &= loop.failed == 0 and tloop.failed == 0 and not problems
        attempted += loop.attempted + tloop.attempted
        failed += loop.failed + tloop.failed
        for name, m in select(metrics, e2e_names + ["failed_frac",
                                                    "mutants_detected_frac"]).items():
            summary[f"{wl.name}:{name}"] = m
        summary[f"{wl.name}:trace.overhead_ratio"] = select(
            layers, ["trace.overhead_ratio"])["trace.overhead_ratio"]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": summary}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
