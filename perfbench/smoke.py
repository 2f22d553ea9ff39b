"""Quick check of the benchmark itself, at tiny sizes (a few seconds).

    python3 perfbench/smoke.py

For each workload it checks that every metric BENCHMARK.json names is
emitted with its unit, that no op fails, that a traced run leaves every
binding of the library as it found it, and that tracing does not change the
corpus digest.  Every traced layer must be reached by some workload.  It
also checks that the benchmark refuses to run, without a result line, in a
directory holding only BENCHMARK.json and perfbench/.
Exit code 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import run
import tracer as tracing
from workloads import BatchCorruptF5, LiftPage2F7, VerifyPage3Q

TINY = [LiftPage2F7(b=3, digest_ops=3, setup_reps=2),
        VerifyPage3Q(b=2, docs_per_rep=2, setup_reps=2),
        BatchCorruptF5(digest_ops=3, setup_reps=2)]


def bindings():
    """Every attribute of the library's modules and classes, by identity."""
    out = {}
    for modname, mod in tracing.package_modules().items():
        for name, value in vars(mod).items():
            out[(modname, name)] = value
            if isinstance(value, type) and value.__module__ == modname:
                for meth, fn in vars(value).items():
                    out[(modname, name, meth)] = fn
    return out


def missing(metrics, specs):
    """Metrics named in BENCHMARK.json that are absent or carry another unit."""
    return [f"{m['name']} [{m['unit']}]" for m in specs
            if metrics.get(m["name"], (None, None))[1] != m["unit"]]


def check_workload(wl, config, reached):
    problems = []
    lib, inputs, setup_result = run.setup(wl, seed=5)
    loop = run.run_loop(wl, lib, inputs, 0)
    metrics, _notes = run.end_to_end(wl, inputs, loop, setup_result)
    problems += [f"end-to-end metric missing: {m}"
                 for m in missing(metrics, config["end_to_end"])]
    before = bindings()
    tloop, layers, traced_problems, tr, path = run.traced(
        wl, lib, inputs, 0, seed=5, untraced=loop)
    (run.ROOT / path).unlink()
    problems += traced_problems
    after = bindings()
    changed = [".".join(k) for k in before if after.get(k) is not before[k]]
    problems += [f"binding not restored: {name}" for name in changed]
    problems += [f"per-layer metric missing: {m}"
                 for m in missing(layers, config["per_layer"])]
    problems += loop.errors + tloop.errors
    reached.update(layer for layer, stat in tr.stats.items() if stat[0])
    if tloop.attempted != loop.attempted:
        problems.append("traced and untraced loops ran different op counts")
    return problems


def check_bare_directory(config):
    """The benchmark must exit nonzero, printing no result, without src/."""
    bare = run.OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [*config["command"], "--workload", "batch-corrupt-f5", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"ran without src/: exit {proc.returncode}, "
                f"stdout {proc.stdout.strip()[:200]!r}"]
    return []


def main():
    config = run.load_config()
    run.check_library()
    run.OUT_DIR.mkdir(exist_ok=True)
    failures = 0

    def verdict(title, problems):
        nonlocal failures
        failures += len(problems)
        print(f"{'PASS' if not problems else 'FAIL'} {title}")
        for p in problems:
            print(f"  {p}")

    reached = set()
    for wl in TINY:
        verdict(wl.name, check_workload(wl, config, reached))
    verdict("every traced layer is reached by some workload",
            [f"never called: {layer}" for _, _, layer in tracing.TRACED
             if layer not in reached])
    verdict("refuses to run without src/", check_bare_directory(config))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
