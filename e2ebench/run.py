#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see README.md beside this file).

    python3 e2ebench/run.py --workload kernels|batch|serve --seed N \
        --seconds S --trace 0|1
    python3 e2ebench/run.py --repeat-check [--seconds S]

Builds the shipped `serve` daemon and the benchmark binary in release
mode (into $CARGO_TARGET_DIR, default `.bench_build` at the repository
root), then runs one measurement.  The last line of standard output is
the result object; build output goes to standard error.

`--repeat-check` runs every workload twice with one seed and once with
another, and checks that the exact counts and the success ratio repeat,
that the second seed changes the batch corpus and the serve requests,
and that it leaves the kernel set alone.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kernels", "batch", "serve")
# A run measures for --seconds; set-up, checks and the traced run's
# extra phases stay well inside this limit.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    return 2


def build(env):
    """Builds the daemon and the benchmark; returns whether both built."""
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "s1lisp-server", "--bin", "serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            return False
    return True


def measure(target, workload, seed, seconds, trace):
    """Runs one measurement; returns (exit code, stdout lines)."""
    cmd = [
        os.path.join(target, "release", "e2ebench"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--spec", os.path.join(ROOT, "BENCHMARK.json"),
        "--serve-bin", os.path.join(target, "release", "serve"),
        "--out", os.path.join(ROOT, ".bench_out"),
    ]
    # A process group of its own, so a run that overstays its limit is
    # killed together with the daemon it spawned.
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        print("e2ebench: run exceeded its time limit", file=sys.stderr)
        return 1, []
    return p.returncode, out.splitlines()


def repeat_check(target, seconds):
    """Two short runs with seed 1 and one with seed 2 per workload."""
    exact = ("sim_insns", "code_words", "success_ratio")
    digests = {"kernels": ("kernel_set", False), "batch": ("corpus", True),
               "serve": ("serve_scripts", True)}
    ok = True
    for workload in WORKLOADS:
        records = []
        for seed in (1, 1, 2):
            code, lines = measure(target, workload, seed, seconds, 0)
            if code != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: run failed", file=sys.stderr)
                return False
            records.append(json.loads(lines[-2])["record"])
        a, b, c = records
        for name in exact:
            same = a["metrics"][name]["value"] == b["metrics"][name]["value"]
            ok &= same
            print(f"{workload}: {name} repeats with one seed: {same}")
        key, should_change = digests[workload]
        changed = a[key] != c[key]
        ok &= changed == should_change
        verb = "changes" if changed else "keeps"
        print(f"{workload}: a second seed {verb} {key}"
              f" ({'as expected' if changed == should_change else 'WRONG'})")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--repeat-check", action="store_true")
    args = p.parse_args()
    if not args.repeat_check and None in (args.workload, args.seed,
                                          args.seconds, args.trace):
        return fail("--workload, --seed, --seconds and --trace are required")
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        return fail("the repository's crates are missing; run from a checkout")

    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    if not build(env):
        return fail("build failed")

    if args.repeat_check:
        return 0 if repeat_check(target, args.seconds or 3) else 1
    code, lines = measure(target, args.workload, args.seed, args.seconds,
                          args.trace)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
