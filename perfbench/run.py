#!/usr/bin/env python3
"""Builds and runs the trilist benchmark, one workload per process.

    python3 perfbench/run.py --workload mix_small --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25

Run from the repository root. `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer ones. Each run's last stdout line is a JSON
object with `correct`, `attempted`, `failed` and `metrics`; the run exits
non-zero if an answer was wrong, the in-process replay disagreed with the
socket, or the memory gauge failed its identity at rest. `--all` runs every
workload in its own process, once untraced and once traced, prints a
summary of both and exits non-zero if any run failed.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["mix_small", "mix_large", "edit_churn", "batch_matrix"]
# a run must end within 180 s; the build before it is not counted
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the benchmark binary and returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    if not os.path.isabs(target):
        target = os.path.join(os.getcwd(), target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if done.returncode != 0:
        raise SystemExit(f"build failed (cargo exit {done.returncode})")
    return os.path.join(target, "release", "trilist-perfbench")


def command_output(cmd):
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def stamp(seed):
    return {
        "seed": seed,
        "commit": command_output(["git", "rev-parse", "HEAD"]) or "unknown",
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
    }


def run_one(binary, workload, seed, seconds, trace, extra):
    """Runs one workload in its own process; returns (exit code, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + extra
    env = dict(os.environ, PERFBENCH_STAMP=json.dumps(stamp(seed)))
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, None
    lines = out.rstrip("\n").split("\n")
    result = None
    if lines and lines[-1].startswith("{"):
        result = lines.pop()
    for line in lines:
        print(line)
    return child.returncode, result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true",
                   help="run every workload, untraced and traced")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--wrong-reference", action="store_true",
                   help="corrupt the reference answers (the run must fail)")
    args = p.parse_args()
    if not args.all and not args.workload:
        p.error("name a --workload or pass --all")
    binary = build()
    extra = ["--wrong-reference"] if args.wrong_reference else []
    if not args.all:
        code, result = run_one(binary, args.workload, args.seed, args.seconds, args.trace, extra)
        if result is not None:
            print(result, flush=True)
        return code
    summary, worst = {}, 0
    for w in WORKLOADS:
        summary[w] = {}
        for trace in (0, 1):
            t0 = time.time()
            code, result = run_one(binary, w, args.seed, args.seconds, trace, extra)
            log(f"{w} --trace {trace}: exit {code} after {time.time() - t0:.1f} s")
            summary[w][f"trace{trace}"] = json.loads(result) if result else None
            worst = max(worst, code)
    print(json.dumps(summary), flush=True)
    return worst

if __name__ == "__main__":
    sys.exit(main())
