#!/usr/bin/env python3
"""Build and run the DEBAR repository benchmark (see README.md).

One run, from the root of the repository:

    python3 perfbench/run.py --workload nightly --seed 1 --seconds 10 --trace 0

The last line of standard output is the run's JSON result. The spread
report runs each workload --repeat times with consecutive seeds and prints,
per metric, the median, quartiles, min/max and sample count:

    python3 perfbench/run.py --repeat 10 --workload nightly,ingest,restore --seconds 10

Everything the benchmark builds or writes stays under .bench_build/ in the
repository: the Go build cache, the binary, generated inputs, the stores
of the deployments under test and the span files of traced runs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench", "perfbench")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        # The go command's own state (env file, telemetry counters) lives
        # under the user config directory; keep it in the checkout too.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def build():
    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", BIN, "."], cwd=HERE, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(2)


def command(workload, seed, seconds, trace):
    return [BIN, "-workload", workload, "-seed", str(seed), "-seconds", str(seconds),
            "-trace", str(trace), "-work", os.path.join(BUILD, "perfbench")]


def spread(args):
    """Runs every workload args.repeat times per set and prints the spread."""
    workloads = args.workload.split(",")
    samples = {}  # (set, workload) -> {metric: [values]}
    for s in range(args.sets):
        for i in range(args.repeat):
            seed = args.seed + s * args.repeat + i
            for w in workloads:
                proc = subprocess.run(command(w, seed, args.seconds, args.trace), cwd=ROOT,
                                      stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.stderr.write(proc.stdout)
                    sys.exit(f"perfbench: {w} seed {seed} failed with exit code {proc.returncode}")
                res = json.loads(lines[-1])
                for name, m in res["metrics"].items():
                    samples.setdefault((s, w), {}).setdefault(name, []).append(m["value"])
                brief = " ".join(f"{k}={m['value']:.4g}" for k, m in sorted(res["metrics"].items()))
                print(f"set {s + 1} {w} seed {seed}: {brief}", file=sys.stderr, flush=True)
    print(f"{'set':>3} {'workload':<8} {'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'min':>12} {'max':>12} {'n':>3}")
    for (s, w), metrics in sorted(samples.items()):
        for name, vals in metrics.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0], 0, vals[0])
            rel = (q3 - q1) / med if med else 0.0
            print(f"{s + 1:>3} {w:<8} {name:<30} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{rel:8.4f} {min(vals):12.4f} {max(vals):12.4f} {len(vals):>3}")
    if args.sets > 1:
        print("median of the last set relative to the first:")
        for w in workloads:
            for name, vals in samples[(0, w)].items():
                first = statistics.median(vals)
                last = statistics.median(samples[(args.sets - 1, w)][name])
                shift = (last - first) / first if first else 0.0
                print(f"    {w:<8} {name:<30} {shift:+8.4f}")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, help="nightly, ingest or restore (comma-separated with --repeat)")
    p.add_argument("--seed", type=int, default=1, help="input seed (first seed with --repeat)")
    p.add_argument("--seconds", type=float, default=10, help="length of the measured phase")
    p.add_argument("--trace", type=int, default=0, choices=(0, 1), help="1: traced run with per-layer metrics")
    p.add_argument("--repeat", type=int, default=0, help="spread report: runs per workload and set")
    p.add_argument("--sets", type=int, default=1, help="spread report: sets of --repeat runs to compare")
    args = p.parse_args()
    build()
    if args.repeat > 0:
        spread(args)
        return
    # The benchmark replaces this process, so a signal to it reaches the run.
    os.chdir(ROOT)
    os.execv(BIN, command(args.workload, args.seed, args.seconds, args.trace))


if __name__ == "__main__":
    main()
