#!/usr/bin/env python3
"""Steadiness check of the AdaWave benchmark.

Run from the root of a checkout:

    python3 adabench/steady.py --seeds 1-10 [--workloads derm33d_60k,...] [--trace 0]

Runs the benchmark once per (workload, seed), one run at a time, and prints
for every metric the median of the runs and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound from BENCHMARK.json.
Every run's settings and result lines go to adabench/target/steady/. A
traced pass (--trace 1) also checks each run's label hashes against the
untraced run of the same seed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med) if med else float("inf")


def same_labels(out_dir, workload, seed, traced_info):
    """Tracing must change nothing: a traced run's label hashes must equal
    those of the untraced run of the same seed, rep by rep."""
    path = os.path.join(out_dir, f"{workload}-seed{seed}-trace0.json")
    if not os.path.exists(path):
        print(f"{workload} seed {seed}: no untraced run to compare labels with", flush=True)
        return True
    with open(path) as fh:
        untraced = json.loads(fh.readline())["label_hashes"]
    traced = traced_info["label_hashes"]
    common = sorted(set(untraced) & set(traced), key=int)
    differ = [r for r in common if untraced[r] != traced[r]]
    print(f"{workload} seed {seed}: label hashes of reps {common} "
          + (f"DIFFER at {differ}" if differ else "match the untraced run"), flush=True)
    return not differ


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    out_dir = os.path.join(HERE, "target", "steady")
    os.makedirs(out_dir, exist_ok=True)

    summary = {}
    ok = True
    for w in args.workloads.split(","):
        runs = []
        for s in seeds(args.seeds):
            t0 = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(s),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{w} seed {s}: run failed (exit {proc.returncode})", flush=True)
                ok = False
                continue
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            runs.append((s, info, result))
            with open(os.path.join(out_dir, f"{w}-seed{s}-trace{args.trace}.json"), "w") as fh:
                fh.write(lines[-2] + "\n" + lines[-1] + "\n")
            if args.trace == 1:
                ok &= same_labels(out_dir, w, s, info)
            walls = [round(r["wall_s"], 2) for r in info["reps"]]
            print(f"{w} seed {s}: {time.time() - t0:.0f} s, correct={result['correct']}, "
                  f"reps={walls}", flush=True)
            ok &= result["correct"]
        if not runs:
            continue
        summary[w] = {}
        for name in runs[0][2]["metrics"]:
            vals = [r[2]["metrics"][name]["value"] for r in runs]
            med, sp = spread(vals)
            bound = bounds.get(name)
            summary[w][name] = {"median": med, "spread": sp, "bound": bound, "values": vals}
            flag = ""
            if bound is not None and name != "setup_s" and not sp <= bound / 3:
                flag = "  <-- spread above a third of the bound"
            print(f"  {name:28s} median {med:14.6g}  spread {sp:7.2%}"
                  + (f"  bound {bound:.2f}" if bound is not None else "") + flag, flush=True)
    with open(os.path.join(out_dir, f"summary-trace{args.trace}.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
