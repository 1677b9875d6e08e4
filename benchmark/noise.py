#!/usr/bin/env python3
"""Run the benchmark as the driver does, ten seeds per workload, and print
for every end-to-end metric the median and the quartile spread (IQR / median,
`statistics.quantiles(v, n=4)`) beside its bound.

    python3 benchmark/noise.py out.json [first_seed] [--against other.json]

Run it from the repository root. `out.json` keeps every run's metrics, so two
sets of the same commit can be compared: `--against` also prints how far this
set's medians lie from the other's (positive = worse).
"""
import json
import statistics
import subprocess
import sys

SEEDS = 10


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    args = sys.argv[1:]
    against = None
    if "--against" in args:
        i = args.index("--against")
        against = json.load(open(args[i + 1]))
        del args[i : i + 2]
    out_path = args[0]
    first_seed = int(args[1]) if len(args) > 1 else 1
    manifest = json.load(open("BENCHMARK.json"))
    runs = {}
    for workload in (w["name"] for w in manifest["workloads"]):
        runs[workload] = []
        for seed in range(first_seed, first_seed + SEEDS):
            command = manifest["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(manifest["run_seconds"]), "--trace", "0",
            ]  # fmt: skip
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} failed operations")
            row = {name: m["value"] for name, m in result["metrics"].items()}
            runs[workload].append({"seed": seed, "attempted": result["attempted"], **row})
        for m in manifest["end_to_end"]:
            values = [r[m["name"]] for r in runs[workload]]
            line = (
                f"{workload:<14} {m['name']:<13} median {statistics.median(values):>11.4f} "
                f"{m['unit']:<4} spread {spread(values) * 100:5.2f} % of bound {m['bound'] * 100:4.1f} %"
            )
            if against:
                other = statistics.median(r[m["name"]] for r in against[workload])
                line += f"  drift {(statistics.median(values) / other - 1) * 100:+5.2f} %"
            print(line, flush=True)
    json.dump(runs, open(out_path, "w"), indent=1)


if __name__ == "__main__":
    main()
