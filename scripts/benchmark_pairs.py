#!/usr/bin/env python3
"""Alternated base-vs-working-tree pairs of `benchmark run` (make benchmark-pairs).

Exports BASE's committed files under the git-ignored .bench_build/,
builds the benchmark package there and in the working tree (putting each
tree's frozen benchmark/Cargo.lock back afterwards), runs both
N times — which side goes first alternates pair by pair, because this
host's speed steps between two levels every few seconds — and prints,
per workload x end-to-end metric: each side's median and [Q1-Q3], in how
many pairs the change read better (ties count for neither), the verdict
of the choosing-metrics guide's section 8 rule, and every run made.
Run length, metrics, directions and bounds are BENCHMARK.json's.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"


def sh(*cmd, cwd=ROOT, **kw):
    return subprocess.run([str(c) for c in cmd], cwd=cwd, check=True, **kw)


def export_base(rev):
    """BASE's tree under .bench_build/base-<sha>, exported once."""
    sha = sh("git", "rev-parse", "--verify", f"{rev}^{{commit}}", capture_output=True, text=True)
    sha = sha.stdout.strip()
    tree = BUILD / f"base-{sha[:12]}"
    if not (tree / "benchmark" / "Cargo.toml").exists():
        tree.mkdir(parents=True, exist_ok=True)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
        sh("tar", "-x", "-C", tree, stdin=archive.stdout)
        if archive.wait() != 0:
            sys.exit(f"git archive {sha} failed")
    return sha, tree


def build(tree):
    """Build tree's benchmark binary, leaving its frozen Cargo.lock as it was:
    cargo rewrites the lock when a workspace crate's dependencies moved."""
    lock = tree / "benchmark" / "Cargo.lock"
    frozen = lock.read_bytes()
    try:
        sh("cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", tree / "benchmark" / "Cargo.toml")
    finally:
        lock.write_bytes(frozen)
    return tree / "benchmark" / "target" / "release" / "vapro-benchmark"


def run(binary, tree, out, seed, workload):
    """One `benchmark run`; returns result.json's workloads table."""
    cmd = [binary, "run", "--seed", seed, "--out", out]
    if workload:
        cmd += ["--workload", workload]
    done = subprocess.run([str(c) for c in cmd], cwd=tree, stdout=subprocess.DEVNULL)
    if done.returncode not in (0, 1):  # 1 = an output check failed; still recorded
        sys.exit(f"{binary} exited {done.returncode}")
    return json.loads((out / "result.json").read_text())["workloads"]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="revision to compare the working tree against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", default="1")
    ap.add_argument("--workload", default=None, help="one workload (default: all)")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sha, base_tree = export_base(args.base)
    sides = {"base": (build(base_tree), base_tree), "change": (build(ROOT), ROOT)}
    print(f"base {sha[:12]} vs working tree, seed {args.seed}, {args.pairs} pairs "
          f"of {spec['run_seconds']} s runs, order alternated", flush=True)

    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            binary, tree = sides[side]
            out = BUILD / "pairs" / f"{side}-{i}"
            runs[side].append(run(binary, tree, out, args.seed, args.workload))
            print(f"  pair {i + 1}/{args.pairs}: {side} done", flush=True)

    for wl in runs["base"][0]:
        per_side = {side: [r[wl] for r in rs] for side, rs in runs.items()}
        print(f"\n== {wl} ==")
        for side, rs in per_side.items():
            digests = sorted({r["report_digest"] for r in rs})
            failed = sum(r["failed"] for r in rs)
            correct = all(r["correct"] for r in rs)
            print(f"  {side:6s} report_digest {' '.join(digests)}  failed {failed}  correct {correct}")
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            b = [r["end_to_end"][name]["value"] for r in per_side["base"]]
            c = [r["end_to_end"][name]["value"] for r in per_side["change"]]
            wins = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
            ties = sum(x == y for x, y in zip(b, c))
            (bq1, bmed, bq3), (cq1, cmed, cq3) = quartiles(b), quartiles(c)
            better = cmed < bmed if lower else cmed > bmed
            worse_by = ((cmed - bmed) if lower else (bmed - cmed)) / bmed if bmed else 0.0
            if better and wins >= 0.9 * len(b) and abs(cmed - bmed) > bq3 - bq1:
                verdict = "meets the section-8 rule (>= 9/10 pairs, medians apart by more than base IQR)"
            elif worse_by > m["bound"]:
                verdict = f"WORSE than the {m['bound']:.0%} bound"
            else:
                verdict = "within bound"
            print(f"  {name} [{m['unit']}, {m['better']} is better]")
            print(f"    base   median {bmed:.6g} [{bq1:.6g} - {bq3:.6g}]")
            print(f"    change median {cmed:.6g} [{cq1:.6g} - {cq3:.6g}]  "
                  f"({(cmed - bmed) / bmed if bmed else 0.0:+.1%})")
            print(f"    change better in {wins}/{len(b)} pairs, {ties} ties: {verdict}")
            print(f"    base   runs {' '.join(f'{x:.6g}' for x in b)}")
            print(f"    change runs {' '.join(f'{x:.6g}' for x in c)}")


if __name__ == "__main__":
    main()
