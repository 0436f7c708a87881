"""Compare a parent checkout with a change on one workload.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR --workload nqs-g50 \
        --seeds 100-109 --seconds 30

Both directories are full checkouts (``git clone`` or ``git archive``
copies). For each seed it runs ``bench/run.py`` untraced in both, parent
first on even-numbered pairs and change first on odd ones, and prints
every end-to-end metric's median and quartiles on each side, how many
pairs the change won, and a verdict:

- ``gain``: over at least 10 pairs, the change won at least 9 of every 10
  and the medians differ by more than the parent's own interquartile range;
- ``regression``: the change's median is worse than the parent's by more
  than the bound in BENCHMARK.json;
- ``unresolved``: the parent's own spread is wider than the bound, and
  not every change run beat every parent run;
- ``same`` otherwise.

It exits 1 if the benchmark files differ between the two checkouts, or if
the two sides fail different numbers of solves.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles


def run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True,
                         timeout=200 + 2 * seconds)
    return json.loads(out.stdout.strip().splitlines()[-1])


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench_files(root: Path) -> dict:
    files = {"BENCHMARK.json": (root / "BENCHMARK.json").read_bytes()}
    for path in sorted((root / "bench").glob("*.py")):
        files[path.name] = path.read_bytes()
    return files


def verdict(parent, change, lower_is_better: bool, bound: float) -> tuple[str, int]:
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_med, c_med = median(parent), median(change)
    q1, _, q3 = quantiles(parent, n=4)
    if sign * (c_med - p_med) > bound * abs(p_med):
        return "regression", wins
    if len(parent) >= 10 and wins >= 0.9 * len(parent) and abs(c_med - p_med) > q3 - q1:
        return "gain", wins
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if (q3 - q1) > bound * abs(p_med) and not all_better:
        return "unresolved", wins
    return "same", wins


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="100-109", help="inclusive range, e.g. 100-109")
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args()

    if bench_files(args.parent) != bench_files(args.change):
        print("the benchmark differs between the two checkouts", file=sys.stderr)
        return 1
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    seeds = seed_list(args.seeds)
    if len(seeds) < 4:
        ap.error("need at least 4 seeds for quartiles; 10 or more to claim a gain")

    results = {"parent": [], "change": []}
    for k, seed in enumerate(seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            root = args.parent if side == "parent" else args.change
            results[side].append(run(root, args.workload, seed, args.seconds))
            print(f"seed {seed} {side} done", file=sys.stderr)

    failed = {side: sum(r["failed"] for r in rs) for side, rs in results.items()}
    print(f"{args.workload}: {len(seeds)} pairs, failed solves {failed}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        result, wins = verdict(parent, change, metric["better"] == "lower", metric["bound"])
        pq, cq = quantiles(parent, n=4), quantiles(change, n=4)
        print(
            f"  {name:12s} parent {pq[1]:.5g} [{pq[0]:.5g}, {pq[2]:.5g}]  "
            f"change {cq[1]:.5g} [{cq[0]:.5g}, {cq[2]:.5g}]  "
            f"change won {wins}/{len(seeds)}  {result}"
        )
    correct = all(r["correct"] for rs in results.values() for r in rs)
    return 0 if correct and failed["parent"] == failed["change"] else 1


if __name__ == "__main__":
    sys.exit(main())
