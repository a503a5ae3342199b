"""Compare two commits on the benchmark: parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR --pairs 10 --out pairs.jsonl
    python3 perfbench/compare.py --load pairs.jsonl

Each directory is the root of a checkout of one commit. Both sides run this
copy of the benchmark, so benchmark code and settings are identical; only
the program under ./src differs. Pair i runs every workload with seed i on
both sides, parent first in even pairs and change first in odd ones.

The table has one row per workload and end-to-end metric, with each side's
quartiles, the change's wins and a verdict (choosing-metrics guide, s. 8):

- improved: the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the parent's quartile
  distance; or, where the parent's spread exceeds the bound, every change
  run reads better than every parent run;
- regressed: the change's median is worse than the parent's by more than
  the metric's bound;
- unresolved: the parent's own spread exceeds the bound, and not every
  change run is better;
- unchanged: otherwise.

A gain does not count on a workload where the change fails more
operations than the parent; the table says so.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import quartiles, spread

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
WIN_SHARE = 0.9


def load_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_side(root: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {workload} seed {seed} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pairs(parent: Path, change: Path, pairs: int, spec: dict, out: Path) -> list[dict]:
    rows = []
    with out.open("w") as fh:
        for seed in range(pairs):
            sides = [("parent", parent), ("change", change)]
            if seed % 2:
                sides.reverse()
            for w in spec["workloads"]:
                for side, root in sides:
                    row = {"pair": seed, "side": side, "workload": w["name"],
                           "result": run_side(root, w["name"], seed, spec["run_seconds"])}
                    fh.write(json.dumps(row) + "\n")
                    fh.flush()
                    rows.append(row)
                    print(f"pair {seed} {w['name']} {side} done", file=sys.stderr)
    return rows


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, int]:
    """Verdict and win count for paired runs of one metric."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    if spread(parent) > bound:
        return ("improved" if all_better else "unresolved"), wins
    if wins >= WIN_SHARE * len(parent) and sign * (cmed - pmed) > pq3 - pq1:
        return "improved", wins
    if sign * (cmed - pmed) < -bound * abs(pmed):
        return "regressed", wins
    return "unchanged", wins


def table(rows: list[dict], spec: dict) -> None:
    print(f"{'workload':<22} {'metric':<12} {'parent q1/med/q3':<32} "
          f"{'change q1/med/q3':<32} {'wins':<6} verdict")
    for w in spec["workloads"]:
        by_pair: dict[int, dict[str, dict]] = {}
        for r in rows:
            if r["workload"] == w["name"]:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
        done = [p for p in by_pair.values() if len(p) == 2]
        if not done:
            continue
        failed = {s: sum(p[s]["failed"] for p in done) for s in ("parent", "change")}
        for m in spec["end_to_end"]:
            parent = [p["parent"]["metrics"][m["name"]]["value"] for p in done]
            change = [p["change"]["metrics"][m["name"]]["value"] for p in done]
            result, wins = verdict(parent, change, m["better"], m["bound"])
            if result == "improved" and failed["change"] > failed["parent"]:
                result = "not counted: more failures"
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{w['name']:<22} {m['name']:<12} {fmt.format(*quartiles(parent)):<32} "
                  f"{fmt.format(*quartiles(change)):<32} {wins}/{len(done):<4} {result}")
        print(f"{w['name']:<22} {'failed':<12} parent {failed['parent']}, change {failed['change']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", nargs="?", type=Path)
    parser.add_argument("change", nargs="?", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, default=HERE / "out" / "pairs.jsonl")
    parser.add_argument("--load", type=Path, help="print the table of saved pairs")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.load:
        rows = [json.loads(line) for line in args.load.read_text().splitlines()]
    elif args.parent and args.change:
        args.out.parent.mkdir(exist_ok=True)
        rows = run_pairs(args.parent.resolve(), args.change.resolve(), args.pairs, spec, args.out)
    else:
        parser.error("give PARENT_DIR and CHANGE_DIR, or --load")
    table(rows, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
