#!/usr/bin/env python3
"""Compares two sets of rr-bench results (stdlib only).

    compare.py A_DIR B_DIR
        Median and quartiles of every workload x end-to-end metric on each
        side. Fails (exit 1) when a side's spread (quartile distance over
        median) exceeds the metric's BENCHMARK.json bound (setup_s exempt),
        or when B's median is worse than A's by more than the bound.

    compare.py --claim METRIC --workload W A_DIR B_DIR
        The rule for claiming that B (a change) beats A (its parent) on one
        metric: B wins at least 9/10 of the seed-matched pairs, ties
        counting for neither, and the medians differ by more than A's
        quartile distance. Exit 0 only when the claim holds.

    compare.py --run-pairs N --base CHECKOUT --head CHECKOUT --workload W \\
               --out DIR [--seed S] [--seconds S]
        Runs N pairs, alternating which side runs first, into DIR/base and
        DIR/head, then prints the comparison and the claim verdict of every
        end-to-end metric of W.

    compare.py --self-test
        Checks the rules above on synthetic inputs.

Result directories hold <workload>.seed<N>.trace0.json files, as written by
run.py --out.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RESULT_NAME = re.compile(r"^(?P<workload>[\w.-]+)\.seed(?P<seed>\d+)\.trace0\.json$")


def load_benchmark(path):
    spec = json.loads(Path(path).read_text())
    return {m["name"]: m for m in spec["end_to_end"]}, [w["name"] for w in spec["workloads"]]


def load_results(directory):
    """{workload: {seed: {metric: value}}} from a result directory."""
    results = {}
    for path in sorted(Path(directory).glob("*.trace0.json")):
        match = RESULT_NAME.match(path.name)
        if not match:
            continue
        lines = path.read_text().strip().splitlines()
        result = json.loads(lines[-1])
        values = {name: m["value"] for name, m in result["metrics"].items()}
        results.setdefault(match["workload"], {})[int(match["seed"])] = values
    return results


def summarize(values):
    """(median, q1, q3, spread) with spread = (q3 - q1) / median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return median, q1, q3, spread


def worse_by(base, head, better):
    """How much worse `head` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0 if head == base else float("inf")
    change = (head - base) / abs(base)
    return change if better == "lower" else -change


def compare(a, b, metrics, workloads):
    """Rows of (workload, metric, A summary, B summary, worse, verdict)."""
    rows = []
    for workload in workloads:
        if workload not in a or workload not in b:
            continue
        for name, spec in metrics.items():
            va = [run[name] for run in a[workload].values() if name in run]
            vb = [run[name] for run in b[workload].values() if name in run]
            if not va or not vb:
                continue
            sa, sb = summarize(va), summarize(vb)
            bound = spec["bound"]
            worse = worse_by(sa[0], sb[0], spec["better"])
            problems = []
            if name != "setup_s" and (sa[3] > bound or sb[3] > bound):
                problems.append("spread")
            if worse > bound:
                problems.append("worse")
            rows.append((workload, name, sa, sb, worse,
                         "ok" if not problems else "+".join(problems)))
    return rows


def claim(a_runs, b_runs, better):
    """The pairs rule. a_runs/b_runs: {seed: value}. Returns (holds, info)."""
    seeds = sorted(set(a_runs) & set(b_runs))
    wins = sum(1 for s in seeds
               if (b_runs[s] < a_runs[s] if better == "lower"
                   else b_runs[s] > a_runs[s]))
    a_values = [a_runs[s] for s in seeds]
    b_values = [b_runs[s] for s in seeds]
    if not seeds:
        return False, {"pairs": 0, "wins": 0}
    ma, q1, q3, _ = summarize(a_values)
    mb = statistics.median(b_values)
    holds = wins >= 0.9 * len(seeds) and abs(mb - ma) > (q3 - q1)
    return holds, {"pairs": len(seeds), "wins": wins, "median_a": ma,
                   "median_b": mb, "iqr_a": q3 - q1}


def run_order(pairs):
    """Which side runs first in each pair: base, head, base, head, ..."""
    return [("base", "head") if i % 2 == 0 else ("head", "base")
            for i in range(pairs)]


def print_rows(rows):
    print(f"{'workload':<13} {'metric':<20} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'B worse':>8} {'verdict':>8}")
    for workload, name, sa, sb, worse, verdict in rows:
        fa = f"{sa[0]:.4g} [{sa[1]:.4g}, {sa[2]:.4g}] ±{sa[3]:.1%}"
        fb = f"{sb[0]:.4g} [{sb[1]:.4g}, {sb[2]:.4g}] ±{sb[3]:.1%}"
        print(f"{workload:<13} {name:<20} {fa:>34} {fb:>34} "
              f"{worse:>+8.1%} {verdict:>8}")


def run_pairs(args, metrics):
    out = Path(args.out)
    checkouts = {"base": Path(args.base), "head": Path(args.head)}
    for i, order in enumerate(run_order(args.run_pairs)):
        seed = args.seed + i
        for side in order:
            command = [sys.executable, "bench/suite/run.py",
                       "--workload", args.workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", "0",
                       "--out", str((out / side).resolve())]
            print(f"pair {i + 1}/{args.run_pairs}: {side} seed {seed}",
                  file=sys.stderr, flush=True)
            if subprocess.run(command, cwd=checkouts[side],
                              stdout=subprocess.DEVNULL).returncode:
                print(f"{side} run failed", file=sys.stderr)
                return 1
    a, b = load_results(out / "base"), load_results(out / "head")
    rows = compare(a, b, metrics, [args.workload])
    print_rows(rows)
    for name, spec in metrics.items():
        holds, info = claim({s: r[name] for s, r in a[args.workload].items()},
                            {s: r[name] for s, r in b[args.workload].items()},
                            spec["better"])
        print(f"claim {args.workload}/{name}: {'GAIN' if holds else 'none'} "
              f"({info['wins']}/{info['pairs']} pairs won)")
    return 1 if any(row[5] != "ok" for row in rows) else 0


class RuleTest(unittest.TestCase):
    def test_identical_sides_agree_and_claim_nothing(self):
        runs = {s: 100.0 + (s % 3) for s in range(10)}
        metrics = {"p50_us": {"name": "p50_us", "better": "lower", "bound": 0.1}}
        rows = compare({"w": {s: {"p50_us": v} for s, v in runs.items()}},
                       {"w": {s: {"p50_us": v} for s, v in runs.items()}},
                       metrics, ["w"])
        self.assertEqual(rows[0][5], "ok")
        self.assertFalse(claim(runs, runs, "lower")[0])

    def test_clear_gain_on_every_pair_holds(self):
        a = {s: 100.0 + s for s in range(10)}
        b = {s: 80.0 + s for s in range(10)}
        holds, info = claim(a, b, "lower")
        self.assertTrue(holds)
        self.assertEqual(info["wins"], 10)

    def test_higher_is_better_direction(self):
        a = {s: 100.0 + s for s in range(10)}
        b = {s: 130.0 + s for s in range(10)}
        self.assertTrue(claim(a, b, "higher")[0])
        self.assertFalse(claim(a, b, "lower")[0])

    def test_eight_of_ten_is_not_enough(self):
        a = {s: 100.0 + s for s in range(10)}
        b = {s: (70.0 if s < 8 else 200.0) + s for s in range(10)}
        holds, info = claim(a, b, "lower")
        self.assertEqual(info["wins"], 8)
        self.assertFalse(holds)

    def test_ties_count_for_neither_side(self):
        a = {s: 100.0 + 10 * s for s in range(10)}
        nine = {s: a[s] - 60 for s in range(9)} | {9: a[9]}
        self.assertTrue(claim(a, nine, "lower")[0])      # 9 wins + 1 tie
        eight = {s: a[s] - 60 for s in range(8)} | {8: a[8], 9: a[9]}
        self.assertFalse(claim(a, eight, "lower")[0])    # 8 wins + 2 ties

    def test_win_smaller_than_parent_spread_is_not_a_gain(self):
        a = {s: 100.0 + 10 * s for s in range(10)}
        b = {s: v - 1.0 for s, v in a.items()}
        holds, info = claim(a, b, "lower")
        self.assertEqual(info["wins"], 10)
        self.assertFalse(holds)

    def test_regression_beyond_bound_and_wide_spread_are_flagged(self):
        metrics = {"capacity_rps": {"name": "capacity_rps", "better": "higher",
                                    "bound": 0.1},
                   "setup_s": {"name": "setup_s", "better": "lower",
                               "bound": 0.25}}
        a = {"w": {s: {"capacity_rps": 1000.0 + s, "setup_s": 1.0 + s}
                   for s in range(10)}}
        b = {"w": {s: {"capacity_rps": 800.0 + s, "setup_s": 1.0 + s}
                   for s in range(10)}}
        verdicts = {row[1]: row[5] for row in compare(a, b, metrics, ["w"])}
        self.assertEqual(verdicts["capacity_rps"], "worse")
        # setup_s is exempt from the spread check but not from the median one.
        self.assertEqual(verdicts["setup_s"], "ok")

    def test_spread_uses_statistics_quartiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        median, q1, q3, spread = summarize(values)
        self.assertEqual((q1, q3), tuple(statistics.quantiles(values, n=4)[::2]))
        self.assertAlmostEqual(spread, (q3 - q1) / median)

    def test_pairs_alternate_which_side_runs_first(self):
        self.assertEqual(run_order(4), [("base", "head"), ("head", "base"),
                                        ("base", "head"), ("head", "base")])


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("dirs", nargs="*", help="A_DIR B_DIR")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    parser.add_argument("--claim", metavar="METRIC")
    parser.add_argument("--workload")
    parser.add_argument("--run-pairs", type=int, metavar="N")
    parser.add_argument("--base")
    parser.add_argument("--head")
    parser.add_argument("--out")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        suite = unittest.defaultTestLoader.loadTestsFromTestCase(RuleTest)
        ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
        return 0 if ok else 1

    metrics, workloads = load_benchmark(args.benchmark)
    if args.run_pairs:
        if not (args.base and args.head and args.workload and args.out):
            parser.error("--run-pairs needs --base, --head, --workload, --out")
        return run_pairs(args, metrics)
    if len(args.dirs) != 2:
        parser.error("expected A_DIR B_DIR")
    a, b = load_results(args.dirs[0]), load_results(args.dirs[1])
    if args.claim:
        if not args.workload or args.claim not in metrics:
            parser.error("--claim needs an end-to-end metric and --workload")
        holds, info = claim(
            {s: r[args.claim] for s, r in a.get(args.workload, {}).items()},
            {s: r[args.claim] for s, r in b.get(args.workload, {}).items()},
            metrics[args.claim]["better"])
        print(json.dumps({"holds": holds, **info}))
        return 0 if holds else 1
    rows = compare(a, b, metrics, workloads)
    print_rows(rows)
    return 1 if not rows or any(row[5] != "ok" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
