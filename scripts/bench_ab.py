#!/usr/bin/env python3
"""Benchmark a change against its parent and write ``BENCH_<label>.json``.

Usage, from the root of a checkout:

    python3 scripts/bench_ab.py --parent REV --label L [--workdir DIR]

The change is the checkout's ``HEAD``.  Both sides are committed trees:
each is extracted with ``git archive`` into a temporary directory (under
``--workdir`` if given) that is deleted at the end, so neither this
checkout's files nor its ``.git`` change.  For seeds 1-10 and every
workload of ``BENCHMARK.json`` the script runs ``perfbench/run.py
--trace 0`` for the ``run_seconds`` it sets, once per side, alternating
which side runs first, and stops at the first run that fails.  The two
runs of one seed and workload are a pair.  The output file holds, per
workload and end-to-end metric, each side's runs, medians and quartiles,
the relative change of the medians, the pairs the change wins (ties count
for neither) and whether the change meets the gain rule: it wins at least
nine pairs in ten and the medians differ by more than the distance between
the parent's quartiles.  ``no_regression`` is ``regressed`` when the
change's median is worse than the parent's by more than the metric's
``bound`` (a share of the parent's median), else ``unresolved`` when the
parent's quartile spread is wider than that bound and not every change
run beats every parent run, else ``ok``.  It also holds each side's
commit, code digest and line count of ``src/vlgmatch``, and the subjects
of the commits between the two.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SEEDS = tuple(range(1, 11))


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(commit: str, into: Path) -> None:
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def perfbench(tree: Path, argv: list[str]) -> tuple[dict, dict]:
    """Run perfbench in ``tree``; returns its provenance and result lines."""
    done = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=tree,
                          capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.exit(f"bench_ab: {tree.name}: perfbench {' '.join(argv)} exited "
                 f"{done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent commit")
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    parser.add_argument("--workdir", type=lambda path: Path(path).resolve(), default=None,
                        help="where the temporary directory for both trees goes")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    commits = {"parent": git("rev-parse", args.parent),
               "change": git("rev-parse", "HEAD")}
    runs = {w: {m["name"]: {side: [] for side in SIDES} for m in metrics}
            for w in workloads}
    provenance: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="bench_ab-", dir=args.workdir) as workdir:
        trees = {side: Path(workdir) / side for side in SIDES}
        for side in SIDES:
            extract(commits[side], trees[side])
        turn = 0
        for seed in SEEDS:
            for workload in workloads:
                order = SIDES if turn % 2 == 0 else SIDES[::-1]
                turn += 1
                for side in order:
                    argv = ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", "0"]
                    prov, result = perfbench(trees[side], argv)
                    provenance[side] = prov
                    for name, value in result["metrics"].items():
                        if name in runs[workload]:
                            runs[workload][name][side].append(value["value"])
                    print(f"seed {seed} {workload} {side}: " + ", ".join(
                        f"{name} {value['value']:.4g}"
                        for name, value in result["metrics"].items()), flush=True)

    table = {}
    for workload in workloads:
        table[workload] = {}
        for metric in metrics:
            sides = runs[workload][metric["name"]]
            medians = {side: statistics.median(sides[side]) for side in SIDES}
            quartiles = {side: statistics.quantiles(sides[side], n=4)[::2]
                         for side in SIDES}
            sign = 1 if metric["better"] == "higher" else -1
            wins = sum(sign * (change - parent) > 0
                       for parent, change in zip(sides["parent"], sides["change"]))
            spread = quartiles["parent"][1] - quartiles["parent"][0]
            bound = metric["bound"] * abs(medians["parent"])
            if sign * (medians["parent"] - medians["change"]) > bound:
                verdict = "regressed"
            elif spread > bound and not all(sign * (change - parent) > 0
                                            for change in sides["change"]
                                            for parent in sides["parent"]):
                verdict = "unresolved"
            else:
                verdict = "ok"
            table[workload][metric["name"]] = {
                "unit": metric["unit"], "better": metric["better"],
                "bound": metric["bound"],
                "parent_median": medians["parent"], "change_median": medians["change"],
                "change_vs_parent": (round(medians["change"] / medians["parent"] - 1, 4)
                                     if medians["parent"] else None),
                "parent_quartiles": quartiles["parent"],
                "change_quartiles": quartiles["change"],
                "change_wins": f"{wins}/{len(SEEDS)}",
                "meets_gain_rule": (10 * wins >= 9 * len(SEEDS) and
                                    sign * (medians["change"] - medians["parent"]) > spread),
                "no_regression": verdict,
                "parent_runs": sides["parent"], "change_runs": sides["change"]}

    report = {
        "label": args.label,
        "change": "; ".join(git("log", "--reverse", "--format=%s",
                                f"{commits['parent']}..{commits['change']}").splitlines()),
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "code_sha256": {side: provenance[side]["code_sha256"] for side in SIDES},
        "src_lines": {side: provenance[side]["src_lines"] for side in SIDES},
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count(),
                    "note": "shared host; perfbench scales each call to a reference loop"},
        "method": "one pair of runs per workload and seed, the two sides "
                  "alternating which runs first; medians and quartiles over the seeds",
        "seeds": list(SEEDS),
        "workloads": table,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
