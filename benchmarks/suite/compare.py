"""Compare two run sets: ``compare.py A.json B.json [--md REPORT.md]``.

A run set is what ``run.py --runs K --out FILE`` writes: every workload
over K seeds.  For each workload x end-to-end metric the report gives
both medians, each set's run-to-run spread (inter-quartile range as a
share of its median), the ratio B/A, and a verdict against the bound the
benchmark fixed for that metric:

* ``unresolved`` — a set's spread exceeds the bound, so the comparison
  cannot tell a regression from noise (never reported as "same");
* ``worse`` / ``better`` — B's median moved past the bound;
* ``same`` — within the bound;
* ``diag`` — a demoted metric: printed with its ratio, carries no bound.

``failed_ratio`` is the exception among the demoted: its bound is "no
increase".  It is compared as failed ops over attempted ops summed over
the set, and a B set that fails more than A is ``worse`` whatever its
timings say.

Exits 1 when any row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import measure


def load(path: str):
    """``(environment, values, failures)``: per (workload, metric) the
    runs' values, per workload ``[failed, attempted]`` summed over runs."""
    data = json.loads(Path(path).read_text())
    values: dict[tuple[str, str], list[float]] = {}
    failures: dict[str, list[int]] = {}
    for record in data["records"]:
        for name, (value, _) in record["end_to_end"].items():
            values.setdefault((record["workload"], name), []).append(value)
        totals = failures.setdefault(record["workload"], [0, 0])
        totals[0] += record["failed"]
        totals[1] += record["attempted"]
    return data["environment"], values, failures


def failure_row(workload: str, a: list[int], b: list[int]) -> tuple[str, str]:
    """The ``failed_ratio`` row of one workload and its verdict."""
    ratio_a, ratio_b = a[0] / a[1], b[0] / b[1]
    word = ("worse" if ratio_b > ratio_a
            else "better" if ratio_b < ratio_a else "same")
    return (
        f"| {workload} | failed_ratio | - | {a[0]}/{a[1]} | - "
        f"| {b[0]}/{b[1]} | - | - | no increase | {word} |"
    ), word


def verdict(name: str, a: list[float], b: list[float]) -> str:
    if name not in measure.END_TO_END:
        return "diag"
    _, better, bound = measure.END_TO_END[name]
    med_a, med_b = measure.median(a), measure.median(b)
    # share of A's median by which B is worse (negative: better)
    change = (med_b - med_a) / med_a if med_a else 0.0
    if better == "higher":
        change = -change
    if max(measure.spread(a), measure.spread(b)) > bound:
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def report(path_a: str, path_b: str) -> tuple[str, int]:
    env_a, a, failed_a = load(path_a)
    env_b, b, failed_b = load(path_b)
    lines = [
        f"# {Path(path_a).name} (A, base) vs {Path(path_b).name} (B)",
        "",
        f"- A: commit {env_a['commit']}, {env_a['cpus']} cpus, python "
        f"{env_a['python']}, {env_a['triples']} triples, "
        f"{env_a['seconds']} s, first seed {env_a['seed']}",
        f"- B: commit {env_b['commit']}, {env_b['cpus']} cpus, python "
        f"{env_b['python']}, {env_b['triples']} triples, "
        f"{env_b['seconds']} s, first seed {env_b['seed']}",
        "",
        "Spread = inter-quartile range / median over the set's runs "
        "(one seed per run).  Ratio = B median / A median.",
        "",
        "| workload | metric | runs | A median | A spread | B median "
        "| B spread | B/A | bound | verdict |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    bad = 0
    order = list(measure.END_TO_END) + list(measure.DEMOTED)
    for workload in measure.WORKLOADS:
        for name in order:
            va, vb = a.get((workload, name)), b.get((workload, name))
            if not va or not vb:
                continue
            if name == "failed_ratio":
                line, word = failure_row(
                    workload, failed_a[workload], failed_b[workload])
                bad += word == "worse"
                lines.append(line)
                continue
            word = verdict(name, va, vb)
            bad += word in ("worse", "unresolved")
            med_a, med_b = measure.median(va), measure.median(vb)
            bound = (f"{measure.END_TO_END[name][2]:.1%}"
                     if name in measure.END_TO_END else "-")
            ratio = f"{med_b / med_a:.3f}" if med_a else "-"
            lines.append(
                f"| {workload} | {name} | {len(va)}/{len(vb)} "
                f"| {med_a:.4g} | {measure.spread(va):.1%} "
                f"| {med_b:.4g} | {measure.spread(vb):.1%} "
                f"| {ratio} | {bound} | {word} |"
            )
    lines += ["", f"{bad} row(s) worse or unresolved."]
    return "\n".join(lines) + "\n", bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--md", help="also write the report to this file")
    args = parser.parse_args(argv)
    text, bad = report(args.a, args.b)
    sys.stdout.write(text)
    if args.md:
        Path(args.md).write_text(text)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
