"""Subject-and-object patterns: SPO's subject prefix against an SOP tree.

    PYTHONHASHSEED=0 PYTHONPATH=src python benchmarks/so_shapes.py \\
        [--triples N] [--seed S] [--subjects K] [--rounds R]

The engine keeps three key orders and answers an SO pattern
(``{s ?p o ?t}``) by scanning SPO's ``(s)`` prefix with the object
compared inline.  The paper keeps a fourth order, SOP, whose ``(s, o)``
prefix holds exactly the matches.  For wikipedia and govtrack this builds
the engine, builds an SOP tree beside it the way ``RDFTX.load`` builds
its trees (one replay of the change history, then compression, on the
engine's memo), and times three shapes on ``K`` seeded subjects, each
with an object it holds: the bare pattern, the pattern under
``YEAR(?t) = y``, and the pattern joined on ``?p`` to the subject's other
facts.  Each compiled plan runs as is and with its SO step moved to the
SOP tree; both must give the same rows.  Every round times each query on
both trees, alternating which goes first; per query it keeps the minimum
and the median over the rounds, and it reports the median over the
queries of the SPO/SOP ratios, per shape and overall, plus each tree's
``sizeof()`` per triple.  Writes ``bench_results/so_shapes.txt``.
"""

from __future__ import annotations

import argparse
import datetime
import os
import platform
import random
import statistics
import time
from pathlib import Path

from repro.datasets import govtrack, wikipedia
from repro.engine import RDFTX
from repro.engine.executor import execute
from repro.mvbt.tree import MVBT, change_events, replay

OUT = Path(__file__).resolve().parents[1] / "bench_results" / "so_shapes.txt"
GENERATORS = {"wikipedia": wikipedia, "govtrack": govtrack}
#: SPO key slot -> SOP key slot.
SOP_SLOT = {0: 0, 1: 2, 2: 1}


def sop_tree(engine: RDFTX, graph) -> MVBT:
    events = change_events(
        ((sid, pid, oid), start, end)
        for sid, pid, oid, start, end in graph.encoded_rows()
    )
    tree = MVBT(engine.config, engine.memo)
    replay(tree, ((t, kind, (k[0], k[2], k[1])) for t, kind, k in events))
    tree.compress()
    return tree


def on_sop(plan):
    """``plan`` with every object-checked SPO step scanning SOP's
    ``(s, o)`` prefix instead."""
    steps = []
    for step in plan.steps:
        if step.key_check is not None:
            _, object_id = step.key_check
            step = step._replace(
                index_order="sop",
                key_low=step.key_low + (object_id,),
                key_check=None,
                var_slots={name: SOP_SLOT[slot]
                           for name, slot in step.var_slots.items()},
            )
        steps.append(step)
    return plan._replace(steps=tuple(steps))


def queries(graph, rng: random.Random, subjects: int) -> list[tuple]:
    """``(shape, text)`` for three shapes on each sampled subject."""
    decode = graph.dictionary.decode
    facts: dict[int, list[tuple]] = {}
    for sid, pid, oid, start, end in graph.encoded_rows():
        facts.setdefault(sid, []).append((oid, start))
    out = []
    for sid in rng.sample(sorted(facts), subjects):
        oid, start = rng.choice(facts[sid])
        s, o = decode(sid), decode(oid)
        year = (datetime.date(1970, 1, 1)
                + datetime.timedelta(days=start)).year
        out += [
            ("plain", f"SELECT ?p ?t {{{s} ?p {o} ?t}}"),
            ("year", f"SELECT ?p ?t {{{s} ?p {o} ?t . "
                     f"FILTER(YEAR(?t) = {year})}}"),
            ("join", f"SELECT ?p ?v {{{s} ?p {o} ?t . {s} ?p ?v ?u}}"),
        ]
    return out


def canonical(rows) -> list:
    return sorted(sorted((k, repr(v)) for k, v in row.items()) for row in rows)


def measure(name: str, triples: int, seed: int, subjects: int,
            rounds: int) -> list[str]:
    graph = GENERATORS[name].generate(triples, seed=seed).graph
    engine = RDFTX.from_graph(graph)
    indexes = {**engine.indexes, "sop": sop_tree(engine, graph)}
    horizon = engine.horizon
    dictionary = engine.dictionary
    cases = []
    for shape, text in queries(graph, random.Random(seed), subjects):
        spo = engine.compile(text).group.base
        sop = on_sop(spo)
        assert spo.steps[0].index_order == "spo" and spo.steps[0].key_check
        got = canonical(execute(spo, indexes, dictionary, horizon))
        assert got == canonical(execute(sop, indexes, dictionary, horizon)), \
            text
        cases.append((shape, spo, sop))
    clock = time.perf_counter
    samples = [([], []) for _ in cases]
    for round_ in range(rounds):
        for (shape, spo, sop), (on_spo, on_sop_) in zip(cases, samples):
            order = ((spo, on_spo), (sop, on_sop_))
            for plan, out in order if round_ % 2 else order[::-1]:
                start = clock()
                execute(plan, indexes, dictionary, horizon)
                out.append(clock() - start)
    by_shape: dict[str, list[tuple[float, float]]] = {}
    spo_us, sop_us = [], []
    for (shape, _, _), (on_spo, on_sop_) in zip(cases, samples):
        by_shape.setdefault(shape, []).append((
            min(on_spo) / min(on_sop_),
            statistics.median(on_spo) / statistics.median(on_sop_),
        ))
        spo_us.append(statistics.median(on_spo) * 1e6)
        sop_us.append(statistics.median(on_sop_) * 1e6)
    sizes = {order: tree.sizeof() / len(graph)
             for order, tree in indexes.items()}
    three = sum(v for k, v in sizes.items() if k != "sop")
    per_subject = len(graph) / len({row[0] for row in graph.encoded_rows()})
    lines = [
        f"{name}: {len(graph)} triples ({per_subject:.1f} a subject), seed "
        f"{seed}, {subjects} subjects x 3 shapes, {rounds} rounds",
        "  sizeof per triple (B): " + ", ".join(
            f"{order} {value:.1f}" for order, value in sizes.items())
        + f"; three orders {three:.1f}, four {three + sizes['sop']:.1f}",
        f"  median query time (us): SPO {statistics.median(spo_us):.1f}, "
        f"SOP {statistics.median(sop_us):.1f}",
        f"  {'shape':<8} {'min ratio':>10} {'median ratio':>13}  "
        f"(SPO / SOP, median over subjects)",
    ]
    every = []
    for shape, ratios in by_shape.items():
        every += ratios
        lines.append(
            f"  {shape:<8} {statistics.median(r[0] for r in ratios):>10.2f} "
            f"{statistics.median(r[1] for r in ratios):>13.2f}")
    lines.append(
        f"  {'all':<8} {statistics.median(r[0] for r in every):>10.2f} "
        f"{statistics.median(r[1] for r in every):>13.2f}")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--triples", type=int, default=16_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--subjects", type=int, default=20)
    parser.add_argument("--rounds", type=int, default=25)
    args = parser.parse_args()
    lines = [
        "# SO patterns: SPO subject prefix + inline object check vs an "
        "SOP (s, o) prefix",
        f"# python {platform.python_version()}, {os.cpu_count()} cpus, "
        f"PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED', 'unset')}",
    ]
    for name in GENERATORS:
        lines += measure(name, args.triples, args.seed, args.subjects,
                         args.rounds)
    text = "\n".join(lines) + "\n"
    OUT.write_text(text)
    print(text, end="")


if __name__ == "__main__":
    main()
