"""Function calls per update on the suite's ``engine_maintain`` stream.

    REPRO_OBS=0 PYTHONHASHSEED=0 PYTHONPATH=src \\
        python benchmarks/update_calls.py [--seed S] [--events N] \\
            [--optimizer] [--store]

Bulk-loads the workload's base graph (as the suite builds it for ``seed``),
then applies its first ``N`` change events (inserts and deletes, no
queries) under ``sys.setprofile`` and prints the Python-level and C-level
calls made per event.  With ``--optimizer`` the engine keeps optimizer
statistics, and one fixed two-pattern query runs after every 256th event
(inside the count): whatever the write path spends on statistics, a
refresh included, shows in the count.  With ``--store`` the events go
through a :class:`~repro.service.store.TemporalStore` in a temporary
directory (fsync off, the engine adopted as built): the served write
path, its WAL append included.  A count, not a clock: it does not move with the
machine's load, so a write-path change shows its work here where a timing
of the same stream spreads by tens of percent between runs.  The
generated history follows ``PYTHONHASHSEED`` (the wikipedia generator
derives values from ``hash()``); run it under two values to see how
little the count depends on it.  ``REPRO_OBS=0`` leaves out the metric
counters' own calls.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


#: The query run every :data:`QUERY_EVERY` events under ``--optimizer``.
PROBE = "SELECT ?a ?b {City_291 population ?a ?t . City_291 mayor ?b ?t}"
QUERY_EVERY = 256


def count_calls(seed: int, events: int, optimizer: bool = False,
                store: bool = False) -> tuple[int, int, int]:
    """``(events applied, Python calls, C calls)``."""
    suite = str(REPO / "benchmarks" / "suite")
    if suite not in sys.path:
        sys.path.insert(0, suite)
    import measure

    measure.bootstrap()
    import workloads
    from repro import RDFTX, Optimizer

    scale = workloads.Scale()
    base, stream = workloads.maintain_history(
        seed, scale, workloads.maintain_events(scale))
    engine = RDFTX.from_graph(
        base, optimizer=Optimizer() if optimizer else None)
    with tempfile.TemporaryDirectory() as directory:
        target = engine
        if store:
            from repro.service import TemporalStore

            target = TemporalStore(directory, use_optimizer=False,
                                   fsync=False)
            target.adopt(engine)
        try:
            return _count(target, stream[:events], optimizer)
        finally:
            if store:
                target.close()


def _count(target, stream: list, optimizer: bool) -> tuple[int, int, int]:
    """Apply ``stream`` to ``target`` (an engine or a store) under the
    profiler."""
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    apply = {"insert": target.insert, "delete": target.delete}
    if optimizer:
        target.query(PROBE)  # compiled once, outside the count
    sys.setprofile(profile)
    try:
        for number, (op, *fact) in enumerate(stream, start=1):
            apply[op](*fact)
            if optimizer and number % QUERY_EVERY == 0:
                target.query(PROBE)
    finally:
        sys.setprofile(None)
    return len(stream), counts["call"], counts["c_call"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--events", type=int, default=12_000)
    parser.add_argument("--optimizer", action="store_true",
                        help="keep optimizer statistics; query every "
                             f"{QUERY_EVERY} events")
    parser.add_argument("--store", action="store_true",
                        help="apply the events through a TemporalStore "
                             "(temporary directory, fsync off)")
    args = parser.parse_args()
    applied, python_calls, c_calls = count_calls(
        args.seed, args.events, args.optimizer, args.store)
    print(f"engine_maintain seed {args.seed}: {applied} update events"
          + (", optimizer on" if args.optimizer else "")
          + (", through a TemporalStore" if args.store else ""))
    print(f"python calls per event {python_calls / applied:.1f}")
    print(f"c calls per event      {c_calls / applied:.1f}")


if __name__ == "__main__":
    main()
