"""History across a version split that shares its chronon with a delete and
a re-insert of a key it just copied.

A version split writes each copy with the split as its start, and
``MVBT.history`` / ``MVBT.live_start`` carry the true start into it.  A
copy is its key's first entry in the new leaf, so a key deleted and
inserted again at the split chronon leaves two entries that start there:
the copy, ended at once (true start earlier), and the fresh one (true start
the split).  The generated histories below force exactly that, on packed and
on plain trees, and hold the result to ``tests/test_history.py``'s
reference.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import RDFTX
from repro.model import TemporalGraph
from tests.test_history import ReferenceHistory, assert_matches, terms
from tests.test_mvbt_compression import SMALL

#: The leaf capacity of ``SMALL``: the entry past it splits the leaf.
CAPACITY = SMALL.block_capacity

FACTS = [terms((i, i % 3, i % 5)) for i in range(CAPACITY + 4)]


@st.composite
def split_chronon_histories(draw):
    """``(before, split_at, victims, tail)``: ``before`` facts inserted one
    chronon apart; inserts at ``split_at`` that overflow the root leaf;
    ``victims``, facts live before the split (so copied by it), each
    deleted and inserted again at ``split_at``; then a tail of
    ``(fact index, time step)`` toggles, a step of 0 staying at the same
    chronon."""
    before = draw(st.integers(1, CAPACITY))
    split_at = before + draw(st.integers(1, 3))
    victims = draw(st.lists(st.integers(0, before - 1), min_size=1,
                            max_size=3, unique=True))
    tail = draw(st.lists(
        st.tuples(st.integers(0, len(FACTS) - 1), st.integers(0, 2)),
        max_size=30,
    ))
    return before, split_at, victims, tail


@settings(max_examples=150, deadline=None)
@given(split_chronon_histories(), st.booleans())
def test_a_copy_deleted_and_reinserted_at_its_split_chronon(history, packed):
    before, split_at, victims, tail = history
    engine = RDFTX(config=SMALL)
    engine.load(TemporalGraph(), compress=packed)
    reference = ReferenceHistory()

    def apply(op, fact, time):
        getattr(engine, op)(*fact, time)
        getattr(reference, op)(fact, time)

    for i in range(before):
        apply("insert", FACTS[i], 1 + i)
    for i in range(before, CAPACITY + 1):
        apply("insert", FACTS[i], split_at)
    # The entry past the capacity split every index's root leaf here.
    for tree in engine.indexes.values():
        assert tree.live_root.start == split_at
        assert not tree.live_root.is_leaf
    for i in victims:
        apply("delete", FACTS[i], split_at)
        apply("insert", FACTS[i], split_at)
    assert_matches(engine, reference)
    time = split_at
    for index, step in tail:
        time += step
        fact = FACTS[index]
        apply("delete" if fact in reference.live else "insert", fact, time)
    assert_matches(engine, reference)
    engine.check_invariants()
