"""Positive RL004: a docstring that quotes a pragma does not apply it.

Only comments are pragmas, so this line is documentation:

    # repro-lint: disable-file=RL004
"""


def expire_entry(entry, version):
    entry.end = version  # still reported: nothing above disables RL004
