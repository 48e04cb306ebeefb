"""Positive RL004: entry/node lifetimes mutated on arbitrary code paths."""


def expire_entry(entry, version):
    entry.end = version  # rewrites history outside the delete helpers


class Tree:
    def prune(self, node, version):
        node.death = version  # only the node's own kill() may
