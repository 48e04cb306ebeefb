"""Negative RL004: lifetime writes inside the sanctioned helpers."""


class Node:
    def __init__(self, birth):
        self.death = None

    def end_live(self, key, version):
        entry = self.find(key)
        entry.end = version

    def end_child(self, child, version):
        entry = self.route(child)
        entry.end = version

    def kill(self, version):
        self.death = version


def unrelated(entry):
    entry.endpoint = 1  # different attribute entirely
