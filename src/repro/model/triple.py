"""Triples and temporal triples (Section 2.2 of the paper).

A plain RDF triple is ``(subject, predicate, object)``.  A temporal RDF triple
annotates it with a temporal element; consecutive chronons are encoded with a
:class:`~repro.model.time.Period` as in the paper's interval encoding
``(s, p, o)[ts ... te]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .time import NOW, Period, format_chronon

#: Term type: at the model level terms are strings (URIs or literals);
#: after dictionary encoding they are integers.
Term = str


@dataclass(frozen=True, order=True)
class Triple:
    """A static RDF triple ``(s, p, o)``."""

    subject: Term
    predicate: Term
    object: Term

    def __iter__(self) -> Iterator[Term]:
        yield self.subject
        yield self.predicate
        yield self.object

    def __str__(self) -> str:
        return f"({self.subject}, {self.predicate}, {self.object})"


@dataclass(frozen=True, order=True)
class TemporalTriple:
    """An interval-encoded temporal RDF triple ``(s, p, o)[ts ... te]``."""

    subject: Term
    predicate: Term
    object: Term
    period: Period

    @classmethod
    def make(
        cls,
        subject: Term,
        predicate: Term,
        object: Term,
        start: int,
        end: int = NOW,
    ) -> "TemporalTriple":
        """Build from half-open chronon bounds ``[start, end)``."""
        return cls(subject, predicate, object, Period(start, end))

    @property
    def triple(self) -> Triple:
        """The static part of the temporal triple."""
        return Triple(self.subject, self.predicate, self.object)

    @property
    def is_live(self) -> bool:
        """Whether the fact still holds at the current instant."""
        return self.period.is_live

    def __str__(self) -> str:
        ts = format_chronon(self.period.first)
        te = format_chronon(self.period.last)
        return (
            f"({self.subject}, {self.predicate}, {self.object}) [{ts} ... {te}]"
        )


@dataclass(frozen=True, order=True)
class EncodedTriple:
    """A dictionary-encoded temporal triple: three ids plus the period.

    This is the unit stored in MVBT indices: ``key`` yields the ids in any
    key order, e.g. the engine's three (SPO, POS, OPS).
    """

    subject: int
    predicate: int
    object: int
    period: Period

    def key(self, order: str) -> tuple[int, int, int]:
        """The composite key in a key order such as SPO, POS or OPS."""
        mapping = {"s": self.subject, "p": self.predicate, "o": self.object}
        try:
            return (mapping[order[0]], mapping[order[1]], mapping[order[2]])
        except (KeyError, IndexError):
            raise ValueError(f"unknown key order: {order!r}") from None
