"""Dictionary encoding of RDF terms (Section 4.1.2).

RDF-TX replaces string literals/URIs with integer ids before insertion into
the MVBT indices; this both shrinks the index and avoids slow string
comparisons.  The mapping is kept in memory for updates and for decoding query
results.

A canonical decimal integer (``0``, ``-17``, ``698179``: no sign but a
leading ``-``, no leading zero, not ``-0``) of magnitude below
:data:`INLINE_LIMIT` is its own id, ``INLINE_BASE + value``, and never
enters the tables — the value lives in the key, as Jena TDB inlines
integers in its NodeIds.  Every other term gets a dense table id below
``INLINE_BASE - INLINE_LIMIT``, so every id stays below ``2**30`` and any
two ids differ by less than ``2**30`` (one CPython int digit; the packed
codec's widest delta field holds it).
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

#: Inline integers have a magnitude below this.
INLINE_LIMIT = 1 << 28
#: The id of the inline integer ``0``; ``v`` is ``INLINE_BASE + v``.
INLINE_BASE = 1 << 29
#: Table ids stay below the smallest inline id.
_TABLE_LIMIT = INLINE_BASE - INLINE_LIMIT
#: ``str(-INLINE_LIMIT)`` is the longest spelling worth converting.
_INLINE_CHARS = len(str(-INLINE_LIMIT))

_canonical_integer = re.compile(r"-?(?:0|[1-9][0-9]*)").fullmatch


def _inline_id(term: str) -> int | None:
    """The inline id of ``term``, or ``None`` when it takes a table id."""
    if (len(term) > _INLINE_CHARS or _canonical_integer(term) is None
            or term == "-0"):
        return None
    value = int(term)
    if -INLINE_LIMIT < value < INLINE_LIMIT:
        return INLINE_BASE + value
    return None


def is_inline(term_id: int) -> bool:
    """Whether ``term_id`` is an inline integer's (no table entry)."""
    return term_id > _TABLE_LIMIT


class DictionaryError(KeyError):
    """Raised when decoding an unknown id, or when the table is full."""


class Dictionary:
    """A bidirectional string <-> integer id mapping.

    Table ids are dense and start at 1; id 0 is reserved as the minimum of
    the key domain (the paper's ``_`` extremum) so that prefix range
    queries can use ``0`` as an open bound.  Inline integers (module
    docstring) take ids from ``INLINE_BASE - INLINE_LIMIT`` up.

    :meth:`encode` and :meth:`lookup` read the table first: a dictionary
    restored with table ids for numbers (:meth:`from_table`) keeps them,
    so each term has exactly one id in each dictionary.
    """

    #: Reserved id representing the bottom of the term domain.
    MIN_ID = 0

    def __init__(self) -> None:
        self._term_to_id: dict[str, int] = {}
        self._id_to_term: list[str | None] = [None]  # index 0 reserved

    @classmethod
    def from_table(cls, terms: Iterable[str]) -> "Dictionary":
        """A dictionary whose table ids ``1, 2, ...`` are ``terms`` in order,
        inline-shaped or not (a snapshot's saved table)."""
        dictionary = cls()
        for term in terms:
            dictionary._append(term)
        return dictionary

    def _append(self, term: str) -> int:
        new_id = len(self._id_to_term)
        if new_id >= _TABLE_LIMIT:
            raise DictionaryError(f"dictionary table full: {new_id - 1} terms")
        self._term_to_id[term] = new_id
        self._id_to_term.append(term)
        return new_id

    def encode(self, term: str) -> int:
        """Return the id for ``term``, assigning a table id if it is neither
        a table term nor an inline integer."""
        found = self._term_to_id.get(term)
        if found is not None:
            return found
        found = _inline_id(term)
        if found is not None:
            return found
        return self._append(term)

    def encode_many(self, terms: Iterable[str]) -> list[int]:
        """Encode an iterable of terms, preserving order."""
        return [self.encode(t) for t in terms]

    def lookup(self, term: str) -> int | None:
        """The id :meth:`encode` gives ``term``, if that assigns nothing,
        else ``None``."""
        found = self._term_to_id.get(term)
        if found is not None:
            return found
        return _inline_id(term)

    def decode(self, term_id: int) -> str:
        """Return the term for a table id or an inline id."""
        if 1 <= term_id < len(self._id_to_term):
            return self._id_to_term[term_id]
        if _TABLE_LIMIT < term_id < INLINE_BASE + INLINE_LIMIT:
            return str(term_id - INLINE_BASE)
        raise DictionaryError(f"unknown dictionary id: {term_id}")

    @property
    def max_id(self) -> int:
        """Largest assigned table id (0 when the table is empty)."""
        return len(self._id_to_term) - 1

    def __len__(self) -> int:
        """Number of table terms (inline integers are not counted)."""
        return len(self._term_to_id)

    def __contains__(self, term: object) -> bool:
        return isinstance(term, str) and self.lookup(term) is not None

    def __iter__(self) -> Iterator[str]:
        """The table terms, in id order (inline integers are not listed)."""
        return iter(self._term_to_id)

    def sizeof(self) -> int:
        """Storage-layout footprint in bytes (for Figure 8).

        Counted as a string heap plus one hash slot and one offset entry per
        table term — the same layout-byte accounting every index in this
        repo uses, so size ratios stay meaningful (Python object headers
        would drown every structure in constant overhead).  An inline
        integer costs nothing here: its bytes are in the keys that hold it.
        """
        size = 0
        for term in self._term_to_id:
            size += len(term.encode()) + 24
        return size
