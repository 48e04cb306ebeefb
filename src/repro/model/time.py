"""Temporal domain for RDF-TX.

The paper (Section 3.1) uses a discrete, point-based time domain whose minimum
unit is a *chronon*; throughout the paper the chronon is one DAY.  We represent
chronons as integers counting days since the epoch 1970-01-01.  The special
timestamp ``now`` of transaction-time databases is modelled by the sentinel
:data:`NOW`, which compares greater than every concrete chronon.

At the logical (SPARQLT) level a temporal binding is a *set of chronons*; at
the physical level consecutive chronons are stored as half-open intervals
``[start, end)`` (:class:`Period`).  The user-facing rendering follows the
paper's closed notation ``[ts ... te]``.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

#: Sentinel chronon standing for the ever-moving current instant ("now").
#: It is strictly greater than any concrete day this library will encounter.
NOW: int = 2**31 - 1

#: Smallest chronon of the domain (the paper writes it as 0).
MIN_TIME: int = 0

_EPOCH = _dt.date(1970, 1, 1)
_EPOCH_ORDINAL = _EPOCH.toordinal()


class TimeError(ValueError):
    """Raised for malformed chronons, dates, or periods."""


def date_to_chronon(value: _dt.date | str) -> int:
    """Convert a date (or ISO/US-formatted string) to a chronon.

    Accepts :class:`datetime.date`, ``YYYY-MM-DD``, and the paper's
    ``MM/DD/YYYY`` rendering.  The string ``"now"`` maps to :data:`NOW`.
    """
    if isinstance(value, _dt.date):
        return (value - _EPOCH).days
    text = value.strip()
    if text.lower() == "now":
        return NOW
    if len(text) == 10 and text[4] == "-" == text[7]:
        # The padded ISO form every dataset file is written in parses
        # ~10x faster here than through strptime; the shape check keeps
        # out what only newer ``fromisoformat``s accept (``20080616``).
        try:
            return _dt.date.fromisoformat(text).toordinal() - _EPOCH_ORDINAL
        except ValueError:
            pass  # strptime's looser grammar decides (``2008-06- 6``)
    for fmt in ("%Y-%m-%d", "%m/%d/%Y"):
        try:
            return (_dt.datetime.strptime(text, fmt).date() - _EPOCH).days
        except ValueError:
            continue
    raise TimeError(f"unrecognized date literal: {value!r}")


def chronon_to_date(chronon: int) -> _dt.date:
    """Convert a concrete chronon back to a calendar date."""
    if chronon == NOW:
        raise TimeError("NOW has no calendar date")
    return _EPOCH + _dt.timedelta(days=chronon)


def format_chronon(chronon: int) -> str:
    """Render a chronon the way the paper prints timestamps."""
    if chronon == NOW:
        return "now"
    return chronon_to_date(chronon).strftime("%m/%d/%Y")


def year_of(chronon: int) -> int:
    """The calendar year containing ``chronon`` (SPARQLT ``YEAR``)."""
    return chronon_to_date(chronon).year


def month_of(chronon: int) -> int:
    """The calendar month (1-12) containing ``chronon`` (SPARQLT ``MONTH``)."""
    return chronon_to_date(chronon).month


def day_of(chronon: int) -> int:
    """The day of month containing ``chronon`` (SPARQLT ``DAY``)."""
    return chronon_to_date(chronon).day


def year_range(year: int) -> "Period":
    """The period covering one calendar year, e.g. for ``YEAR(?t) = 2013``."""
    start = date_to_chronon(_dt.date(year, 1, 1))
    end = date_to_chronon(_dt.date(year + 1, 1, 1))
    return Period(start, end)


def month_range(year: int, month: int) -> "Period":
    """The period covering one calendar month."""
    start = date_to_chronon(_dt.date(year, month, 1))
    if month == 12:
        end = date_to_chronon(_dt.date(year + 1, 1, 1))
    else:
        end = date_to_chronon(_dt.date(year, month + 1, 1))
    return Period(start, end)


def check_period(start: int, end: int) -> None:
    """Raise :class:`TimeError` unless ``[start, end)`` is a valid period
    (the check :class:`Period` makes, for callers that hold no Period)."""
    if not (MIN_TIME <= start < end <= NOW):
        raise TimeError(f"invalid period [{start}, {end})")


@dataclass(frozen=True, order=True)
class Period:
    """A half-open interval ``[start, end)`` of chronons.

    ``end == NOW`` denotes a *live* period (the fact still holds).  A period
    is never empty: construction enforces ``start < end``.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if not (MIN_TIME <= self.start < self.end <= NOW):
            raise TimeError(f"invalid period [{self.start}, {self.end})")

    @classmethod
    def from_closed(cls, first: int, last: int) -> "Period":
        """Build from the paper's closed ``[ts ... te]`` notation.

        A closed period ending at ``now`` stays live (end stays :data:`NOW`);
        otherwise the half-open end is ``last + 1``.
        """
        end = NOW if last == NOW else last + 1
        return cls(first, end)

    @classmethod
    def point(cls, chronon: int) -> "Period":
        """The single-chronon period containing ``chronon``."""
        return cls(chronon, chronon + 1)

    @classmethod
    def always(cls) -> "Period":
        """The whole time domain ``[0, now]``."""
        return cls(MIN_TIME, NOW)

    @property
    def first(self) -> int:
        """First chronon of the period (SPARQLT ``TSTART``)."""
        return self.start

    @property
    def last(self) -> int:
        """Last chronon of the period (SPARQLT ``TEND``); ``NOW`` if live."""
        return NOW if self.is_live else self.end - 1

    @property
    def is_live(self) -> bool:
        """Whether the period extends to the current instant."""
        return self.end == NOW

    def length(self) -> int:
        """Number of chronons covered; live periods count up to ``NOW``."""
        return self.end - self.start

    def contains(self, chronon: int) -> bool:
        """Whether ``chronon`` falls inside the period."""
        return self.start <= chronon < self.end

    def overlaps(self, other: "Period") -> bool:
        """Whether the two periods share at least one chronon."""
        return self.start < other.end and other.start < self.end

    def meets(self, other: "Period") -> bool:
        """Allen's MEETS: this period ends exactly where ``other`` begins."""
        return self.end == other.start

    def intersect(self, other: "Period") -> "Period | None":
        """The common sub-period, or ``None`` when disjoint."""
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        if start >= end:
            return None
        return Period(start, end)

    def __contains__(self, chronon: object) -> bool:
        return isinstance(chronon, int) and self.contains(chronon)

    def __str__(self) -> str:
        return f"[{format_chronon(self.first)} ... {format_chronon(self.last)}]"


class PeriodSet:
    """A coalesced, ordered set of disjoint periods.

    This is the value bound to a SPARQLT temporal variable: logically a set of
    chronons, physically kept as maximal disjoint intervals (the paper's
    "compact format").  Instances are immutable.
    """

    __slots__ = ("_periods",)

    def __init__(self, periods: Iterable[Period] = ()) -> None:
        self._periods: tuple[Period, ...] = tuple(_coalesce(periods))

    @classmethod
    def single(cls, period: Period) -> "PeriodSet":
        ps = cls.__new__(cls)
        ps._periods = (period,)
        return ps

    @classmethod
    def from_intervals(cls, bounds: "Iterable[tuple[int, int]]") -> "PeriodSet":
        """Build from raw half-open ``(start, end)`` pairs.

        Fast path for scan results: coalescing happens on plain integers
        and :class:`Period` objects are only constructed for the maximal
        periods.
        """
        ordered = sorted(bounds)
        merged: list[list[int]] = []
        for start, end in ordered:
            if merged and start <= merged[-1][1]:
                if end > merged[-1][1]:
                    merged[-1][1] = end
            else:
                merged.append([start, end])
        ps = cls.__new__(cls)
        ps._periods = tuple(Period(lo, hi) for lo, hi in merged)
        return ps

    @property
    def periods(self) -> tuple[Period, ...]:
        return self._periods

    @property
    def is_empty(self) -> bool:
        return not self._periods

    def first(self) -> int:
        """Earliest chronon (``TSTART`` over the whole set)."""
        if self.is_empty:
            raise TimeError("TSTART of empty period set")
        return self._periods[0].first

    def last(self) -> int:
        """Latest chronon (``TEND`` over the whole set)."""
        if self.is_empty:
            raise TimeError("TEND of empty period set")
        return self._periods[-1].last

    def max_length(self) -> int:
        """SPARQLT ``LENGTH``: duration of the longest maximal period."""
        if self.is_empty:
            return 0
        return max(p.length() for p in self._periods)

    def total_length(self) -> int:
        """SPARQLT ``TOTAL_LENGTH``: summed duration of all periods."""
        return sum(p.length() for p in self._periods)

    def intersect(self, other: "PeriodSet") -> "PeriodSet":
        """Chronon-set intersection (the temporal-join operation)."""
        out: list[Period] = []
        i = j = 0
        a, b = self._periods, other._periods
        while i < len(a) and j < len(b):
            common = a[i].intersect(b[j])
            if common is not None:
                out.append(common)
            if a[i].end <= b[j].end:
                i += 1
            else:
                j += 1
        result = PeriodSet.__new__(PeriodSet)
        result._periods = tuple(out)
        return result

    def restrict(self, window: Period) -> "PeriodSet":
        """Keep only the chronons falling inside ``window``."""
        return self.intersect(PeriodSet.single(window))

    def union(self, other: "PeriodSet") -> "PeriodSet":
        """Chronon-set union, re-coalesced."""
        return PeriodSet(self._periods + other._periods)

    def contains(self, chronon: int) -> bool:
        return any(p.contains(chronon) for p in self._periods)

    def __iter__(self) -> Iterator[Period]:
        return iter(self._periods)

    def __len__(self) -> int:
        return len(self._periods)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PeriodSet) and self._periods == other._periods

    def __hash__(self) -> int:
        return hash(self._periods)

    def __repr__(self) -> str:
        return "PeriodSet(" + ", ".join(str(p) for p in self._periods) + ")"


def encode_value(value: object) -> object:
    """A binding value -> JSON: PeriodSets as ``[[start, end|null], ...]``
    (``null`` for an open end); anything else as it is.  The HTTP layer,
    the cluster wire protocol and the cluster's canonical row order all
    use this one encoding."""
    if isinstance(value, PeriodSet):
        return [[p.start, None if p.end == NOW else p.end] for p in value]
    return value


def _coalesce(periods: Iterable[Period]) -> Sequence[Period]:
    """Merge overlapping/adjacent periods into maximal disjoint ones."""
    ordered = sorted(periods, key=lambda p: (p.start, p.end))
    merged: list[Period] = []
    for period in ordered:
        if merged and period.start <= merged[-1].end:
            if period.end > merged[-1].end:
                merged[-1] = Period(merged[-1].start, period.end)
        else:
            merged.append(period)
    return merged
