"""Temporal N-Quads: a line-based interchange format for temporal RDF.

Each line carries one interval-encoded fact::

    subject predicate object start end .

* Terms are bare tokens, or double-quoted (with ``\\"`` and ``\\\\``
  escapes) when they contain whitespace or quotes.
* ``start``/``end`` are ISO dates (``2013-09-30``) or integer chronons;
  ``end`` may be ``now`` for live facts.
* ``#`` starts a comment; blank lines are ignored.
* Files ending in ``.gz`` are read/written gzip-compressed.

This is the on-disk companion of :class:`~repro.model.graph.TemporalGraph`
— the backup/recovery scenario of the paper's Section 2.1 needs a durable
form of the history, and the CLI and examples load datasets through it.
"""

from __future__ import annotations

import gzip
import io
import re
from pathlib import Path
from typing import IO, Iterator

from ..model.graph import TemporalGraph
from ..model.time import NOW, TimeError, chronon_to_date, date_to_chronon
from ..model.triple import TemporalTriple


class FormatError(ValueError):
    """A malformed temporal N-Quads line."""

    def __init__(self, message: str, line_number: int) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


_BARE_TOKEN = re.compile(r'^[^\s"#]+$')
#: One scan over a line (``finditer`` skips the whitespace between
#: matches): a quoted term, a bare term, the start of a comment, or — the
#: only thing left — a quote that opens no well-formed term.
_SCAN = re.compile(
    r'''
        "(?P<quoted>(?:[^"\\]|\\.)*)"
      | (?P<bare>[^\s"#]+)
      | (?P<comment>\#)
      | (?P<bad>\S)
    ''',
    re.VERBOSE,
)


def _escape(term: str) -> str:
    if _BARE_TOKEN.match(term) and term not in (".", "now"):
        return term
    escaped = term.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _unescape(text: str) -> str:
    return text.replace('\\"', '"').replace("\\\\", "\\")


def _format_time(chronon: int) -> str:
    if chronon == NOW:
        return "now"
    return chronon_to_date(chronon).isoformat()


def _parse_time(token: str, line_number: int) -> int:
    if token == "now":
        return NOW
    if token.isdigit():
        return int(token)
    try:
        return date_to_chronon(token)
    except TimeError:
        raise FormatError(f"bad timestamp {token!r}", line_number) from None


def _tokenize(line: str, line_number: int) -> list[str]:
    tokens: list[str] = []
    for match in _SCAN.finditer(line):
        kind = match.lastgroup
        if kind == "bare":
            tokens.append(match.group())
        elif kind == "quoted":
            tokens.append(_unescape(match.group("quoted")))
        elif kind == "comment":
            break
        else:
            raise FormatError(
                f"cannot tokenize near {line[match.start():].strip()!r}",
                line_number,
            )
    return tokens


# -------------------------------------------------------------------- write


def _dump_rows(graph: TemporalGraph, target: IO[str]) -> int:
    """Write the graph's encoded rows, one line per fact; returns the
    count."""
    decode = graph.dictionary.decode
    rows = graph.encoded_rows()
    for sid, pid, oid, start, end in rows:
        target.write(
            f"{_escape(decode(sid))} {_escape(decode(pid))} "
            f"{_escape(decode(oid))} {_format_time(start)} "
            f"{_format_time(end)} .\n"
        )
    return len(rows)


def dump_graph(graph: TemporalGraph, path: str | Path) -> int:
    """Write a temporal graph to ``path`` (gzip if it ends with .gz)."""
    path = Path(path)
    with _open_write(path) as handle:
        handle.write("# temporal n-quads: s p o start end .\n")
        return _dump_rows(graph, handle)


def dumps(graph: TemporalGraph) -> str:
    """Serialize a temporal graph to a string."""
    buffer = io.StringIO()
    _dump_rows(graph, buffer)
    return buffer.getvalue()


# --------------------------------------------------------------------- read


def _parse(source: IO[str]) -> Iterator[tuple[str, str, str, int, int]]:
    """Parse ``(subject, predicate, object, start, end)`` fields from an
    open text stream, one tuple per fact line."""
    for line_number, line in enumerate(source, start=1):
        tokens = _tokenize(line, line_number)
        if not tokens:
            continue
        if tokens[-1] == ".":
            tokens = tokens[:-1]
        if len(tokens) != 5:
            raise FormatError(
                f"expected 5 fields, found {len(tokens)}", line_number
            )
        subject, predicate, object_, start_token, end_token = tokens
        start = _parse_time(start_token, line_number)
        end = _parse_time(end_token, line_number)
        if end != NOW and end <= start:
            raise FormatError(
                f"empty interval [{start_token}, {end_token}]", line_number
            )
        yield subject, predicate, object_, start, end


def iter_triples(source: IO[str]) -> Iterator[TemporalTriple]:
    """Parse temporal triples from an open text stream."""
    return (TemporalTriple.make(*fields) for fields in _parse(source))


def load_graph(path: str | Path) -> TemporalGraph:
    """Read a temporal graph from ``path`` (gzip if it ends with .gz)."""
    with _open_read(Path(path)) as handle:
        return _read_graph(handle)


def loads(text: str) -> TemporalGraph:
    """Parse a temporal graph from a string."""
    return _read_graph(io.StringIO(text))


def _read_graph(source: IO[str]) -> TemporalGraph:
    graph = TemporalGraph()
    add = graph.add
    for fields in _parse(source):
        add(*fields)
    return graph


def _open_write(path: Path) -> IO[str]:
    if path.suffix == ".gz":
        return gzip.open(path, "wt", encoding="utf-8")
    return open(path, "w", encoding="utf-8")


def _open_read(path: Path) -> IO[str]:
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")
