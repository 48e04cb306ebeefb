"""Tokenizer for SPARQLT query text.

Token kinds: keywords (SELECT/WHERE/FILTER and the temporal built-ins),
variables (``?name``), IRIs/identifiers, quoted strings, numbers, date
literals in ISO (``2013-01-01``) or US (``01/01/2013``) form, duration units
(DAY/MONTH/YEAR following a number), punctuation, comparison and boolean
operators.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import LexError

KEYWORDS = {"SELECT", "WHERE", "FILTER", "UNION", "OPTIONAL"}

FUNCTIONS = {
    "YEAR",
    "MONTH",
    "DAY",
    "TSTART",
    "TEND",
    "LENGTH",
    "TOTAL_LENGTH",
}

UNITS = {"DAY", "MONTH", "YEAR"}

#: The two token patterns a constant term may be written in unquoted.
NUMBER = r"\d+(?:\.\d+)?"
IDENT = r"[A-Za-z_][A-Za-z0-9_\-.:/#]*"

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<DATE_US>\d{2}/\d{2}/\d{4})
  | (?P<DATE_ISO>\d{4}-\d{2}-\d{2})
  | (?P<NUMBER>""" + NUMBER + r""")
  | (?P<VAR>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<STRING>"(?:[^"\\]|\\.)*")
  | (?P<IDENT>""" + IDENT + r""")
  | (?P<OP><=|>=|!=|=|<|>|&&|\|\||!)
  | (?P<PUNCT>[{}().,])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    position: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r})"


def tokenize(text: str) -> list[Token]:
    """Split query text into tokens; raises :class:`LexError` on garbage."""
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise LexError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup
        value = match.group()
        pos = match.end()
        if kind == "WS":
            continue
        if kind == "IDENT":
            upper = value.upper()
            if upper in KEYWORDS:
                kind, value = "KEYWORD", upper
            elif upper in FUNCTIONS:
                # Function names double as duration units (DAY/MONTH/YEAR);
                # the parser disambiguates by context.
                kind, value = "FUNC", upper
        tokens.append(Token(kind, value, match.start()))
    tokens.append(Token("EOF", "", len(text)))
    return tokens
