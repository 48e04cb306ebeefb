"""Recursive-descent parser for SPARQLT (Section 3.1).

Grammar (simplified EBNF)::

    query      := SELECT var+ WHERE? '{' clause+ '}'
    clause     := pattern '.'? | FILTER '(' expr ')' '.'?
    pattern    := term term term timeterm
    term       := VAR | IDENT | STRING | NUMBER
    timeterm   := VAR | date
    expr       := orexpr
    orexpr     := andexpr ('||' andexpr)*
    andexpr    := unary ('&&' unary)*
    unary      := '!' unary | primary (CMP primary)?
    primary    := FUNC '(' expr ')' | VAR | literal | '(' expr ')'
    literal    := STRING | NUMBER unit? | date
    unit       := DAY | MONTH | YEAR

Date literals may be ISO (``2013-01-01``) or US (``01/01/2013``).  Durations
are normalized to days (MONTH = 30, YEAR = 365, as documented for the
``LENGTH`` comparisons of Example 3).
"""

from __future__ import annotations

import re

from ..model.time import chronon_to_date, date_to_chronon
from .ast import (
    And,
    GroupGraphPattern,
    Compare,
    Expr,
    FuncCall,
    Literal,
    Not,
    Or,
    QuadPattern,
    Query,
    TermConst,
    TimeConst,
    Var,
    expr_variables,
)
from .errors import EvaluationError, ParseError
from .lexer import IDENT, KEYWORDS, NUMBER, UNITS, Token, tokenize

_UNIT_DAYS = {"DAY": 1, "MONTH": 30, "YEAR": 365}

_COMPARE_OPS = {"=", "!=", "<", "<=", ">", ">="}

#: Deepest nesting a query may have: ``{}`` groups, and in a FILTER both
#: the open parentheses, function calls and ``!`` while it is read and the
#: levels of the expression tree it makes (a chain ``a && b && c`` is two).
#: Parsing, planning and filter evaluation all recurse over these trees —
#: the parser five frames per parenthesis — so the cap sits well under
#: the interpreter's recursion limit of 1000.
MAX_DEPTH = 64


class _Parser:
    def __init__(self, text: str) -> None:
        self._text = text
        self._tokens = tokenize(text)
        self._pos = 0
        self._depth = 0

    # ------------------------------------------------------------- plumbing

    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._current
        self._pos += 1
        return token

    def _expect(self, kind: str, text: str | None = None) -> Token:
        token = self._current
        if token.kind != kind or (text is not None and token.text != text):
            want = text or kind
            raise ParseError(
                f"expected {want}, found {token.text!r} at offset "
                f"{token.position}"
            )
        return self._advance()

    def _accept(self, kind: str, text: str | None = None) -> Token | None:
        token = self._current
        if token.kind == kind and (text is None or token.text == text):
            return self._advance()
        return None

    def _enter(self, token: Token) -> None:
        """Open one nesting level at ``token``; the caller closes it by
        decrementing ``_depth`` (a refusal abandons the parse)."""
        self._depth += 1
        if self._depth > MAX_DEPTH:
            raise ParseError(
                f"nested deeper than {MAX_DEPTH} levels at offset "
                f"{token.position}"
            )

    # -------------------------------------------------------------- grammar

    def parse_query(self) -> Query:
        self._expect("KEYWORD", "SELECT")
        select = []
        while self._current.kind == "VAR":
            select.append(self._advance().text[1:])
        if not select:
            raise ParseError("SELECT needs at least one variable")
        self._accept("KEYWORD", "WHERE")
        group = self._parse_group(self._expect("PUNCT", "{"))
        if not (group.patterns or group.unions):
            raise ParseError("a query needs at least one graph pattern")
        self._expect("EOF")
        _check_filter_scope(group)
        return Query(
            select=select,
            patterns=group.patterns,
            filters=group.filters,
            group=group,
        )

    def _parse_group(self, brace: Token) -> GroupGraphPattern:
        """Parse group elements until the closing '}'; ``brace`` is the
        opening one, already consumed."""
        self._enter(brace)
        group = GroupGraphPattern()
        while not self._accept("PUNCT", "}"):
            if self._current.kind == "EOF":
                raise ParseError("unterminated group: missing '}'")
            if self._accept("KEYWORD", "FILTER"):
                self._expect("PUNCT", "(")
                group.filters.append(self.parse_expr())
                self._expect("PUNCT", ")")
            elif self._accept("KEYWORD", "OPTIONAL"):
                group.optionals.append(
                    self._parse_group(self._expect("PUNCT", "{"))
                )
            elif inner := self._accept("PUNCT", "{"):
                # { A } UNION { B } [UNION { C } ...]; a lone braced group
                # is a nested group, which joins like a one-branch union.
                branches = [self._parse_group(inner)]
                while self._accept("KEYWORD", "UNION"):
                    branches.append(
                        self._parse_group(self._expect("PUNCT", "{"))
                    )
                group.unions.append(branches)
            else:
                group.patterns.append(self._parse_pattern())
            self._accept("PUNCT", ".")
        self._depth -= 1
        return group

    def _parse_pattern(self) -> QuadPattern:
        subject = self._parse_term()
        predicate = self._parse_term()
        object_ = self._parse_term()
        time = self._parse_time_term()
        return QuadPattern(subject, predicate, object_, time)

    def _parse_term(self):
        token = self._current
        if token.kind == "VAR":
            self._advance()
            return Var(token.text[1:])
        if token.kind == "IDENT" or token.kind == "FUNC":
            self._advance()
            # a FUNC token's text is upper-cased; a term keeps its spelling
            start = token.position
            return TermConst(self._text[start:start + len(token.text)])
        if token.kind == "STRING":
            self._advance()
            return TermConst(_unquote(token.text))
        if token.kind == "NUMBER":
            self._advance()
            return TermConst(token.text)
        raise ParseError(
            f"expected a term, found {token.text!r} at offset {token.position}"
        )

    def _parse_time_term(self):
        token = self._current
        if token.kind == "VAR":
            self._advance()
            return Var(token.text[1:])
        if token.kind in ("DATE_ISO", "DATE_US"):
            self._advance()
            return TimeConst(date_to_chronon(token.text))
        raise ParseError(
            "the temporal position needs a variable or a date, found "
            f"{token.text!r} at offset {token.position}"
        )

    # ---------------------------------------------------------- expressions

    def parse_expr(self) -> Expr:
        """A whole FILTER expression, refused when its tree is deeper
        than :data:`MAX_DEPTH`."""
        start = self._pos
        expr = self._parse_or()
        # every node of the tree took at least one token, so only a long
        # expression can be a deep one
        if self._pos - start > MAX_DEPTH and _height(expr) > MAX_DEPTH:
            raise ParseError(
                f"expression nested deeper than {MAX_DEPTH} levels at "
                f"offset {self._tokens[start].position}"
            )
        return expr

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self._accept("OP", "||"):
            left = Or(left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_unary()
        while self._accept("OP", "&&"):
            left = And(left, self._parse_unary())
        return left

    def _parse_unary(self) -> Expr:
        if bang := self._accept("OP", "!"):
            self._enter(bang)
            operand = self._parse_unary()
            self._depth -= 1
            return Not(operand)
        left = self._parse_primary()
        token = self._current
        if token.kind == "OP" and token.text in _COMPARE_OPS:
            self._advance()
            right = self._parse_primary()
            return Compare(token.text, left, right)
        return left

    def _parse_primary(self) -> Expr:
        token = self._current
        if token.kind == "FUNC":
            self._advance()
            self._expect("PUNCT", "(")
            self._enter(token)
            arg = self._parse_or()
            self._depth -= 1
            self._expect("PUNCT", ")")
            return FuncCall(token.text, arg)
        if token.kind == "VAR":
            self._advance()
            return Var(token.text[1:])
        if token.kind == "STRING":
            self._advance()
            return Literal(_unquote(token.text), "string")
        if token.kind in ("DATE_ISO", "DATE_US"):
            self._advance()
            return Literal(date_to_chronon(token.text), "date")
        if token.kind == "NUMBER":
            self._advance()
            value = float(token.text) if "." in token.text else int(token.text)
            unit = self._accept_unit()
            if unit is not None:
                return Literal(int(value) * _UNIT_DAYS[unit], "duration")
            return Literal(value, "number")
        if token.kind == "IDENT":
            self._advance()
            return Literal(token.text, "string")
        if self._accept("PUNCT", "("):
            self._enter(token)
            inner = self._parse_or()
            self._depth -= 1
            self._expect("PUNCT", ")")
            return inner
        raise ParseError(
            f"expected an expression, found {token.text!r} at offset "
            f"{token.position}"
        )

    def _accept_unit(self) -> str | None:
        token = self._current
        if token.kind == "FUNC" and token.text in UNITS:
            # Disambiguate unit vs function: a unit is not followed by '('.
            next_token = self._tokens[self._pos + 1]
            if not (next_token.kind == "PUNCT" and next_token.text == "("):
                self._advance()
                return token.text
        return None


def _check_filter_scope(query_group: GroupGraphPattern) -> None:
    """Refuse a FILTER that names a variable no pattern of the query binds.

    The one static filter error: raised before any data is read, so every
    evaluator that parses the query reports it the same way.
    """
    bound = query_group.variables()
    groups = [query_group]
    while groups:
        group = groups.pop()
        for expr in group.filters:
            missing = expr_variables(expr) - bound
            if missing:
                raise EvaluationError(
                    f"FILTER names ?{min(missing)}, which no pattern binds"
                )
        groups.extend(branch for union in group.unions for branch in union)
        groups.extend(group.optionals)


def _height(expr: Expr) -> int:
    """Levels in an expression tree, counted without recursion."""
    height, level = 0, [expr]
    while level:
        height += 1
        level = [child for node in level for child in _operands(node)]
    return height


def _operands(expr: Expr) -> tuple:
    if isinstance(expr, (And, Or, Compare)):
        return (expr.left, expr.right)
    if isinstance(expr, FuncCall):
        return (expr.arg,)
    if isinstance(expr, Not):
        return (expr.operand,)
    return ()


def _unquote(text: str) -> str:
    return text[1:-1].replace('\\"', '"').replace("\\\\", "\\")


def _quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def parse(text: str) -> Query:
    """Parse SPARQLT query text into a :class:`~repro.sparqlt.ast.Query`."""
    return _Parser(text).parse_query()


def unparse(query: Query) -> str:
    """SPARQLT text that :func:`parse` reads back as ``query``.

    A constant is written bare when the lexer reads it back as one
    NUMBER or IDENT token (a keyword's spelling is not one), and quoted
    otherwise.  An expression is parenthesized only where the grammar's
    precedence needs it, so the text nests no deeper than the source of
    a parsed query did.
    """
    select = "".join(f" ?{name}" for name in query.select)
    return f"SELECT{select} {_unparse_group(query.group)}"


def _unparse_group(group: GroupGraphPattern) -> str:
    parts = [
        " ".join(map(_unparse_term, (p.subject, p.predicate, p.object,
                                     p.time)))
        for p in group.patterns
    ]
    parts += [" UNION ".join(map(_unparse_group, union))
              for union in group.unions]
    parts += [f"OPTIONAL {_unparse_group(optional)}"
              for optional in group.optionals]
    parts += [f"FILTER({_unparse_expr(expr, _OR)})"
              for expr in group.filters]
    return "{" + " . ".join(parts) + "}"


def _unparse_term(term: Var | TermConst | TimeConst) -> str:
    if isinstance(term, Var):
        return f"?{term.name}"
    if isinstance(term, TimeConst):
        return chronon_to_date(term.chronon).isoformat()
    value = term.value
    if re.fullmatch(NUMBER, value) or (
            re.fullmatch(IDENT, value) and value.upper() not in KEYWORDS):
        return value
    return _quote(value)


#: Operand positions, loosest first: an operand whose own level is
#: looser than its position's is parenthesized.
_OR, _AND, _UNARY, _PRIMARY = range(4)


def _unparse_expr(expr: Expr, position: int) -> str:
    if isinstance(expr, Or):
        level = _OR
        text = (f"{_unparse_expr(expr.left, _OR)} || "
                f"{_unparse_expr(expr.right, _AND)}")
    elif isinstance(expr, And):
        level = _AND
        text = (f"{_unparse_expr(expr.left, _AND)} && "
                f"{_unparse_expr(expr.right, _UNARY)}")
    elif isinstance(expr, Not):
        level, text = _UNARY, f"!{_unparse_expr(expr.operand, _UNARY)}"
    elif isinstance(expr, Compare):
        level = _UNARY
        text = (f"{_unparse_expr(expr.left, _PRIMARY)} {expr.op} "
                f"{_unparse_expr(expr.right, _PRIMARY)}")
    elif isinstance(expr, FuncCall):
        level, text = _PRIMARY, f"{expr.name}({_unparse_expr(expr.arg, _OR)})"
    elif isinstance(expr, Var):
        level, text = _PRIMARY, f"?{expr.name}"
    else:
        level, text = _PRIMARY, _unparse_literal(expr)
    return text if level >= position else f"({text})"


def _unparse_literal(literal: Literal) -> str:
    value = literal.value
    if literal.kind == "string":
        return _quote(value)
    if literal.kind == "date":
        return chronon_to_date(value).isoformat()
    if literal.kind == "duration":
        return f"{value} DAY"
    text = repr(value)
    if "e" not in text:
        return text
    # The lexer reads no exponent (1e+16, 5e-324): the same shortest
    # digits, with the point shifted out of the exponent.
    mantissa, exponent = text.split("e")
    whole, _, fraction = mantissa.partition(".")
    digits = whole + fraction
    point = len(whole) + int(exponent)
    if point <= 0:
        return "0." + "0" * -point + digits
    if point >= len(digits):
        return digits + "0" * (point - len(digits)) + ".0"
    return f"{digits[:point]}.{digits[point:]}"


def parse_expression(text: str) -> Expr:
    """Parse a standalone filter expression (useful in tests and tools)."""
    parser = _Parser(text)
    expr = parser.parse_expr()
    parser._expect("EOF")
    return expr
