"""Lexical-to-value mapping for the supported XSD core types.

Each supported datatype has one parser in ``_PARSERS``: it maps a lexical
form to its value, or to None when the form is outside the datatype's
lexical space, which makes the literal ill-typed (RDF 1.1 Concepts §5.4).
Validity, numeric, temporal and boolean values all read that one table.
A lexical form must match whole: surrounding whitespace or a trailing
newline makes it invalid.

``is_valid_for_datatype`` is total: datatypes outside the supported set
validate as true (conservative non-flagging; catalog lint reports them).
"""
from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from typing import Callable

from .terms import (
    BAD_IRI_CHARS,
    Iri,
    Literal,
    XSD_ANY_URI,
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_GYEAR,
    XSD_INTEGER,
    XSD_NON_NEGATIVE_INTEGER,
    XSD_STRING,
)

# Each pattern is applied with fullmatch.
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
# Any minus sign is rejected, so "-0" is invalid though its value is zero.
_NON_NEGATIVE_INTEGER_RE = re.compile(r"\+?[0-9]+")
_DECIMAL_RE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)")
_DOUBLE_RE = re.compile(
    r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|[+-]?INF|NaN"
)
_TIMEZONE = r"(?:Z|[+-](?:0[0-9]|1[0-4]):[0-5][0-9])?"
_YEAR_MONTH_DAY = r"(-?[0-9]{4,})-([0-9]{2})-([0-9]{2})"
_DATE_RE = re.compile(_YEAR_MONTH_DAY + _TIMEZONE)
_DATETIME_RE = re.compile(
    _YEAR_MONTH_DAY + r"T([0-9]{2}):([0-9]{2}):([0-9]{2}(?:\.[0-9]+)?)" + _TIMEZONE
)
_GYEAR_RE = re.compile(r"(-?(?:[1-9][0-9]{3,}|0[0-9]{3}))" + _TIMEZONE)

_BOOLEANS = {"true": True, "false": False, "1": True, "0": False}
_DAYS_IN_MONTH = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
_ZERO = Fraction(0)


def _exact(convert: Callable[[str], int | Fraction], text: str) -> int | Fraction | Decimal:
    """``convert(text)`` for matched digits. Past the interpreter's int
    digit limit, which guards a quadratic conversion, the value is a
    Decimal: read in linear time and compared exactly with int, Fraction
    and float."""
    try:
        return convert(text)
    except ValueError:
        return Decimal(text)


def _matched(pattern: re.Pattern, convert: Callable[[str], object]) -> Callable[[str], object]:
    def parse(lexical: str):
        return _exact(convert, lexical) if pattern.fullmatch(lexical) else None

    return parse


def _double(lexical: str) -> float | None:
    # float() reads INF, +INF, -INF and NaN as well.
    return float(lexical) if _DOUBLE_RE.fullmatch(lexical) else None


def _calendar_key(m: re.Match, hour: int, minute: int, second: Fraction | Decimal) -> tuple | None:
    """Sortable key of a matched year-month-day, or None off the calendar."""
    month, day = int(m[2]), int(m[3])
    if not 1 <= month <= 12 or day < 1:
        return None
    if day > _DAYS_IN_MONTH[month - 1]:
        # Only 29 February of a leap year lies past its month's table
        # length. The last four digits fix the year modulo 400.
        y = int(m[1][-4:])
        if not (month == 2 and day == 29 and y % 4 == 0 and (y % 100 != 0 or y % 400 == 0)):
            return None
    return (_exact(int, m[1]), month, day, hour, minute, second)


def _date(lexical: str) -> tuple | None:
    m = _DATE_RE.fullmatch(lexical)
    return None if m is None else _calendar_key(m, 0, 0, _ZERO)


def _date_time(lexical: str) -> tuple | None:
    m = _DATETIME_RE.fullmatch(lexical)
    if m is None:
        return None
    hour, minute, second = int(m[4]), int(m[5]), _exact(Fraction, m[6])
    # XSD permits 24:00:00 as the zero instant of the next day only.
    if hour == 24:
        if minute or second:
            return None
    elif hour > 23 or minute > 59 or second >= 60:
        return None
    return _calendar_key(m, hour, minute, second)


def _gyear(lexical: str) -> tuple | None:
    m = _GYEAR_RE.fullmatch(lexical)
    return None if m is None else (_exact(int, m[1]), 1, 1, 0, 0, _ZERO)


def _any_uri(lexical: str) -> str | None:
    return None if BAD_IRI_CHARS.search(lexical) else lexical


_PARSERS: dict[Iri, Callable[[str], object]] = {
    XSD_STRING: str,
    XSD_BOOLEAN: _BOOLEANS.get,
    XSD_INTEGER: _matched(_INTEGER_RE, int),
    XSD_NON_NEGATIVE_INTEGER: _matched(_NON_NEGATIVE_INTEGER_RE, int),
    XSD_DECIMAL: _matched(_DECIMAL_RE, Fraction),
    XSD_DOUBLE: _double,
    XSD_DATE: _date,
    XSD_DATETIME: _date_time,
    XSD_GYEAR: _gyear,
    XSD_ANY_URI: _any_uri,
}

SUPPORTED_DATATYPES = frozenset(_PARSERS)

_NUMERIC = {
    dt: _PARSERS[dt] for dt in (XSD_INTEGER, XSD_NON_NEGATIVE_INTEGER, XSD_DECIMAL, XSD_DOUBLE)
}
_TEMPORAL = {dt: _PARSERS[dt] for dt in (XSD_DATE, XSD_DATETIME, XSD_GYEAR)}


def is_valid_for_datatype(lexical: str, datatype: Iri) -> bool:
    """True iff lexical conforms to the datatype's lexical space.

    Unsupported datatypes, rdf:langString among them, return true (the
    function stays total).
    """
    parse = _PARSERS.get(datatype)
    return parse is None or parse(lexical) is not None


def numeric_value(lit: Literal) -> int | Fraction | float | Decimal | None:
    """Numeric value of a literal, or None when it has none.

    Promotion follows integer → decimal → double; integers and decimals map
    to exact Python numbers so comparisons never lose precision.
    """
    parse = _NUMERIC.get(lit.datatype)
    return None if parse is None else parse(lit.lexical)


def temporal_key(lit: Literal) -> tuple | None:
    """Sortable key for date/dateTime/gYear literals, or None if invalid."""
    parse = _TEMPORAL.get(lit.datatype)
    return None if parse is None else parse(lit.lexical)


def boolean_value(lit: Literal) -> bool | None:
    """Value of an xsd:boolean literal, or None when it has none."""
    return _BOOLEANS.get(lit.lexical) if lit.datatype == XSD_BOOLEAN else None
