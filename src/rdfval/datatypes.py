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
from decimal import MAX_PREC, Context, Decimal
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
_TIMEZONE = r"(?P<tz>Z|[+-](?:0[0-9]|1[0-4]):[0-5][0-9])?"
_YEAR_MONTH_DAY = r"(-?[0-9]{4,})-([0-9]{2})-([0-9]{2})"
_DATE_RE = re.compile(_YEAR_MONTH_DAY + _TIMEZONE)
_DATETIME_RE = re.compile(
    _YEAR_MONTH_DAY + r"T([0-9]{2}):([0-9]{2}):([0-9]{2}(?:\.[0-9]+)?)" + _TIMEZONE
)
_GYEAR_RE = re.compile(r"(-?(?:[1-9][0-9]{3,}|0[0-9]{3}))" + _TIMEZONE)

_BOOLEANS = {"true": True, "false": False, "1": True, "0": False}
_DAYS_IN_MONTH = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
_ZERO = Fraction(0)
# The widest zone offset in minutes: an unzoned time may be any instant
# this close to its local reading.
_MAX_OFFSET = 14 * 60
# Years past the int digit limit are Decimals; this context adds to them
# without rounding.
_EXACT = Context(prec=MAX_PREC)


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


def _month_days(year: int | Decimal, month: int) -> int:
    if month != 2:
        return _DAYS_IN_MONTH[month - 1]
    # The last four digits fix the year modulo 400.
    y = int(str(year)[-4:])
    return 29 if y % 4 == 0 and (y % 100 != 0 or y % 400 == 0) else 28


def _next_year(year: int | Decimal, step: int) -> int | Decimal:
    return _EXACT.add(year, step) if isinstance(year, Decimal) else year + step


def _shift(key: tuple, minutes: int) -> tuple:
    """A calendar key moved by less than a day either way; an hour of 24
    carries into the next day."""
    year, month, day, hour, minute, second = key
    days, minute = divmod(hour * 60 + minute + minutes, 1440)
    if days > 0:
        if day < _month_days(year, month):
            day += 1
        elif month < 12:
            month, day = month + 1, 1
        else:
            year, month, day = _next_year(year, 1), 1, 1
    elif days < 0:
        if day > 1:
            day -= 1
        elif month > 1:
            month, day = month - 1, _month_days(year, month - 1)
        else:
            year, month, day = _next_year(year, -1), 12, 31
    return (year, month, day, minute // 60, minute % 60, second)


def _calendar_value(m: re.Match, month: int, day: int, hour: int, minute: int, second) -> tuple | None:
    """The temporal value ``(key, zoned)`` of a match whose group 1 is the
    year, or None off the calendar. A key is sortable; that of a zoned
    value is its UTC instant, that of an unzoned one its local time. Both
    read 24:00:00 as the first instant of the next day."""
    year = _exact(int, m[1])
    if not 1 <= month <= 12 or not 1 <= day <= _month_days(year, month):
        return None
    tz = m["tz"]
    offset = 0 if tz is None or tz == "Z" else int(tz[0] + "1") * (int(tz[1:3]) * 60 + int(tz[4:]))
    return _shift((year, month, day, hour, minute, second), -offset), tz is not None


def _date(lexical: str) -> tuple | None:
    m = _DATE_RE.fullmatch(lexical)
    return None if m is None else _calendar_value(m, int(m[2]), int(m[3]), 0, 0, _ZERO)


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
    return _calendar_value(m, int(m[2]), int(m[3]), hour, minute, second)


def _gyear(lexical: str) -> tuple | None:
    m = _GYEAR_RE.fullmatch(lexical)
    return None if m is None else _calendar_value(m, 1, 1, 0, 0, _ZERO)


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


def temporal_value(lit: Literal) -> tuple[tuple, bool] | None:
    """``(key, zoned)`` of a date/dateTime/gYear literal, or None if it is
    invalid or of another datatype. The key is a sortable tuple: the UTC
    instant of a zoned value, the local time of an unzoned one."""
    parse = _TEMPORAL.get(lit.datatype)
    return None if parse is None else parse(lit.lexical)


def temporal_order(a: tuple[tuple, bool], b: tuple[tuple, bool]) -> int | None:
    """-1, 0 or 1 as the temporal value `a` is before, at or after `b`.

    Two zoned values compare by instant and two unzoned ones by local
    time. A zoned and an unzoned value are ordered only where the order
    holds whatever zone the unzoned one is in (XSD 1.1 Part 2, §3.3.7:
    more than 14 hours apart); otherwise the result is None.
    """
    (ka, zoned), (kb, b_zoned) = a, b
    if zoned == b_zoned:
        return (ka > kb) - (ka < kb)
    if not zoned:
        order = temporal_order(b, a)
        return None if order is None else -order
    if ka < _shift(kb, -_MAX_OFFSET):
        return -1
    if ka > _shift(kb, _MAX_OFFSET):
        return 1
    return None


def boolean_value(lit: Literal) -> bool | None:
    """Value of an xsd:boolean literal, or None when it has none."""
    return _BOOLEANS.get(lit.lexical) if lit.datatype == XSD_BOOLEAN else None
