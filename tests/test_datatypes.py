"""Lexical validation and value extraction for the supported datatypes."""
import math
from fractions import Fraction

from rdfval.datatypes import (
    boolean_value,
    is_valid_for_datatype,
    numeric_value,
    temporal_order,
    temporal_value,
)
from rdfval.terms import (
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


def ok(lexical, dt):
    assert is_valid_for_datatype(lexical, dt), (lexical, dt.text)


def bad(lexical, dt):
    assert not is_valid_for_datatype(lexical, dt), (lexical, dt.text)


def test_integer_lexicals():
    for lex in ("0", "5", "05", "-3", "+7", "0012"):
        ok(lex, XSD_INTEGER)
    for lex in ("", "1.0", "abc", "1e2", " 1", "1 ", "+-1", "--1", "1\n"):
        bad(lex, XSD_INTEGER)


def test_non_negative_integer_rejects_any_minus_sign():
    for lex in ("0", "2", "+2", "007"):
        ok(lex, XSD_NON_NEGATIVE_INTEGER)
    for lex in ("-1", "-0", "x"):
        bad(lex, XSD_NON_NEGATIVE_INTEGER)


def test_boolean_lexicals():
    for lex in ("true", "false", "1", "0"):
        ok(lex, XSD_BOOLEAN)
    for lex in ("True", "FALSE", "yes", "", "01"):
        bad(lex, XSD_BOOLEAN)


def test_decimal_lexicals():
    for lex in ("2.5", ".5", "5.", "5", "-0.0", "+1.25"):
        ok(lex, XSD_DECIMAL)
    for lex in ("", ".", "1.2.3", "1e2", "abc"):
        bad(lex, XSD_DECIMAL)


def test_double_lexicals_and_specials():
    for lex in ("1e3", "-1.5E-2", "2.0", "3", "INF", "+INF", "-INF", "NaN"):
        ok(lex, XSD_DOUBLE)
    for lex in ("inf", "nan", "1e", "e3", ""):
        bad(lex, XSD_DOUBLE)


def test_date_respects_the_calendar():
    for lex in ("2015-06-01", "2016-02-29", "2000-02-29", "2015-06-01Z", "2015-06-01+05:30"):
        ok(lex, XSD_DATE)
    for lex in ("2015-02-29", "2015-02-30", "1900-02-29", "2015-13-01", "2015-00-10", "2015-6-1", "2015-06-32", "2015-06-01\n"):
        bad(lex, XSD_DATE)


def test_datetime_needs_time_part():
    for lex in (
        "2015-06-01T12:00:00",
        "2015-06-01T12:00:00.5",
        "2015-06-01T12:00:00Z",
        "2015-06-01T24:00:00",
    ):
        ok(lex, XSD_DATETIME)
    for lex in ("2015-06-01", "2015-06-01T24:00:01", "2015-06-01T25:00:00", "2015-06-01 12:00:00", "2015-06-01\nT12:00:00"):
        bad(lex, XSD_DATETIME)


def test_gyear_needs_at_least_four_digits():
    for lex in ("2015", "0001", "-0500", "12015"):
        ok(lex, XSD_GYEAR)
    for lex in ("15", "215", "year", ""):
        bad(lex, XSD_GYEAR)


def test_anyuri_rejects_spaces_and_delimiters():
    for lex in ("http://example.org/ok", "urn:ex:a", "relative/ok"):
        ok(lex, XSD_ANY_URI)
    for lex in ("not a uri", "<x>", "a\\b", "a\nb"):
        bad(lex, XSD_ANY_URI)


def test_unknown_datatypes_are_not_validated():
    ok("anything at all", Iri("urn:ex:custom"))
    ok("anything at all", XSD_STRING)


def test_numeric_value_kinds():
    assert numeric_value(Literal("5", XSD_INTEGER)) == 5
    assert numeric_value(Literal("05", XSD_INTEGER)) == 5
    assert numeric_value(Literal("2.50", XSD_DECIMAL)) == Fraction(5, 2)
    assert numeric_value(Literal("1e3", XSD_DOUBLE)) == 1000.0
    assert numeric_value(Literal("INF", XSD_DOUBLE)) == math.inf
    assert math.isnan(numeric_value(Literal("NaN", XSD_DOUBLE)))
    assert numeric_value(Literal("abc", XSD_INTEGER)) is None
    assert numeric_value(Literal("5")) is None
    assert numeric_value(Literal("true", XSD_BOOLEAN)) is None


def temporal_key(lit):
    value = temporal_value(lit)
    return None if value is None else value[0]


def test_temporal_key_orders_dates_and_datetimes_together():
    d = temporal_key(Literal("2015-06-01", XSD_DATE))
    dt = temporal_key(Literal("2015-06-01T00:00:00", XSD_DATETIME))
    later = temporal_key(Literal("2015-06-01T00:00:01", XSD_DATETIME))
    assert d == dt < later
    assert temporal_key(Literal("2015", XSD_GYEAR)) < d
    assert temporal_key(Literal("not a date", XSD_DATE)) is None
    assert temporal_key(Literal("5", XSD_INTEGER)) is None


def test_temporal_key_values():
    assert temporal_key(Literal("2015-06-01T24:00:00", XSD_DATETIME)) == (2015, 6, 2, 0, 0, Fraction(0))
    assert temporal_key(Literal("2015-06-01T12:00:07.25+02:00", XSD_DATETIME))[5] == Fraction(29, 4)
    assert temporal_key(Literal("-0500", XSD_GYEAR))[0] == -500


def test_numeric_value_edges():
    assert numeric_value(Literal("-0", XSD_NON_NEGATIVE_INTEGER)) is None
    assert numeric_value(Literal("+INF", XSD_DOUBLE)) == math.inf


def test_boolean_value():
    values = [boolean_value(Literal(lex, XSD_BOOLEAN)) for lex in ("true", "false", "1", "0")]
    assert values == [True, False, True, False]
    assert boolean_value(Literal("yes", XSD_BOOLEAN)) is None
    assert boolean_value(Literal("true")) is None
    assert boolean_value(Literal("1", XSD_INTEGER)) is None


def test_values_past_the_int_digit_limit_stay_exact():
    digits = "9" * 5000
    assert is_valid_for_datatype(digits, XSD_INTEGER)
    assert is_valid_for_datatype(digits + ".5", XSD_DECIMAL)
    leap_year = "1" + "0" * 4999
    assert is_valid_for_datatype(leap_year + "-02-29", XSD_DATE)
    assert not is_valid_for_datatype(digits + "-02-29", XSD_DATE)
    big = numeric_value(Literal(digits, XSD_INTEGER))
    assert 10**4999 < big < 10**5000 and big == 10**5000 - 1
    assert numeric_value(Literal("-" + digits + ".5", XSD_DECIMAL)) < -(10**4999)
    assert temporal_key(Literal(digits, XSD_GYEAR)) > temporal_key(Literal("2015", XSD_GYEAR))


def dt(lexical):
    return Literal(lexical, XSD_DATETIME)


def test_zoned_values_order_by_utc_instant():
    # XSD 1.1 Part 2, 3.3.7: two timezoned values compare by instant.
    assert temporal_key(dt("2015-06-01T12:00:00+05:00")) < temporal_key(dt("2015-06-01T08:00:00Z"))
    assert temporal_key(dt("2015-06-01T12:00:00+05:00")) == temporal_key(dt("2015-06-01T07:00:00Z"))
    assert temporal_key(dt("2015-06-01T23:30:00-01:00")) == temporal_key(dt("2015-06-02T00:30:00Z"))
    assert temporal_key(dt("2016-03-01T01:00:00+02:00")) == temporal_key(dt("2016-02-29T23:00:00Z"))
    assert temporal_key(dt("2015-12-31T24:00:00Z")) == temporal_key(dt("2016-01-01T00:00:00Z"))
    assert temporal_key(Literal("2015-06-01+05:30", XSD_DATE)) == temporal_key(dt("2015-05-31T18:30:00Z"))
    assert temporal_key(Literal("2015-14:00", XSD_GYEAR)) == temporal_key(dt("2015-01-01T14:00:00Z"))
    # Unzoned values keep their local fields.
    assert temporal_value(dt("2015-06-01T12:00:00")) == ((2015, 6, 1, 12, 0, Fraction(0)), False)
    zoned, local = temporal_value(dt("2015-06-01T12:00:00Z")), temporal_value(dt("2015-06-01T13:00:00"))
    assert temporal_order(zoned, zoned) == 0
    assert temporal_order(local, local) == 0


def test_zoned_and_unzoned_values_order_only_when_determinate():
    # An unzoned value may sit in any zone from -14:00 to +14:00.
    zoned = temporal_value(dt("2015-06-01T12:00:00Z"))

    def order(lexical):
        return temporal_order(zoned, temporal_value(dt(lexical)))

    assert order("2015-06-02T02:00:01") == -1
    assert order("2015-05-31T21:59:59") == 1
    for lexical in ("2015-06-01T12:00:00", "2015-06-02T02:00:00", "2015-05-31T22:00:00", "2015-06-01T20:00:00"):
        assert order(lexical) is None, lexical
    assert temporal_order(temporal_value(dt("2015-06-02T02:00:01")), zoned) == 1
    assert temporal_order(temporal_value(Literal("2015-06-03", XSD_DATE)), zoned) == 1
    assert temporal_order(temporal_value(Literal("2015-06-02", XSD_DATE)), zoned) is None


def test_hour_24_is_the_first_instant_of_the_next_day():
    # XSD 1.1 Part 2, 3.3.7: 24:00:00 is 00:00:00 of the following day,
    # for unzoned values as for zoned ones.
    assert temporal_order(temporal_value(dt("2015-06-01T24:00:00")), temporal_value(dt("2015-06-02T00:00:00"))) == 0
    assert temporal_order(temporal_value(dt("2015-06-01T24:00:00")), temporal_value(dt("2015-06-01T23:59:59"))) == 1
    new_year = temporal_value(Literal("0001", XSD_GYEAR))
    assert temporal_order(temporal_value(dt("0000-12-31T24:00:00")), new_year) == 0
