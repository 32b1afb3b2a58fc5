"""Label grammar: parsing, normalization, formatting."""

import pytest

from flagcalc.notation import ParseError, format_entries, format_weight, parse_label


def test_single_block():
    p = parse_label("(0,1,2)")
    assert p.weight == (0, 1, 2)
    assert p.blocks == (3,)
    assert not p.double_bar


def test_double_bar_heads_the_blocks():
    p = parse_label("(1||-1,0,0)")
    assert p.weight == (1, -1, 0, 0)
    assert p.blocks == (1, 3)
    assert p.double_bar


def test_mixed_separators():
    p = parse_label("(0||3|0|-3)")
    assert p.blocks == (1, 1, 1, 1)
    p = parse_label("(3|0,0|-3)")
    assert p.blocks == (1, 2, 1)
    assert not p.double_bar


def test_unicode_aliases_accepted_on_input():
    assert parse_label("(1‖−1,0,0)") == parse_label("(1||-1,0,0)")
    assert parse_label("(1∥−1,0,0)") == parse_label("(1||-1,0,0)")


def test_whitespace_and_parens_are_optional():
    assert parse_label(" 1 || -1 , 0 , 0 ") == parse_label("(1||-1,0,0)")


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "()",
        "(1||2||3)",      # second double bar
        "(1|2||3)",       # double bar not first
        "(1,,2)",
        "(1|)",
        "(a,b)",
        "(1||)",
        "((1,2)",
        "(1,²)",          # superscript: isdigit, but not an ASCII digit
        "(٣)",            # Arabic-Indic three: int() reads it, the grammar does not
    ],
)
def test_malformed_labels_raise(bad):
    with pytest.raises(ParseError):
        parse_label(bad)


@pytest.mark.parametrize(
    "text, bad",
    [
        ("(0||0,x)", "x"),
        (" ( −1 ‖ 0 ,\t; )", ";"),   # whitespace, the outer parenthesis and aliases count
        ("0∥0,x", "x"),              # no outer parentheses
        ("(1‖0|)", "|"),             # a trailing separator
        ("(0,  99999" + "9" * 5000 + ")", "9"),
    ],
)
def test_a_parse_error_points_into_the_label_as_given(text, bad):
    with pytest.raises(ParseError) as err:
        parse_label(text)
    assert err.value.pos == text.index(bad)
    assert f" at position {text.index(bad)}: " in str(err.value)


def test_format_is_ascii_inverse():
    for text in ["(1||-1,0,0)", "(0||3|0|-3)", "(3|0,0|-3)", "(-2,0,1)"]:
        p = parse_label(text)
        assert format_entries(p.weight, p.blocks, p.double_bar) == text
        assert parse_label(format_entries(p.weight, p.blocks, p.double_bar)) == p


def test_format_weight():
    assert format_weight((-1, 0, 1)) == "(-1,0,1)"
    assert format_weight((5,)) == "(5)"
