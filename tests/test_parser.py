import random
import string

import numpy as np
import pytest

from polypath.errors import DuplicateName, ParseError, UndeclaredIdentifier
from polypath.parser import (
    parse_complex_literal,
    parse_input_file,
    parse_polynomial,
    polynomial_to_string,
    render_problem,
)


def test_expansion_of_shifted_circle():
    poly = parse_polynomial("(x-1)^2+y^2-1", ["x", "y"])
    assert poly.terms() == {(2, 0): 1.0, (1, 0): -2.0, (0, 2): 1.0}


def test_cancellation_gives_zero_polynomial():
    poly = parse_polynomial("x - x", ["x"])
    assert poly.is_zero
    assert poly.terms() == {}


def test_imaginary_coefficient():
    poly = parse_polynomial("2*I*x^2", ["x"])
    assert poly.terms() == {(2,): 2.0j}


def test_power_binds_tighter_than_unary_minus():
    poly = parse_polynomial("-x^2", ["x"])
    assert poly.terms() == {(2,): -1.0}


def test_power_zero_is_one():
    poly = parse_polynomial("x^0 + 1", ["x"])
    assert poly.terms() == {(0,): 2.0}


def test_implicit_multiplication_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("2x", ["x"])


def test_unknown_identifier_position():
    with pytest.raises(UndeclaredIdentifier) as err:
        parse_polynomial("x + w^2", ["x", "y"])
    assert err.value.line == 1
    assert err.value.column == 5
    assert err.value.token == "w"


def test_fractional_and_negative_exponents_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("x^2.5", ["x"])
    with pytest.raises(ParseError):
        parse_polynomial("x^-2", ["x"])


def test_unbalanced_parens_and_empty_input():
    with pytest.raises(ParseError):
        parse_polynomial("(x + 1", ["x"])
    with pytest.raises(ParseError):
        parse_polynomial("", ["x"])


def test_number_literals():
    poly = parse_polynomial(".5 + 2e-3*x + 1.25e+1*x^2", ["x"])
    assert poly.terms() == {(0,): 0.5, (1,): 0.002, (2,): 12.5}


def test_file_circle_pair():
    spec = parse_input_file("""
% the two unit circles
vars x, y;
f1 = x^2 + y^2 - 1;
f2 = (x - 1)^2 + y^2 - 1;
""")
    assert spec.system.num_vars == 2
    assert spec.system.n == 2
    assert not spec.declared_projective


def test_file_with_parameters_in_order():
    spec = parse_input_file("""
vars x, y;
params a, b, c;
f1 = a*x^2 + b*y^2 - c;
f2 = y;
""")
    assert spec.system.parameters == ("a", "b", "c")


def test_projective_statement():
    spec = parse_input_file("vars x, y, z; projective; f1 = y^2 - 4*z^2; f2 = 16*x^2 - y^2;")
    assert spec.declared_projective


def test_undeclared_identifier_in_file():
    with pytest.raises(UndeclaredIdentifier) as err:
        parse_input_file("vars x, y;\nf1 = x + w;\n")
    assert err.value.token == "w"
    assert err.value.line == 2


def test_duplicate_names():
    with pytest.raises(DuplicateName):
        parse_input_file("vars x, x; f1 = x;")
    with pytest.raises(DuplicateName):
        parse_input_file("vars x; params x; f1 = x;")
    with pytest.raises(DuplicateName):
        parse_input_file("vars x; f1 = x; f1 = x + 1;")
    with pytest.raises(DuplicateName):
        parse_input_file("vars x; vars y; f1 = x;")


def test_labels_are_not_usable_in_expressions():
    with pytest.raises(UndeclaredIdentifier):
        parse_input_file("vars x; f1 = x; f2 = f1 + 1;")


def test_label_may_not_shadow_variables():
    with pytest.raises(DuplicateName):
        parse_input_file("vars x; x = x + 1;")


def test_reserved_words_rejected():
    with pytest.raises(ParseError):
        parse_input_file("vars I; f1 = I;")
    with pytest.raises(ParseError):
        parse_input_file("vars x, projective; f1 = x;")
    with pytest.raises(ParseError):
        parse_polynomial("I", ["I"])
    with pytest.raises(DuplicateName):
        parse_polynomial("x", ["x"], ["x"])


def test_missing_vars_or_equations():
    with pytest.raises(ParseError):
        parse_input_file("f1 = 1;")
    with pytest.raises(ParseError):
        parse_input_file("vars x;")


def test_whitespace_and_comments_do_not_matter():
    a = parse_input_file("vars x, y; f1 = x^2 + y^2 - 1;")
    b = parse_input_file("""
  % a comment
vars	x ,
     y ;   % trailing comment
f1 =
   x^2
 + y^2 - 1 ;
""")
    assert a.system.polys[0] == b.system.polys[0]


def test_roundtrip_through_pretty_printer():
    rng = random.Random(17)
    names = ["x", "y", "z"]
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(1, 7)):
            e = tuple(rng.randint(0, 4) for _ in names)
            c = complex(round(rng.uniform(-3, 3), 3), round(rng.uniform(-3, 3), 3))
            if rng.random() < 0.3:
                c = complex(c.real, 0.0)
            if c != 0:
                terms[e] = terms.get(e, 0) + c
        from polypath.polysys import Polynomial
        poly = Polynomial.from_terms(terms, 3)
        text = polynomial_to_string(poly, names)
        again = parse_polynomial(text, names)
        assert again == poly, text


def test_render_problem_roundtrip(circles):
    text = render_problem(circles)
    spec = parse_input_file(text)
    assert spec.system.variables == circles.variables
    assert all(p == q for p, q in zip(spec.system.polys, circles.polys))


def test_complex_literals():
    assert parse_complex_literal("1+2*I") == 1 + 2j
    assert parse_complex_literal("-0.5") == -0.5
    assert parse_complex_literal("(2 - I)*3") == 6 - 3j
    with pytest.raises(ParseError):
        parse_complex_literal("1 + x")


def test_fuzz_smoke_no_crashes():
    rng = random.Random(99)
    alphabet = string.ascii_letters + string.digits + "+-*^()=,;.% \n\tI_"
    for _ in range(1500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 200)))
        try:
            parse_input_file(text)
        except ParseError:
            pass


PAPER_EXPRESSIONS = [
    # text, variables, hand-expanded term dict
    ("(x-1)^2+y^2-1", ["x", "y"], {(2, 0): 1, (1, 0): -2, (0, 2): 1}),
    ("y^2 - 4*z^2", ["x", "y", "z"], {(0, 2, 0): 1, (0, 0, 2): -4}),
    ("16*x^2 - y^2", ["x", "y", "z"], {(2, 0, 0): 16, (0, 2, 0): -1}),
    ("(y^2+x^2+z^2-1)*x", ["x", "y", "z"],
     {(1, 2, 0): 1, (3, 0, 0): 1, (1, 0, 2): 1, (1, 0, 0): -1}),
    ("(x^2+y^2-z^2)*(z-x)", ["x", "y", "z"],
     {(2, 0, 1): 1, (3, 0, 0): -1, (0, 2, 1): 1, (1, 2, 0): -1,
      (0, 0, 3): -1, (1, 0, 2): 1}),
    ("(x^2+y^2-z^2)*(z+y)", ["x", "y", "z"],
     {(2, 0, 1): 1, (2, 1, 0): 1, (0, 2, 1): 1, (0, 3, 0): 1,
      (0, 0, 3): -1, (0, 1, 2): -1}),
]


@pytest.mark.parametrize("text,variables,expanded", PAPER_EXPRESSIONS)
def test_paper_expressions_match_hand_expansion(text, variables, expanded):
    poly = parse_polynomial(text, variables)
    from polypath.polysys import Polynomial, PolySystem
    expect = Polynomial.from_terms({k: complex(v) for k, v in expanded.items()},
                                   len(variables))
    both = PolySystem(variables, [poly, expect])
    rng = np.random.Generator(np.random.PCG64(1))
    for _ in range(10):
        z = rng.standard_normal(len(variables)) + 1j * rng.standard_normal(len(variables))
        a, b = both.evaluate(z)
        assert abs(a - b) <= 1e-12 * (1.0 + abs(b))


def test_parameterized_paper_expression():
    poly = parse_polynomial("a*x^2+b*y^2-c", ["x", "y"], ["a", "b", "c"])
    assert poly.terms() == {(2, 0, 1, 0, 0): 1.0, (0, 2, 0, 1, 0): 1.0,
                            (0, 0, 0, 0, 1): -1.0}


_TEN = "a+b+c+d+e+f+g+h+i+j+1"

# One input for each place where the parser raises, with the error's class,
# line, column and token.  The entry point is parse_input_file ("file"),
# parse_complex_literal ("literal") or parse_polynomial ("polynomial", whose
# input is (text, variables, parameters)).  tools/golden_cli.py runs the
# file cases through `solve` and the literal cases through `param --values`.
PARSE_ERRORS = [
    ("file", "vars x;\nf1 = x $ 1;", ParseError, 2, 8, "$"),
    ("file", "vars x;\nf1 = ²;", ParseError, 2, 6, "²"),
    ("file", f"vars a, b, c, d, e, f, g, h, i, j;\nf1 = ({_TEN})^4*({_TEN})^4;",
     ParseError, 2, 31, "*"),
    ("file", "vars x;\nf1 = (x + 1;", ParseError, 2, 11, ""),
    ("literal", "", ParseError, 1, 1, ""),
    ("literal", "1 2", ParseError, 1, 3, "2"),
    ("file", "vars x;\nf1 = " + "-" * 401 + "x;", ParseError, 2, 406, ""),
    ("file", "vars x;\nf1 = x^2.5;", ParseError, 2, 8, "2.5"),
    ("file", "vars x;\nf1 = x^10001;", ParseError, 2, 8, "10001"),
    ("file", "vars x, y;\nf1 = x + w;", UndeclaredIdentifier, 2, 10, "w"),
    ("file", "vars x;\nf1 = x + *;", ParseError, 2, 10, "*"),
    ("file", "vars x;\nf1 = 1e400*x;", ParseError, 2, 6, "1e400"),
    ("literal", "2e308", ParseError, 1, 1, "2e308"),
    ("polynomial", ("1", [], []), ParseError, 1, 1, ""),
    ("polynomial", ("x", ["x"], ["x"]), DuplicateName, 1, 1, ""),
    ("polynomial", ("I", ["I"], []), ParseError, 1, 1, ""),
    ("file", "vars x;\nf1 = x", ParseError, 2, 6, "x"),
    ("file", "vars x, 1;\nf1 = x;", ParseError, 1, 9, "1"),
    ("file", "vars x y;\nf1 = x;", ParseError, 1, 8, "y"),
    ("file", "vars x,;\nf1 = x;", ParseError, 1, 1, "vars"),
    ("file", "params;\nvars x;\nf1 = x;", ParseError, 1, 1, "params"),
    ("file", "vars x, I;\nf1 = x;", ParseError, 1, 9, "I"),
    ("file", "vars x;\nf1 = x;\nf1 = x + 1;", DuplicateName, 3, 1, "f1"),
    ("file", "vars x;\nvars y;\nf1 = x;", DuplicateName, 2, 1, "vars"),
    ("file", "vars x;\nparams a;\nparams b;\nf1 = x;", DuplicateName, 3, 1, "params"),
    ("file", "vars x;\nf1 x;", ParseError, 2, 1, "f1"),
    ("file", "f1 = 1;", ParseError, 1, 8, ""),
    ("file", "vars x; % no equations", ParseError, 1, 9, ""),
    ("file", "vars x;\nf1 = ;", ParseError, 2, 1, "f1"),
]


@pytest.mark.parametrize("entry, text, error, line, column, token", PARSE_ERRORS)
def test_every_parse_error_reports_its_position(entry, text, error, line, column, token):
    call = {"file": parse_input_file, "literal": parse_complex_literal,
            "polynomial": lambda args: parse_polynomial(*args)}[entry]
    with pytest.raises(ParseError) as err:
        call(text)
    assert type(err.value) is error
    assert (err.value.line, err.value.column, err.value.token) == (line, column, token)


@pytest.mark.parametrize("text, value", [("1e-400", 0.0), ("1.7976931348623157e308", 1.7976931348623157e308)])
def test_literals_at_the_ends_of_the_float_range_are_read(text, value):
    assert parse_complex_literal(text) == value


@pytest.mark.parametrize("levels", [250, 300])
def test_deep_parentheses_are_a_parse_error(levels):
    text = "(" * levels + "x" + ")" * levels
    with pytest.raises(ParseError, match="nested too deeply") as err:
        parse_polynomial(text, ["x"])
    assert (err.value.line, err.value.column) == (1, 101)
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_input_file(f"vars x;\nf1 = {text};")


def test_parentheses_parse_up_to_the_depth_bound():
    assert parse_polynomial("(" * 99 + "x" + ")" * 99, ["x"]).terms() == {(1,): 1.0}


@pytest.mark.parametrize("text, column, token", [
    ("vars x, y;\nf1 = 1e200*1e200*x^2 + y^2 - 1;\nf2 = x - y;", 11, "*"),
    ("vars x;\nf1 = 1e200^2*x + 1;", 11, "^"),
    ("vars x;\nf1 = x + 1.5e308 + 1.5e308;", 18, "+"),
    ("vars x;\nf1 = -1.5e308*x^2 - 1.5e308*x^2;", 19, "-"),
])
def test_a_coefficient_that_overflows_is_a_parse_error_at_its_operator(text, column, token):
    with pytest.raises(ParseError, match="out of range") as err:
        parse_input_file(text)
    assert (err.value.line, err.value.column, err.value.token) == (2, column, token)


def test_coefficient_arithmetic_up_to_the_float_range_is_kept():
    assert parse_complex_literal("1e300*1e8") == 1e308
    assert parse_complex_literal("(1e154)^2") == 1e154 ** 2
    assert parse_complex_literal("1e308 + 7.9e307") == 1e308 + 7.9e307
