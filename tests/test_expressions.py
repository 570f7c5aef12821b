import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from newteig.expressions import MAX_TOKENS, ExpressionError, parse_expression


def evaluate(text, x, y):
    return parse_expression(text)(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def test_arithmetic_and_precedence():
    assert_allclose(evaluate("1 + 2*3", [0.0], [0.0]), [7.0])
    assert_allclose(evaluate("(1 + 2)*3", [0.0], [0.0]), [9.0])
    assert_allclose(evaluate("2^3^2", [0.0], [0.0]), [512.0])   # right-assoc
    assert_allclose(evaluate("-x1^2", [3.0], [0.0]), [-9.0])
    assert_allclose(evaluate("6/4/3", [0.0], [0.0]), [0.5])


def test_coordinates_and_functions():
    x = np.linspace(0, 1, 5)
    y = np.linspace(1, 2, 5)
    assert_allclose(evaluate("x1 - x2", x, y), x - y)
    assert_allclose(evaluate("exp((x1-1/2)*(x2-1/2))", x, y),
                    np.exp((x - 0.5) * (y - 0.5)), rtol=1e-15)
    assert_allclose(evaluate("sin(pi*x1)*cos(pi*x2)", x, y),
                    np.sin(np.pi * x) * np.cos(np.pi * y), rtol=1e-15)


def test_example2_weight_expression_matches_preset():
    from newteig.assemble import example2_coefficients
    x = np.linspace(0, 1, 7)
    y = np.linspace(0, 1, 7)[::-1]
    expr = parse_expression("1 + (x1 - 1/2)*(x2 - 1/2)")
    assert_allclose(expr(x, y), example2_coefficients().weight(x, y), rtol=1e-15)


def test_scientific_notation_numbers():
    assert_allclose(evaluate("1.5e-3 + 2E2", [0.0], [0.0]), [200.0015])


@pytest.mark.parametrize("bad", ["", "x3", "sin", "1 +", "(1", "foo(2)", "1 $ 2"])
def test_rejects_malformed(bad):
    with pytest.raises(ExpressionError):
        parse_expression(bad)


def test_vectorized_output_shape():
    out = evaluate("3.5", np.zeros(11), np.zeros(11))
    assert out.shape == (11,)


def test_longest_expressions_evaluate_within_the_recursion_limit():
    # shapes that nest the parser or the evaluator once or more per token, each
    # of exactly MAX_TOKENS tokens: they parse and evaluate, one more is rejected
    x = np.array([0.5, 1.0])
    half = MAX_TOKENS // 2
    cases = [("(" * (half - 1) + "-x1" + ")" * (half - 1), -x),
             ("-" + "+".join(["x1"] * half), (half - 2) * x),
             ("-" * (MAX_TOKENS - 1) + "x1", -x),
             ("-" + "^".join(["x1"] * half), None),
             ("-" + "sin(" * ((MAX_TOKENS - 2) // 3) + "x1" + ")" * ((MAX_TOKENS - 2) // 3),
              None)]
    for text, expected in cases:
        value = evaluate(text, x, x)
        if expected is not None:
            assert_allclose(value, expected, rtol=1e-15)
        with pytest.raises(ExpressionError, match="more than the {} allowed".format(MAX_TOKENS)):
            parse_expression("-" + text)
