"""Tokenizer, parser, renderer, dual evaluators, symbolic derivative."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from hrw.errors import (
    ApproxOverflow,
    DivisionByZero,
    DomainError,
    ParseError,
    TranscendentalOnUnlimited,
    UnsupportedNode,
)
from hrw.exprs import (
    Binary,
    Call,
    Const,
    FunctionDef,
    Unary,
    Var,
    compile_real,
    eval_hyper,
    eval_hyper_traced,
    eval_real,
    free_vars,
    parse,
    parse_definitions,
    render,
    symbolic_derivative,
    tokenize,
)
from hrw.field import DEFAULT_FIELD as FLD

CORPUS = [
    "x^3 - 2*x + 1",
    "root(3, x+1)",
    "-x^2",
    "2^3^2",
    "a+(b+c)",
    "(x+1)/(x-1)",
    "sin(x)*cos(x)",
    "abs(x) + sqrt(x^2)",
    "0.25*x - 1.5",
    "1/x",
    "x^-2",
    "-(x+1)^2",
    "exp(ln(x))",
    "2*pi*e",
    "x*y - y^2/3",
    "tan(x/4)",
    "x^2*y + x*y^2",
    "sqrt(1+4*t^2)",
]


class TestTokens:
    def test_positions_strictly_increase(self):
        toks = tokenize("sin(x) + 2.5*y")
        positions = [t.pos for t in toks]
        assert positions == sorted(positions)
        assert len(set(positions)) == len(positions)

    def test_unknown_character(self):
        with pytest.raises(ParseError) as err:
            tokenize("2 ? 3")
        assert err.value.pos == 2


class TestParser:
    def test_precedence_tree(self):
        e = parse("x^3 - 2*x + 1")
        assert isinstance(e, Binary) and e.op == "+"
        assert isinstance(e.left, Binary) and e.left.op == "-"
        assert isinstance(e.left.left, Binary) and e.left.left.op == "^"

    def test_root_call(self):
        e = parse("root(3, x+1)")
        assert isinstance(e, Call) and e.fn == "root" and len(e.args) == 2

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("2*")
        assert err.value.pos == 2

    def test_decimals_are_exact(self):
        assert parse("0.25") == Const(F(1, 4))
        assert parse("1.5") == Const(F(3, 2))

    def test_power_binds_tighter_than_unary_minus(self):
        e = parse("-x^2")
        assert isinstance(e, Unary) and isinstance(e.operand, Binary)
        assert eval_real(parse("-3^2"), {}) == -9

    def test_power_right_associative(self):
        assert eval_real(parse("2^3^2"), {}) == 512

    def test_negative_exponent(self):
        assert eval_real(parse("2^-2"), {}) == F(1, 4)

    def test_unary_minus_folds_constants(self):
        assert parse("-3") == Const(F(-3))

    def test_arity_checked(self):
        with pytest.raises(ParseError):
            parse("sin(x, y)")
        with pytest.raises(ParseError):
            parse("root(x)")

    def test_unknown_function(self):
        with pytest.raises(ParseError):
            parse("sinh(x)")

    def test_trailing_junk(self):
        with pytest.raises(ParseError):
            parse("1 + 2 )")


class TestRoundTrip:
    @pytest.mark.parametrize("source", CORPUS)
    def test_corpus_round_trip(self, source):
        text = render(parse(source))
        assert parse(text) == parse(source)

    def test_double_round_trip_fixpoint(self):
        for source in CORPUS:
            once = render(parse(source))
            assert render(parse(once)) == once


class TestEvalReal:
    def test_basic(self):
        assert eval_real(parse("x^2+1"), {"x": F(2)}) == 5
        assert eval_real(parse("sin(0)"), {}) == 0

    def test_sqrt_contract(self):
        v = eval_real(parse("sqrt(2)"), {})
        assert abs(v * v - 2) < F(1, 10**39)

    def test_named_constants(self):
        assert abs(eval_real(parse("pi"), {}) - F(314159, 100000)) < F(1, 100000)
        assert eval_real(parse("e"), {}, precision=5) == eval_real(parse("exp(1)"), {}, precision=5)

    def test_env_binding_required(self):
        with pytest.raises(DomainError):
            eval_real(parse("q + 1"), {})

    def test_division_by_zero_position(self):
        with pytest.raises(DivisionByZero) as err:
            eval_real(parse("1/(x-1)"), {"x": F(1)})
        assert err.value.pos == 1

    def test_integer_power_size_cap(self):
        assert eval_real(parse("3^66666"), {}) == F(3) ** 66666
        with pytest.raises(ApproxOverflow) as err:
            eval_real(parse("3^200000"), {})
        assert err.value.pos == 1
        assert eval_real(parse("3^-200000"), {}) == 0

    def test_root_index_must_be_integer(self):
        with pytest.raises(DomainError):
            eval_real(parse("root(x, 8)"), {"x": F(5, 2)})


class TestEvalHyper:
    def test_square_expansion(self):
        x = FLD.rational(3) + FLD.epsilon()
        assert eval_hyper(parse("x^2"), {"x": x}, FLD) == FLD.rational(9) + 6 * FLD.epsilon() + FLD.epsilon() ** 2

    def test_reciprocal_of_infinite(self):
        assert eval_hyper(parse("1/n"), {"n": FLD.gamma()}, FLD) == FLD.epsilon()

    def test_transcendental_on_unlimited(self):
        with pytest.raises(TranscendentalOnUnlimited):
            eval_hyper(parse("ln(n)"), {"n": FLD.gamma()}, FLD)

    def test_integer_power_size_cap(self):
        # the cap applies to the leading coefficient of the base
        with pytest.raises(ApproxOverflow):
            eval_hyper(parse("(3*x)^200000"), {"x": FLD.epsilon()}, FLD)
        v = eval_hyper(parse("(3*x)^66666"), {"x": FLD.epsilon()}, FLD)
        assert v == FLD.monomial(F(3) ** 66666, 66666)

    def test_abs_resolved_by_order(self):
        v = eval_hyper(parse("abs(x)"), {"x": -FLD.epsilon()}, FLD)
        assert v == FLD.epsilon()

    def test_abs_nonsmooth_trace(self):
        _, tr = eval_hyper_traced(parse("abs(x)"), {"x": FLD.epsilon()}, FLD)
        assert tr.abs_nonsmooth
        _, tr = eval_hyper_traced(parse("abs(x)"), {"x": FLD.rational(2) + FLD.epsilon()}, FLD)
        assert not tr.abs_nonsmooth

    @pytest.mark.parametrize("source", [s for s in CORPUS if free_vars(parse(s)) <= {"x"}])
    def test_evaluator_coherence(self, source):
        # f evaluated at x + 0*eps has the standard part of the real path:
        # exact for algebraic expressions, within 10^(2-d) otherwise (tan's
        # constant term is the exact sin/cos ratio, the scalar path rounds)
        expr = parse(source)
        for point in (F(1, 2), F(2), F(7, 3)):
            try:
                real_value = eval_real(expr, {"x": point})
            except (DivisionByZero, DomainError):
                continue
            hyper_value = eval_hyper(expr, {"x": FLD.rational(point)}, FLD)
            delta = abs(hyper_value.st_fraction() - real_value)
            assert delta < F(1, 10**38)
            if "tan" not in source:
                assert delta == 0


class TestSymbolicDerivative:
    def test_power_rule(self):
        d = symbolic_derivative(parse("x^3"), "x")
        assert eval_real(d, {"x": F(5)}) == 75

    def test_reciprocal_rule(self):
        d = symbolic_derivative(parse("1/x"), "x")
        assert eval_real(d, {"x": F(2)}) == F(-1, 4)

    def test_product_and_quotient(self):
        d = symbolic_derivative(parse("(x^2+1)/(x-2)"), "x")
        # (2x(x-2) - (x^2+1)) / (x-2)^2 at x=3 -> (6 - 10) / 1 = ... check numerically
        assert eval_real(d, {"x": F(3)}) == F(2 * 3 * 1 - 10, 1)

    def test_transcendental_rejected(self):
        with pytest.raises(UnsupportedNode):
            symbolic_derivative(parse("sin(x)"), "x")
        with pytest.raises(UnsupportedNode):
            symbolic_derivative(parse("x^0.5"), "x")

    @settings(max_examples=30, deadline=None)
    @given(st_.integers(min_value=0, max_value=6), st_.fractions(min_value=-3, max_value=3, max_denominator=6))
    def test_monomial_derivative_randomized(self, n, point):
        d = symbolic_derivative(parse(f"x^{n}"), "x")
        expected = n * point ** (n - 1) if n else F(0)
        assert eval_real(d, {"x": point}) == expected


class TestCompiled:
    def test_matches_tree_walk(self):
        for source in CORPUS:
            expr = parse(source)
            names = tuple(sorted(free_vars(expr)))
            fn = compile_real(expr, names)
            point = {name: F(3, 7) for name in names}
            try:
                expected = eval_real(expr, point)
            except (DivisionByZero, DomainError):
                continue
            assert fn(*(point[n] for n in names)) == expected

    def test_integer_power_size_cap(self):
        fn = compile_real(parse("x^200000"), ("x",))
        with pytest.raises(ApproxOverflow):
            fn(F(3))
        assert fn(F(1, 3)) == 0
        assert compile_real(parse("x^-66666"), ("x",))(F(3)) == F(1, 3) ** 66666

    def test_division_error_type(self):
        fn = compile_real(parse("1/x"), ("x",))
        with pytest.raises(DivisionByZero):
            fn(F(0))


class TestFunctionDefs:
    def test_parse_and_inline(self):
        defs = parse_definitions(
            """
            # helper definitions
            square(u) = u^2
            wave(t) = sin(t) + 0.5   # trailing comment
            plane(x, y) = x + 2*y
            """
        )
        assert set(defs) == {"square", "wave", "plane"}
        assert defs["plane"].params == ("x", "y")
        inlined = defs["square"].inline({"u": parse("x+1")})
        assert eval_real(inlined, {"x": F(2)}) == 9

    def test_free_variable_check(self):
        with pytest.raises(ParseError):
            parse_definitions("broken(u) = u + v")

    def test_constants_allowed_in_body(self):
        defs = parse_definitions("circ(r) = 2*pi*r")
        assert defs["circ"].params == ("r",)
