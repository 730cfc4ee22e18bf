"""Tokenizer, parser, renderer, dual evaluators, symbolic derivative."""

import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from hrw.errors import (
    ApproxOverflow,
    DivisionByZero,
    DomainError,
    MathError,
    ParseError,
    TranscendentalOnUnlimited,
    UnsupportedNode,
)
from hrw import exprs
from hrw.exprs import (
    MAX_HEIGHT,
    MAX_NESTING,
    Binary,
    Call,
    Const,
    Unary,
    Var,
    _compile_tangent,
    compile_real,
    compile_rows,
    eval_hyper,
    eval_hyper_traced,
    eval_real,
    free_vars,
    parse,
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
    "x^(3/2)",
    "(x+1)^(-1/3)",
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

    def test_numbers_take_decimal_digits_only(self):
        with pytest.raises(ParseError) as err:
            parse("2²")
        assert err.value.pos == 1
        assert parse("x²") == Var("x²")  # still one identifier
        assert parse("٣.5") == Const(F(7, 2))  # decimal digits of another script


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

    @pytest.mark.parametrize("literal", ["1" * 5000, "2." + "5" * 5000], ids=["int", "decimal"])
    def test_number_past_the_digit_limit(self, literal):
        # Fraction refuses the literal; the error names its offset and size only
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ParseError) as err:
            parse(f"x + {literal}")
        assert str(err.value) == (f"expected number of at most {limit} digits at offset 4, "
                                  f"found {len(literal)} characters")
        assert parse(f"x + {'1' * limit}") == Binary("+", Var("x"), Const(F(int("1" * limit))))

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


class TestDepthBounds:
    """The parser refuses what a recursive walk could not finish: every walk
    runs on the deepest tree it accepts, from inside a test."""

    @staticmethod
    def deepest(leaf: str = "sin(x)", levels: int = 2) -> str:
        return leaf + " + x" * (MAX_HEIGHT - levels)  # the leaf is that many levels high

    def test_every_walk_at_the_height_bound(self):
        e = parse(self.deepest())
        assert render(parse(render(e))) == render(e)
        assert free_vars(e) == {"x"}
        at = F(1, 2)
        value = eval_real(e, {"x": at}, 12)
        assert F(*compile_real(e, ("x",), 12)(1, 2)) == value
        assert eval_hyper(e, {"x": FLD.rational(at)}, FLD).st_fraction() == eval_real(e, {"x": at})
        total = parse("x" + " + x" * (MAX_HEIGHT - 1))
        assert eval_real(symbolic_derivative(total, "x"), {}) == MAX_HEIGHT
        # the product rule returns a higher tree than it walks
        symbolic_derivative(parse("x" + " * x" * (MAX_HEIGHT - 1)), "x")

    @pytest.mark.parametrize("leaf, levels", [
        ("tan(x)", 2), ("x^(1/3)", 3), ("root(3, x)", 2), ("exp(x)", 2), ("ln(x)", 2)])
    def test_deep_leaves_at_the_height_bound(self, leaf, levels):
        e = parse(self.deepest(leaf, levels))
        assert F(*compile_real(e, ("x",), 12)(1, 2)) == eval_real(e, {"x": F(1, 2)}, 12)
        eval_hyper(e, {"x": FLD.rational(F(1, 2)) + FLD.epsilon()}, FLD)

    def test_one_level_more_is_refused(self):
        text = self.deepest() + " + x"
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.pos == text.rindex("+")
        assert str(err.value) == (f"expected at most {MAX_HEIGHT} levels of operations "
                                  f"at offset {text.rindex('+')}, found +")

    @pytest.mark.parametrize("opening", ["(", "sin("])
    def test_nesting_bound(self, opening):
        closing = ")" * MAX_NESTING
        assert free_vars(parse(opening * MAX_NESTING + "x" + closing)) == {"x"}
        text = opening * (MAX_NESTING + 1) + "x" + closing + ")"
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.pos == len(opening) * MAX_NESTING

    def test_minus_signs_and_powers_are_levels(self):
        parse("-" * MAX_NESTING + "x")
        parse("x" + "^x" * MAX_NESTING)
        for text in ("-" * (MAX_NESTING + 1) + "3", "x" + "^x" * (MAX_NESTING + 1)):
            with pytest.raises(ParseError):
                parse(text)


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
        # powers of a leading coefficient +-1 stay small, so the cap does not apply
        v = eval_hyper(parse("(1+x)^100001"), {"x": FLD.epsilon()}, FLD)
        assert v.terms[:3] == ((0, 1), (1, 100001), (2, 100001 * 100000 // 2))
        assert len(v.terms) == FLD.window
        w = eval_hyper(parse("(x-1)^100001"), {"x": FLD.epsilon()}, FLD)
        assert w.terms[:3] == ((0, -1), (1, 100001), (2, -(100001 * 100000 // 2)))
        # a huge exponent still builds huge binomial coefficients, so it is refused
        with pytest.raises(ApproxOverflow):
            eval_hyper(parse("(1+x)^1" + "0" * 1000), {"x": FLD.epsilon()}, FLD)
        with pytest.raises(ApproxOverflow):
            eval_hyper(parse("(1-x)^(-2^113)"), {"x": FLD.epsilon()}, FLD)
        # a lone term with coefficient +-1 only multiplies its exponent
        assert eval_hyper(parse("(-x)^(10^1000)"), {"x": FLD.epsilon()}, FLD) == FLD.monomial(1, 10**1000)

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
        # f evaluated at x + 0*eps has exactly the standard part of the real
        # path: both take every constant from the same approx kernel
        expr = parse(source)
        for point in (F(1, 2), F(2), F(7, 3)):
            try:
                real_value = eval_real(expr, {"x": point})
            except (DivisionByZero, DomainError):
                continue
            hyper_value = eval_hyper(expr, {"x": FLD.rational(point)}, FLD)
            assert hyper_value.st_fraction() == real_value


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
    """Compiled functions take and return (numerator, denominator) pairs."""

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
            assert F(*fn(*(3, 7) * len(names))) == expected

    def test_integer_power_size_cap(self):
        fn = compile_real(parse("x^200000"), ("x",))
        with pytest.raises(ApproxOverflow):
            fn(3, 1)
        assert F(*fn(1, 3)) == 0
        assert F(*compile_real(parse("x^-66666"), ("x",))(3, 1)) == F(1, 3) ** 66666

    def test_division_error_type(self):
        fn = compile_real(parse("1/x"), ("x",))
        with pytest.raises(DivisionByZero):
            fn(0, 1)

    def test_long_expressions_compile(self):
        # generated code stays below the parser's 200 nested parentheses
        for source in ("+".join(["x*0.5"] * 250), "*".join(f"(x + {i})" for i in range(250))):
            expr = parse(source)
            assert F(*compile_real(expr, ("x",))(1, 3)) == eval_real(expr, {"x": F(1, 3)})


def bound(e, names, precision, mode, loop, bind=None):
    """The (params, body) of each function compiled for e in mode, and the
    closure constants e binds, from the template cache (``_bound``) or a
    fresh walk (``_walk``); "declined" where the tangent mode has no rule."""
    try:
        template, consts = (bind or exprs._bound)(e, names, precision, mode, loop)
    except exprs._Decline:
        return "declined"
    entries = ("values", "sum") if mode == "rows" else (None,)
    return [template.source(entry) for entry in entries], consts


def error_or(thunk):
    """thunk's value, or its MathError's type, text and offset."""
    try:
        return thunk()
    except MathError as ex:
        return type(ex).__name__, str(ex), ex.pos


class TestShapeTemplates:
    """Trees of one shape share one template, made by one ``_Codegen``
    walk; each binds its own constants and offsets to it."""

    NAMES = ("y", "x")  # y fixed, x over the row at loop 1; both at loop 2
    MODES = [("point", NAMES, 0), ("rows", NAMES, 1), ("rows", NAMES, 2), ("tangent", ("x",), 0)]
    Y, XS = F(2, 3), [F(-1), F(0), F(1, 4), F(1, 3), F(3, 4), F(5, 2)]

    # compiled one after another, in every mode: each must keep its own
    # constants and offsets, and share the previous one's key or not
    GROUPS = [
        [("1/(x - 1/4)", 40, None), ("1 / (x  -  3/4)", 40, True)],  # own poles and offsets
        [("x/4", 40, None), ("x/3", 40, True)],  # the folded divisor
        [("x^3", 40, None), ("x^5", 40, True), ("x^-2", 40, False)],
        [("root(3, x)", 40, None), ("root(2.5, x)", 40, False)],
        [("pi*x", 12, None), ("pi*x", 40, False)],
    ]

    def expected(self, e, precision, x):
        return error_or(lambda: eval_real(e, {"x": x, "y": self.Y}, precision))

    def compiled(self, e, precision, mode, loop):
        """e's values at (Y, x) for every x of XS, by the mode's function."""
        y, xs = (self.Y.numerator, self.Y.denominator), self.XS
        if mode == "point":
            fn = compile_real(e, self.NAMES, precision)
            return [error_or(lambda: F(*fn(*y, x.numerator, x.denominator))) for x in xs]
        if mode == "tangent":
            fn = _compile_tangent(e, "x", precision)
            return [error_or(lambda: F(*fn(x.numerator, x.denominator)[0])) for x in xs]
        kernel = compile_rows(e, self.NAMES, precision, loop)
        den = math.lcm(*(x.denominator for x in xs))
        row = [x.numerator * (den // x.denominator) for x in xs]
        if loop == 1:
            values = error_or(lambda: kernel.values(*y, den, row))
        else:
            values = error_or(lambda: kernel.values(y[1], den, [(y[0], n) for n in row]))
        return values if isinstance(values, tuple) else [F(*v) for v in values]

    @pytest.mark.parametrize("group", GROUPS)
    def test_trees_of_one_key_keep_their_constants(self, group):
        cache = exprs._template
        cache.cache_clear()
        for source, precision, shared in group:
            e = parse(source)
            for mode, names, loop in self.MODES:
                hits = cache.cache_info().hits
                assert bound(e, names, precision, mode, loop) == \
                    bound(e, names, precision, mode, loop, exprs._walk), (source, mode, loop)
                if shared is not None:
                    assert (cache.cache_info().hits > hits) == shared, (source, mode, loop)
                got = self.compiled(e, precision, mode, loop)
                if mode == "tangent" and source.startswith("root"):
                    assert all(v[0] == "_NoTangent" for v in got), source  # declined
                    continue
                want = [self.expected(e, precision, x) for x in self.XS]
                if mode == "rows":  # the row's first error, or every value
                    errors = [v for v in want if isinstance(v, tuple)]
                    want = errors[0] if errors else want
                assert got == want, (source, mode, loop)

    def test_offsets_of_one_shape(self):
        for source, offset in (("1/(x - 1/4)", 1), ("1 / (x  -  3/4)", 2)):
            pole = F(1, 4) if "1/4" in source else F(3, 4)
            with pytest.raises(DivisionByZero) as info:
                compile_real(parse(source), ("x",))(pole.numerator, pole.denominator)
            assert info.value.pos == offset

    def test_unbound_name_is_refused_at_its_own_offset(self):
        cache = exprs._template
        for source, offset in (("x + q", 4), ("x  +  q", 6)):
            size = cache.cache_info().currsize
            for mode, names, loop in self.MODES:
                with pytest.raises(DomainError, match="unbound variable 'q'") as info:
                    exprs._bound(parse(source), names, 40, mode, loop)
                assert info.value.pos == offset
            assert cache.cache_info().currsize == size  # nothing kept

    def test_one_walk_per_shape(self, monkeypatch):
        # six trees of one shape, each compiled in four modes: one walk per mode
        walks = []
        depth = 0
        part = exprs._Codegen.part

        def counted(gen, node):
            nonlocal depth
            if depth == 0:
                walks.append(node)
            depth += 1
            try:
                return part(gen, node)
            finally:
                depth -= 1

        monkeypatch.setattr(exprs._Codegen, "part", counted)
        names = ("w", "u")  # a shape no other test compiles, at precision 29
        for i in range(2, 8):
            e = parse(f"{i}/7*u^3 - {i + 1}*u + {i}.5")
            assert F(*compile_real(e, names, 29)(0, 1, 1, 2)) == eval_real(e, {"u": F(1, 2)})
            compile_rows(e, names, 29, 1).sum(0, 1, 2, [1, 3])
            compile_rows(e, names, 29, 2).values(1, 2, [(0, 1)])
            _compile_tangent(e, "u", 29)(1, 2)
        assert len(walks) == 4

    def test_cache_is_bounded_and_an_evicted_shape_recompiles(self):
        cache, e = exprs._template, parse("x/3 + 1")
        first = compile_real(e, ("x",), 1)
        want = bound(e, ("x",), 1, "point", 0, exprs._walk)
        maxsize = cache.cache_info().maxsize
        for precision in range(2, maxsize + 20):  # one shape per precision
            compile_real(e, ("x",), precision)
            assert cache.cache_info().currsize <= maxsize
        misses = cache.cache_info().misses
        again = compile_real(e, ("x",), 1)
        assert cache.cache_info().misses == misses + 1  # evicted
        assert bound(e, ("x",), 1, "point", 0) == want
        assert again.__code__ is compile_real(e, ("x",), 1).__code__  # cached again
        assert again(2, 5) == first(2, 5)

