import pytest
from hypothesis import given, settings, strategies as st

from esequiv.algebra import (
    Atom,
    Par,
    Seq,
    Sum,
    atom_count,
    compile_term,
    from_expr,
    parse,
    render,
)
from esequiv.errors import ExprSyntaxError, NotPrime, SizeLimit
from esequiv.structure import isomorphic, relabel


class TestParse:
    def test_choice_of_par_and_seq(self):
        assert parse("(a||b) + (a;b)") == Sum(Par(Atom("a"), Atom("b")), Seq(Atom("a"), Atom("b")))

    def test_atom(self):
        assert parse("a") == Atom("a")

    def test_nested(self):
        assert parse("a||(a+(a||a))") == Par(Atom("a"), Sum(Atom("a"), Par(Atom("a"), Atom("a"))))

    def test_precedence(self):
        # || binds tighter than ; binds tighter than +
        assert parse("a;b||c") == Seq(Atom("a"), Par(Atom("b"), Atom("c")))
        assert parse("a+b;c") == Sum(Atom("a"), Seq(Atom("b"), Atom("c")))
        assert parse("a||b+c") == Sum(Par(Atom("a"), Atom("b")), Atom("c"))

    def test_left_associative(self):
        assert parse("a+b+c") == Sum(Sum(Atom("a"), Atom("b")), Atom("c"))
        assert parse("a;b;c") == Seq(Seq(Atom("a"), Atom("b")), Atom("c"))

    def test_unicode_parallel(self):
        assert parse("a∥b") == parse("a||b")

    def test_whitespace(self):
        assert parse("  a ;\tb ") == Seq(Atom("a"), Atom("b"))

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("", "expected an atom or '(', got 'end'", 0),
            (")", "expected an atom or '(', got ')'", 0),
            ("a +", "expected an atom or '(', got 'end'", 3),
            ("a b", "trailing input 'ident'", 2),
            ("a)", "trailing input ')'", 1),
            ("(a", "expected ')'", 2),
            ("(a b)", "expected ')'", 3),
            ("a | b", "single '|' (expected '||')", 2),
            ("a$", "unexpected character '$'", 1),
        ],
    )
    def test_error_text_is_pinned(self, text, message, position):
        # one input per error branch of the parser and the tokenizer
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    def test_deep_parentheses(self):
        assert parse("(" * 2000 + "a;b" + ")" * 2000) == Seq(Atom("a"), Atom("b"))

    @pytest.mark.parametrize("op, node", [(";", Seq), ("||", Par), ("+", Sum)])
    def test_long_terms_need_no_recursion(self, op, node):
        term = parse(op.join(["a"] * 1000))
        again = parse(op.join(["a"] * 1000))
        assert term == again and hash(term) == hash(again)
        assert term != parse(op.join(["a"] * 999 + ["b"]))
        assert atom_count(term) == 1000
        assert repr(term).startswith(f"{node.__name__}(left={node.__name__}(left=")
        assert parse(render(term)) == term

    def test_small_terms_keep_the_dataclass_text(self):
        assert repr(parse("a || b;c")) == (
            "Seq(left=Par(left=Atom(label='a'), right=Atom(label='b')), "
            "right=Atom(label='c'))"
        )
        assert repr(Atom("x_1")) == "Atom(label='x_1')"
        assert Atom("a") != Par(Atom("a"), Atom("a")) and Par(Atom("a"), Atom("b")) != Seq(
            Atom("a"), Atom("b")
        )

    def test_errors_carry_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("a + ")
        assert err.value.position == 4
        with pytest.raises(ExprSyntaxError):
            parse("(a;b")
        with pytest.raises(ExprSyntaxError):
            parse("a | b")
        with pytest.raises(ExprSyntaxError):
            parse("a b")
        with pytest.raises(ExprSyntaxError):
            parse("")


class TestCompile:
    def test_example_pair(self, ex22):
        assert isomorphic(from_expr("(a||b)+(a;b)"), ex22)[0]

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            from_expr("(a+b);c")

    def test_seq_vs_par_differ(self):
        assert not isomorphic(from_expr("a;a"), from_expr("a||a"))[0]

    def test_atom_past_the_event_bound_is_refused(self):
        assert from_expr("||".join(["a"] * 255)).n == 255
        with pytest.raises(SizeLimit, match="^term has at least 256 events; limit is 255$"):
            from_expr(";".join(["a"] * 5000))

    def test_events_numbered_left_to_right(self):
        s = from_expr("a;(b||c)")
        assert s.labels == ("a", "b", "c")
        assert sorted(s.causality_pairs()) == [(0, 1), (0, 2)]


def _terms():
    atoms = st.sampled_from("ab").map(Atom)
    return st.recursive(
        atoms,
        lambda kids: st.builds(Par, kids, kids)
        | st.builds(Seq, kids, kids)
        | st.builds(Sum, kids, kids),
        max_leaves=6,
    )


class TestProperties:
    @settings(max_examples=120, deadline=None)
    @given(_terms())
    def test_render_round_trip(self, term):
        assert parse(render(term)) == term

    @settings(max_examples=80, deadline=None)
    @given(_terms())
    def test_event_count_is_atom_count(self, term):
        try:
            s = compile_term(term)
        except NotPrime:
            return
        assert s.n == atom_count(term)

    @settings(max_examples=80, deadline=None)
    @given(_terms())
    def test_alpha_renaming_commutes(self, term):
        def rename(node):
            if isinstance(node, Atom):
                return Atom({"a": "x", "b": "y"}[node.label])
            return type(node)(rename(node.left), rename(node.right))

        try:
            s = compile_term(term)
        except NotPrime:
            return
        renamed = compile_term(rename(term))
        assert renamed == relabel(s, {"a": "x", "b": "y"})
