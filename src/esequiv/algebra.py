"""Process-algebra notation for describing structures succinctly.

Grammar (ASCII; the Unicode parallel bar is accepted as an alias of ``||``)::

    term := sum
    sum  := seq ('+' seq)*
    seq  := par (';' par)*
    par  := prim ('||' prim)*
    prim := IDENT | '(' term ')'

All operators are left-associative; ``||`` binds tightest, then ``;``,
then ``+``.  Atoms are non-empty alphanumeric identifiers (underscores
allowed), each denoting one fresh event carrying that label.

``p || q`` is disjoint union; ``p + q`` additionally puts every cross pair
in conflict; ``p ; q`` additionally puts every event of p below every event
of q.  Terms whose conflict inheritance would force a self-conflict (such
as choice followed by sequence) do not denote a prime structure and are
rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ExprSyntaxError, NotPrime, SelfConflict
from .structure import EventStructure, build


@dataclass(frozen=True)
class Atom:
    label: str


@dataclass(frozen=True)
class Par:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Seq:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Sum:
    left: "Term"
    right: "Term"


Term = Atom | Par | Seq | Sum


def _tokenize(text):
    text = text.replace("∥", "||")
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+;()":
            tokens.append((ch, i))
            i += 1
        elif ch == "|":
            if i + 1 < len(text) and text[i + 1] == "|":
                tokens.append(("||", i))
                i += 2
            else:
                raise ExprSyntaxError("single '|' (expected '||')", i)
        elif ch.isalnum() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", i, text[i:j]))
            i = j
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", len(text)))
    return tokens


def parse(text: str) -> Term:
    """Parse an algebra expression; raises ExprSyntaxError with a position."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos]

    def advance():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_sum():
        node = parse_seq()
        while peek()[0] == "+":
            advance()
            node = Sum(node, parse_seq())
        return node

    def parse_seq():
        node = parse_par()
        while peek()[0] == ";":
            advance()
            node = Seq(node, parse_par())
        return node

    def parse_par():
        node = parse_prim()
        while peek()[0] == "||":
            advance()
            node = Par(node, parse_prim())
        return node

    def parse_prim():
        tok = advance()
        if tok[0] == "ident":
            return Atom(tok[2])
        if tok[0] == "(":
            node = parse_sum()
            closing = advance()
            if closing[0] != ")":
                raise ExprSyntaxError("expected ')'", closing[1])
            return node
        raise ExprSyntaxError(f"expected an atom or '(', got {tok[0]!r}", tok[1])

    node = parse_sum()
    tail = peek()
    if tail[0] != "end":
        raise ExprSyntaxError(f"trailing input {tail[0]!r}", tail[1])
    return node


def atom_count(term: Term) -> int:
    if isinstance(term, Atom):
        return 1
    return atom_count(term.left) + atom_count(term.right)


def compile_term(term: Term) -> EventStructure:
    """Compile a term to its event structure; events numbered left to right."""
    labels = []
    causes = []
    conflicts = []

    def rec(node):
        """Returns the list of event ids belonging to the node."""
        if isinstance(node, Atom):
            labels.append(node.label)
            return [len(labels) - 1]
        left = rec(node.left)
        right = rec(node.right)
        if isinstance(node, Seq):
            causes.extend((a, b) for a in left for b in right)
        elif isinstance(node, Sum):
            conflicts.extend((a, b) for a in left for b in right)
        return left + right

    rec(term)
    try:
        return build(len(labels), labels, causes, conflicts)
    except SelfConflict as exc:
        raise NotPrime(f"term does not denote a prime structure: {exc}") from exc


def from_expr(text: str) -> EventStructure:
    """Parse and compile in one step."""
    return compile_term(parse(text))


def render(term: Term) -> str:
    """Expression text that parses back to an equal term (minimal parentheses)."""
    # binding strength used to decide parenthesization
    strength = {Sum: 0, Seq: 1, Par: 2}

    def rec(node, parent_strength):
        if isinstance(node, Atom):
            return node.label
        op = {Sum: " + ", Seq: " ; ", Par: " || "}[type(node)]
        mine = strength[type(node)]
        # left-associative: right child at equal strength needs parentheses
        text = rec(node.left, mine) + op + rec(node.right, mine + 1)
        if mine < parent_strength:
            return "(" + text + ")"
        return text

    return rec(term, 0)
