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

Nothing here recurses: `parse` is one left-to-right operator-precedence
loop over an operator stack, and `compile_term`, `render`, `atom_count` and
the terms' `repr`, from which their `==` and `hash` are read, walk the term
with an explicit stack, so neither depth nor length of a term meets
Python's recursion limit.  A term of more than `MAX_CANON_EVENTS` atoms is
refused with `SizeLimit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .canon import MAX_CANON_EVENTS
from .errors import ExprSyntaxError, NotPrime, SelfConflict, SizeLimit
from .structure import EventStructure, build


class _Node:
    """`repr` of the term classes by one walk over an explicit stack, so it
    meets no recursion limit on a long or deep term, and `==` and `hash`
    read from it.  Its text is the one `dataclass` writes, such as
    ``Par(left=Atom(label='a'), right=Atom(label='b'))``; labels are written
    by their own `repr`, so the text tells terms apart as `dataclass`
    equality does."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return repr(self) == repr(other)

    def __hash__(self):
        return hash(repr(self))

    def __repr__(self):
        out, todo = [], [self]
        while todo:
            node = todo.pop()
            if type(node) is str:
                out.append(node)
            elif type(node) is Atom:
                out.append(f"Atom(label={node.label!r})")
            else:
                todo += (")", node.right, ", right=", node.left, f"{type(node).__name__}(left=")
        return "".join(out)


@dataclass(frozen=True, eq=False, repr=False)
class Atom(_Node):
    label: str


@dataclass(frozen=True, eq=False, repr=False)
class Par(_Node):
    left: "Term"
    right: "Term"


@dataclass(frozen=True, eq=False, repr=False)
class Seq(_Node):
    left: "Term"
    right: "Term"


@dataclass(frozen=True, eq=False, repr=False)
class Sum(_Node):
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


#: binding strength and node of each binary operator; all are left-associative
_OPERATORS = {"+": (0, Sum), ";": (1, Seq), "||": (2, Par)}


def parse(text: str) -> Term:
    """Parse an algebra expression; raises ExprSyntaxError with a position."""
    nodes, ops = [], []  # finished operands; pending operators and open parentheses
    depth = 0  # the open parentheses on `ops`

    def fold(strength):
        """Apply the pending operators that bind at least as tightly."""
        while ops and ops[-1][0] >= strength:
            right = nodes.pop()
            nodes.append(ops.pop()[1](nodes.pop(), right))

    want_operand = True
    for tok in _tokenize(text):
        kind, at = tok[0], tok[1]
        if want_operand:
            if kind == "(":
                ops.append((-1, None))  # binds below every operator: folds stop here
                depth += 1
            elif kind == "ident":
                nodes.append(Atom(tok[2]))
                want_operand = False
            else:
                raise ExprSyntaxError(f"expected an atom or '(', got {kind!r}", at)
        elif kind in _OPERATORS:
            fold(_OPERATORS[kind][0])
            ops.append(_OPERATORS[kind])
            want_operand = True
        elif depth:
            if kind != ")":
                raise ExprSyntaxError("expected ')'", at)
            fold(0)
            ops.pop()
            depth -= 1
        elif kind != "end":
            raise ExprSyntaxError(f"trailing input {kind!r}", at)
    fold(0)
    return nodes[0]


def atom_count(term: Term) -> int:
    count, todo = 0, [term]
    while todo:
        node = todo.pop()
        if isinstance(node, Atom):
            count += 1
        else:
            todo += (node.right, node.left)
    return count


def compile_term(term: Term) -> EventStructure:
    """Compile a term to its event structure; events numbered left to right,
    so each subterm's events form one contiguous id range.  Raises
    `SizeLimit` at the atom past `MAX_CANON_EVENTS`, before a larger term
    lists its quadratic cause or conflict pairs."""
    labels, causes, conflicts = [], [], []
    # a binary node is replaced by its operator's class, then its parts, so
    # the class is popped once both parts are numbered
    todo, starts = [term], []  # starts: the first event id of each finished part
    while todo:
        item = todo.pop()
        if isinstance(item, Atom):
            if len(labels) == MAX_CANON_EVENTS:
                raise SizeLimit(
                    f"term has at least {len(labels) + 1} events; limit is {MAX_CANON_EVENTS}"
                )
            starts.append(len(labels))
            labels.append(item.label)
        elif isinstance(item, type):
            mid = starts.pop()
            pairs = product(range(starts[-1], mid), range(mid, len(labels)))
            if item is Seq:
                causes.extend(pairs)
            elif item is Sum:
                conflicts.extend(pairs)
        else:
            todo += (type(item), item.right, item.left)
    try:
        return build(len(labels), labels, causes, conflicts)
    except SelfConflict as exc:
        raise NotPrime(f"term does not denote a prime structure: {exc}") from exc


def from_expr(text: str) -> EventStructure:
    """Parse and compile in one step."""
    return compile_term(parse(text))


def render(term: Term) -> str:
    """Expression text that parses back to an equal term (minimal parentheses)."""
    spelling = {node: (strength, f" {op} ") for op, (strength, node) in _OPERATORS.items()}
    out, todo = [], [(term, 0)]  # text, or a node and the strength of its parent
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, parent_strength = item
        if isinstance(node, Atom):
            out.append(node.label)
            continue
        mine, op = spelling[type(node)]
        # left-associative: right child at equal strength needs parentheses
        wrap = mine < parent_strength
        todo += (")" if wrap else "", (node.right, mine + 1), op, (node.left, mine))
        if wrap:
            out.append("(")
    return "".join(out)
