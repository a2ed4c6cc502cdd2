"""Line-oriented ``.es`` files and DOT export.

File format (``#`` starts a comment, blank lines ignored)::

    es v1
    event <id> <label>
    cause <id> <id>
    conflict <id> <id>

Event ids must cover 0..n-1 and be declared before any pair line that uses
them.  Duplicate pair lines are idempotent.  Writing emits causality as its
transitive reduction and conflict as the minimal generating set, so files
stay close to the drawings they describe; reading re-closes both.
"""

from __future__ import annotations

from .errors import InvalidLabel, ParseError
from .semantics import Lts, MODE_INTERLEAVING, MODE_STEP, config_text
from .structure import (
    EventStructure,
    _label,
    build,
    minimal_conflict_pairs,
    pomset_code_text,
    transitive_reduction,
)

HEADER = "es v1"


def loads_es(text: str) -> EventStructure:
    labels = {}
    lines = {}  # event id -> the line declaring it
    causes = []
    conflicts = []
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not saw_header:
            if line != HEADER:
                raise ParseError(f"expected header {HEADER!r}", lineno)
            saw_header = True
            continue
        parts = line.split()
        if parts[0] == "event":
            if len(parts) != 3:
                raise ParseError("event lines take an id and a label", lineno)
            eid = _parse_id(parts[1], lineno)
            if eid in labels:
                raise ParseError(f"event {eid} declared twice", lineno)
            try:
                labels[eid] = _label(parts[2])
            except InvalidLabel as err:
                raise ParseError(str(err), lineno) from err
            lines[eid] = lineno
        elif parts[0] in ("cause", "conflict"):
            if len(parts) != 3:
                raise ParseError(f"{parts[0]} lines take two ids", lineno)
            a = _parse_id(parts[1], lineno)
            b = _parse_id(parts[2], lineno)
            for x in (a, b):
                if x not in labels:
                    raise ParseError(f"event {x} used before declaration", lineno)
            if a == b:
                verb = "causes" if parts[0] == "cause" else "conflicts with"
                raise ParseError(f"event {a} {verb} itself", lineno)
            (causes if parts[0] == "cause" else conflicts).append((a, b))
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno)
    if not saw_header:
        raise ParseError(f"missing header {HEADER!r}", 1)
    n = len(labels)
    # ids are distinct, so they leave a gap iff one of them is n or more
    beyond = [lines[e] for e in labels if e >= n]
    if beyond:
        raise ParseError("event ids must form the range 0..n-1", beyond[0])
    return build(n, labels, causes, conflicts)


def _parse_id(token, lineno):
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"expected an event id, got {token!r}", lineno) from None
    if value < 0:
        raise ParseError(f"negative event id {value}", lineno)
    return value


def dumps_es(s: EventStructure) -> str:
    lines = [HEADER]
    for e in range(s.n):
        lines.append(f"event {e} {s.labels[e]}")
    for a, b in transitive_reduction(s):
        lines.append(f"cause {a} {b}")
    for a, b in minimal_conflict_pairs(s):
        lines.append(f"conflict {a} {b}")
    return "\n".join(lines) + "\n"


def read_es(path) -> EventStructure:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        # the line of the first bad byte, counted as `loads_es` counts lines
        line = len((data[: err.start].decode("utf-8") + "\0").splitlines())
        raise ParseError(f"invalid UTF-8 byte {data[err.start]:#04x}", line) from None
    return loads_es(text)


def write_es(s: EventStructure, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_es(s))


def export_dot(obj) -> str:
    """Deterministic DOT text for a structure or a transition system.

    Structures render as their Hasse diagram: solid arrows for the causal
    cover pairs, dashed edges for a minimal conflict generating set.
    Transition systems render as their configuration graph.
    """
    if isinstance(obj, EventStructure):
        return _structure_dot(obj)
    if isinstance(obj, Lts):
        return _lts_dot(obj)
    raise TypeError(f"cannot export {type(obj).__name__} as DOT")


def _structure_dot(s: EventStructure) -> str:
    out = ["digraph es {", "  rankdir=BT;"]
    for e in range(s.n):
        text = _dot_string(f"e{e}:{s.labels[e]}")
        out.append(f"  e{e} [label={text}];")
    for a, b in transitive_reduction(s):
        out.append(f"  e{a} -> e{b};")
    for a, b in minimal_conflict_pairs(s):
        out.append(f"  e{a} -> e{b} [style=dashed, dir=none, constraint=false];")
    out.append("}")
    return "\n".join(out) + "\n"


def _dot_string(text: str) -> str:
    """`text` as a quoted DOT string: event labels may hold ``"`` and ``\\``."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def lts_label_text(lts: Lts, label) -> str:
    if lts.mode == MODE_INTERLEAVING:
        return str(label)
    if lts.mode == MODE_STEP:
        return "{" + ",".join(label) + "}"
    return pomset_code_text(label)


def _lts_dot(lts: Lts) -> str:
    out = ["digraph lts {", "  rankdir=BT;"]
    for i, mask in enumerate(lts.states):
        out.append(f'  n{i} [label="{config_text(mask)}"];')
    for i, moves in enumerate(lts.successors):
        for label, j in moves:
            out.append(f"  n{i} -> n{j} [label={_dot_string(lts_label_text(lts, label))}];")
    out.append("}")
    return "\n".join(out) + "\n"
