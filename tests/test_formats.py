import random
import re

import pytest

from esequiv.algebra import from_expr
from esequiv.errors import CycleInCausality, ParseError
from esequiv.formats import dumps_es, export_dot, loads_es, lts_label_text, read_es, write_es
from esequiv.search import enumerate_posets
from esequiv.semantics import build_lts
from esequiv.structure import build, canonical_form, pomset_code_text, relabel

from conftest import ODD_LABELS, random_structure

FIVE_EVENT_EES = """\
es v1
# two a's feeding two b's feeding one c
event 0 a
event 1 a
event 2 b
event 3 b
event 4 c
cause 0 2
cause 0 3
cause 1 3
cause 2 4
cause 3 4
"""


class TestRead:
    def test_five_event_ees(self):
        s = loads_es(FIVE_EVENT_EES)
        assert s.n == 5
        # the full strict order recovered from the drawn cover edges
        assert sorted(s.causality_pairs()) == [
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 3),
            (1, 4),
            (2, 4),
            (3, 4),
        ]
        assert not any(s.conflicts)

    def test_header_only(self):
        assert loads_es("es v1\n").n == 0

    def test_cycle_propagates(self):
        text = "es v1\nevent 0 a\nevent 1 b\ncause 0 1\ncause 1 0\n"
        with pytest.raises(CycleInCausality):
            loads_es(text)

    def test_duplicate_pairs_idempotent(self):
        base = loads_es("es v1\nevent 0 a\nevent 1 b\nconflict 0 1\n")
        doubled = loads_es("es v1\nevent 0 a\nevent 1 b\nconflict 0 1\nconflict 1 0\n")
        assert base == doubled

    @pytest.mark.parametrize(
        "text,line",
        [
            ("event 0 a\n", 1),
            ("es v1\nevent 0\n", 2),
            ("es v1\nevent 0 a\ncause 0 1\n", 3),
            ("es v1\nevent 0 a\nevent 0 b\n", 3),
            ("es v1\nfrobnicate 1 2\n", 2),
            ("es v1\nevent 0 a\ncause 0 x\n", 3),
            ("es v1\nevent 0 a\x01b\n", 2),
            ("es v1\nevent 0 a\ncause 0 0\n", 3),
            ("es v1\nevent 0 a\n\nconflict 0 0\n", 4),
            ("es v1\nevent 2 a\n", 2),
            ("es v1\nevent 0 a\nevent 3 b\nevent 1 c\nevent 4 d\n", 5),
        ],
    )
    def test_parse_errors_carry_line(self, text, line):
        with pytest.raises(ParseError) as err:
            loads_es(text)
        assert err.value.line == line

    def test_ids_must_be_dense(self):
        # the gap is named at the first event whose id is past the count
        with pytest.raises(ParseError, match="^line 3: event ids") as err:
            loads_es("es v1\nevent 0 a\nevent 2 b\n")
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "data,line",
        [
            (b"es v1\nevent 0 \xff\n", 2),
            (b"es v1\r\nevent 0 a\r\nevent 1 b\xc3(\n", 3),
            (b"\xfe", 1),
        ],
    )
    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, data, line):
        path = tmp_path / "bad.es"
        path.write_bytes(data)
        with pytest.raises(ParseError) as err:
            read_es(path)
        assert err.value.line == line


class TestWrite:
    def test_example_pair_minimal_lines(self, ex22):
        text = dumps_es(ex22)
        lines = text.strip().splitlines()
        assert lines[0] == "es v1"
        assert sum(1 for l in lines if l.startswith("cause")) == 1
        assert "cause 2 3" in lines
        conflicts = [l for l in lines if l.startswith("conflict")]
        assert conflicts == ["conflict 0 2", "conflict 1 2"]

    def test_empty(self):
        assert dumps_es(build(0, {})) == "es v1\n"

    def test_round_trip_files(self, tmp_path):
        rng = random.Random(17)
        for i in range(50):
            s = random_structure(rng, max_events=8)
            path = tmp_path / f"s{i}.es"
            write_es(s, path)
            assert read_es(path) == s

    def test_round_trip_accepted_labels(self):
        rng = random.Random(19)
        for _ in range(100):
            names = dict(zip("abc", rng.sample(ODD_LABELS, 3)))
            s = relabel(random_structure(rng, max_events=8, alphabet=3), names)
            assert loads_es(dumps_es(s)) == s

    def test_reduction_recloses(self):
        rng = random.Random(18)
        for _ in range(50):
            s = random_structure(rng, max_events=8)
            assert loads_es(dumps_es(s)) == s


class TestDot:
    def test_chain(self):
        text = export_dot(from_expr("a;b"))
        assert text.count("[label=") == 2
        assert text.count("->") == 1

    def test_example_interleaving_lts(self, ex22):
        text = export_dot(build_lts(ex22, "interleaving"))
        assert text.count("[label=") == 6 + 6  # 6 nodes, 6 edges

    def test_deterministic(self, ex22):
        for obj in (ex22, build_lts(ex22, "step"), build_lts(ex22, "pomset")):
            assert export_dot(obj) == export_dot(obj)

    def test_labels_are_dot_strings(self):
        # `"` and `\` are accepted in labels and must be escaped in DOT
        quoted = re.compile(r'  \w+( -> \w+)? \[label="((?:[^"\\]|\\["\\])*)"\];')
        chain = [(e, e + 1) for e in range(len(ODD_LABELS) - 1)]
        odd = build(len(ODD_LABELS), ODD_LABELS, chain)
        for s in (build(1, ['"q"']), build(2, ["a\\b", '"c']), odd):
            for obj in (s, *(build_lts(s, mode) for mode in ("interleaving", "step", "pomset"))):
                lines = [l for l in export_dot(obj).splitlines() if "label=" in l]
                assert all(quoted.fullmatch(l) for l in lines), export_dot(obj)
            texts = [quoted.fullmatch(l)[2] for l in export_dot(s).splitlines() if "label=" in l]
            assert [re.sub(r"\\(.)", r"\1", t) for t in texts] == [
                f"e{e}:{l}" for e, l in enumerate(s.labels)
            ]

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            export_dot(42)


class TestPomsetLabelText:
    def test_five_event_pomsets_print_apart(self):
        texts = []
        for term in ("a;a;a;a;a", "a||a||a||a||a", "(a;a)||(a;a;a)"):
            lts = build_lts(from_expr(term), "pomset")
            # the root's move to the full configuration
            label = next(lab for lab, j in lts.successors[0] if j == len(lts.states) - 1)
            texts.append(lts_label_text(lts, label))
        assert texts == [
            "5: a a a a a 0<1 1<2 2<3 3<4",
            "5: a a a a a",
            "5: a a a a a 0<2 1<3 3<4",
        ]

    def test_injective_on_odd_labels(self):
        rng = random.Random(7)
        codes = {canonical_form(build(0, []))}
        for n in range(1, 5):
            for poset in enumerate_posets(n, 3):
                for _ in range(2):
                    names = dict(zip("abc", rng.sample(ODD_LABELS, 3)))
                    codes.add(canonical_form(relabel(poset, names)))
        texts = {pomset_code_text(code) for code in codes}
        assert len(texts) == len(codes)

