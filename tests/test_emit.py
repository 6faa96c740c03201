import json.encoder
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revcrochet import (
    LandmarkPlan,
    PatternDoc,
    PatternRow,
    PatternSpec,
    RowShaping,
    build_plan,
    parse,
    render_json,
    render_pattern,
    render_row,
    render_svg,
    row_counts,
    shape_rows,
)
from revcrochet.calculus import round_half_away
from revcrochet.emit import SVG_SAMPLES

from conftest import (
    LANDMARKS_EVEN,
    golden,
    instruction_totals,
    random_valid_spec,
    reference_render_json,
    reference_render_svg,
    text_from_json,
)


def build_doc(text, a, b, stitch_gauge, row_gauge, scale, prioritize_extrema=True):
    spec = PatternSpec(parse(text), a, b, stitch_gauge, row_gauge, scale, source=text)
    plan = build_plan(spec, prioritize_extrema=prioritize_extrema)
    rows = shape_rows(spec, plan)
    return spec, plan, render_pattern(spec, plan, rows)


class TestRenderRow:
    def test_split_first_increase(self):
        sh = RowShaping(6, -2.38, 41, "increase", n_ops=6, q=5, r=5, k=1,
                        positions=(1, 6, 11, 16, 21, 26))
        assert render_row(sh) == "Inc, *Sc4, Inc* (5 times), Sc9. (41 stitches)"

    def test_collapsed_form_when_k_equals_q_and_no_tail(self):
        sh = RowShaping(3, -2.75, 24, "increase", n_ops=6, q=3, r=0, k=3,
                        positions=(3, 6, 9, 12, 15, 18))
        assert render_row(sh) == "*Sc2, Inc* (6 times). (24 stitches)"

    def test_split_first_decrease(self):
        sh = RowShaping(9, -1.22, 47, "decrease", n_ops=4, q=11, r=3, k=7,
                        positions=(7, 18, 29, 40))
        assert render_row(sh) == "Sc6, Dec, *Sc10, Dec* (3 times), Sc7. (47 stitches)"

    def test_plain_row(self):
        sh = RowShaping(4, 0.5, 35, "none")
        assert render_row(sh) == "Sc35. (35 stitches)"

    def test_one_stitch_is_singular(self):
        assert render_row(RowShaping(4, 0.5, 1, "none")) == "Sc1. (1 stitch)"
        sh = RowShaping(5, 0.6, 1, "decrease", n_ops=1, q=2, r=0, k=1, positions=(1,))
        assert render_row(sh) == "Dec, Sc1. (1 stitch)"

    def test_star_group_omitted_for_single_op(self):
        sh = RowShaping(2, 0.1, 11, "increase", n_ops=1, q=10, r=0, k=4, positions=(4,))
        assert render_row(sh) == "Sc3, Inc, Sc6. (11 stitches)"

    def test_all_increase_row(self):
        sh = RowShaping(1, -2.93, 12, "increase", n_ops=6, q=1, r=0, k=1,
                        positions=(1, 2, 3, 4, 5, 6))
        assert render_row(sh) == "*Inc* (6 times). (12 stitches)"

    def test_trailing_run_omitted_when_zero(self):
        sh = RowShaping(15, 0.81, 26, "increase", n_ops=4, q=5, r=2, k=7,
                        positions=(7, 12, 17, 22))
        assert render_row(sh) == "Sc6, Inc, *Sc4, Inc* (3 times). (26 stitches)"


class TestRenderPattern:
    def test_running_example_matches_golden(self, running_doc):
        assert running_doc.to_text() == golden("running_example.txt")

    def test_open_shape_flags(self, running_doc):
        assert not running_doc.closed_start
        assert not running_doc.closed_end
        assert not running_doc.stuffed
        assert running_doc.warnings == ()
        assert running_doc.finishing == ("Tie off",)

    def test_strictly_positive_function_has_no_warnings(self):
        _, _, doc = build_doc("sin(x) + 10", 0.0, math.pi, 22, 25, 0.3)
        assert doc.warnings == ()
        assert not doc.closed_start and not doc.closed_end

    def test_closed_shape(self):
        spec, plan, doc = build_doc("sin(x)", 0.0, math.pi, 22, 25, 2.0)
        # oracle: f(0) = f(pi) = 0 exactly (within stitch resolution)
        assert math.sin(0.0) == 0.0 and abs(math.sin(math.pi)) < 1e-12
        assert doc.closed_start and doc.closed_end and doc.stuffed
        assert doc.rows[0].instruction.startswith("Row 0: Create a magic ring with ")
        assert doc.finishing == (
            "Stuff the shape with fiberfill before closing.",
            "Dec to close; tie off and weave in end.",
        )
        assert doc.to_text() == golden("closed_sphere.txt")

    def test_stuffing_only_when_both_ends_closed(self):
        _, _, doc = build_doc("sin(x) + x", 0.0, math.pi, 22, 25, 0.5)
        assert doc.closed_start and not doc.closed_end
        assert not doc.stuffed
        assert doc.finishing == ("Tie off",)

    def test_every_worked_row_ends_with_stitch_total(self, running_doc):
        for row in running_doc.rows[1:]:
            assert row.instruction.endswith(f"({row.stitches} stitches)")

    def test_steep_change_warning_names_row(self):
        _, _, doc = build_doc("x^2 + 0.05", 0.0, 1.0, 40, 10, 1.0)
        assert doc.warnings
        assert any(w.startswith("Row 1 ") for w in doc.warnings)
        text = doc.to_text()
        assert text.startswith("Note: Row 1 ")
        assert "cannot be worked with single increases" in text

    def test_steep_change_warning_to_one_stitch_is_singular(self):
        _, _, doc = build_doc("(x - 0.5)^2 + 0.02", 0.0, 1.0, 20, 10, 1.0)
        assert [w.split(",")[0] for w in doc.warnings] == [
            "Row 1 goes from 8 to 1 stitch",
            "Row 2 goes from 1 to 8 stitches",
        ]

    def test_adding_constant_removes_warning(self):
        _, _, doc = build_doc("x^2 + 2.05", 0.0, 1.0, 40, 10, 1.0)
        assert doc.warnings == ()

    def test_warning_iff_doubling_or_halving(self):
        for text, gauge in [("x^2 + 0.05", 40), ("x^2 + 2.05", 40), ("x + 0.3", 30)]:
            spec, plan, doc = build_doc(text, 0.0, 1.0, gauge, 10, 1.0)
            counts = row_counts(spec, plan)
            start = 1 if counts[0] == 0 else 0
            end = len(counts) - 1 if counts[-1] == 0 else len(counts)
            kept = counts[start:end]
            violates = any(
                c > 2 * p or 2 * c < p for p, c in zip(kept, kept[1:])
            )
            assert bool(doc.warnings) == violates


class TestConservation:
    def test_instruction_totals_roundtrip(self, running_doc):
        rows = running_doc.rows
        assert instruction_totals(rows[0].instruction) == (0, rows[0].stitches)
        for prev, cur in zip(rows, rows[1:]):
            consumed, produced = instruction_totals(cur.instruction)
            assert consumed == prev.stitches
            assert produced == cur.stitches

    def test_token_count_equals_stitch_delta(self, running_doc):
        rows = running_doc.rows
        for prev, cur in zip(rows, rows[1:]):
            expanded = _expand_ops(cur.instruction)
            assert expanded == abs(cur.stitches - prev.stitches)

    def test_magic_ring_totals(self):
        assert instruction_totals("Row 0: Create a magic ring with 4 stitches.") == (0, 4)
        assert instruction_totals("Row 0: Create a magic ring with 1 stitch.") == (0, 1)
        assert instruction_totals("Row 3:  Dec, Sc1. (1 stitch)") == (3, 2)

    def test_chain_totals(self):
        assert instruction_totals("Row 0: Chain 6. join work, and Sc6.") == (0, 6)


def _expand_ops(line):
    body = re.sub(r"^Row \d+: {1,2}", "", line.strip())
    body = re.sub(r" \(\d+ stitch(?:es)?\)$", "", body)
    total = 0
    for m in re.finditer(r"\*([^*]*)\* \((\d+) times\)|Inc|Dec", body):
        if m.group(2) is not None:
            inner = len(re.findall(r"Inc|Dec", m.group(1)))
            total += inner * int(m.group(2))
        else:
            total += 1
    return total


class TestRenderJson:
    def test_row6_structure(self, running_doc):
        import json

        obj = json.loads(render_json(running_doc))
        assert obj["schema_version"] == 1
        row6 = obj["rows"][6]
        assert row6["row"] == 6
        assert row6["k"] == 1
        assert row6["positions"] == [1, 6, 11, 16, 21, 26]
        assert row6["stitches"] == 41
        assert row6["op"] == "increase"
        assert obj["warnings"] == []
        assert obj["total_rows"] == 16
        assert len(obj["landmarks"]) == 17

    def test_roundtrip_is_exact(self, running_doc):
        import json

        _, _, sphere_doc = build_doc("sin(x)", 0.0, math.pi, 22, 25, 2.0)
        for doc in (running_doc, sphere_doc):
            obj = json.loads(render_json(doc))
            assert list(obj) == ["schema_version", *PatternDoc._fields]
            for field in PatternDoc._fields:
                if field == "rows":
                    continue
                value = getattr(doc, field)
                assert obj[field] == (list(value) if isinstance(value, tuple) else value)
            assert len(obj["rows"]) == len(doc.rows)
            for got, row in zip(obj["rows"], doc.rows):
                assert list(got) == list(PatternRow._fields)
                assert got == {**row._asdict(), "positions": list(row.positions)}
            assert text_from_json(obj) == doc.to_text()

    def test_cast_on_row_has_null_shaping_fields(self, running_doc):
        import json

        row0 = json.loads(render_json(running_doc))["rows"][0]
        assert row0["op"] == "cast-on"
        assert row0["q"] is None and row0["r"] is None and row0["k"] is None
        assert row0["positions"] == []


# (function, a, b, stitch gauge, row gauge, scale, prioritize extrema)
JSON_ANCHORS = {
    "running": ("x^3 + 2*x^2 - 2*x + 4", -3.0, 1.0, 22, 25, 0.18, True),
    "running-even": ("x^3 + 2*x^2 - 2*x + 4", -3.0, 1.0, 22, 25, 0.18, False),
    "sphere": ("sin(x)", 0.0, math.pi, 22, 25, 2.0, True),  # closed at both ends: stuffed
    "ripple": ("2 + sin(20*x)", 0.0, 10.0, 22, 25, 0.3, True),
    "deep": ("3 + sin(5*x)*cos(3*x) + exp(-x^2)*x^2", -4.0, 4.0, 22, 25, 0.5, True),
    "steep": ("x^2 + 0.05", 0.0, 1.0, 40, 10, 1.0, True),  # a steep row: warnings
    "closed-start": ("sin(x) + x", 0.0, math.pi, 22, 25, 0.5, True),
    "closed-end": ("sin(x) + pi - x", 0.0, math.pi, 22, 25, 0.5, True),
    "int-a-b-scale": ("x^3 + 2*x^2 - 2*x + 4", -3, 1, 22, 25, 1, True),
    # the parser takes any Unicode whitespace, which "function" echoes
    "unicode-space": ("2\u3000+\xa0sin(x)\t", 0, 3, 20, 20, 1, False),
}

# Characters json.dumps escapes: a quote, a backslash, controls, non-ASCII
# (NBSP, U+3000), an astral character and a lone surrogate.
JSON_SPECIAL = ['"', "\\", "\t", "\n", "\x00", "\xa0", "\u3000", "\U0001f9f6", "\ud800"]
JSON_STRINGS = st.lists(
    st.one_of(st.text(), st.sampled_from(JSON_SPECIAL)), max_size=8
).map("".join)


class TestRenderJsonMatchesJsonDumps:
    """render_json writes the bytes of json.dumps(indent=2), the oracle in conftest."""

    @pytest.mark.parametrize("name", JSON_ANCHORS)
    def test_anchors(self, name):
        text, a, b, stitch_gauge, row_gauge, scale, extrema = JSON_ANCHORS[name]
        _, _, doc = build_doc(text, a, b, stitch_gauge, row_gauge, scale, extrema)
        assert render_json(doc) == reference_render_json(doc)
        flags = (doc.closed_start, doc.closed_end, doc.stuffed, bool(doc.warnings))
        expected = {
            "sphere": (True, True, True, False),
            "steep": (False, False, False, True),
            "closed-start": (True, False, False, False),
            "closed-end": (False, True, False, False),
        }
        assert flags == expected.get(name, (False, False, False, False))
        if name in ("int-a-b-scale", "unicode-space"):
            assert [type(v) for v in (doc.a, doc.b, doc.scale)] == [int, int, int]

    def test_seeded_specs(self):
        rng = random.Random(2025)
        for _ in range(100):
            spec = random_valid_spec(rng)
            for extrema in (True, False):
                plan = build_plan(spec, prioritize_extrema=extrema)
                doc = render_pattern(spec, plan, shape_rows(spec, plan))
                assert render_json(doc) == reference_render_json(doc), spec.source

    def test_hand_built_documents_with_empty_arrays(self, running_doc):
        bare = PatternDoc("2", 0, 1.5, 20, 20, 1, False, 0, False, False, False, (), (), (), ())
        docs = [
            bare,
            running_doc._replace(landmarks=(), rows=(), warnings=(), finishing=()),
            running_doc._replace(rows=running_doc.rows[:1], landmarks=(0,), warnings=("",)),
        ]
        for doc in docs:
            assert render_json(doc) == reference_render_json(doc)
        assert '"landmarks": [],' in render_json(bare)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(function=JSON_STRINGS, warnings=st.lists(JSON_STRINGS, max_size=3),
           instruction=JSON_STRINGS)
    def test_strings_are_escaped_as_json_dumps_escapes_them(
        self, running_doc, function, warnings, instruction
    ):
        rows = tuple(r._replace(instruction=instruction + r.instruction) for r in running_doc.rows)
        doc = running_doc._replace(function=function, warnings=tuple(warnings), rows=rows)
        assert render_json(doc) == reference_render_json(doc)

    def test_the_pure_python_encoder_is_never_entered(self, running_doc, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("json's pure-Python encoder was entered")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        _, _, sphere_doc = build_doc("sin(x)", 0.0, math.pi, 22, 25, 2.0)
        for doc in (running_doc, sphere_doc):
            assert render_json(doc).startswith('{\n  "schema_version": 1,\n  "function": ')


class TestFEvaluatedOnlyByBuildPlan:
    @pytest.mark.parametrize("text, a, b, scale, extrema", [
        ("x^3 + 2*x^2 - 2*x + 4", -3.0, 1.0, 0.18, True),
        ("x^3 + 2*x^2 - 2*x + 4", -3.0, 1.0, 0.18, False),
        ("sin(x)", 0.0, math.pi, 2.0, True),  # closed at both ends
        ("x^4", 0.0, 1.0, 1.0, True),  # leading 0-stitch landmarks dropped
    ])
    def test_shaping_and_emit_do_not_call_f(self, text, a, b, scale, extrema):
        spec = PatternSpec(parse(text), a, b, 20, 20, scale, source=text)
        plan = build_plan(spec, prioritize_extrema=extrema)
        calls = []
        f = spec.curve.f

        def counted(x):
            calls.append(x)
            return f(x)

        spec.curve = spec.curve._replace(f=counted)
        doc = render_pattern(spec, plan, shape_rows(spec, plan))
        render_json(doc)
        doc.to_text()
        assert calls == []
        render_svg(spec, plan)
        assert len(calls) == SVG_SAMPLES

    def test_closure_flags_match_f_at_the_ends(self):
        for text, a, b in [("sin(x)", 0.0, math.pi), ("x^4", 0.0, 1.0), ("x^4", -1.0, 0.0),
                           ("x^4 + 1", 0.0, 1.0), ("x^2", 0.004, 1.0)]:
            spec = PatternSpec(parse(text), a, b, 20, 20, 1.0, source=text)
            plan = build_plan(spec)
            doc = render_pattern(spec, plan, shape_rows(spec, plan))
            factor = 2.0 * math.pi * spec.stitches_per_unit
            ends = [round_half_away(factor * spec.curve.f(x)) == 0 for x in (a, b)]
            assert [doc.closed_start, doc.closed_end] == ends, text


class TestRenderSvg:
    def test_running_example_has_17_markers(self, running_spec, running_plan):
        svg = render_svg(running_spec, running_plan)
        assert svg.count("<circle") == 17
        assert svg.count("<polyline") == 1
        assert svg.startswith("<svg ")
        assert 'xmlns="http://www.w3.org/2000/svg"' in svg
        assert 'version="1.1"' in svg
        assert "href" not in svg  # standalone, no external references

    def test_markers_at_even_landmarks(self, running_spec, running_plan_even):
        # cx is emitted in data coordinates, so markers sit at the x landmarks
        svg = render_svg(running_spec, running_plan_even)
        cxs = [float(m) for m in re.findall(r'<circle cx="([^"]+)"', svg)]
        assert len(cxs) == 17
        for got, expected in zip(cxs, LANDMARKS_EVEN):
            assert got == pytest.approx(expected, abs=0.0105)

    def test_constant_function_markers_equally_spaced(self):
        spec = PatternSpec(parse("2"), 0.0, 1.0, 20, 8, 1.0, "2")
        plan = build_plan(spec)
        svg = render_svg(spec, plan)
        cxs = [float(m) for m in re.findall(r'<circle cx="([^"]+)"', svg)]
        gaps = [b - a for a, b in zip(cxs, cxs[1:])]
        assert all(g == pytest.approx(gaps[0], abs=1e-6) for g in gaps)

    def test_polyline_sample_count(self, running_spec, running_plan):
        svg = render_svg(running_spec, running_plan)
        points = re.search(r'points="([^"]+)"', svg).group(1)
        assert len(points.split()) == 512

    def test_deterministic(self, running_spec, running_plan):
        assert render_svg(running_spec, running_plan) == render_svg(
            running_spec, running_plan
        )


# The four anchors of the plan-svg benchmark workload: (f, a, b, scale, extrema).
SVG_ANCHORS = [
    ("x^3 + 2*x^2 - 2*x + 4", -3.0, 1.0, 9.0, True),
    ("x^3 + 2*x^2 - 2*x + 4", -3.0, 1.0, 1.8, False),
    ("2 + sin(20*x)", 0.0, 10.0, 0.3, True),
    ("3 + sin(5*x)*cos(3*x) + exp(-x^2)*x^2", -4.0, 4.0, 0.5, True),
]
# Numbers whose %.6g text takes each form: signed zero, subnormal, exponent
# below and above the precision, and a tie that rounds to even.
ODD_NUMBERS = [-0.0, 5e-324, 1e-7, 123456.5, 1e21]


class TestRenderSvgMatchesReference:
    """render_svg's %-templates write the bytes of one f-string per number."""

    @pytest.mark.parametrize("text, a, b, scale, extrema", SVG_ANCHORS)
    def test_benchmark_anchors(self, text, a, b, scale, extrema):
        spec = PatternSpec(parse(text), a, b, 22, 25, scale, source=text)
        plan = build_plan(spec, prioritize_extrema=extrema)
        assert render_svg(spec, plan) == reference_render_svg(spec, plan)

    @pytest.mark.parametrize("extrema", [True, False])
    def test_seeded_specs(self, extrema):
        rng = random.Random(2028)
        for _ in range(100):
            spec = random_valid_spec(rng)
            plan = build_plan(spec, prioritize_extrema=extrema)
            assert render_svg(spec, plan) == reference_render_svg(spec, plan), spec.source

    @pytest.mark.parametrize("text, a, b", [
        ("x", -0.0, 1e21),  # the first sample, -0 + 0, is 0, and its -y is -0
        ("x", 5e-324, 0.0000001),
        ("x - 123456", 123456.5, 123457.5),
        ("0*x", -0.0, 0.0000001),  # every sample 0, so every -y is -0
        ("2", 0.0, 1.0),
    ])
    def test_hand_built_plans(self, text, a, b):
        spec = PatternSpec(parse(text), a, b, 20, 20, 1.0, source=text)
        landmarks = tuple(ODD_NUMBERS + [-v for v in ODD_NUMBERS])
        for heights in (landmarks, landmarks[::-1]):
            plan = LandmarkPlan((), landmarks, len(landmarks) - 1, heights, True)
            assert render_svg(spec, plan) == reference_render_svg(spec, plan)

    def test_first_undefined_sample_is_named(self):
        # f is undefined at every sample past 0.5
        spec = PatternSpec(parse("sqrt(0.5 - x)"), 0.0, 1.0, 20, 20, 1.0, source="sqrt(0.5 - x)")
        plan = LandmarkPlan((), (0.0,), 0, (1.0,), True)
        with pytest.raises(ValueError) as got:
            render_svg(spec, plan)
        with pytest.raises(ValueError) as expected:
            reference_render_svg(spec, plan)
        assert str(got.value) == str(expected.value) == f"f is undefined at x={256 / 511!r}"
