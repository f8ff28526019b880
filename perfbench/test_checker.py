"""Tests of the benchmark's own checker and span arithmetic.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import io
import time

from checker import OrderSpec, check_sorted, scan
from spans import Recorder, self_times

SPEC = OrderSpec("name", missing_uses_tag=True)

INPUT = (
    '<root name="root">'
    '<a name="k3"><b name="k2"/><b name="k1"/></a>'
    '<a name="k1"><b name="k9">text</b></a>'
    "</root>"
)

SORTED = """<root name="root">
  <a name="k1">
    <b name="k9">text</b>
  </a>
  <a name="k3">
    <b name="k1"/>
    <b name="k2"/>
  </a>
</root>
"""


def _check(tmp_path, output: str, source: str = INPUT, spec=SPEC):
    path = tmp_path / "output.xml"
    path.write_text(output, encoding="utf-8")
    input_hash = scan(io.BytesIO(source.encode()), None).canonical_hash
    return check_sorted(input_hash, str(path), spec)


def test_accepts_a_correct_pretty_printed_sort(tmp_path):
    assert _check(tmp_path, SORTED) == []


def test_catches_a_swapped_sibling(tmp_path):
    swapped = SORTED.replace(
        '<b name="k1"/>\n    <b name="k2"/>',
        '<b name="k2"/>\n    <b name="k1"/>',
    )
    problems = _check(tmp_path, swapped)
    assert len(problems) == 1
    assert "follows" in problems[0]


def test_catches_a_dropped_subtree(tmp_path):
    dropped = SORTED.replace('    <b name="k2"/>\n', "")
    problems = _check(tmp_path, dropped)
    assert problems and "not a permutation" in problems[-1]


def test_catches_a_duplicated_subtree(tmp_path):
    # Still in order, so only the permutation check can see it.
    duplicated = SORTED.replace(
        '    <b name="k2"/>\n', '    <b name="k2"/>\n    <b name="k2"/>\n'
    )
    problems = _check(tmp_path, duplicated)
    assert len(problems) == 1
    assert "not a permutation" in problems[0]


def test_catches_changed_content(tmp_path):
    changed = SORTED.replace(">text<", ">test<")
    assert "not a permutation" in _check(tmp_path, changed)[0]


def test_reports_malformed_output(tmp_path):
    problems = _check(tmp_path, SORTED.replace("</root>", ""))
    assert problems and "not well-formed" in problems[0]


def test_numeric_values_order_as_numbers_before_strings(tmp_path):
    source = '<r><c name="x"/><c name="10"/><c name="9"/></r>'
    good = '<r><c name="9"/><c name="10"/><c name="x"/></r>'
    bad = '<r><c name="10"/><c name="9"/><c name="x"/></r>'
    assert _check(tmp_path, good, source) == []
    assert _check(tmp_path, bad, source)


def test_missing_key_sorts_first_or_by_tag(tmp_path):
    source = '<r><c name="a"/><d/></r>'
    serve = OrderSpec("name")
    assert _check(tmp_path, '<r><d/><c name="a"/></r>', source, serve) == []
    # With the tag fallback, <d> keys as "d" and follows "a".
    assert _check(tmp_path, '<r><c name="a"/><d/></r>', source) == []
    assert _check(tmp_path, '<r><d/><c name="a"/></r>', source)


class _Layer:
    def outer(self, inner):
        time.sleep(0.01)
        return inner()

    def inner(self):
        time.sleep(0.02)
        return list(range(3))


def test_self_times_tile_the_root():
    rec = Recorder("test")
    rec.wrap(_Layer, "outer", "layer.outer")
    rec.wrap(_Layer, "inner", "layer.inner")
    layer = _Layer()
    root = rec.begin("run")
    layer.outer(layer.inner)
    consumed = list(rec.timed_stream("layer.stream", iter(range(5))))
    rec.end(root)

    assert consumed == list(range(5))
    names = [span["name"] for span in rec.spans]
    assert names == ["run", "layer.outer", "layer.inner", "layer.stream"]
    assert [span["parent"] for span in rec.spans] == [None, 0, 1, 0]
    own = self_times(rec.spans)
    assert own[2] >= 0.02 and own[1] >= 0.01
    assert abs(sum(own) - (root["end"] - root["start"])) < 1e-9
