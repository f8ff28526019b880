"""Unit tests for XML serialization."""

import pytest

from repro.errors import XMLSyntaxError
from repro.xml import Element, element_to_string, events_to_string
from repro.xml.tokens import EndTag, StartTag, Text
from repro.xml.writer import escape_attr, escape_text


class TestEscaping:
    def test_text_escapes(self):
        assert escape_text("a < b & c > d") == "a &lt; b &amp; c &gt; d"

    def test_attr_escapes(self):
        assert escape_attr('he said "hi" & left') == (
            "he said &quot;hi&quot; &amp; left"
        )

    def test_escaped_output_reparses(self):
        tree = Element("a", {"v": '<&">'}, 'text <&> "quoted"')
        assert Element.parse(element_to_string(tree)) == tree


class TestCompactOutput:
    def test_empty_element_self_closes(self):
        assert element_to_string(Element("a")) == "<a/>"

    def test_attributes_in_insertion_order(self):
        tree = Element("a", {"z": "1", "a": "2"})
        assert element_to_string(tree) == '<a z="1" a="2"/>'

    def test_text_and_children(self):
        tree = Element.parse("<a>t<b/></a>")
        assert element_to_string(tree) == "<a>t<b/></a>"

    def test_unbalanced_stream_rejected(self):
        with pytest.raises(XMLSyntaxError):
            events_to_string([StartTag("a")])
        with pytest.raises(XMLSyntaxError):
            events_to_string([StartTag("a"), EndTag("a"), EndTag("b")])


class TestPrettyOutput:
    def test_indentation(self):
        tree = Element.parse("<a><b><c/></b></a>")
        text = element_to_string(tree, indent="  ")
        assert "\n  <b>" in text
        assert "\n    <c/>" in text

    def test_leaf_text_stays_inline(self):
        tree = Element.parse("<a><b>value</b></a>")
        text = element_to_string(tree, indent="  ")
        assert "<b>value</b>" in text

    def test_pretty_output_reparses_to_same_tree(self):
        tree = Element.parse(
            '<company><region name="NE"><branch name="D">'
            "<employee ID=\"1\"><name>Smith</name></employee>"
            "</branch></region></company>"
        )
        assert Element.parse(element_to_string(tree, indent="  ")) == tree

    def test_events_to_string_accepts_text_events(self):
        text = events_to_string(
            [StartTag("a"), Text("x"), Text("y"), EndTag("a")]
        )
        assert text == "<a>xy</a>"


class TestStreamingWrite:
    """``write_events`` streams exactly what ``events_to_string`` builds."""

    class Recorder:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)

    @pytest.mark.parametrize("indent", [None, "  "])
    def test_same_text_in_several_writes(self, indent):
        from repro.xml.writer import write_events

        children = [
            Element("c", {"name": f"n{i}"}, f"t&{i}" if i % 3 else "", [])
            for i in range(1500)
        ]
        tree = Element("r", {"a": "<v>"}, "", children)
        out = self.Recorder()
        write_events(tree.to_events(), out, indent=indent)
        assert len(out.writes) > 1  # streamed, not built whole
        assert "".join(out.writes) == events_to_string(
            tree.to_events(), indent=indent
        )

    def test_document_write_matches_to_string(self, store, tmp_path):
        from .conftest import random_tree
        from repro.cli import _emit
        from repro.xml import Document

        tree = random_tree(5, depth=3, max_fanout=6, text_leaves=True)
        document = Document.from_element(store, tree)
        path = tmp_path / "out.xml"
        _emit(document, str(path))
        assert path.read_text(encoding="utf-8") == document.to_string(
            indent="  "
        )
