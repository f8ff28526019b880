"""Tests for the incremental (streaming) XML tokenizer."""

from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XMLSyntaxError
from repro.xml import (
    Document,
    EndTag,
    StartTag,
    element_to_string,
    parse_events,
    parse_events_incremental,
)

from .conftest import random_tree


def incremental(text: str, chunk: int = 7, **kwargs):
    return list(
        parse_events_incremental(
            StringIO(text), chunk_chars=chunk, **kwargs
        )
    )


SAMPLES = [
    "<a/>",
    "<a></a>",
    '<a x="1" y="two words"><b/>text<c>deep</c></a>',
    "<a><!-- comment --><b/><![CDATA[raw <stuff>]]></a>",
    '<?xml version="1.0"?><!DOCTYPE a [<!ELEMENT a ANY>]><a>t</a>',
    "<a>&amp;&lt;&#65;</a>",
    '<ns:tag attr="v&quot;q"/>',
    "<a>" + "x" * 5000 + "</a>",  # text run far larger than a chunk
    "<a " + " ".join(f'k{i}="v{i}"' for i in range(50)) + "/>",
]


class TestEquivalenceWithOneShotParser:
    @pytest.mark.parametrize("xml", SAMPLES)
    @pytest.mark.parametrize("chunk", [3, 16, 1024])
    def test_same_events(self, xml, chunk):
        assert incremental(xml, chunk) == list(parse_events(xml))

    @pytest.mark.parametrize("chunk", [5, 64])
    def test_random_documents(self, chunk):
        for seed in range(6):
            tree = random_tree(seed, depth=4, max_fanout=4,
                               text_leaves=True)
            text = element_to_string(tree, indent="  ")
            assert incremental(text, chunk) == list(parse_events(text))

    def test_whitespace_preservation_option(self):
        xml = "<a> <b/> </a>"
        assert incremental(xml, 4, strip_whitespace=False) == list(
            parse_events(xml, strip_whitespace=False)
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=100),
        chunk=st.integers(min_value=2, max_value=200),
    )
    def test_chunk_size_never_changes_the_events(self, seed, chunk):
        tree = random_tree(seed, depth=3, max_fanout=4, text_leaves=True)
        text = element_to_string(tree)
        assert incremental(text, chunk) == list(parse_events(text))


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "<a>",
            "</a>",
            "<a></b>",
            "<a/><b/>",
            "text only",
            "<a><!-- unterminated",
            "<a><![CDATA[open",
            "",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(XMLSyntaxError):
            incremental(bad)

    def test_construct_spanning_chunks_still_errors_cleanly(self):
        with pytest.raises(XMLSyntaxError):
            incremental('<aaaa bbbb="cccc', chunk=2)


class TestFromFile:
    def test_document_from_file(self, tmp_path, store):
        tree = random_tree(9, depth=4, max_fanout=4, text_leaves=True)
        path = tmp_path / "doc.xml"
        path.write_text(element_to_string(tree, indent="  "))
        doc = Document.from_file(store, str(path), chunk_chars=64)
        assert doc.to_element() == tree

    def test_from_file_matches_from_string(self, tmp_path, store):
        tree = random_tree(10, depth=3, max_fanout=5)
        text = element_to_string(tree)
        path = tmp_path / "doc.xml"
        path.write_text(text)
        via_file = Document.from_file(store, str(path))
        via_string = Document.from_string(store, text)
        assert via_file.to_element() == via_string.to_element()
        assert via_file.element_count == via_string.element_count


# -- differential test against the stdlib SAX parser --------------------------

#: Name characters both parsers accept: ASCII, Greek, Cyrillic and CJK
#: letters first; digits, '-', '.' and '_' after the first character.
_NAME_START = "abcxyzABZ_αβγжщ汉字"
_NAME_REST = _NAME_START + "0123-._"
_CHARS = st.characters(blacklist_categories=("Cs", "Cc", "Co", "Cn"))
_REFS = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "'": "&apos;"}


class _DocumentBuilder:
    """Random XML over drawn unicode strings: names, entity and character
    references in text and attributes, CDATA, comments, PIs, and deep and
    wide nesting."""

    def __init__(self, rng, strings):
        self.rng = rng
        self.strings = strings

    def name(self):
        rng = self.rng
        return rng.choice(_NAME_START) + "".join(
            rng.choice(_NAME_REST) for _ in range(rng.randrange(6))
        )

    def escaped(self):
        """A drawn string with references; no literal CR, tab or LF."""
        out = []
        for char in self.rng.choice(self.strings):
            style = self.rng.randrange(4)
            if char in _REFS and style < 2:
                out.append(_REFS[char])
            elif style == 3 or char in _REFS:
                out.append(
                    f"&#x{ord(char):x};" if style % 2 else f"&#{ord(char)};"
                )
            else:
                out.append(char)
        return "".join(out)

    def element(self, budget):
        rng = self.rng
        tag = self.name()
        names = dict.fromkeys(self.name() for _ in range(rng.randrange(4)))
        attrs = "".join(f' {name}="{self.escaped()}"' for name in names)
        width = rng.choice((0, 1, 3, 6, 30)) if budget > 0 else 0
        content = []
        for _ in range(width + rng.randrange(3)):
            kind = rng.randrange(8)
            if kind == 0:
                body = rng.choice(self.strings).replace("]]>", "")
                content.append(f"<![CDATA[{body}]]>")
            elif kind == 1:
                content.append(f"<!--{rng.choice(['', 'a <b> &', ' c '])}-->")
            elif kind == 2:
                content.append(f"<?pi {rng.choice(['', 'x <y>'])}?>")
            elif kind < 5 or budget <= 0:
                content.append(self.escaped())
            else:
                content.append(self.element(budget // max(1, width)))
        if not content and rng.random() < 0.5:
            return f"<{tag}{attrs}/>"
        return f"<{tag}{attrs}>{''.join(content)}</{tag}>"

    def document(self):
        rng = self.rng
        body = self.element(rng.choice((0, 4, 40, 200)))
        for depth in range(rng.choice((0, 1, 60))):  # deep chains
            body = f"<d{depth}>{body}</d{depth}>"
        prolog = rng.choice(["", '<?xml version="1.0"?>\n', "<!-- c -->"])
        return prolog + body + rng.choice(["", "\n", "<?end?>"])


@st.composite
def _document(draw):
    strings = draw(st.lists(st.text(alphabet=_CHARS, max_size=12), min_size=1,
                            max_size=8))
    return _DocumentBuilder(draw(st.randoms(use_true_random=False)),
                            strings).document()


def _normalized(events):
    """Adjacent text coalesced, whitespace-only text dropped."""
    out = []
    for event in events:
        if event[0] == "text" and out and out[-1][0] == "text":
            out[-1] = ("text", out[-1][1] + event[1])
        else:
            out.append(event)
    return [e for e in out if e[0] != "text" or e[1].strip()]


def _sax_events(document: str):
    import xml.sax

    events = []

    class Handler(xml.sax.ContentHandler):
        def startElement(self, name, attrs):
            events.append(("start", name, tuple(attrs.items())))

        def endElement(self, name):
            events.append(("end", name))

        def characters(self, content):
            events.append(("text", content))

    xml.sax.parseString(document.encode("utf-8"), Handler())
    return _normalized(events)


class TestAgainstStdlibSax:
    """``parse_events_incremental`` against an independent parser."""

    @settings(max_examples=150, deadline=None)
    @given(document=_document())
    def test_same_events_as_sax(self, document):
        expected = _sax_events(document)
        for chunk in (1, 7, 64 * 1024):
            ours = []
            for event in parse_events_incremental(
                StringIO(document), strip_whitespace=False, chunk_chars=chunk
            ):
                if isinstance(event, StartTag):
                    ours.append(("start", event.tag, event.attrs))
                elif isinstance(event, EndTag):
                    ours.append(("end", event.tag))
                else:
                    ours.append(("text", event.text))
            assert _normalized(ours) == expected, chunk
