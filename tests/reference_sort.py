"""An independent reference sort on the standard library.

Shares no code with ``repro``: documents are parsed with
:mod:`xml.etree.ElementTree`, every child list is ordered by the ``name``
attribute under the sorters' key rules (missing before numbers before
strings, numeric-looking values numerically, ties in document order), and
trees are compared in a canonical form: tag, attributes, stripped text and
children in order.  Mixed content is out of scope: text between children
(``tail`` text) is ignored.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET


def name_key(element: ET.Element) -> tuple:
    value = element.get("name")
    if value is None:
        return (0, 0.0, "")
    try:
        return (1, float(value), "")
    except ValueError:
        return (2, 0.0, value)


def canonical(element: ET.Element) -> tuple:
    return (
        element.tag,
        tuple(sorted(element.attrib.items())),
        (element.text or "").strip(),
        tuple(canonical(child) for child in element),
    )


def reference_sort(text: str) -> tuple:
    """Canonical form of ``text`` with every child list sorted by name."""
    root = ET.fromstring(text)
    stack = [root]
    while stack:
        node = stack.pop()
        node[:] = sorted(node, key=name_key)
        stack.extend(node)
    return canonical(root)


def canonical_text(text: str) -> tuple:
    """Canonical form of ``text`` as it stands."""
    return canonical(ET.fromstring(text))
