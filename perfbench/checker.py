"""Independent output checker for the benchmark.

Built on the standard library only (``xml.etree`` and ``hashlib``) and
sharing no code with the sorter, so a defect in the sorter's parser,
codec or writer cannot hide itself here.  It checks two things about a
sorted document:

* every sibling list is ordered under the workload's ordering spec, and
* the output is a permutation of the input at every level.

The permutation check compares canonical subtree hashes: an element's
hash covers its tag, its attributes, its leading text and the *sorted*
multiset of its children's hashes, so two documents have equal root
hashes exactly when one is a reordering of sibling lists of the other.
Text is compared with surrounding whitespace stripped, because the sorter
pretty-prints its output; text after a child element (mixed content) is
not covered, and the benchmark's documents have none.
"""

from __future__ import annotations

import hashlib
import xml.etree.ElementTree as ET
from dataclasses import dataclass

#: Key kinds, in the order the spec sorts them: an element with no value
#: under the criterion sorts before numbers, numbers before strings.
_MISSING, _NUMBER, _STRING = 0, 1, 2


@dataclass(frozen=True)
class OrderSpec:
    """Sibling order: by one attribute, numeric-looking values as numbers.

    ``missing_uses_tag`` keys an element without the attribute by its tag
    name (``repro sort --by``); otherwise such elements sort first
    (``repro serve``).
    """

    attribute: str = "name"
    missing_uses_tag: bool = False

    def key(self, element: ET.Element) -> tuple:
        value = element.get(self.attribute)
        if value is None:
            if self.missing_uses_tag:
                return (_STRING, element.tag)
            return (_MISSING, 0.0)
        try:
            return (_NUMBER, float(value))
        except ValueError:
            return (_STRING, value)


@dataclass
class CheckResult:
    canonical_hash: str
    disorder: list[str]


def _element_hash(element: ET.Element, child_hashes: list[bytes]) -> bytes:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(element.tag.encode())
    for name, value in sorted(element.attrib.items()):
        digest.update(b"\x00" + name.encode() + b"\x01" + value.encode())
    text = (element.text or "").strip()
    digest.update(b"\x02" + text.encode() + b"\x03")
    for child in sorted(child_hashes):
        digest.update(child)
    return digest.digest()


def scan(source, spec: OrderSpec | None) -> CheckResult:
    """Stream ``source`` (a path or a binary file); return its canonical
    hash and any sibling disorder.

    With ``spec=None`` only the hash is computed (for the input side).
    At most ten disorder messages are kept.
    """
    hashes: list[list[bytes]] = [[]]
    keys: list[list[tuple]] = [[]]
    disorder: list[str] = []
    for event, element in ET.iterparse(source, events=("start", "end")):
        if event == "start":
            hashes.append([])
            keys.append([])
            continue
        child_hashes = hashes.pop()
        child_keys = keys.pop()
        if spec is not None:
            for index in range(1, len(child_keys)):
                if child_keys[index - 1] > child_keys[index]:
                    if len(disorder) < 10:
                        disorder.append(
                            f"<{element.tag} {spec.attribute}="
                            f"{element.get(spec.attribute)!r}>: child "
                            f"{index} key {child_keys[index]!r} follows "
                            f"{child_keys[index - 1]!r}"
                        )
                    else:
                        break
            keys[-1].append(spec.key(element))
        hashes[-1].append(_element_hash(element, child_hashes))
        # The subtree is folded into this hash; dropping its content keeps
        # the check's memory far below the document's size.
        element.clear()
    (root_hash,) = hashes[0]
    return CheckResult(root_hash.hex(), disorder)


def check_sorted(
    input_hash: str, output_path: str, spec: OrderSpec
) -> list[str]:
    """Problems with ``output_path`` as a sort of an input whose canonical
    hash is ``input_hash``; an empty list means the output is correct."""
    try:
        result = scan(output_path, spec)
    except ET.ParseError as error:
        return [f"output is not well-formed XML: {error}"]
    problems = list(result.disorder)
    if result.canonical_hash != input_hash:
        problems.append(
            "output is not a permutation of the input: canonical hash "
            f"{result.canonical_hash} != input {input_hash}"
        )
    return problems
