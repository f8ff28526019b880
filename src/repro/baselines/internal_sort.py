"""Internal-memory recursive sort - the paper's first "popular algorithm".

Read the whole document into a DOM, recursively sort every child list by
reordering pointers.  It "takes full advantage of the document structure but
assumes that the entire document fits in internal memory" (Section 1).  In
this package it serves two roles:

* the *oracle* against which both external sorters are verified in tests -
  any correct sort must produce exactly this tree; and
* the in-memory kernel NEXSORT uses when a popped subtree fits in memory.

Every eligible child list is gathered into one batched stable argsort over
engine-normalized key bytes (:func:`repro.core.columnar.argsort_groups`)
instead of one ``list.sort`` per list.  Normalized keys are order- and
equality-faithful and the batched argsort is stable, so ties keep document
order.
"""

from __future__ import annotations

from typing import Callable

from ..keys import SortSpec
from ..xml.model import Element


def _sort_groups(groups: list[list[Element]], spec: SortSpec) -> None:
    """Batch-sort many child lists in place (stable, order-identical)."""
    from ..core.columnar import argsort_groups, normalized_atom_bytes

    key_of = spec.key_of_element
    memo: dict[tuple, bytes] = {}
    group_keys: list[list[bytes]] = []
    for children in groups:
        keys = []
        append = keys.append
        for child in children:
            atom = key_of(child)
            norm = memo.get(atom)
            if norm is None:
                norm = normalized_atom_bytes(atom)
                memo[atom] = norm
            append(norm)
        group_keys.append(keys)
    for children, order in zip(groups, argsort_groups(group_keys)):
        children[:] = [children[i] for i in order]


def sort_element(
    element: Element,
    spec: SortSpec,
    depth_limit: int | None = None,
) -> Element:
    """Return a new, fully sorted copy of ``element``.

    Children at every level are ordered by the spec's key (stably, so ties
    keep document order - equivalent to the paper's position tie-break).
    With ``depth_limit=d``, only elements at levels 1..d have their child
    lists sorted; deeper subtrees keep their original internal order
    (Section 3.2, depth-limited sorting; the root is level 1).

    Iterative, so degenerate chain documents deeper than Python's
    recursion limit sort fine.
    """
    copies: dict[int, Element] = {}
    # Pass 1 (preorder): shallow-copy every node.
    for node in element.iter():
        copies[id(node)] = Element(node.tag, node.attrs, node.text, [])
    # Pass 2 (postorder via reversed preorder): attach sorted child lists.
    order: list[tuple[Element, int]] = []
    stack: list[tuple[Element, int]] = [(element, 1)]
    while stack:
        node, level = stack.pop()
        order.append((node, level))
        for child in node.children:
            stack.append((child, level + 1))
    groups: list[list[Element]] = []
    for node, level in reversed(order):
        copy = copies[id(node)]
        copy.children = [copies[id(child)] for child in node.children]
        if (
            depth_limit is None or level <= depth_limit
        ) and len(copy.children) > 1:
            groups.append(copy.children)
    _sort_groups(groups, spec)
    return copies[id(element)]


def sort_element_in_place(
    element: Element,
    spec: SortSpec,
    depth_limit: int | None = None,
) -> None:
    """Sort ``element``'s subtree in place (pointer reordering only)."""
    order: list[tuple[Element, int]] = []
    stack: list[tuple[Element, int]] = [(element, 1)]
    while stack:
        node, level = stack.pop()
        order.append((node, level))
        for child in node.children:
            stack.append((child, level + 1))
    groups = [
        node.children
        for node, level in order
        if (depth_limit is None or level <= depth_limit)
        and len(node.children) > 1
    ]
    _sort_groups(groups, spec)


def comparison_count(element: Element) -> int:
    """Analytic comparison count of the recursive sort (``n log n`` per
    child list), used by the CPU cost model."""
    from math import ceil, log2

    total = 0
    for node in element.iter():
        n = len(node.children)
        if n > 1:
            total += n * max(1, ceil(log2(n)))
    return total


def is_fully_sorted(
    element: Element,
    spec: SortSpec,
    depth_limit: int | None = None,
) -> bool:
    """True when every child list is non-decreasing under the spec."""
    key: Callable[[Element], tuple] = spec.key_of_element
    return element.is_sorted_by(key, depth_limit=depth_limit)
