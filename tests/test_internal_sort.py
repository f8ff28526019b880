"""Unit tests for the internal-memory recursive sort (the oracle)."""

from repro.baselines import is_fully_sorted, sort_element
from repro.baselines.internal_sort import (
    comparison_count,
    sort_element_in_place,
)
from repro.keys import ByAttribute, SortSpec
from repro.xml import Element

from .conftest import random_tree
from .goldens import assert_golden, sha256


def spec():
    return SortSpec(default=ByAttribute("name"))


class TestSortElement:
    def test_sorts_every_level(self):
        tree = Element.parse(
            '<r name="r"><a name="2"><x name="9"/><x name="1"/></a>'
            '<a name="1"/></r>'
        )
        result = sort_element(tree, spec())
        assert is_fully_sorted(result, spec())
        names = [child.attrs["name"] for child in result.children]
        assert names == ["1", "2"]
        inner = result.children[1]
        assert [c.attrs["name"] for c in inner.children] == ["1", "9"]

    def test_original_untouched(self):
        tree = Element.parse('<r><a name="2"/><a name="1"/></r>')
        before = tree.canonical()
        sort_element(tree, spec())
        assert tree.canonical() == before

    def test_preserves_content(self):
        for seed in range(8):
            tree = random_tree(seed, text_leaves=True)
            result = sort_element(tree, spec())
            assert (
                result.unordered_canonical() == tree.unordered_canonical()
            )
            assert is_fully_sorted(result, spec())

    def test_idempotent(self):
        tree = random_tree(3)
        once = sort_element(tree, spec())
        twice = sort_element(once, spec())
        assert once == twice

    def test_stability_on_equal_keys(self):
        tree = Element.parse(
            '<r><a name="k" id="1"/><a name="k" id="2"/>'
            '<a name="a"/></r>'
        )
        result = sort_element(tree, spec())
        ids = [c.attrs.get("id") for c in result.children]
        assert ids == [None, "1", "2"]

    def test_depth_limit(self):
        tree = Element.parse(
            '<r name="r"><a name="2"><x name="9"/><x name="1"/></a>'
            '<a name="1"/></r>'
        )
        result = sort_element(tree, spec(), depth_limit=1)
        assert [c.attrs["name"] for c in result.children] == ["1", "2"]
        deep = [c for c in result.children if c.children][0]
        # Below the limit, document order survives.
        assert [c.attrs["name"] for c in deep.children] == ["9", "1"]

    def test_in_place_variant_matches(self):
        tree = random_tree(5)
        expected = sort_element(tree, spec())
        sort_element_in_place(tree, spec())
        assert tree == expected

    def test_comparison_count_positive_for_branchy_trees(self):
        tree = Element.parse('<r><a name="1"/><a name="2"/><a name="3"/></r>')
        assert comparison_count(tree) > 0
        assert comparison_count(Element("leaf")) == 0


def random_tree_cell(seed):
    tree = random_tree(seed, text_leaves=True)
    return str(seed), lambda: sha256(sort_element(tree, spec()).canonical())


def depth_limit_cell(limit):
    tree = random_tree(4)
    return str(limit), lambda: sha256(
        sort_element(tree, spec(), depth_limit=limit).canonical()
    )


def golden_cells():
    for seed in range(8):
        yield ("internal/random-trees", *random_tree_cell(seed))
    for limit in (None, 1, 2):
        yield ("internal/depth-limit", *depth_limit_cell(limit))


class TestColumnarKernel:
    """Child lists sort in one batch; the trees match the digests the
    per-list sort recorded."""

    def test_matches_scalar_on_random_trees(self):
        for seed in range(8):
            cell, compute = random_tree_cell(seed)
            assert_golden("internal/random-trees", cell, compute())

    def test_matches_scalar_with_depth_limit(self):
        for limit in (None, 1, 2):
            cell, compute = depth_limit_cell(limit)
            assert_golden("internal/depth-limit", cell, compute())

    def test_in_place_columnar(self):
        tree = random_tree(6)
        expected = sort_element(tree, spec())
        sort_element_in_place(tree, spec())
        assert tree == expected

    def test_stability_on_equal_keys(self):
        tree = Element.parse(
            '<r><a name="k" id="1"/><a name="k" id="2"/>'
            '<a name="a"/></r>'
        )
        sort_element_in_place(tree, spec())
        ids = [c.attrs.get("id") for c in tree.children]
        assert ids == [None, "1", "2"]
