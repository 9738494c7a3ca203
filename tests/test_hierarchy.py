import ast
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiergan.hierarchy import (
    FIXTURE_TREE,
    ClassHierarchy,
    HierarchyError,
    parse_hierarchy,
)


@pytest.fixture
def tree() -> ClassHierarchy:
    return parse_hierarchy(FIXTURE_TREE)


def test_fixture_shape(tree):
    assert len(tree) == 9
    assert tree.K == 2
    assert tree.num_classes(1) == 2
    assert tree.num_classes(2) == 6
    assert {tree.name_of(i) for i in tree.leaves} == {"fox", "wolf", "dog", "cat", "lion", "tiger"}
    assert tree.root.name == "root" and tree.root.level == 0


def test_ids_follow_file_order(tree):
    names = [n.name for n in tree.nodes]
    assert names == ["root", "canine", "fox", "wolf", "dog", "feline", "cat", "lion", "tiger"]
    assert [n.id for n in tree.nodes] == list(range(9))


def test_minimal_two_leaf_tree():
    h = parse_hierarchy("root\nroot/a\nroot/b\n")
    assert h.K == 1
    assert {h.name_of(i) for i in h.leaves} == {"a", "b"}


def test_single_root_has_no_pairs():
    h = parse_hierarchy("root\n")
    assert h.K == 0
    assert h.parent_child_pairs() == ()


def test_comments_and_blank_lines_ignored(tree):
    noisy = "# header\n\nroot\n  \nroot/canine  # comment\nroot/canine/fox\nroot/canine/wolf\n"
    noisy += "root/canine/dog\nroot/feline\nroot/feline/cat\nroot/feline/lion\nroot/feline/tiger\n"
    assert parse_hierarchy(noisy).serialize() == tree.serialize()


def test_ancestor_fixture_values(tree):
    fox = tree.id_of("fox")
    assert tree.ancestor(fox, 2) == fox
    assert tree.name_of(tree.ancestor(fox, 1)) == "canine"
    assert tree.name_of(tree.ancestor(tree.id_of("lion"), 1)) == "feline"


def test_ancestor_matches_parent_walk(tree):
    # oracle: walk parent links from each leaf and compare level by level
    for y in tree.leaves:
        chain = []
        node = tree.nodes[y]
        while node.parent is not None:
            chain.append(node.id)
            node = tree.nodes[node.parent]
        chain.reverse()
        assert len(chain) == tree.K
        for k in range(1, tree.K + 1):
            assert tree.ancestor(y, k) == chain[k - 1]
        assert tree.ancestor_path(y) == tuple(chain)


def test_ancestor_path_levels_increase(tree):
    for y in tree.leaves:
        levels = [tree.nodes[a].level for a in tree.ancestor_path(y)]
        assert levels == list(range(1, tree.K + 1))


def test_ancestor_rejects_bad_arguments(tree):
    canine = tree.id_of("canine")
    with pytest.raises(HierarchyError, match="not a leaf"):
        tree.ancestor(canine, 1)
    with pytest.raises(HierarchyError, match="out of range"):
        tree.ancestor(tree.id_of("fox"), 0)
    with pytest.raises(HierarchyError, match="out of range"):
        tree.ancestor(tree.id_of("fox"), 3)


def test_level_classes_ordering(tree):
    assert [tree.name_of(i) for i in tree.level_classes(1)] == ["canine", "feline"]
    assert [tree.name_of(i) for i in tree.level_classes(2)] == ["fox", "wolf", "dog", "cat", "lion", "tiger"]
    assert tree.level_classes(2) == tree.leaves
    with pytest.raises(HierarchyError, match="out of range"):
        tree.level_classes(0)
    with pytest.raises(HierarchyError, match="out of range"):
        tree.level_classes(3)


def test_level_counts_sum_to_non_root_nodes(tree):
    assert sum(tree.num_classes(k) for k in range(1, tree.K + 1)) == len(tree) - 1


def test_parent_child_pairs(tree):
    pairs = tree.parent_child_pairs()
    assert len(pairs) == len(tree) - 1 == 8
    for p, c in pairs:
        assert tree.nodes[c].parent == p
        assert tree.nodes[c].level == tree.nodes[p].level + 1
        assert tree.is_parent_child(p, c)
    assert not tree.is_parent_child(tree.id_of("canine"), tree.id_of("cat"))
    # deterministic order: by child id
    assert [c for _, c in pairs] == sorted(c for _, c in pairs)


def test_equality_is_equal_serialization(tree):
    again = parse_hierarchy(tree.serialize())
    assert again is not tree and again == tree
    assert parse_hierarchy(FIXTURE_TREE.replace("canine", "bird")) != tree


def test_serialize_round_trip(tree):
    text = tree.serialize()
    again = parse_hierarchy(text)
    assert again.nodes == tree.nodes
    assert again.serialize() == text
    assert text.endswith("\n")


def test_children_and_leaf_queries(tree):
    canine = tree.id_of("canine")
    assert [tree.name_of(c) for c in tree.children(canine)] == ["fox", "wolf", "dog"]
    assert tree.children(tree.id_of("fox")) == ()
    assert tree.is_leaf(tree.id_of("dog"))
    assert not tree.is_leaf(canine)


def test_unknown_name_raises(tree):
    with pytest.raises(HierarchyError, match="unknown class name"):
        tree.id_of("otter")


def test_duplicate_name_names_line():
    with pytest.raises(HierarchyError, match="line 3: duplicate name 'a'"):
        parse_hierarchy("root\nroot/a\nroot/a\n")


def test_parent_declared_before_child():
    with pytest.raises(HierarchyError, match="line 2: parent 'a' not declared"):
        parse_hierarchy("root\nroot/a/x\n")


def test_second_root_rejected():
    with pytest.raises(HierarchyError, match="line 2: second root"):
        parse_hierarchy("root\nother\n")


def test_declared_path_must_match():
    with pytest.raises(HierarchyError, match="does not match"):
        parse_hierarchy("root\nroot/a\na/x\n")


def test_unbalanced_leaf_depth_names_line():
    with pytest.raises(HierarchyError, match=r"line 3: leaf 'x' is at level 2 but leaf 'b'"):
        parse_hierarchy("root\nroot/a\nroot/a/x\nroot/b\n")


def test_empty_file_rejected():
    with pytest.raises(HierarchyError, match="empty hierarchy"):
        parse_hierarchy("# only a comment\n")


def test_empty_path_component_rejected():
    with pytest.raises(HierarchyError, match="line 2: empty path component"):
        parse_hierarchy("root\nroot//x\n")


def test_parse_memory_is_linear_in_the_tree():
    # a table of every node's unrelated ids, built up front, peaks near 79 MB here
    text = "root\n" + "".join(f"root/c{i}\n" for i in range(1500))
    tracemalloc.start()
    try:
        h = parse_hierarchy(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(h.leaves) == 1500
    assert peak < 8e6, f"parsing 1,500 leaves peaked at {peak / 1e6:.1f} MB"


def test_only_parse_hierarchy_builds_a_hierarchy():
    # the constructor trusts its nodes; any other builder would skip the checks
    calls, owners = 0, []
    for path in (Path(__file__).resolve().parent.parent / "src").rglob("*.py"):
        module = ast.parse(path.read_text())
        calls += sum(map(_calls_class_hierarchy, ast.walk(module)))
        owners += [
            f"{path.name}:{fn.name}"
            for fn in ast.walk(module)
            if isinstance(fn, ast.FunctionDef) and any(map(_calls_class_hierarchy, ast.walk(fn)))
        ]
    assert calls == 1 and owners == ["hierarchy.py:parse_hierarchy"]


def _calls_class_hierarchy(node) -> bool:
    return isinstance(node, ast.Call) and "ClassHierarchy" in (
        getattr(node.func, "id", None),
        getattr(node.func, "attr", None),
    )


# ------------------------------------------------------------- unrelated ids


@st.composite
def balanced_trees(draw):
    """A random tree whose leaves share one depth, 1-3 children per node."""
    depth = draw(st.integers(1, 3))
    lines, frontier = ["root"], ["root"]
    for _ in range(depth):
        nxt = []
        for path in frontier:
            for _ in range(draw(st.integers(1, 3))):
                nxt.append(f"{path}/n{len(lines)}")
                lines.append(nxt[-1])
        frontier = nxt
    return parse_hierarchy("\n".join(lines) + "\n")


def brute_force_unrelated(h, a):
    return tuple(
        q for q in range(len(h)) if q != a and not h.is_parent_child(a, q) and not h.is_parent_child(q, a)
    )


def test_unrelated_on_fixture_tree(tree):
    for a in range(len(tree)):
        assert tree.unrelated(a) == brute_force_unrelated(tree, a)
    assert tree.unrelated(tree.id_of("canine")) == tuple(
        tree.id_of(n) for n in ("feline", "cat", "lion", "tiger")
    )


@settings(max_examples=40, deadline=None)
@given(balanced_trees())
def test_unrelated_matches_brute_force(h):
    for a in range(len(h)):
        assert h.unrelated(a) == brute_force_unrelated(h, a)
