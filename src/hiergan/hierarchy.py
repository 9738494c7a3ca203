"""Rooted, balanced class trees and the level/ancestor queries everything else builds on.

The hierarchy file format is one node per line using full-path syntax::

    root
    root/canine
    root/canine/fox
    # comments and blank lines are ignored

Node ids are assigned in file order, so a file is also a canonical ordering.
Classification levels run 1..K (the root, level 0, is excluded); all leaves
must sit at the same depth K.
"""

from __future__ import annotations

from dataclasses import dataclass


class HierarchyError(ValueError):
    """Raised for malformed hierarchy files or invalid queries."""


@dataclass(frozen=True)
class ClassNode:
    id: int
    name: str
    parent: int | None
    level: int


class ClassHierarchy:
    """Immutable rooted tree of named classes.

    Safe for concurrent reads; every accessor is deterministic and ordered
    by node id.
    """

    def __init__(self, nodes: list[ClassNode]):
        self.nodes: tuple[ClassNode, ...] = tuple(nodes)
        roots = [n for n in self.nodes if n.parent is None]
        if len(roots) != 1:
            raise HierarchyError(f"expected exactly one root, found {len(roots)}")
        self.root: ClassNode = roots[0]
        self._by_name = {n.name: n for n in self.nodes}
        if len(self._by_name) != len(self.nodes):
            raise HierarchyError("node names are not unique")
        self._children: dict[int, list[int]] = {n.id: [] for n in self.nodes}
        for n in self.nodes:
            if n.parent is not None:
                if n.parent not in self._children:
                    raise HierarchyError(f"node {n.name!r} references unknown parent id {n.parent}")
                self._children[n.parent].append(n.id)
        for n in self.nodes:
            if n.parent is not None and n.level != self.nodes[n.parent].level + 1:
                raise HierarchyError(f"node {n.name!r} has level {n.level}, parent has {self.nodes[n.parent].level}")
        leaf_nodes = [n for n in self.nodes if not self._children[n.id]]
        depths = {n.level for n in leaf_nodes}
        if len(depths) != 1:
            raise HierarchyError(f"leaves are not all at the same depth (found depths {sorted(depths)})")
        # a root-only tree is valid with K=0 (no classification levels)
        self.K: int = leaf_nodes[0].level
        self.leaves: tuple[int, ...] = tuple(sorted(n.id for n in leaf_nodes))
        self._leaf_set = frozenset(self.leaves)
        self._levels: dict[int, tuple[int, ...]] = {
            k: tuple(sorted(n.id for n in self.nodes if n.level == k)) for k in range(1, self.K + 1)
        }
        self._pc_pairs = tuple((n.parent, n.id) for n in self.nodes if n.parent is not None)
        self._pc_set = frozenset(self._pc_pairs)
        ids = range(len(self.nodes))
        self._unrelated: tuple[tuple[int, ...], ...] = tuple(
            tuple(q for q in ids if q != a and (a, q) not in self._pc_set and (q, a) not in self._pc_set)
            for a in ids
        )

    def __len__(self) -> int:
        return len(self.nodes)

    def __eq__(self, other) -> bool:
        """Equal canonical serializations; unhashable, as nothing keys on one."""
        return isinstance(other, ClassHierarchy) and self.serialize() == other.serialize()

    def name_of(self, node_id: int) -> str:
        return self.nodes[node_id].name

    def id_of(self, name: str) -> int:
        try:
            return self._by_name[name].id
        except KeyError:
            raise HierarchyError(f"unknown class name {name!r}") from None

    def children(self, node_id: int) -> tuple[int, ...]:
        return tuple(self._children[node_id])

    def is_leaf(self, node_id: int) -> bool:
        return node_id in self._leaf_set

    def num_classes(self, k: int) -> int:
        """M_k, the number of classes at level k."""
        return len(self.level_classes(k))

    def level_classes(self, k: int) -> tuple[int, ...]:
        """Class ids at level k, ordered by id. 1 <= k <= K."""
        if not 1 <= k <= self.K:
            raise HierarchyError(f"level {k} out of range 1..{self.K}")
        return self._levels[k]

    def ancestor(self, y: int, k: int) -> int:
        """Ancestor of leaf y at level k; ancestor(y, K) is y itself."""
        if y not in self._leaf_set:
            raise HierarchyError(f"node id {y} is not a leaf")
        if not 1 <= k <= self.K:
            raise HierarchyError(f"level {k} out of range 1..{self.K}")
        node = self.nodes[y]
        for _ in range(self.K - k):
            node = self.nodes[node.parent]
        return node.id

    def ancestor_path(self, y: int) -> tuple[int, ...]:
        """(a_1(y), ..., a_K(y)) for leaf y."""
        return tuple(self.ancestor(y, k) for k in range(1, self.K + 1))

    def parent_child_pairs(self) -> tuple[tuple[int, int], ...]:
        """One (parent_id, child_id) pair per non-root node, ordered by child id."""
        return self._pc_pairs

    def is_parent_child(self, p: int, c: int) -> bool:
        return (p, c) in self._pc_set

    def unrelated(self, node_id: int) -> tuple[int, ...]:
        """Ids with no parent-child edge to node_id in either direction,
        node_id itself excluded, ordered by id."""
        return self._unrelated[node_id]

    def path_name(self, node_id: int) -> str:
        parts = []
        node = self.nodes[node_id]
        while True:
            parts.append(node.name)
            if node.parent is None:
                break
            node = self.nodes[node.parent]
        return "/".join(reversed(parts))

    def serialize(self) -> str:
        """Emit the hierarchy file representation, nodes in id order."""
        return "\n".join(self.path_name(n.id) for n in self.nodes) + "\n"


def parse_hierarchy(text: str) -> ClassHierarchy:
    """Parse the line-per-node hierarchy format into a validated ClassHierarchy.

    Raises HierarchyError naming the offending line for duplicate names,
    orphan parent references, multiple roots, and unbalanced leaf depths.
    """
    nodes: list[ClassNode] = []
    by_name: dict[str, int] = {}
    line_of: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split("/")]
        if any(not p for p in parts):
            raise HierarchyError(f"line {lineno}: empty path component in {raw.strip()!r}")
        name = parts[-1]
        if name in by_name:
            raise HierarchyError(f"line {lineno}: duplicate name {name!r}")
        if len(parts) == 1:
            if nodes:
                raise HierarchyError(f"line {lineno}: second root {name!r} (root must be unique)")
            parent = None
        else:
            parent_name = parts[-2]
            if parent_name not in by_name:
                raise HierarchyError(f"line {lineno}: parent {parent_name!r} not declared before {name!r}")
            parent = by_name[parent_name]
            declared_path = parts[:-1]
            actual_path = _path_names(nodes, parent)
            if declared_path != actual_path:
                raise HierarchyError(
                    f"line {lineno}: path {'/'.join(declared_path)!r} does not match "
                    f"{parent_name!r}'s actual path {'/'.join(actual_path)!r}"
                )
        level = 0 if parent is None else nodes[parent].level + 1
        node_id = len(nodes)
        nodes.append(ClassNode(id=node_id, name=name, parent=parent, level=level))
        by_name[name] = node_id
        line_of[name] = lineno
    if not nodes:
        raise HierarchyError("empty hierarchy file")
    interior = {n.parent for n in nodes if n.parent is not None}
    leaf_nodes = [n for n in nodes if n.id not in interior]
    shallow = min(leaf_nodes, key=lambda n: n.level)
    deep = max(leaf_nodes, key=lambda n: n.level)
    if shallow.level != deep.level:
        raise HierarchyError(
            f"line {line_of[deep.name]}: leaf {deep.name!r} is at level {deep.level} "
            f"but leaf {shallow.name!r} (line {line_of[shallow.name]}) is at level "
            f"{shallow.level}; all leaves must share one depth"
        )
    try:
        return ClassHierarchy(nodes)
    except HierarchyError as e:
        raise HierarchyError(f"invalid hierarchy: {e}") from None


def _path_names(nodes: list[ClassNode], node_id: int) -> list[str]:
    parts = []
    while node_id is not None:
        parts.append(nodes[node_id].name)
        node_id = nodes[node_id].parent
    return list(reversed(parts))


#: Two-branch, six-leaf tree used throughout tests and demos. Leaf names come
#: from common animal classes; the canine/feline grouping is a fixture choice.
FIXTURE_TREE = """\
root
root/canine
root/canine/fox
root/canine/wolf
root/canine/dog
root/feline
root/feline/cat
root/feline/lion
root/feline/tiger
"""
