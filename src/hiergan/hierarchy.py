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
    """Immutable rooted tree of named classes, built and checked by
    ``parse_hierarchy``; the constructor only indexes nodes that are already
    valid (``paths[i]`` is node i's full path, ``by_name`` maps names to ids).

    Safe for concurrent reads; every accessor is deterministic and ordered
    by node id. The candidate tuples of ``unrelated`` are filled on first
    use; the fill is idempotent, so a race between readers stores equal
    tuples.
    """

    def __init__(self, nodes: list[ClassNode], paths: list[str], by_name: dict[str, int]):
        self.nodes: tuple[ClassNode, ...] = tuple(nodes)
        self.root: ClassNode = self.nodes[0]
        self._paths = tuple(paths)
        self._by_name = by_name
        self._children: dict[int, list[int]] = {n.id: [] for n in self.nodes}
        levels: dict[int, list[int]] = {}
        for n in self.nodes:
            if n.parent is not None:
                self._children[n.parent].append(n.id)
            levels.setdefault(n.level, []).append(n.id)
        self._levels = {k: tuple(ids) for k, ids in levels.items()}
        self.leaves: tuple[int, ...] = tuple(n.id for n in self.nodes if not self._children[n.id])
        self._leaf_set = frozenset(self.leaves)
        # a root-only tree is valid with K=0 (no classification levels)
        self.K: int = self.nodes[self.leaves[0]].level
        self._pc_pairs = tuple((n.parent, n.id) for n in self.nodes[1:])
        self._pc_set = frozenset(self._pc_pairs)
        self._unrelated: list[tuple[int, ...] | None] = [None] * len(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __eq__(self, other) -> bool:
        """Equal node tuples, which fix the canonical serialization;
        unhashable, as nothing keys on one."""
        return isinstance(other, ClassHierarchy) and self.nodes == other.nodes

    def name_of(self, node_id: int) -> str:
        return self.nodes[node_id].name

    def id_of(self, name: str) -> int:
        try:
            return self._by_name[name]
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
        found = self._unrelated[node_id]
        if found is None:
            related = {node_id, self.nodes[node_id].parent, *self._children[node_id]}
            found = self._unrelated[node_id] = tuple(q for q in range(len(self.nodes)) if q not in related)
        return found

    def path_name(self, node_id: int) -> str:
        return self._paths[node_id]

    def serialize(self) -> str:
        """Emit the hierarchy file representation, nodes in id order."""
        return "\n".join(self._paths) + "\n"


def parse_hierarchy(text: str) -> ClassHierarchy:
    """Parse the line-per-node hierarchy format into a validated ClassHierarchy,
    in one pass over the lines.

    Raises HierarchyError naming the offending line for duplicate names,
    orphan parent references, multiple roots, and unbalanced leaf depths.
    """
    nodes: list[ClassNode] = []
    paths: list[str] = []
    lines: list[int] = []
    by_name: dict[str, int] = {}
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
            parent, level = None, 0
        else:
            parent_name = parts[-2]
            if parent_name not in by_name:
                raise HierarchyError(f"line {lineno}: parent {parent_name!r} not declared before {name!r}")
            parent = by_name[parent_name]
            declared = "/".join(parts[:-1])
            if declared != paths[parent]:
                raise HierarchyError(
                    f"line {lineno}: path {declared!r} does not match "
                    f"{parent_name!r}'s actual path {paths[parent]!r}"
                )
            level = nodes[parent].level + 1
        by_name[name] = len(nodes)
        nodes.append(ClassNode(id=len(nodes), name=name, parent=parent, level=level))
        paths.append("/".join(parts))
        lines.append(lineno)
    if not nodes:
        raise HierarchyError("empty hierarchy file")
    h = ClassHierarchy(nodes, paths, by_name)
    leaf_nodes = [nodes[y] for y in h.leaves]
    shallow = min(leaf_nodes, key=lambda n: n.level)
    deep = max(leaf_nodes, key=lambda n: n.level)
    if shallow.level != deep.level:
        raise HierarchyError(
            f"line {lines[deep.id]}: leaf {deep.name!r} is at level {deep.level} "
            f"but leaf {shallow.name!r} (line {lines[shallow.id]}) is at level "
            f"{shallow.level}; all leaves must share one depth"
        )
    return h


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
