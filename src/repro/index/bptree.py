"""A B+-tree over term numbers.

HVNL locates inverted-file entries through "a B+tree which is used to
find whether a term is in the collection and if present where the
corresponding inverted file entry is located" (Section 4.2).  Each leaf
cell stores a term number, the entry's address and the term's document
frequency — 9 bytes (Section 5.2) — and the paper sizes the tree by its
leaves alone: ``Bt = 9 * T / P``.

This is a real main-memory B+-tree (node splitting, borrowing, merging,
linked leaves, range scans), not a dict in disguise: the join executors
only need lookups, but the substrate is complete so the index layer can
stand on its own.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import islice
from operator import lt
from typing import Any, Iterator

from repro.constants import BTREE_CELL_BYTES
from repro.errors import BPlusTreeError
from repro.storage.pages import PageGeometry


class _Leaf:
    __slots__ = ("keys", "values", "next")

    def __init__(self) -> None:
        self.keys: list[int] = []
        self.values: list[Any] = []
        self.next: _Leaf | None = None


class _Internal:
    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        self.keys: list[int] = []
        self.children: list[_Leaf | _Internal] = []


def _group_sizes(total: int, *, max_size: int, min_size: int) -> list[int]:
    """Split ``total`` items into groups of ``<= max_size``.

    Every group except a lone single group meets ``min_size``: when the
    natural remainder would under-fill the last group, items are shifted
    from the second-to-last group (which stays >= ``min_size`` because the
    deficit is at most ``min_size - 1 <= max_size - min_size``).
    """
    if total <= max_size:
        return [total]
    sizes = [max_size] * (total // max_size)
    remainder = total % max_size
    if remainder:
        sizes.append(remainder)
        if remainder < min_size:
            deficit = min_size - remainder
            sizes[-2] -= deficit
            sizes[-1] += deficit
    return sizes


class BPlusTree:
    """Order-``order`` B+-tree mapping int keys to arbitrary values.

    ``order`` is the maximum number of keys per node (leaf and internal
    alike); nodes other than the root keep at least ``order // 2`` keys.
    """

    def __init__(self, order: int = 64) -> None:
        if order < 3:
            raise BPlusTreeError(f"order must be at least 3, got {order}")
        self.order = order
        self._root: _Leaf | _Internal = _Leaf()
        self._size = 0

    # --- queries ------------------------------------------------------------

    def search(self, key: int) -> Any | None:
        """The value stored under ``key``, or ``None``."""
        leaf = self._descend(key)
        keys = leaf.keys
        pos = bisect_left(keys, key)
        if pos < len(keys) and keys[pos] == key:
            return leaf.values[pos]
        return None

    def __contains__(self, key: int) -> bool:
        return self.search(key) is not None

    def range(self, lo: int, hi: int) -> Iterator[tuple[int, Any]]:
        """All ``(key, value)`` with ``lo <= key <= hi``, ascending."""
        if lo > hi:
            return
        leaf: _Leaf | None = self._descend(lo)
        pos = bisect_left(leaf.keys, lo)
        while leaf is not None:
            while pos < len(leaf.keys):
                key = leaf.keys[pos]
                if key > hi:
                    return
                yield key, leaf.values[pos]
                pos += 1
            leaf = leaf.next
            pos = 0

    def items(self) -> Iterator[tuple[int, Any]]:
        """Every ``(key, value)`` in ascending key order."""
        leaf: _Leaf | _Internal = self._root
        while isinstance(leaf, _Internal):
            leaf = leaf.children[0]
        current: _Leaf | None = leaf
        while current is not None:
            yield from zip(current.keys, current.values)
            current = current.next

    def min_key(self) -> int | None:
        """Smallest stored key, or ``None`` when empty."""
        if self._size == 0:
            return None
        node: _Leaf | _Internal = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        return node.keys[0]

    def max_key(self) -> int | None:
        """Largest stored key, or ``None`` when empty."""
        if self._size == 0:
            return None
        node: _Leaf | _Internal = self._root
        while isinstance(node, _Internal):
            node = node.children[-1]
        return node.keys[-1]

    def _descend(self, key: int) -> _Leaf:
        node: _Leaf | _Internal = self._root
        while isinstance(node, _Internal):
            # the child subtree that may contain ``key``
            node = node.children[bisect_right(node.keys, key)]
        return node

    # --- insertion -----------------------------------------------------------

    def insert(self, key: int, value: Any, *, replace: bool = False) -> None:
        """Insert ``key``.  Duplicate keys raise unless ``replace`` is set."""
        result = self._insert(self._root, key, value, replace)
        if result is not None:
            separator, right = result
            new_root = _Internal()
            new_root.keys = [separator]
            new_root.children = [self._root, right]
            self._root = new_root

    def _insert(
        self, node: _Leaf | _Internal, key: int, value: Any, replace: bool
    ) -> tuple[int, _Leaf | _Internal] | None:
        if isinstance(node, _Leaf):
            pos = bisect_left(node.keys, key)
            if pos < len(node.keys) and node.keys[pos] == key:
                if not replace:
                    raise BPlusTreeError(f"duplicate key {key}")
                node.values[pos] = value
                return None
            node.keys.insert(pos, key)
            node.values.insert(pos, value)
            self._size += 1
            if len(node.keys) <= self.order:
                return None
            return self._split_leaf(node)
        child_index = bisect_right(node.keys, key)
        result = self._insert(node.children[child_index], key, value, replace)
        if result is None:
            return None
        separator, right = result
        node.keys.insert(child_index, separator)
        node.children.insert(child_index + 1, right)
        if len(node.keys) <= self.order:
            return None
        return self._split_internal(node)

    def _split_leaf(self, leaf: _Leaf) -> tuple[int, _Leaf]:
        mid = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        right.next = leaf.next
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        leaf.next = right
        return right.keys[0], right

    def _split_internal(self, node: _Internal) -> tuple[int, _Internal]:
        mid = len(node.keys) // 2
        separator = node.keys[mid]
        right = _Internal()
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        return separator, right

    # --- deletion --------------------------------------------------------------

    def delete(self, key: int) -> Any:
        """Remove ``key`` and return its value; raises if absent."""
        value = self._delete(self._root, key)
        root = self._root
        if isinstance(root, _Internal) and not root.keys:
            self._root = root.children[0]
        return value

    @property
    def _min_keys(self) -> int:
        return self.order // 2

    def _delete(self, node: _Leaf | _Internal, key: int) -> Any:
        if isinstance(node, _Leaf):
            pos = bisect_left(node.keys, key)
            if pos >= len(node.keys) or node.keys[pos] != key:
                raise BPlusTreeError(f"key {key} not found")
            node.keys.pop(pos)
            value = node.values.pop(pos)
            self._size -= 1
            return value
        child_index = bisect_right(node.keys, key)
        value = self._delete(node.children[child_index], key)
        self._rebalance(node, child_index)
        return value

    def _rebalance(self, parent: _Internal, child_index: int) -> None:
        child = parent.children[child_index]
        if len(child.keys) >= self._min_keys:
            return
        left = parent.children[child_index - 1] if child_index > 0 else None
        right = (
            parent.children[child_index + 1]
            if child_index + 1 < len(parent.children)
            else None
        )
        if left is not None and len(left.keys) > self._min_keys:
            self._borrow_from_left(parent, child_index, left, child)
        elif right is not None and len(right.keys) > self._min_keys:
            self._borrow_from_right(parent, child_index, child, right)
        elif left is not None:
            self._merge(parent, child_index - 1, left, child)
        elif right is not None:
            self._merge(parent, child_index, child, right)

    def _borrow_from_left(
        self, parent: _Internal, child_index: int, left: Any, child: Any
    ) -> None:
        if isinstance(child, _Leaf):
            child.keys.insert(0, left.keys.pop())
            child.values.insert(0, left.values.pop())
            parent.keys[child_index - 1] = child.keys[0]
        else:
            child.keys.insert(0, parent.keys[child_index - 1])
            parent.keys[child_index - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())

    def _borrow_from_right(
        self, parent: _Internal, child_index: int, child: Any, right: Any
    ) -> None:
        if isinstance(child, _Leaf):
            child.keys.append(right.keys.pop(0))
            child.values.append(right.values.pop(0))
            parent.keys[child_index] = right.keys[0]
        else:
            child.keys.append(parent.keys[child_index])
            parent.keys[child_index] = right.keys.pop(0)
            child.children.append(right.children.pop(0))

    def _merge(self, parent: _Internal, left_index: int, left: Any, right: Any) -> None:
        if isinstance(left, _Leaf):
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.next = right.next
            parent.keys.pop(left_index)
        else:
            left.keys.append(parent.keys.pop(left_index))
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        parent.children.pop(left_index + 1)

    # --- bulk construction -----------------------------------------------------

    @classmethod
    def bulk_load(cls, items: list[tuple[int, Any]], order: int = 64) -> "BPlusTree":
        """Build a tree from ``(key, value)`` pairs sorted by unique key.

        Packs leaves to ~full and stacks internal levels on top — the
        standard bottom-up load used when a collection's inverted file is
        built in one pass.
        """
        return cls.from_sorted(
            [key for key, _ in items], [value for _, value in items], order=order
        )

    @classmethod
    def from_sorted(
        cls, keys: list[int], values: list[Any], *, order: int = 64
    ) -> "BPlusTree":
        """:meth:`bulk_load` from flat key and value lists (equal lengths,
        keys strictly increasing): the leaves are slices of the two lists."""
        tree = cls(order=order)  # validates the order before any grouping
        if not keys:
            return tree
        if not all(map(lt, keys, islice(keys, 1, None))):
            previous, key = next(
                pair for pair in zip(keys, islice(keys, 1, None)) if pair[0] >= pair[1]
            )
            raise BPlusTreeError(
                "bulk_load requires strictly increasing keys; "
                f"saw {previous} before {key}"
            )
        leaves: list[_Leaf] = []
        start = 0
        for size in _group_sizes(len(keys), max_size=order, min_size=order // 2):
            leaf = _Leaf()
            leaf.keys = keys[start : start + size]
            leaf.values = values[start : start + size]
            if leaves:
                leaves[-1].next = leaf
            leaves.append(leaf)
            start += size
        return cls._from_leaves(leaves, order=order)

    @classmethod
    def _from_leaves(cls, leaves: list[_Leaf], *, order: int) -> "BPlusTree":
        """Stack internal levels over pre-packed, pre-linked leaves.

        The stacking is deterministic (driven by :func:`_group_sizes`
        alone), so any two trees with identical leaf lists get identical
        internal levels — this is what lets a persisted tree
        (:mod:`repro.index.btree_io`) store only its leaves and still
        reproduce the bulk-load page layout exactly on reload.
        """
        tree = cls(order=order)
        if not leaves:
            return tree
        level: list[_Leaf | _Internal] = list(leaves)
        first_keys = [leaf.keys[0] for leaf in leaves]
        while len(level) > 1:
            parents: list[_Leaf | _Internal] = []
            parent_first_keys: list[int] = []
            start = 0
            for size in _group_sizes(
                len(level), max_size=order + 1, min_size=order // 2 + 1
            ):
                node = _Internal()
                node.children = level[start : start + size]
                node.keys = first_keys[start + 1 : start + size]
                parents.append(node)
                parent_first_keys.append(first_keys[start])
                start += size
            level = parents
            first_keys = parent_first_keys
        tree._root = level[0]
        tree._size = sum(len(leaf.keys) for leaf in leaves)
        return tree

    # --- sizing (the paper's Bt) ---------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (a lone leaf has height 1)."""
        height = 1
        node: _Leaf | _Internal = self._root
        while isinstance(node, _Internal):
            height += 1
            node = node.children[0]
        return height

    def size_in_pages(self, geometry: PageGeometry | None = None) -> float:
        """The paper's ``Bt = 9 * T / P`` (leaf cells only, Section 5.2)."""
        geometry = geometry or PageGeometry()
        return geometry.fractional_pages(self._size * BTREE_CELL_BYTES)

    # --- invariants (exercised by the property-based tests) ---------------------

    def validate(self) -> None:
        """Check every structural invariant; raises on the first violation."""
        leaves_by_scan: list[_Leaf] = []
        self._validate_node(self._root, None, None, is_root=True, leaves=leaves_by_scan)
        depths = {self._leaf_depth(leaf) for leaf in leaves_by_scan}
        if len(depths) > 1:
            raise BPlusTreeError(f"leaves at unequal depths: {sorted(depths)}")
        # linked list must visit exactly the leaves found by traversal, in order
        node: _Leaf | _Internal = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        linked: list[_Leaf] = []
        current: _Leaf | None = node
        while current is not None:
            linked.append(current)
            current = current.next
        if linked != leaves_by_scan:
            raise BPlusTreeError("leaf linked list disagrees with tree traversal")
        keys = [k for leaf in linked for k in leaf.keys]
        if keys != sorted(set(keys)):
            raise BPlusTreeError("keys not globally sorted and unique")
        if len(keys) != self._size:
            raise BPlusTreeError(f"size {self._size} but {len(keys)} keys stored")

    def _leaf_depth(self, target: _Leaf) -> int:
        depth = 1
        node: _Leaf | _Internal = self._root
        while isinstance(node, _Internal):
            node = node.children[bisect_right(node.keys, target.keys[0])] if target.keys else node.children[0]
            depth += 1
        return depth

    def _validate_node(
        self,
        node: _Leaf | _Internal,
        lo: int | None,
        hi: int | None,
        *,
        is_root: bool,
        leaves: list[_Leaf],
    ) -> None:
        if isinstance(node, _Leaf):
            if not is_root and len(node.keys) < self._min_keys:
                raise BPlusTreeError(
                    f"leaf underflow: {len(node.keys)} < {self._min_keys}"
                )
            if len(node.keys) > self.order:
                raise BPlusTreeError(f"leaf overflow: {len(node.keys)} > {self.order}")
            for key in node.keys:
                if (lo is not None and key < lo) or (hi is not None and key >= hi):
                    raise BPlusTreeError(f"leaf key {key} outside ({lo}, {hi})")
            leaves.append(node)
            return
        if len(node.children) != len(node.keys) + 1:
            raise BPlusTreeError(
                f"internal node has {len(node.keys)} keys but {len(node.children)} children"
            )
        if not is_root and len(node.keys) < self._min_keys:
            raise BPlusTreeError(
                f"internal underflow: {len(node.keys)} < {self._min_keys}"
            )
        if len(node.keys) > self.order:
            raise BPlusTreeError(f"internal overflow: {len(node.keys)} > {self.order}")
        if node.keys != sorted(node.keys):
            raise BPlusTreeError("internal keys not sorted")
        bounds = [lo, *node.keys, hi]
        for i, child in enumerate(node.children):
            self._validate_node(child, bounds[i], bounds[i + 1], is_root=False, leaves=leaves)
