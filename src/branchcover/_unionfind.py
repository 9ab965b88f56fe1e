"""Disjoint-set forests: plain, and with a parity bit relating each item to
its root.  Items are hashable and join the forest on first mention."""

from __future__ import annotations

from typing import Hashable, Iterable


class UnionFind:
    def __init__(self, items: Iterable[Hashable] = ()):
        self.parent = {x: x for x in items}

    def find(self, x):
        parent = self.parent
        root = parent.setdefault(x, x)
        while root != parent[root]:
            root = parent[root]
        while x != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def groups(self) -> list[set]:
        """The classes, each listed at its first-mentioned item."""
        by_root: dict = {}
        for x in self.parent:
            by_root.setdefault(self.find(x), set()).add(x)
        return list(by_root.values())


class ParityUnionFind:
    """Items carry unknown bits; union records bit(a) ^ bit(b) == rel."""

    def __init__(self, items: Iterable[Hashable] = ()):
        self.parent = {x: x for x in items}
        self.parity = dict.fromkeys(self.parent, 0)  # bit(x) ^ bit(parent[x])

    def find(self, x) -> tuple:
        """(root, bit(x) ^ bit(root))."""
        parent, parity = self.parent, self.parity
        if parent.setdefault(x, x) == x:
            parity.setdefault(x, 0)
            return x, 0
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        root, acc = x, 0
        for y in reversed(path):  # path compression, nearest the root first
            acc ^= parity[y]
            parent[y], parity[y] = root, acc
        return root, acc

    def union(self, a, b, rel: int) -> bool:
        """Record bit(a) ^ bit(b) == rel; False when that contradicts the
        relations already recorded."""
        ra, pa = self.find(a)
        rb, pb = self.find(b)
        if ra == rb:
            return pa ^ pb == rel
        self.parent[ra] = rb
        self.parity[ra] = pa ^ pb ^ rel
        return True
