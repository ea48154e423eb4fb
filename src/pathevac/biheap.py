"""Bi-Heap: a max structure over (W, L) pairs scored by ceil(W/c) + L.

Supports four updates, each in O(log size) amortized:

  Insert(W, L)   add a pair, returning a handle
  Delete(handle) remove a pair by handle
  AddW(w)        add w to the W of EVERY stored pair (w may be negative)
  AddL(l)        add l to the L of EVERY stored pair (l may be negative)

and MAX, which returns the best current cost ceil(W/c) + L and a handle
attaining it.

Design.  Offsets Wbar/Lbar absorb AddW/AddL; a pair inserted at offsets
(Wbar0, Lbar0) is stored in the fixed absolute frame w_abs = W - Wbar0,
l_abs = L - Lbar0, so its current cost is ceil((w_abs + Wbar)/c) + l_abs +
Lbar.  Pairs are grouped by the offset-invariant residue label
d' = w_abs mod c.  Within one label the cost order never changes (the ceil
term is shared), so each class is a lazy max-heap on the invariant key
w_abs div c + l_abs, and the class's current best cost is
max_key + ceil((d' + Wbar)/c) + Lbar.  A 2-3 tree over the live labels keeps
per-subtree argmax summaries; AddW with w not divisible by c changes the
relative order only across the at-most-two label intervals whose ceil term
moves differently, so refreshing the summaries along the root paths of the
at-most-two boundary-adjacent leaf pairs restores all invariants in
O(log size).

With c == 1 every pair has label 0, so the tree holds a single leaf.  The
k-sink DP does not build a BiHeap for unit capacity: ``optk._FastTracker``
keeps plain heaps there.
"""

from __future__ import annotations

import heapq
from typing import Optional

from .evac import ceil_div

__all__ = ["BiHeap"]


class _Leaf:
    __slots__ = ("parent", "lo", "cls", "prev", "nxt", "children")

    def __init__(self, label: int, cls: "_ResidueClass"):
        self.parent = None
        self.lo = label
        self.cls = cls
        self.prev = None
        self.nxt = None
        self.children = None  # marks this node as a leaf


class _Node:
    __slots__ = ("parent", "children", "lo", "argmax")

    def __init__(self):
        self.parent = None
        self.children = []
        self.lo = 0
        self.argmax = None


class _ResidueClass:
    __slots__ = ("label", "heap", "max_key", "max_slot", "live", "leaf")

    def __init__(self, label: int):
        self.label = label
        self.heap: list[tuple[int, int]] = []  # (-key, slot), lazy deletion
        self.max_key = 0
        self.max_slot = -1
        self.live = 0
        self.leaf: Optional[_Leaf] = None


class _Tree23:
    """2-3 tree over residue labels with per-subtree argmax-leaf summaries.

    Leaves sit at equal depth, are threaded into a doubly linked list, and
    carry their residue class; internal nodes carry the minimum label of
    their subtree (for descent) and a reference to the subtree's best leaf
    (compared on demand through ``costfn``, so offset changes never have to
    rewrite values stored in the tree).
    """

    def __init__(self, costfn):
        self.root = None
        self._cost = costfn
        self.touches = 0  # nodes recomputed (counter for complexity asserts)

    # -- summaries ---------------------------------------------------------

    def _pull(self, node: _Node) -> None:
        self.touches += 1
        node.lo = node.children[0].lo
        best = None
        best_cost = 0
        for ch in node.children:
            leaf = ch if ch.children is None else ch.argmax
            cost = self._cost(leaf)
            if best is None or cost > best_cost:
                best, best_cost = leaf, cost
        node.argmax = best

    def _pull_to_root(self, node) -> None:
        while node is not None:
            if node.children is not None:
                self._pull(node)
            node = node.parent

    def refresh_leaf_path(self, leaf: _Leaf) -> None:
        """Recompute argmax summaries from a leaf's parent up to the root."""
        self._pull_to_root(leaf.parent)

    # -- queries -----------------------------------------------------------

    def _land(self, label: int):
        """Leaf with the largest label <= `label`, else the leftmost leaf."""
        node = self.root
        while node.children is not None:
            chosen = node.children[0]
            for ch in node.children[1:]:
                if ch.lo <= label:
                    chosen = ch
                else:
                    break
            node = chosen
        return node

    def adjacent_pair(self, beta: int):
        """The live leaves adjacent to boundary beta: (max < beta, min >= beta)."""
        if self.root is None:
            return None
        land = self._land(beta - 1)
        if land.lo <= beta - 1:
            pred, succ = land, land.nxt
        else:
            pred, succ = None, land
        if pred is None or succ is None:
            return None
        return pred, succ

    def max_leaf(self):
        if self.root is None:
            return None
        if self.root.children is None:
            return self.root
        return self.root.argmax

    # -- structural updates -------------------------------------------------

    def insert_leaf(self, leaf: _Leaf) -> None:
        leaf.parent = None
        leaf.prev = leaf.nxt = None
        if self.root is None:
            self.root = leaf
            self.touches += 1
            return
        land = self._land(leaf.lo)
        if land.lo <= leaf.lo:  # insert after land
            leaf.prev, leaf.nxt = land, land.nxt
            if land.nxt is not None:
                land.nxt.prev = leaf
            land.nxt = leaf
        else:  # land is the leftmost leaf; insert before it
            leaf.nxt, leaf.prev = land, None
            land.prev = leaf
        if self.root.children is None:
            newroot = _Node()
            pair = [self.root, leaf] if self.root.lo < leaf.lo else [leaf, self.root]
            newroot.children = pair
            for ch in pair:
                ch.parent = newroot
            self.root = newroot
            self._pull(newroot)
            return
        parent = land.parent
        pos = 0
        while pos < len(parent.children) and parent.children[pos].lo < leaf.lo:
            pos += 1
        parent.children.insert(pos, leaf)
        leaf.parent = parent

        node = parent
        while node is not None:
            if len(node.children) == 4:
                sib = _Node()
                sib.children = node.children[2:]
                node.children = node.children[:2]
                for ch in sib.children:
                    ch.parent = sib
                self._pull(node)
                self._pull(sib)
                p = node.parent
                if p is None:
                    newroot = _Node()
                    newroot.children = [node, sib]
                    node.parent = sib.parent = newroot
                    self.root = newroot
                    self._pull(newroot)
                    return
                p.children.insert(p.children.index(node) + 1, sib)
                sib.parent = p
                node = p
            else:
                self._pull(node)
                node = node.parent

    def delete_leaf(self, leaf: _Leaf) -> None:
        if leaf.prev is not None:
            leaf.prev.nxt = leaf.nxt
        if leaf.nxt is not None:
            leaf.nxt.prev = leaf.prev
        parent = leaf.parent
        if parent is None:
            self.root = None
            self.touches += 1
            return
        parent.children.remove(leaf)
        leaf.parent = None

        node = parent
        while node is not self.root and len(node.children) == 1:
            p = node.parent
            idx = p.children.index(node)
            if idx > 0:
                sib = p.children[idx - 1]
                if len(sib.children) == 3:
                    moved = sib.children.pop()
                    node.children.insert(0, moved)
                    moved.parent = node
                    self._pull(sib)
                    break
                # merge right-to-left: node's single child joins sib
                ch = node.children[0]
                sib.children.append(ch)
                ch.parent = sib
            else:
                sib = p.children[idx + 1]
                if len(sib.children) == 3:
                    moved = sib.children.pop(0)
                    node.children.append(moved)
                    moved.parent = node
                    self._pull(sib)
                    break
                ch = node.children[0]
                sib.children.insert(0, ch)
                ch.parent = sib
            self._pull(sib)
            p.children.remove(node)
            node.parent = None
            node = p

        self._pull_to_root(node)
        if self.root.children is not None and len(self.root.children) == 1:
            self.root = self.root.children[0]
            self.root.parent = None
            self.touches += 1


class BiHeap:
    """Max structure over (W, L) pairs scored by ceil(W/c) + L."""

    def __init__(self, c: int):
        if c < 1:
            raise ValueError("capacity must be >= 1")
        self.c = c
        self.wbar = 0
        self.lbar = 0
        self._alive: list[bool] = []
        self._label: list[int] = []
        self._live = 0
        self.counters = {
            "inserts": 0,
            "deletes": 0,
            "addw": 0,
            "addl": 0,
            "heap_pushes": 0,
            "heap_pops": 0,
            "tree_nodes_touched": 0,
        }
        self.last_op_tree_touches = 0
        self._classes: dict[int, _ResidueClass] = {}
        self._tree = _Tree23(self._leaf_cost)

    # -- internals -----------------------------------------------------------

    def _leaf_cost(self, leaf: _Leaf) -> int:
        cls = leaf.cls
        return cls.max_key + ceil_div(leaf.lo + self.wbar, self.c) + self.lbar

    def _end_op(self, before: int) -> None:
        self.last_op_tree_touches = self._tree.touches - before
        self.counters["tree_nodes_touched"] = self._tree.touches

    def _class_clean_top(self, cls: _ResidueClass) -> None:
        heap = cls.heap
        while heap and not self._alive[heap[0][1]]:
            heapq.heappop(heap)
            self.counters["heap_pops"] += 1
        if heap:
            cls.max_key = -heap[0][0]
            cls.max_slot = heap[0][1]

    # -- public operations ----------------------------------------------------

    @property
    def size(self) -> int:
        """Number of live pairs."""
        return self._live

    def __len__(self) -> int:
        return self._live

    def insert(self, W: int, L: int) -> int:
        """Add a pair with current W value W and L value L; returns a handle."""
        before = self._tree.touches
        slot = len(self._alive)
        wa = W - self.wbar
        la = L - self.lbar
        self._alive.append(True)
        self._live += 1
        self.counters["inserts"] += 1
        label = wa % self.c
        key = wa // self.c + la
        self._label.append(label)
        cls = self._classes.get(label)
        if cls is None:
            cls = _ResidueClass(label)
            self._classes[label] = cls
            cls.max_key = key
            cls.max_slot = slot
            cls.live = 1
            heapq.heappush(cls.heap, (-key, slot))
            self.counters["heap_pushes"] += 1
            leaf = _Leaf(label, cls)
            cls.leaf = leaf
            self._tree.insert_leaf(leaf)
        else:
            heapq.heappush(cls.heap, (-key, slot))
            self.counters["heap_pushes"] += 1
            cls.live += 1
            if key > cls.max_key:
                cls.max_key = key
                cls.max_slot = slot
                self._tree.refresh_leaf_path(cls.leaf)
        self._end_op(before)
        return slot

    def delete(self, handle: int) -> None:
        """Remove the pair behind `handle`; stale handles raise ValueError."""
        before = self._tree.touches
        if not (
            isinstance(handle, int)
            and 0 <= handle < len(self._alive)
            and self._alive[handle]
        ):
            raise ValueError(f"stale or unknown handle: {handle!r}")
        self._alive[handle] = False
        self._live -= 1
        self.counters["deletes"] += 1
        cls = self._classes[self._label[handle]]
        cls.live -= 1
        if cls.live == 0:
            self._tree.delete_leaf(cls.leaf)
            del self._classes[cls.label]
        elif handle == cls.max_slot:
            self._class_clean_top(cls)
            self._tree.refresh_leaf_path(cls.leaf)
        self._end_op(before)

    def add_w(self, w: int) -> None:
        """Add w to the W of every pair (w may be negative)."""
        before = self._tree.touches
        wbar_old = self.wbar
        self.wbar += w
        self.counters["addw"] += 1
        if w % self.c == 0 or not self._classes:
            self._end_op(before)
            return
        c = self.c
        d = w % c  # in (0, c) for either sign of w
        # Labels whose ceil term grows by floor(w/c) (one less than the rest)
        # are those with (label + wbar_old) mod c in [1, c - d]; that is a
        # cyclic label interval.  Relative order changes only across its two
        # boundaries.
        a = (1 - wbar_old) % c
        b = (c - d - wbar_old) % c
        betas = set()
        if a != 0:
            betas.add(a)
        if b + 1 != c:
            betas.add(b + 1)
        for beta in betas:
            pair = self._tree.adjacent_pair(beta)
            if pair is not None:
                self._tree.refresh_leaf_path(pair[0])
                self._tree.refresh_leaf_path(pair[1])
        self._end_op(before)

    def add_l(self, l: int) -> None:
        """Add l to the L of every pair (l may be negative)."""
        self.lbar += l
        self.counters["addl"] += 1
        self.last_op_tree_touches = 0

    def max_entry(self) -> Optional[tuple[int, int]]:
        """(best current cost, handle attaining it), or None when empty."""
        if self._live == 0:
            return None
        leaf = self._tree.max_leaf()
        cls = leaf.cls
        cost = cls.max_key + ceil_div(leaf.lo + self.wbar, self.c) + self.lbar
        return (cost, cls.max_slot)

    def max_cost(self) -> Optional[int]:
        entry = self.max_entry()
        return None if entry is None else entry[0]
