"""Bi-Heap: a max structure over (W, L) pairs scored by ceil(W/c) + L.

  insert(W, L)    add a pair, returning a handle
  delete(handle)  remove a pair by handle
  add_w(w)        add w to the W of EVERY stored pair (w may be negative)
  add_l(l)        add l to the L of EVERY stored pair (l may be negative)
  max_entry()     the best current cost ceil(W/c) + L and a handle attaining it

Design.  Offsets wbar/lbar absorb add_w/add_l.  A pair inserted at offsets
(wbar0, lbar0) is stored in the fixed frame w_abs = W - wbar0,
l_abs = L - lbar0, under the label d = w_abs mod c and the key
w_abs div c + l_abs; neither ever changes.  Write wbar - 1 = c*q + r with
0 <= r < c.  Since d + r + 1 lies in [1, 2c - 1], the pair's current cost is

  ceil((w_abs + wbar)/c) + l_abs + lbar = key + q + 1 + lbar + [d >= c - r],

so the best pair is either the best key among labels below the threshold
c - r, or the best key among labels at or above it, plus one.

Each live label keeps a lazy max-heap of (-key, handle) whose top is always
live.  A sparse bottom-up max tree over the labels [0, 2**depth), with
depth = ceil(log2 c), maps node ids (root 1, children 2v and 2v+1, label d at
2**depth + d) to the (key, -label, handle) of its subtree's best class top,
and holds only the nodes above live labels.  Ties go to the smallest label,
then to the smallest handle.  Costs, for m pairs under one label:

  insert     O(log m) heap push; depth + 1 tree nodes if the label's top changed
  delete     amortized O(log m) heap pops; depth + 1 tree nodes if the top changed
  add_w      O(1): moves wbar, touches no tree node
  add_l      O(1): moves lbar, touches no tree node
  max_entry  depth + 1 sibling reads on the leaf-to-root path at the threshold

``counters`` keeps two running totals of that work: ``tree_nodes_touched``
(tree nodes rewritten by inserts and deletes) and ``heap_pops`` (dead tops
popped by deletes).  The tree holds its root exactly while a pair is live.

With c == 1 every pair has label 0 and the tree is a single leaf.  The k-sink
DP builds no BiHeap: there the pairs' keys never change and the windows only
slide right, so ``optk.SubpathTracker`` keeps sliding-window maxima instead.
The structure stays as the paper's general pair heap, under arbitrary
inserts, deletes and shifts; acceptance criterion 2 checks it against a
naive mirror, and ``demos/pair_heap.py`` shows it.
"""

from __future__ import annotations

import heapq
from typing import Optional

__all__ = ["BiHeap"]

# Below every (key, -label, handle) node value; marks an empty subtree.
_EMPTY = (float("-inf"), 0, -1)


class BiHeap:
    """Max structure over (W, L) pairs scored by ceil(W/c) + L."""

    def __init__(self, c: int):
        if c < 1:
            raise ValueError("capacity must be >= 1")
        self.c = c
        self.wbar = 0
        self.lbar = 0
        self._leaf0 = 1 << (c - 1).bit_length()  # node id of label 0
        self._heaps: dict[int, list[tuple[int, int]]] = {}
        self._tree: dict[int, tuple[int, int, int]] = {}
        self._label: list[Optional[int]] = []  # per handle; None once deleted
        self.counters = {"heap_pops": 0, "tree_nodes_touched": 0}

    def _refresh(self, label: int) -> None:
        """Rewrite the tree path from `label`'s leaf to the root."""
        tree = self._tree
        node = self._leaf0 + label
        heap = self._heaps.get(label)
        if heap:
            tree[node] = (-heap[0][0], -label, heap[0][1])
        else:
            del tree[node]
        touched = 1
        while node > 1:
            best = max(tree.get(node, _EMPTY), tree.get(node ^ 1, _EMPTY))
            node >>= 1
            if best is _EMPTY:
                del tree[node]
            else:
                tree[node] = best
            touched += 1
        self.counters["tree_nodes_touched"] += touched

    def insert(self, W: int, L: int) -> int:
        """Add a pair with current W value W and L value L; returns a handle."""
        wa = W - self.wbar
        label = wa % self.c
        key = wa // self.c + L - self.lbar
        slot = len(self._label)
        self._label.append(label)
        heap = self._heaps.get(label)
        if heap is None:
            heap = self._heaps[label] = []
        heapq.heappush(heap, (-key, slot))
        if heap[0][1] == slot:
            self._refresh(label)
        return slot

    def delete(self, handle: int) -> None:
        """Remove the pair behind `handle`; stale handles raise ValueError."""
        if not (
            isinstance(handle, int)
            and 0 <= handle < len(self._label)
            and self._label[handle] is not None
        ):
            raise ValueError(f"stale or unknown handle: {handle!r}")
        label = self._label[handle]
        self._label[handle] = None
        heap = self._heaps[label]
        if heap[0][1] != handle:
            return
        while heap and self._label[heap[0][1]] is None:
            heapq.heappop(heap)
            self.counters["heap_pops"] += 1
        if not heap:
            del self._heaps[label]
        self._refresh(label)

    def add_w(self, w: int) -> None:
        """Add w to the W of every pair (w may be negative)."""
        self.wbar += w

    def add_l(self, l: int) -> None:
        """Add l to the L of every pair (l may be negative)."""
        self.lbar += l

    def max_entry(self) -> Optional[tuple[int, int]]:
        """(best current cost, handle attaining it), or None when empty."""
        tree = self._tree
        if 1 not in tree:
            return None
        q, r = divmod(self.wbar - 1, self.c)
        if r == 0:
            best, bump = tree[1], 0
        else:
            # Left siblings on the path up from the threshold's leaf hold the
            # labels below c - r; right siblings and the leaf hold the rest.
            node = self._leaf0 + self.c - r
            lo, hi = _EMPTY, tree.get(node, _EMPTY)
            while node > 1:
                if node & 1:
                    lo = max(lo, tree.get(node - 1, _EMPTY))
                else:
                    hi = max(hi, tree.get(node + 1, _EMPTY))
                node >>= 1
            best, bump = (hi, 1) if hi[0] + 1 > lo[0] else (lo, 0)
        return best[0] + bump + q + 1 + self.lbar, best[2]
