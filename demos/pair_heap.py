"""
A max-heap for ceil(W/c) + L costs under uniform shifts
=======================================================

The paper's k-sink dynamic program repeatedly asks: over all vertices
currently in a part, what is the largest ceil(weight-ahead / capacity) +
distance-cost?  As the part slides, every weight-ahead and every distance
shifts by the same amount — so the heap supports AddW / AddL bulk shifts in
O(1) instead of rebuilding.  (pathevac's own DP folds each cost into one
fixed key and keeps sliding-window maxima instead; see ``pathevac.optk``.)

Internally, pairs are grouped by weight residue modulo the capacity: within
a residue class the order never changes under shifts.  A shift only moves
the threshold residue at which the ceiling rounds up by one more, so a max
tree over the residues, read once at that threshold, gives the answer.
Inserts and deletes rewrite one leaf-to-root path of that tree, at most
ceil(log2 c) + 1 nodes; shifts touch none.

This demo drives it against a naive recompute-everything mirror.
"""

import random

from pathevac import BiHeap
from pathevac.evac import ceil_div
from pathevac.oracle import naive_biheap_mirror

# --- basic usage -------------------------------------------------------------

h = BiHeap(c=2)
a = h.insert(1, 5)  # weight 1, distance-cost 5: ceil(1/2)+5 = 6
b = h.insert(2, 4)  # ceil(2/2)+4 = 5
cost, top = h.max_entry()
print(f"max is handle {top} at cost {cost}")
assert (cost, top) == (6, a)

h.add_w(2)  # everyone gains 2 weight: costs 7 and 6
print(f"after AddW(2): max cost {h.max_entry()[0]}")
assert h.max_entry()[0] == 7

h.add_l(3)  # everyone gains 3 distance-cost
assert h.max_entry()[0] == 10

h.delete(a)
assert h.max_entry()[0] == ceil_div(4, 2) + 7
print("deleting the max exposes the runner-up correctly")

# --- random differential run ---------------------------------------------------

rng = random.Random(12345)
for c in (1, 3, 8):
    ops = []
    live = []
    next_id = 0
    for _ in range(4000):
        r = rng.random()
        if live and (r < 0.25 or len(live) > 50):
            ops.append(("delete", live.pop(rng.randrange(len(live)))))
        elif r < 0.65:
            ops.append(("insert", rng.randint(0, 300), rng.randint(0, 150)))
            live.append(next_id)
            next_id += 1
        elif r < 0.85:
            ops.append(("addw", rng.randint(-20, 40)))
        else:
            ops.append(("addl", rng.randint(-10, 25)))

    heap = BiHeap(c)
    ids = {}
    nid = 0
    answers = []
    peak_touches = 0
    for op in ops:
        touched = heap.counters["tree_nodes_touched"]
        if op[0] == "insert":
            ids[nid] = heap.insert(op[1], op[2])
            nid += 1
        elif op[0] == "delete":
            heap.delete(ids.pop(op[1]))
        elif op[0] == "addw":
            heap.add_w(op[1])
        else:
            heap.add_l(op[1])
        entry = heap.max_entry()
        answers.append(None if entry is None else entry[0])
        touched = heap.counters["tree_nodes_touched"] - touched
        peak_touches = max(peak_touches, touched)

    assert answers == naive_biheap_mirror(ops, c)
    inserts = sum(op[0] == "insert" for op in ops)
    shifts = sum(op[0] == "addw" for op in ops)
    print(f"c={c}: {len(ops)} mixed ops match the naive mirror exactly "
          f"({inserts} inserts, {shifts} weight shifts, "
          f"at most {peak_touches} tree nodes touched per op)")
