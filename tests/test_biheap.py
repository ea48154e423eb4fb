"""Cost-ordered pair heap with uniform weight/time shifts, vs a naive mirror."""

from __future__ import annotations

import random

import pytest

from pathevac.biheap import BiHeap
from pathevac.evac import ceil_div
from pathevac.oracle import naive_biheap_mirror

from conftest import rand_instance  # noqa: F401  (suite-wide import check)


def random_ops(rng: random.Random, count: int, live_cap: int = 64):
    """Op sequence over (insert, delete, addw, addl) keeping <= live_cap live."""
    ops = []
    live = []
    next_id = 0
    for _ in range(count):
        r = rng.random()
        if live and (r < 0.25 or len(live) >= live_cap):
            victim = live.pop(rng.randrange(len(live)))
            ops.append(("delete", victim))
        elif r < 0.65:
            ops.append(("insert", rng.randint(0, 400), rng.randint(0, 200)))
            live.append(next_id)
            next_id += 1
        elif r < 0.85:
            ops.append(("addw", rng.randint(-30, 60)))
        else:
            ops.append(("addl", rng.randint(-15, 40)))
    return ops


def replay(ops, c: int):
    """Run ops through BiHeap, returning the answer after every op."""
    h = BiHeap(c)
    id_to_handle = {}
    next_id = 0
    out = []
    for op in ops:
        if op[0] == "insert":
            id_to_handle[next_id] = h.insert(op[1], op[2])
            next_id += 1
        elif op[0] == "delete":
            h.delete(id_to_handle.pop(op[1]))
        elif op[0] == "addw":
            h.add_w(op[1])
        else:
            h.add_l(op[1])
        entry = h.max_entry()
        out.append(None if entry is None else entry[0])
    return out


# 2**40 + 3: negative w_abs puts labels at deep right leaves of the tree.
@pytest.mark.parametrize("c", [1, 2, 3, 5, 7, 16, 1000, 2**40 + 3])
def test_matches_mirror_after_every_op(c):
    rng = random.Random(1000 + c)
    for seed in range(4):
        ops = random_ops(random.Random(seed * 31 + c), 1200)
        assert replay(ops, c) == naive_biheap_mirror(ops, c)


def test_single_pair_cost():
    h = BiHeap(2)
    hd = h.insert(5, 3)
    cost, top = h.max_entry()
    assert top == hd
    assert cost == ceil_div(5, 2) + 3 == 6


def test_shift_example():
    h = BiHeap(2)
    h.insert(1, 5)
    h.insert(2, 4)
    assert h.max_entry()[0] == 6  # ceil(1/2)+5 = 6, ceil(2/2)+4 = 5
    h.add_w(2)  # weights 3 and 4
    assert h.max_entry()[0] == 7  # ceil(3/2)+5 = 7, ceil(4/2)+4 = 6
    h.add_l(3)
    assert h.max_entry()[0] == 10


def test_empty_heap():
    h = BiHeap(3)
    assert h.max_entry() is None
    h.delete(h.insert(4, 1))
    assert h.max_entry() is None


def test_stale_handle_rejected():
    h = BiHeap(2)
    hd = h.insert(4, 1)
    h.delete(hd)
    with pytest.raises(ValueError):
        h.delete(hd)
    with pytest.raises(ValueError):
        h.delete(12345)


def test_negative_shifts_match_mirror():
    for c in (1, 3, 7):
        ops = [("insert", 10, 5), ("addw", -7), ("insert", 3, 2),
               ("addl", -4), ("addw", -1), ("insert", 0, 0), ("addw", 13)]
        assert replay(ops, c) == naive_biheap_mirror(ops, c)


def test_counters_present():
    h = BiHeap(4)
    a = h.insert(3, 1)
    h.insert(9, 0)
    h.add_w(5)
    h.add_l(2)
    assert set(h.counters) == {"tree_nodes_touched", "heap_pops"}
    # both inserts became their label's top: one leaf-to-root path each
    assert h.counters["tree_nodes_touched"] == 2 * 3
    h.delete(a)
    assert h.counters["heap_pops"] == 1


def test_tree_touch_counter_logarithmic():
    # Inserts and deletes refresh at most one leaf-to-root path of the label
    # tree, whose depth is ceil(log2 c); shifts touch no tree node.
    rng = random.Random(77)
    c = 7
    h = BiHeap(c)
    bound = (c - 1).bit_length() + 1

    def touches(op, *args):
        before = h.counters["tree_nodes_touched"]
        out = op(*args)
        return out, h.counters["tree_nodes_touched"] - before

    handles = []
    for i in range(512):
        hd, touched = touches(h.insert, rng.randint(0, 10_000), rng.randint(0, 500))
        handles.append(hd)
        assert touched <= bound
    for _ in range(300):
        r = rng.random()
        if r < 0.4 and handles:
            _, touched = touches(h.delete, handles.pop(rng.randrange(len(handles))))
            assert touched <= bound
        elif r < 0.6:
            _, touched = touches(h.add_w, rng.randint(-20, 40))
            assert touched == 0
        elif r < 0.8:
            _, touched = touches(h.add_l, rng.randint(-20, 40))
            assert touched == 0
        else:
            hd, touched = touches(h.insert, rng.randint(0, 10_000), rng.randint(0, 500))
            handles.append(hd)
            assert touched <= bound
