"""Connected components of word columns, and the comparison of two
relation sets over the joint components of their patterns.

A leaf module of array helpers for :mod:`ellrmx.spans`: it reads a set's
``width``, ``components``, ``blocks``, ``data``, ``bases`` and
``basis_data`` and nothing else.  Two sets are compared joint component
by joint component, both ways, or one way (the first set's rows on the
second's bases), and the joints of one shape across many pairs of sets go
through one stacked BLAS or LAPACK call, each matrix exactly as alone.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:
    from .spans import RelationSet

#: Bytes of blocks that one stacked SVD call (or comparison) takes; a
#: larger block goes alone.  Bounds the copy that stacking makes, and the
#: LAPACK outputs and products as large as it.
STACK = 1 << 18


def join_columns(
    groups: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Connected components of columns, where the columns of each group
    (``groups`` sorted, one entry per member column) are connected.

    Returns the sorted distinct columns, the position among them of every
    entry of ``cols``, and for each distinct column the position of the
    smallest column of its component.  Hooks roots onto smaller ones
    until no pair of connected columns has two roots.
    """
    columns = distinct(cols)
    at = np.searchsorted(columns, cols)
    same = groups[1:] == groups[:-1]
    u, v = at[:-1][same], at[1:][same]
    root = np.arange(columns.size)
    while True:
        while not np.array_equal(up := root[root], root):
            root = up
        ru, rv = root[u], root[v]
        split = ru != rv
        if not split.any():
            return columns, at, root
        np.minimum.at(root, np.maximum(ru, rv)[split], np.minimum(ru, rv)[split])


def group_by(labels: np.ndarray) -> list[np.ndarray]:
    """Positions split by label, groups in label order, members in their
    original order."""
    if not labels.size:
        return []
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def distinct(indices: np.ndarray) -> np.ndarray:
    """Sorted distinct nonnegative indices.  Not ``np.unique``: it imports
    ``numpy.ma`` on first use, about 0.6 MB of resident memory."""
    ordered = np.sort(indices)
    return ordered[np.diff(ordered, prepend=-1) != 0]


def _local(counts: np.ndarray) -> np.ndarray:
    """Positions 0 to c - 1 in each of groups of ``counts`` members that
    stand one after another."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def offsets(
    labels: np.ndarray, sizes: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Where each member starts when the ``sizes`` of the members of each
    of ``count`` labels stand one after another in order, and the labels'
    totals."""
    total = np.bincount(labels, sizes, count).astype(int)
    order = np.argsort(labels, kind="stable")
    before = (np.cumsum(total) - total)[labels[order]]
    start = np.empty_like(sizes)
    start[order] = np.cumsum(sizes[order]) - sizes[order] - before
    return start, total


def _joints(a: RelationSet, b: RelationSet) -> tuple[tuple, tuple, np.ndarray]:
    """The joint components of the union of two sets' nonzero patterns:
    per set, the joint of each component and the position among the
    joint's sorted columns of each component's columns (component after
    component), and the joints' widths.  Both spans are the direct sums of
    their pieces in the joints.  Both sets have rows (:func:`compare` reads
    a pair with an empty side without joints); sets with the same
    components have those as their joints."""
    if a.components is b.components:
        widths = np.array([cols.size for _, cols in a.components], dtype=int)
        return (np.arange(widths.size),) * 2, (_local(widths),) * 2, widths
    pieces = [cols for s in (a, b) for _, cols in s.components]
    sizes = np.array([cols.size for cols in pieces], dtype=int)
    cols, at, root = join_columns(np.repeat(np.arange(sizes.size), sizes), np.concatenate(pieces))
    label = np.searchsorted(distinct(root), root)
    place, widths = offsets(label, np.ones_like(label), label.max() + 1)
    joint, position = label[at[np.cumsum(sizes) - sizes]], place[at]
    k, c = len(a.components), sizes[: len(a.components)].sum()
    return (joint[:k], joint[k:]), (position[:c], position[c:]), widths


def _index(pieces: tuple, slot: np.ndarray, shape: tuple, bases: bool) -> np.ndarray:
    """Positions in a set's ``data`` (or its bases' buffer, if ``bases``)
    of every entry of a stack of ``shape`` that holds, at ``slot[j]``, the
    rows (bases) of the set in joint j; -1 where there is none.  In a joint,
    the rows stand component after component over the joint's columns, the
    bases over the columns side by side.  ``pieces`` holds, per component
    of the set, its joint, its columns' positions there (all components' in
    turn), its height, width and basis width, and where its rows and its
    basis columns start in the joint.  Components of one shape are placed
    together."""
    joint, position, heights, widths, ranks, row_at, col_at = pieces
    h, w = (widths, ranks) if bases else (heights, widths)
    start = (np.cumsum(h * w) - h * w).astype(np.int32)
    first = np.cumsum(widths) - widths
    out = np.full(shape, -1, dtype=np.int32)
    inside = np.flatnonzero(slot[joint] >= 0)
    for rows, cols in sorted(set(zip(h[inside].tolist(), w[inside].tolist()))):
        k = inside[(h[inside] == rows) & (w[inside] == cols)][:, None, None]
        i, j = np.arange(rows, dtype=np.int32)[:, None], np.arange(cols, dtype=np.int32)
        words = position[first[k] + (i if bases else j)]
        cell = (words, col_at[k] + j) if bases else (row_at[k] + i, words)
        out[(slot[joint[k]], *cell)] = start[k] + i * cols + j
    return out


def _plan(
    a: RelationSet, b: RelationSet, mode: str
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The stacks of matrices that compare two sets in a :func:`compare`
    ``mode``, one joint shape at a time: for each side (the first alone,
    if "one-sided") and each shape of the joints where that side has rows
    (bases, if "gap"), the side, and the :func:`_index` of its rows
    (bases) and of the other side's bases."""
    gap, one_sided = mode == "gap", mode == "one-sided"
    joints, positions, widths = _joints(a, b)
    sides = []
    for s, joint, position, read in zip((a, b), joints, positions, (not one_sided, True)):
        h, w = np.array([block.shape for block in s.blocks], dtype=int).reshape(-1, 2).T
        r = np.array([q.shape[1] for q in s.bases] if read else [0] * h.size, dtype=int)
        (row_at, height), (col_at, rank) = (offsets(joint, v, widths.size) for v in (h, r))
        sides.append(((joint, position, h, w, r, row_at, col_at), height, rank))
    for side in (0,) if one_sided else (0, 1):
        (own, height, rank), (far, _, far_rank) = sides[side], sides[1 - side]
        size = rank if gap else height
        keys = np.stack([size, widths, far_rank], axis=1)
        used = np.flatnonzero(size > 0)
        used = used[np.lexsort(keys[used].T[::-1])]
        cuts = np.flatnonzero(np.any(np.diff(keys[used], axis=0), axis=1)) + 1
        for members in np.split(used, cuts) if used.size else []:
            slot = np.full(len(keys), -1)
            slot[members] = np.arange(members.size)
            count, (rows, cols, width) = members.size, keys[members[0]]
            mine = _index(own, slot, (count, cols, rows) if gap else (count, rows, cols), gap)
            yield side, mine, _index(far, slot, (count, cols, width), True)


def _gather(sources: list[np.ndarray], index: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Matrices ``lo`` to ``hi`` of the stack that repeats ``index`` over
    the sources in turn; an index of -1 reads a source's closing zero."""
    out = np.empty((hi - lo, *index.shape[1:]), dtype=complex)
    at = lo
    while at < hi:
        t, k = divmod(at, len(index))
        end = min(hi, at - k + len(index))
        np.take(sources[t], index[k : k + end - at], out=out[at - lo : end - lo], mode="wrap")
        at = end
    return out


def _residuals(v: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Relative residual of each row of each matrix of ``v`` after
    projection onto the columns of the matching ``basis``."""
    res = v - (v @ basis.conj()) @ basis.swapaxes(1, 2)
    return np.linalg.norm(res, axis=2) / np.linalg.norm(v, axis=2)


def _gap(q: np.ndarray, other: np.ndarray) -> np.ndarray:
    """2-norm of the part of each matrix of ``q`` off the column span of
    the matching ``other``."""
    res = q - other @ (other.conj().swapaxes(1, 2) @ q)
    return np.linalg.norm(res, 2, axis=(1, 2))


def compare(pairs: list[tuple[RelationSet, RelationSet]], mode: str) -> list[float]:
    """For each pair of sets, over their joints: in ``mode`` "inclusion",
    the worst :func:`_residuals` both ways; in "gap", the worst
    :func:`_gap` both ways; in "one-sided", the sum (``math.fsum``, which
    no grouping moves) of the squared :func:`_residuals` of the first
    set's rows on the second set's bases.

    Pairs whose sets have the same layouts and basis widths share one
    :func:`_plan`; their stacks of one shape go through one call per
    ``STACK`` bytes, each matrix through the BLAS and LAPACK calls that
    its joint alone would take.  A pair with an empty side reads exactly
    1, or 0 if both sides are empty.
    """
    gap, one_sided = mode == "gap", mode == "one-sided"
    shared: dict[tuple, list[int]] = {}
    for t, pair in enumerate(pairs):
        if pair[0].width != pair[1].width:
            raise ValueError("vector dimensions differ between the two sets")
        # a one-sided comparison reads no bases of the first set
        widths = [tuple(q.shape[1] for q in s.bases) for s in pair[one_sided:]]
        key = (id(pair[0].components), id(pair[1].components), *widths)
        shared.setdefault(key, []).append(t)
    # every row residual (or gap) found, and the pair it belongs to
    owners: list[np.ndarray] = [np.zeros(0, dtype=int)]
    found: list[np.ndarray] = [np.zeros(0)]
    for members in shared.values():
        a, b = pairs[members[0]]
        if not (a.components and b.components):
            # the key holds the layouts, so every member has the same sides empty
            owners.append(np.asarray(members))
            found.append(np.full(len(members), float(bool(a.components or b.components))))
            continue
        for side, mine, theirs in _plan(a, b, mode):
            own = [pairs[t][side].basis_data if gap else pairs[t][side].data for t in members]
            far = [pairs[t][1 - side].basis_data for t in members]
            total = len(members) * len(mine)
            step = max(1, STACK // (16 * (mine[0].size + theirs[0].size)))
            for lo in range(0, total, step):
                hi = min(lo + step, total)
                stacks = _gather(own, mine, lo, hi), _gather(far, theirs, lo, hi)
                values = (_gap if gap else _residuals)(*stacks)
                owner = np.asarray(members)[np.arange(lo, hi) // len(mine)]
                owners.append(np.repeat(owner, values.size // owner.size))
                found.append(values.ravel())
    owner, value = np.concatenate(owners), np.concatenate(found)
    if not one_sided:
        worst = np.zeros(len(pairs))
        np.maximum.at(worst, owner, value)
        return worst.tolist()
    order = np.argsort(owner, kind="stable")
    cuts = np.searchsorted(owner[order], np.arange(1, len(pairs)))
    return [math.fsum(v) for v in np.split(value[order] ** 2, cuts)]
