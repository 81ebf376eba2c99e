"""Connected components of word columns, and the comparison of two
relation sets over the joint components of their patterns.

A leaf module of array helpers for :mod:`ellrmx.spans`: it reads a set's
``width``, ``components``, ``blocks``, ``data``, ``bases`` and
``basis_data`` and nothing else.  Two sets are compared joint component
by joint component in one direction, the first set's rows (or bases) on
the second's bases, and the joints of one shape across many pairs of sets
go through one stacked BLAS or LAPACK call, each matrix exactly as alone.
:func:`compare` hands back each pair's values and the singular values of
the projections' coefficients C: :func:`ellrmx.spans.span_bound` sums the
values' squares over C's floor, and the two other span functions take the
worst value of both directions.
"""

from __future__ import annotations

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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Connected components of columns, where the columns of each group
    (``groups`` sorted, one entry per member column) are connected,
    labelled in the order of their smallest columns.

    Returns the sorted distinct columns, the position among them of every
    entry of ``cols``, and for each distinct column its component's label
    and its position among that component's sorted columns; then the
    components' widths.  Hooks roots onto smaller ones until no pair of
    connected columns has two roots.
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
            break
        np.minimum.at(root, np.maximum(ru, rv)[split], np.minimum(ru, rv)[split])
    roots = distinct(root)
    label = np.searchsorted(roots, root)
    place, widths = offsets(label, np.ones_like(label), roots.size)
    return columns, at, label, place, widths


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
    a pair with an empty side without joints)."""
    pieces = [cols for s in (a, b) for _, cols in s.components]
    sizes = np.array([cols.size for cols in pieces], dtype=int)
    groups = np.repeat(np.arange(sizes.size), sizes)
    _, at, label, place, widths = join_columns(groups, np.concatenate(pieces))
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
    a: RelationSet, b: RelationSet, bases: bool
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The stacks of matrices that compare the first set's rows (bases, if
    ``bases``) with the second set's bases, one shape of the joints where
    the first set has them at a time: the :func:`_index` of each side."""
    joints, positions, widths = _joints(a, b)
    sides = []
    for s, joint, position, read in zip((a, b), joints, positions, (bases, True)):
        h, w = np.array([block.shape for block in s.blocks], dtype=int).reshape(-1, 2).T
        r = np.array([q.shape[1] for q in s.bases] if read else [0] * h.size, dtype=int)
        (row_at, height), (col_at, rank) = (offsets(joint, v, widths.size) for v in (h, r))
        sides.append(((joint, position, h, w, r, row_at, col_at), height, rank))
    (own, height, rank), (far, _, far_rank) = sides
    size = rank if bases else height
    keys = np.stack([size, widths, far_rank], axis=1)
    used = np.flatnonzero(size > 0)
    used = used[np.lexsort(keys[used].T[::-1])]
    cuts = np.flatnonzero(np.any(np.diff(keys[used], axis=0), axis=1)) + 1
    for members in np.split(used, cuts) if used.size else []:
        slot = np.full(len(keys), -1)
        slot[members] = np.arange(members.size)
        count, (rows, cols, width) = members.size, keys[members[0]]
        mine = _index(own, slot, (count, cols, rows) if bases else (count, rows, cols), bases)
        yield mine, _index(far, slot, (count, cols, width), True)


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


def _residuals(v: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Relative residual of each row of each matrix of ``v`` after
    projection onto the columns of the matching ``basis``, and the
    projection's coefficients."""
    c = v @ basis.conj()
    res = v - c @ basis.swapaxes(1, 2)
    return np.linalg.norm(res, axis=2) / np.linalg.norm(v, axis=2), c


def _gap(q: np.ndarray, other: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2-norm of the part of each matrix of ``q`` off the column span of
    the matching ``other``, and the projection's coefficients."""
    c = other.conj().swapaxes(1, 2) @ q
    return np.linalg.norm(q - other @ c, 2, axis=(1, 2)), c


def stacked_svd(stack: np.ndarray, vectors: bool) -> list:
    """Singular values of each matrix of a stack, with its right singular
    vectors (as rows) if ``vectors``.  LAPACK's divide-and-conquer SVD can
    fail to converge on a matrix and not on its adjoint, whose left vectors
    are the matrix's right ones; a stack that fails goes a matrix at a
    time, and such a matrix as its adjoint."""
    try:
        result = np.linalg.svd(stack, full_matrices=False, compute_uv=vectors)
    except np.linalg.LinAlgError:
        if len(stack) > 1:
            return [r for block in stack for r in stacked_svd(block[None], vectors)]
        adjoint = stack.conj().swapaxes(1, 2)
        if not vectors:
            return list(np.linalg.svd(adjoint, compute_uv=False))
        u, sv, _ = np.linalg.svd(adjoint, full_matrices=False)
        return [(sv[0], u[0].conj().T)]
    return list(zip(*result[1:])) if vectors else list(result)


def compare(
    pairs: list[tuple[RelationSet, RelationSet]], bases: bool = False
) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each pair of sets, over their joints: the :func:`_residuals` of
    the first set's rows on the second set's bases, one per row of the
    first set, or with ``bases`` the :func:`_gap` of the first set's bases
    to the second's, one per joint where the first set has any; and the
    singular values of those projections' coefficients C.  Each pair's
    values come in stack order, not in row order.  Against an empty second
    set every value is exactly 1 (and there is no C); an empty first set
    has none.

    Pairs whose sets have the same layouts and read basis widths share one
    :func:`_plan`; their stacks of one shape go through one call per
    ``STACK`` bytes, each matrix through the BLAS and LAPACK calls that
    its joint alone would take, Cs included.
    """
    shared: dict[tuple, list[int]] = {}
    for t, pair in enumerate(pairs):
        if pair[0].width != pair[1].width:
            raise ValueError("vector dimensions differ between the two sets")
        # the first set's bases are read only with ``bases``
        widths = [tuple(q.shape[1] for q in s.bases) for s in pair[not bases :]]
        key = (id(pair[0].components), id(pair[1].components), *widths)
        shared.setdefault(key, []).append(t)
    # each pair's values and singular values
    found = [([np.zeros(0)], [np.zeros(0)]) for _ in pairs]
    for members in shared.values():
        a, b = pairs[members[0]]
        if not (a.components and b.components):
            # the key holds the layouts, so every member has the same sides empty
            count = sum(q.shape[1] > 0 for q in a.bases) if bases else a.size
            for t in members:
                found[t][0].append(np.ones(count))
            continue
        own = [pairs[t][0].basis_data if bases else pairs[t][0].data for t in members]
        far = [pairs[t][1].basis_data for t in members]
        for mine, theirs in _plan(a, b, bases):
            n, total = len(mine), len(members) * len(mine)
            step = max(1, STACK // (16 * (mine[0].size + theirs[0].size)))
            for lo in range(0, total, step):
                hi = min(lo + step, total)
                values, c = (_gap if bases else _residuals)(
                    _gather(own, mine, lo, hi), _gather(far, theirs, lo, hi)
                )
                sv = np.array(stacked_svd(c, vectors=False))
                for k in range(lo // n, (hi - 1) // n + 1):
                    part = slice(max(lo, k * n) - lo, min(hi, k * n + n) - lo)
                    for side, got in zip(found[members[k]], (values, sv)):
                        side.append(got[part].ravel())
    return [(np.concatenate(v), np.concatenate(sv)) for v, sv in found]
