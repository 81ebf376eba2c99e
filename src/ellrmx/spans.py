"""Relation sets held as component blocks, and the comparison of spans.

A relation is a vector over ordered two-letter words, and the relations
this package builds are graded: each is exactly zero outside one sector of
words.  A set of them therefore splits into the connected components of
its nonzero pattern, with disjoint word supports.  A :class:`RelationSet`
keeps only those components, each as a small dense block, so that no
array runs over all words; the rank, mutual inclusion and principal
angles of two spans all come from one small SVD per component.  Every
relation set is built from its (row, word, value) terms with
:meth:`RelationSet.from_terms`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

import numpy as np


@dataclass(frozen=True, eq=False)
class RelationSet:
    """Relation vectors, each normalized to unit length, held as the dense
    blocks of the connected components of their nonzero pattern.

    Relations are projectively meaningful, so normalizing keeps the rank
    threshold honest when vector norms spread over orders of magnitude.
    A component is a set of rows together with the word columns they
    touch: ``components`` holds (row indices, sorted word columns) in the
    order of their first columns, and ``blocks`` the rows restricted to
    those columns.  Components have disjoint column supports, so the span
    is the direct sum of theirs; each takes one small thin SVD, on first
    use, and is cached.  An empty set is allowed (the 1 x 1 exchange
    relation is an exact identity) but cannot be compared.
    """

    size: int
    width: int
    components: tuple[tuple[np.ndarray, np.ndarray], ...]
    blocks: tuple[np.ndarray, ...]

    @classmethod
    def from_terms(
        cls, rows: np.ndarray, words: np.ndarray, values: np.ndarray, size: int, width: int
    ) -> RelationSet:
        """The ``size`` relations over ``width`` words in which row
        ``rows[k]`` has the coefficient ``values[k]`` on word ``words[k]``.
        The (row, word) pairs are distinct, in any order, and every row is
        finite with a nonzero term.  Rows join components by exact
        nonzeros."""
        rows, words = np.asarray(rows, dtype=int), np.asarray(words, dtype=int)
        values = np.asarray(values, dtype=complex)
        if rows.ndim != 1 or not rows.shape == words.shape == values.shape:
            raise ValueError(
                f"{rows.shape} rows, {words.shape} words and {values.shape} values"
            )
        for name, index, bound in (("row", rows, size), ("word", words, width)):
            if index.size and not (0 <= index.min() and index.max() < bound):
                raise ValueError(f"a {name} index outside the {bound} {name}s")
        key = rows * width + words
        if not np.all(np.diff(key) > 0):
            order = np.argsort(key)
            if np.any(np.diff(key[order]) == 0):
                raise ValueError("a relation repeats a word")
            rows, words, values = rows[order], words[order], values[order]
        del key
        norms = term_norms(rows, values, size)
        if not (np.all(np.isfinite(values)) and np.all(norms > 0)):
            raise ValueError("relation rows must be finite and nonzero")
        values = values / norms[rows]
        nonzero = values != 0
        if not nonzero.all():
            rows, words, values = rows[nonzero], words[nonzero], values[nonzero]
        cols, at, root = _join_columns(rows, words)
        label = np.searchsorted(_distinct(root), root)
        row_groups = _group_by(label[at[np.searchsorted(rows, np.arange(size))]])
        col_groups = _group_by(label)
        row_in, col_in = np.zeros(size, dtype=int), np.zeros(cols.size, dtype=int)
        for r, c in zip(row_groups, col_groups):
            row_in[r], col_in[c] = np.arange(r.size), np.arange(c.size)
        # every block is a view of one buffer
        heights = np.array([r.size for r in row_groups], dtype=int)
        widths = np.array([c.size for c in col_groups], dtype=int)
        ends = np.cumsum(heights * widths)
        starts = ends - heights * widths
        own = label[at]
        cell = starts[own] + row_in[rows] * widths[own] + col_in[at]
        buffer = np.zeros(ends[-1] if ends.size else 0, dtype=complex)
        buffer[cell] = values
        buffer.setflags(write=False)
        blocks = tuple(
            buffer[s:e].reshape(h, w) for s, e, h, w in zip(starts, ends, heights, widths)
        )
        return cls(size, width, tuple(zip(row_groups, (cols[c] for c in col_groups))), blocks)

    def __len__(self) -> int:
        return self.size

    @functools.cached_property
    def bases(self) -> tuple[np.ndarray, ...]:
        """Orthonormal basis (as columns over the component's words) of the
        span of each component, cut at 1e-8 of the set's largest singular
        value; their widths sum to the rank."""
        svds = [_svd(block) for block in self.blocks]
        if not svds:
            raise ValueError("empty relation sets cannot be compared")
        cutoff = 1e-8 * max(sv[0] for sv, _ in svds)
        return tuple(vh[: int(np.sum(sv > cutoff))].T.copy() for sv, vh in svds)


def term_norms(rows: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """2-norms of the ``size`` rows whose terms are given.  They are summed
    in term order, so terms sorted by word give, bit for bit, the norms of
    the dense rows."""
    return np.sqrt(
        np.bincount(rows, values.real * values.real, size)
        + np.bincount(rows, values.imag * values.imag, size)
    )


def _svd(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and right singular vectors (as rows) of a block.
    LAPACK's divide-and-conquer SVD can fail to converge on a block and
    not on its adjoint, whose left vectors are the block's right ones."""
    try:
        return np.linalg.svd(block, full_matrices=False)[1:]
    except np.linalg.LinAlgError:
        u, sv, _ = np.linalg.svd(block.conj().T, full_matrices=False)
        return sv, u.conj().T


def _join_columns(
    groups: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Connected components of columns, where the columns of each group
    (``groups`` sorted, one entry per member column) are connected.

    Returns the sorted distinct columns, the position among them of every
    entry of ``cols``, and for each distinct column the position of the
    smallest column of its component.  Hooks roots onto smaller ones
    until no pair of connected columns has two roots.
    """
    distinct = _distinct(cols)
    at = np.searchsorted(distinct, cols)
    same = groups[1:] == groups[:-1]
    u, v = at[:-1][same], at[1:][same]
    root = np.arange(distinct.size)
    while True:
        while not np.array_equal(up := root[root], root):
            root = up
        ru, rv = root[u], root[v]
        split = ru != rv
        if not split.any():
            return distinct, at, root
        np.minimum.at(root, np.maximum(ru, rv)[split], np.minimum(ru, rv)[split])


def _group_by(labels: np.ndarray, items: np.ndarray | None = None) -> list[np.ndarray]:
    """``items`` (default: their positions) split by label, groups in label
    order, members in their original order."""
    if not labels.size:
        return []
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order])) + 1
    return np.split(order if items is None else items[order], starts)


def _distinct(indices: np.ndarray) -> np.ndarray:
    """Sorted distinct nonnegative indices.  Not ``np.unique``: it imports
    ``numpy.ma`` on first use, about 0.6 MB of resident memory."""
    ordered = np.sort(indices)
    return ordered[np.diff(ordered, prepend=-1) != 0]


def span_rank(vectors: RelationSet) -> int:
    """Rank of the set: the summed widths of its component bases."""
    return sum(basis.shape[1] for basis in vectors.bases)


def _joint_blocks(a: RelationSet, b: RelationSet) -> Iterator[tuple[np.ndarray, list, list]]:
    """The two sets restricted to each joint component of their rows.

    Yields the columns of each connected component of the union of both
    sets' nonzero patterns, and per set the (columns, block, basis) of its
    components inside.  Both spans are the direct sums of these pieces.
    """
    pieces = [
        (side, cols, block, basis)
        for side, s in enumerate((a, b))
        for (_, cols), block, basis in zip(s.components, s.blocks, s.bases)
    ]
    if a.width != b.width:
        raise ValueError("vector dimensions differ between the two sets")
    sizes = np.array([cols.size for _, cols, _, _ in pieces])
    groups = np.repeat(np.arange(len(pieces)), sizes)
    cols, at, root = _join_columns(groups, np.concatenate([p[1] for p in pieces]))
    label = root[at[np.cumsum(sizes) - sizes]]
    for members, joint in zip(_group_by(label), _group_by(root, cols)):
        inside = [pieces[k] for k in members]
        yield joint, *([p[1:] for p in inside if p[0] == side] for side in (0, 1))


def _place(joint: np.ndarray, pieces: list) -> np.ndarray:
    """Matrices whose rows run over the word columns of each (columns,
    matrix) piece, side by side, with their rows moved onto the columns of
    ``joint``."""
    out = np.zeros((joint.size, sum(q.shape[1] for _, q in pieces)), dtype=complex)
    at = 0
    for cols, q in pieces:
        out[np.searchsorted(joint, cols), at : at + q.shape[1]] = q
        at += q.shape[1]
    return out


def span_equal(a: RelationSet, b: RelationSet, tol: float) -> tuple[bool, float]:
    """Mutual-inclusion span test.

    Projects every vector of each set onto the span of the other; the
    metric is the worst relative least-squares residual, and the verdict is
    ``metric < tol``.  A row and its projection both lie on the row's
    joint component, so each projection is taken there.
    """
    worst = 0.0
    for joint, pa, pb in _joint_blocks(a, b):
        for mine, other in ((pa, pb), (pb, pa)):
            if not mine:
                continue
            v = np.ascontiguousarray(_place(joint, [(c, rows.T) for c, rows, _ in mine]).T)
            basis = _place(joint, [(c, q) for c, _, q in other])
            res = v - (v @ basis.conj()) @ basis.T
            num = np.linalg.norm(res, axis=1)
            den = np.linalg.norm(v, axis=1)
            worst = max(worst, float(np.max(num / den)))
    return worst < tol, worst


def span_gap(a: RelationSet, b: RelationSet) -> float:
    """Largest principal-angle sine between the two spans (symmetric).

    Equals 0 for identical spans and reaches 1 when one span contains a
    direction orthogonal to the other, so rank mismatches surface as gaps
    of order one.  Both bases are block diagonal over the joint
    components, so the 2-norm is the largest over the blocks.
    """
    gap = 0.0
    for joint, pa, pb in _joint_blocks(a, b):
        qa, qb = (_place(joint, [(c, q) for c, _, q in p]) for p in (pa, pb))
        for q, other in ((qa, qb), (qb, qa)):
            if q.shape[1]:
                res = q - other @ (other.conj().T @ q)
                gap = max(gap, float(np.linalg.norm(res, 2)))
    return gap
