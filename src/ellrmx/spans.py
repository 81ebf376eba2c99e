"""Relation sets held as component blocks, and the comparison of spans.

A relation is a vector over ordered two-letter words, and the relations
this package builds are graded: each is exactly zero outside one sector of
words.  A set of them therefore splits into the connected components of
its nonzero pattern, with disjoint word supports.  A :class:`RelationSet`
keeps only those components, each as a small dense block, so that no
array runs over all words; the rank, mutual inclusion and principal
angles of two spans all come from one small SVD per component.  The span
functions stack those SVDs, one LAPACK call per block shape across every
component of every set they are given.  Every relation set is built from
its (row, word, value) terms with :meth:`RelationSet.from_terms`, the
sets of many trials of the same terms together.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

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
    use, and is cached: values alone if only the rank is read, and once
    more with vectors when the bases are first needed.  An empty set is allowed (the 1 x 1 exchange
    relation is an exact identity) but cannot be compared.
    """

    size: int
    width: int
    components: tuple[tuple[np.ndarray, np.ndarray], ...]
    blocks: tuple[np.ndarray, ...]

    @classmethod
    def from_terms(
        cls, rows: np.ndarray, words: np.ndarray, values: np.ndarray, size: int, width: int
    ) -> RelationSet | tuple[RelationSet, ...]:
        """The ``size`` relations over ``width`` words in which row
        ``rows[k]`` has the coefficient ``values[k]`` on word ``words[k]``.
        The (row, word) pairs are distinct, in any order, and every row is
        finite with a nonzero term.  Rows join components by exact
        nonzeros.

        ``values`` of shape (T, K) holds T trials of the same terms and
        gives a tuple of T sets.  Trials with the same nonzero pattern
        share one layout: its components are found once, and each trial's
        blocks are views of its own row of one buffer.
        """
        rows, words = np.asarray(rows, dtype=int), np.asarray(words, dtype=int)
        values = np.asarray(values, dtype=complex)
        stack = values if values.ndim == 2 else values[None]
        if rows.ndim != 1 or not rows.shape == words.shape == stack.shape[1:]:
            raise ValueError(
                f"{rows.shape} rows, {words.shape} words and {values.shape} values"
            )
        for name, index, bound in (("row", rows, size), ("word", words, width)):
            if index.size and not (0 <= index.min() and index.max() < bound):
                raise ValueError(f"a {name} index outside the {bound} {name}s")
        key = rows * width + words
        sort = not np.all(np.diff(key) > 0)
        if sort:
            order = np.argsort(key)
            if np.any(np.diff(key[order]) == 0):
                raise ValueError("a relation repeats a word")
            rows, words, stack = rows[order], words[order], stack[:, order]
        del key
        norms = term_norms(rows, stack, size)
        if not (np.all(np.isfinite(stack)) and np.all(norms > 0)):
            raise ValueError("relation rows must be finite and nonzero")
        # a sorted stack is a copy, normalized in place
        stack = np.divide(stack, norms[:, rows], out=stack if sort else None)
        sets: list[RelationSet] = [None] * len(stack)
        for trials, nonzero in same_rows(stack != 0):
            components, cell, shapes = _layout(rows[nonzero], words[nonzero], size)
            # every block of a trial is a view of its row of one buffer
            ends = np.cumsum([h * w for h, w in shapes], dtype=int)
            buffer = np.zeros((trials.size, ends[-1] if ends.size else 0), dtype=complex)
            for own, t in zip(buffer, trials):
                own[cell] = stack[t, nonzero]
            buffer.setflags(write=False)
            for own, t in zip(buffer, trials):
                blocks = tuple(
                    own[e - h * w : e].reshape(h, w) for e, (h, w) in zip(ends, shapes)
                )
                sets[t] = cls(size, width, components, blocks)
        return tuple(sets) if values.ndim == 2 else sets[0]

    def __len__(self) -> int:
        return self.size

    @functools.cached_property
    def bases(self) -> tuple[np.ndarray, ...]:
        """Orthonormal basis (as columns over the component's words) of the
        span of each component, cut at 1e-8 of the set's largest singular
        value; their widths sum to the rank."""
        return _cut_bases(_svds(self.blocks, vectors=True))

    @functools.cached_property
    def rank(self) -> int:
        """The summed widths of the bases if they are known, else the count
        of singular values above the cut, from values-only SVDs."""
        if "bases" in vars(self):
            return sum(q.shape[1] for q in self.bases)
        return _cut_rank(_svds(self.blocks, vectors=False))


def term_norms(rows: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """2-norms of the ``size`` rows whose terms are given, over any leading
    (trial) axes of ``values``.  They are summed in term order, so terms
    sorted by word give, bit for bit, the norms of the dense rows."""
    lead = values.shape[:-1]
    flat = values.reshape(math.prod(lead), rows.size)
    bins = (rows + size * np.arange(len(flat))[:, None]).ravel()
    total = len(flat) * size
    real, imag = flat.real, flat.imag
    return np.sqrt(
        np.bincount(bins, (real * real).ravel(), total)
        + np.bincount(bins, (imag * imag).ravel(), total)
    ).reshape(lead + (size,))


def same_rows(table: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The distinct rows of a 2-d boolean table, each with the indices of
    the rows equal to it, in order of first appearance."""
    groups: dict[bytes, list[int]] = {}
    for t, row in enumerate(table):
        groups.setdefault(row.tobytes(), []).append(t)
    return [(np.array(ts), table[ts[0]]) for ts in groups.values()]


def _layout(
    rows: np.ndarray, words: np.ndarray, size: int
) -> tuple[tuple, np.ndarray, list[tuple[int, int]]]:
    """Components of the nonzero pattern of terms sorted by (row, word),
    every row among them: the (rows, sorted word columns) of each, in the
    order of their first columns; the position of every term in a buffer
    that holds the components' dense blocks one after another; and the
    blocks' (height, width)."""
    cols, at, root = _join_columns(rows, words)
    label = np.searchsorted(_distinct(root), root)
    row_groups = _group_by(label[at[np.searchsorted(rows, np.arange(size))]])
    col_groups = _group_by(label)
    row_in, col_in = np.zeros(size, dtype=int), np.zeros(cols.size, dtype=int)
    for r, c in zip(row_groups, col_groups):
        row_in[r], col_in[c] = np.arange(r.size), np.arange(c.size)
    heights = np.array([r.size for r in row_groups], dtype=int)
    widths = np.array([c.size for c in col_groups], dtype=int)
    starts = np.cumsum(heights * widths) - heights * widths
    own = label[at]
    cell = starts[own] + row_in[rows] * widths[own] + col_in[at]
    components = tuple(zip(row_groups, (cols[c] for c in col_groups)))
    return components, cell, list(zip(heights.tolist(), widths.tolist()))


#: Bytes of blocks that one stacked SVD call takes; a larger block goes
#: alone.  Bounds the copy that stacking makes.
_STACK = 1 << 20


def _svds(blocks: Sequence[np.ndarray], vectors: bool) -> list:
    """Singular values of each block, with its right singular vectors (as
    rows) if ``vectors``, in block order: one LAPACK call per block shape
    and per ``_STACK`` bytes of blocks.  A stacked call factors each block
    exactly as a call on the block alone would."""
    out: list = [None] * len(blocks)
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for k, block in enumerate(blocks):
        by_shape.setdefault(block.shape, []).append(k)
    for shape, members in by_shape.items():
        step = max(1, _STACK // (16 * shape[0] * shape[1]))
        for start in range(0, len(members), step):
            part = members[start : start + step]
            stack = np.stack([blocks[k] for k in part]) if len(part) > 1 else blocks[part[0]][None]
            for k, result in zip(part, _svd(stack, vectors)):
                out[k] = result
    return out


def _svd(stack: np.ndarray, vectors: bool) -> list:
    """:func:`_svds` of a stack of blocks of one shape.  LAPACK's
    divide-and-conquer SVD can fail to converge on a block and not on its
    adjoint, whose left vectors are the block's right ones; a stack that
    fails is taken a block at a time."""
    try:
        result = np.linalg.svd(stack, full_matrices=False, compute_uv=vectors)
    except np.linalg.LinAlgError:
        if len(stack) > 1:
            return [r for block in stack for r in _svd(block[None], vectors)]
        adjoint = stack.conj().swapaxes(1, 2)
        if not vectors:
            return list(np.linalg.svd(adjoint, compute_uv=False))
        u, sv, _ = np.linalg.svd(adjoint, full_matrices=False)
        return [(sv[0], u[0].conj().T)]
    return list(zip(*result[1:])) if vectors else list(result)


def _cutoff(values: Sequence[np.ndarray]) -> float:
    """The rank cutoff of a set whose blocks have these singular values."""
    if not values:
        raise ValueError("empty relation sets cannot be compared")
    return 1e-8 * max(sv[0] for sv in values)


def _cut_bases(svds: list) -> tuple[np.ndarray, ...]:
    """The component bases of a set from its blocks' :func:`_svds`."""
    cutoff = _cutoff([sv for sv, _ in svds])
    return tuple(vh[: int(np.sum(sv > cutoff))].T.copy() for sv, vh in svds)


def _cut_rank(values: list) -> int:
    """The rank of a set from its blocks' singular values."""
    cutoff = _cutoff(values)
    return sum(int(np.sum(sv > cutoff)) for sv in values)


def _per_set(sets: Sequence[RelationSet], results: list) -> Iterator[list]:
    """Results listed block by block over the sets, split by set."""
    at = 0
    for s in sets:
        yield results[at : at + len(s.blocks)]
        at += len(s.blocks)


def _fill_bases(sets: Sequence[RelationSet]) -> None:
    """Computes the bases of every set that has none yet, with the SVDs of
    all their blocks stacked together."""
    todo = list({id(s): s for s in sets if "bases" not in vars(s)}.values())
    svds = _svds([b for s in todo for b in s.blocks], vectors=True)
    for s, own in zip(todo, _per_set(todo, svds)):
        vars(s)["bases"] = _cut_bases(own)


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


def span_rank(vectors: RelationSet | Sequence[RelationSet]) -> int | list[int]:
    """Rank of the set (:attr:`RelationSet.rank`).  Given a sequence of
    sets, their ranks: those of sets with neither rank nor bases yet come
    from singular values alone, stacked across all their blocks."""
    sets = [vectors] if isinstance(vectors, RelationSet) else list(vectors)
    todo = list({id(s): s for s in sets if not {"rank", "bases"} & vars(s).keys()}.values())
    values = _svds([b for s in todo for b in s.blocks], vectors=False)
    for s, own in zip(todo, _per_set(todo, values)):
        vars(s)["rank"] = _cut_rank(own)
    ranks = [s.rank for s in sets]
    return ranks[0] if isinstance(vectors, RelationSet) else ranks


def _joint_layout(a: RelationSet, b: RelationSet) -> list[tuple[int, list, list]]:
    """The joint components of two sets' rows, from their layouts alone.

    For each connected component of the union of both sets' nonzero
    patterns: its number of word columns and, per set, the (component
    index, positions of the component's columns among the joint ones) of
    its components inside.  Both spans are the direct sums of these pieces.
    """
    if a.width != b.width:
        raise ValueError("vector dimensions differ between the two sets")
    pieces = [
        (side, k, cols)
        for side, s in enumerate((a, b))
        for k, (_, cols) in enumerate(s.components)
    ]
    sizes = np.array([cols.size for _, _, cols in pieces])
    groups = np.repeat(np.arange(len(pieces)), sizes)
    cols, at, root = _join_columns(groups, np.concatenate([p[2] for p in pieces]))
    label = root[at[np.cumsum(sizes) - sizes]]
    layout = []
    for members, joint in zip(_group_by(label), _group_by(root, cols)):
        inside = [pieces[k] for k in members]
        layout.append((joint.size, *(
            [(k, np.searchsorted(joint, c)) for s, k, c in inside if s == side] for side in (0, 1)
        )))
    return layout


def _place(width: int, pieces: list) -> np.ndarray:
    """Matrices whose rows run over the word columns of a joint component,
    side by side: each (positions, matrix) piece has its rows moved to
    those positions among the ``width`` joint columns."""
    out = np.zeros((width, sum(q.shape[1] for _, q in pieces)), dtype=complex)
    at = 0
    for rows, q in pieces:
        out[rows, at : at + q.shape[1]] = q
        at += q.shape[1]
    return out


def span_equal(
    a: RelationSet | Sequence[RelationSet], b: RelationSet | Sequence[RelationSet], tol: float
) -> tuple[bool, float] | list[tuple[bool, float]]:
    """Mutual-inclusion span test.

    Projects every vector of each set onto the span of the other; the
    metric is the worst relative least-squares residual, and the verdict is
    ``metric < tol``.  A row and its projection both lie on the row's
    joint component, so each projection is taken there.  Given two
    sequences of sets, the test of each pair: the SVDs of all their blocks
    are stacked together, and pairs of sets with the same layouts share
    their joint components.
    """
    single = isinstance(a, RelationSet)
    pairs = [(a, b)] if single else list(zip(a, b, strict=True))
    _fill_bases([s for pair in pairs for s in pair])
    layouts: dict[tuple[int, int], list] = {}
    out = []
    for x, y in pairs:
        key = id(x.components), id(y.components)
        if key not in layouts:
            layouts[key] = _joint_layout(x, y)
        worst = 0.0
        for width, pa, pb in layouts[key]:
            for mine, other, sets in ((pa, pb, (x, y)), (pb, pa, (y, x))):
                if not mine:
                    continue
                own, far = sets
                v = np.ascontiguousarray(
                    _place(width, [(c, own.blocks[k].T) for k, c in mine]).T
                )
                basis = _place(width, [(c, far.bases[k]) for k, c in other])
                res = v - (v @ basis.conj()) @ basis.T
                num = np.linalg.norm(res, axis=1)
                den = np.linalg.norm(v, axis=1)
                worst = max(worst, float(np.max(num / den)))
        out.append((worst < tol, worst))
    return out[0] if single else out


def span_gap(a: RelationSet, b: RelationSet) -> float:
    """Largest principal-angle sine between the two spans (symmetric).

    Equals 0 for identical spans and reaches 1 when one span contains a
    direction orthogonal to the other, so rank mismatches surface as gaps
    of order one.  Both bases are block diagonal over the joint
    components, so the 2-norm is the largest over the blocks.
    """
    _fill_bases([a, b])
    gap = 0.0
    for width, pa, pb in _joint_layout(a, b):
        qa, qb = (_place(width, [(c, s.bases[k]) for k, c in p]) for p, s in ((pa, a), (pb, b)))
        for q, other in ((qa, qb), (qb, qa)):
            if q.shape[1]:
                res = q - other @ (other.conj().T @ q)
                gap = max(gap, float(np.linalg.norm(res, 2)))
    return gap
