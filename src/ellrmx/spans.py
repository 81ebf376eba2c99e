"""Relation sets held as component blocks, and the comparison of spans.

A relation is a vector over ordered two-letter words, and the relations
this package builds are graded: each is exactly zero outside one sector of
words.  A set of them therefore splits into the connected components of
its nonzero pattern, with disjoint word supports.  A :class:`RelationSet`
keeps only those components, each as a small dense block, so that no
array runs over all words; the rank, mutual inclusion and principal
angles of two spans all come from one small SVD per component.  The span
functions take sequences of sets, one entry per trial (two sequences of
one length to compare pairs), and return a list of one result per entry;
a single set is a one-element list.  They stack the SVDs, one LAPACK call per
block shape across every component of every set they are given, and
compare sets over the joint components of their patterns with
:func:`ellrmx.joints.compare`.
:func:`span_bound` is the one span certificate: ``rll`` bounds each
defect set against the reference set, ``tv-reduce`` the TV set against
the families.  No check calls :func:`span_equal` or :func:`span_gap`;
they stay only because the benchmark's tracer wraps them.  Every relation
set is built from its (row, word, value) terms with
:meth:`RelationSet.from_terms`, which takes the values of a batch of
trials of the same terms and builds their sets together.  It is the one
place that decides which rows a set has: a row with no nonzero term is
dropped, so callers hand it every row they build, exact zeros included.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .joints import STACK, compare, group_by, join_columns, offsets, stacked_svd

#: A sum whose modulus is at most this share of its terms' scale (their
#: summed moduli, or the largest of them) cancels identically: a word of
#: an RLL defect element (see :func:`ellrmx.ncalgebra.defect_table`), or
#: a label pair of family-1 constants (see
#: :func:`ellrmx.relations.family_terms`).  It is dropped.
CANCELLATION = 1e-12


@dataclass(frozen=True, eq=False)
class RelationSet:
    """Relation vectors, each normalized to unit length, held as the dense
    blocks of the connected components of their nonzero pattern.

    Relations are projectively meaningful, so normalizing keeps the rank
    threshold honest when vector norms spread over orders of magnitude.
    A component is a set of rows together with the word columns they
    touch: ``components`` holds (row indices, sorted word columns) in the
    order of their first columns, and ``blocks`` the rows restricted to
    those columns, as views of ``data``, which holds the blocks one after
    another and then one zero.  Components have disjoint column supports,
    so the span is the direct sum of theirs; each takes one small thin
    SVD, on first use, and is cached: values alone if only the rank is
    read, and once more with vectors when the bases are first needed.
    An empty set (the 1 x 1 exchange relation is an exact
    identity) has rank 0; it lies at gap 0 from another empty set and at
    gap 1 from any other (see :func:`span_equal`, :func:`span_gap` and
    :func:`span_bound`).
    """

    size: int
    width: int
    components: tuple[tuple[np.ndarray, np.ndarray], ...]
    blocks: tuple[np.ndarray, ...]
    data: np.ndarray

    @classmethod
    def from_terms(
        cls, rows: np.ndarray, words: np.ndarray, values: np.ndarray, size: int, width: int
    ) -> tuple[RelationSet, ...]:
        """The sets of T trials of the same terms: in trial t, the
        relations among ``size`` rows over ``width`` words in which row
        ``rows[k]`` has the coefficient ``values[t, k]`` on word
        ``words[k]``.  ``values`` has shape (T, K), one row a trial.  The
        (row, word) pairs are distinct, in any order, and every term is
        finite.  A row with no nonzero term (its 2-norm is zero) is
        dropped and the rows left are renumbered in order, so a set's
        ``size`` counts the rows it keeps.  Rows join components by exact
        nonzeros.

        Trials with the same nonzero pattern keep the same rows and share
        one layout: its components are found once, and each trial's blocks
        are views of its own row of one buffer.  Values that are not a
        complex array already (a list of the trials' arrays, say) are
        copied once, and normalized in that copy.
        """
        rows, words = np.asarray(rows, dtype=int), np.asarray(words, dtype=int)
        stack = np.asarray(values, dtype=complex)
        copied = stack is not values
        if stack.ndim != 2 or not rows.shape == words.shape == stack.shape[1:]:
            raise ValueError(f"{rows.shape} rows, {words.shape} words and {stack.shape} values")
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
        if not np.all(np.isfinite(stack)):
            raise ValueError("relation terms must be finite")
        norms = term_norms(rows, stack, size)
        # a row without norm is divided by infinity: it holds only zeros
        norms[norms == 0] = np.inf
        # a copy made here is normalized in place
        stack = np.divide(stack, norms[:, rows], out=stack if sort or copied else None)
        sets: list[RelationSet] = [None] * len(stack)
        for trials, nonzero in same_rows(stack != 0):
            # the rows left with a nonzero term, renumbered in order
            first = np.diff(rows[nonzero], prepend=-1) != 0
            kept = int(first.sum())
            components, cell, shapes = _layout(np.cumsum(first) - 1, words[nonzero], kept)
            # every block of a trial is a view of its row of one buffer
            buffer = np.zeros((trials.size, sum(h * w for h, w in shapes) + 1), dtype=complex)
            for own, t in zip(buffer, trials):
                own[cell] = stack[t, nonzero]
            buffer.setflags(write=False)
            for own, t in zip(buffer, trials):
                sets[t] = cls(kept, width, components, _views(own, shapes), own)
        return tuple(sets)

    def __len__(self) -> int:
        return self.size

    @functools.cached_property
    def bases(self) -> tuple[np.ndarray, ...]:
        """Orthonormal basis (as columns over the component's words) of the
        span of each component, cut at 1e-8 of the set's largest singular
        value; their widths sum to the rank.  They are views of
        ``basis_data``, which holds them one after another and then one
        zero."""
        _factor([self], vectors=True)
        return self.bases

    @functools.cached_property
    def basis_data(self) -> np.ndarray:
        """The buffer of the bases (see :attr:`bases`)."""
        _factor([self], vectors=True)
        return self.basis_data

    @functools.cached_property
    def rank(self) -> int:
        """The count of singular values above the cut, from the first SVDs."""
        _factor([self], vectors=False)
        return self.rank


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
    cols, at, label, col_in, widths = join_columns(rows, words)
    row_label = label[at[np.searchsorted(rows, np.arange(size))]]
    row_in, heights = offsets(row_label, np.ones(size, dtype=int), widths.size)
    own = label[at]
    starts = np.cumsum(heights * widths) - heights * widths
    cell = starts[own] + row_in[rows] * widths[own] + col_in[at]
    components = tuple(zip(group_by(row_label), (cols[c] for c in group_by(label))))
    return components, cell, list(zip(heights.tolist(), widths.tolist()))


def _svds(blocks: Sequence[np.ndarray], vectors: bool) -> list:
    """Singular values of each block, with its right singular vectors (as
    rows) if ``vectors``, in block order: one LAPACK call per block shape
    and per ``STACK`` bytes of blocks.  A stacked call factors each block
    exactly as a call on the block alone would."""
    out: list = [None] * len(blocks)
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for k, block in enumerate(blocks):
        by_shape.setdefault(block.shape, []).append(k)
    for shape, members in by_shape.items():
        step = max(1, STACK // (16 * shape[0] * shape[1]))
        for start in range(0, len(members), step):
            part = members[start : start + step]
            stack = np.stack([blocks[k] for k in part]) if len(part) > 1 else blocks[part[0]][None]
            for k, result in zip(part, stacked_svd(stack, vectors)):
                out[k] = result
    return out


def _cutoff(values: np.ndarray) -> float:
    """The rank cutoff of a set whose blocks have these singular values."""
    return 1e-8 * values.max(initial=0.0)


def _cut_bases(svds: list, cutoff: float) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The component bases of a set from its blocks' :func:`_svds`, and
    the buffer they are views of (see :attr:`RelationSet.bases`)."""
    bases = [vh[: int(np.sum(sv > cutoff))].T for sv, vh in svds]
    data = np.zeros(sum(q.size for q in bases) + 1, dtype=complex)
    views = _views(data, [q.shape for q in bases])
    for view, q in zip(views, bases):
        view[...] = q
    return views, data


def _views(data: np.ndarray, shapes: Sequence[tuple[int, int]]) -> tuple[np.ndarray, ...]:
    """Matrices of the given shapes that stand in ``data`` one after
    another, row by row, as views."""
    ends = np.cumsum([h * w for h, w in shapes], dtype=int)
    return tuple(data[e - h * w : e].reshape(h, w) for e, (h, w) in zip(ends, shapes))


def _factor(sets: Sequence[RelationSet], vectors: bool) -> None:
    """Caches the bases (with ``vectors``) and rank of every set that lacks
    them, from the SVDs of all their blocks stacked together."""
    todo = [s for s in sets if ("bases" if vectors else "rank") not in vars(s)]
    todo = list({id(s): s for s in todo}.values())
    results = iter(_svds([b for s in todo for b in s.blocks], vectors))
    for s in todo:
        own = [next(results) for _ in s.blocks]
        values = np.concatenate([[0.0], *(sv for sv, _ in own)] if vectors else [[0.0], *own])
        cutoff = _cutoff(values)
        if vectors:
            vars(s)["bases"], vars(s)["basis_data"] = _cut_bases(own, cutoff)
        vars(s).setdefault("rank", int(np.sum(values > cutoff)))


def span_rank(sets: Sequence[RelationSet]) -> list[int]:
    """The ranks of the sets (:attr:`RelationSet.rank`): those of sets with
    neither rank nor bases yet come from singular values alone, stacked
    across all their blocks."""
    sets = list(sets)
    _factor(sets, vectors=False)
    return [s.rank for s in sets]


def _worst(pairs: list[tuple[RelationSet, RelationSet]], bases: bool) -> list[float]:
    """The largest :func:`ellrmx.joints.compare` value of each pair, taken
    both ways (0 if neither way has one)."""
    there, back = compare(pairs, bases), compare([(b, a) for a, b in pairs], bases)
    return [float(np.concatenate([x, y]).max(initial=0.0)) for (x, _), (y, _) in zip(there, back)]


def span_equal(
    a: Sequence[RelationSet], b: Sequence[RelationSet], tol: float
) -> list[tuple[bool, float]]:
    """Mutual-inclusion span test of each pair of sets of ``a`` and ``b``.

    Projects every vector of each set onto the span of the other; the
    metric is the worst relative least-squares residual, and the verdict is
    ``metric < tol``.  A row and its projection both lie on the row's
    joint component, so each projection is taken there.  Against an empty
    set the metric is exactly 1, or 0 if both are empty.  The SVDs of all
    the sets' blocks are stacked together, and so are the projections of
    all joints of one shape (see :func:`ellrmx.joints.compare`).
    """
    pairs = list(zip(a, b, strict=True))
    _factor([s for pair in pairs for s in pair], vectors=True)
    return [(worst < tol, worst) for worst in _worst(pairs, bases=False)]


def span_gap(a: Sequence[RelationSet], b: Sequence[RelationSet]) -> list[float]:
    """Largest principal-angle sine between the two spans of each pair of
    sets of ``a`` and ``b`` (symmetric).

    Equals 0 for identical spans and reaches 1 when one span contains a
    direction orthogonal to the other, so rank mismatches surface as gaps
    of order one; between an empty set and another it is exactly 1, or 0
    if both are empty.  Both bases are block diagonal over the joint
    components, so the 2-norm is the largest over the blocks.  Stacked as
    in :func:`span_equal`.  No check calls it: :func:`span_bound` bounds it.
    """
    pairs = list(zip(a, b, strict=True))
    _factor([s for pair in pairs for s in pair], vectors=True)
    return _worst(pairs, bases=True)


def span_bound(a: Sequence[RelationSet], b: Sequence[RelationSet]) -> list[tuple[float, int]]:
    """For each pair of sets of ``a`` and ``b``: Wedin's bound on the gap
    between ``b``'s span and the top r right singular vectors of ``a``'s
    unit rows A (:func:`span_gap` if A has rank r), and r, the rank of
    C = A conj(Q) on ``b``'s bases Q: the Frobenius norm of A off ``b``'s
    span over sigma_r(C) <= sigma_r(A), at most 1, if r is ``b``'s rank,
    else exactly 1 (0 if both are empty).  Only ``b`` is factored: r and
    sigma_r(C) are cut, as a rank is, from :func:`ellrmx.joints.compare`'s
    values.  Stacked as in :func:`span_equal`."""
    pairs = list(zip(a, b, strict=True))
    _factor([r for _, r in pairs], vectors=True)
    out = []
    for (_, r), (res, sv) in zip(pairs, compare(pairs)):
        kept = sv[sv > _cutoff(sv)]
        # at rank 0 ``b`` is empty, and each row of ``a`` reads 1
        floor = float(kept.min()) if kept.size else 1.0
        bound = min(1.0, math.sqrt(math.fsum(res**2)) / floor) if kept.size == r.rank else 1.0
        out.append((bound, kept.size))
    return out
