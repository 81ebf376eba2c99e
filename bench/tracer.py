"""In-memory span tracer and the per-layer wrappers of the traced pass.

The tracer wraps public functions of the ``ellrmx`` modules from outside
the program: each call becomes a span (name, start, end, parent) kept in
flat arrays until the pass ends. Counters are attributed to the innermost
open span. A layer's self time is its spans' durations minus the time
their direct child spans cover.

Only the standard library is imported at module level, so that loading
this module does not pull numpy into the timed ``import ellrmx``.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

# The per-check metric names, fixed here rather than read from ellrmx so
# that they stay the same when the program changes.
CHECK_NAMES = (
    "ybe",
    "dybe-felder",
    "dybe-slnm",
    "rll",
    "relations",
    "fay",
    "sklyanin-rep",
    "tv-reduce",
    "bb-reduce",
)

# A counter name is "<exception class>" for errors leaving a span, or one
# of these for values the wrappers observe.
ACCEPTED = "accepted"
SVD_CALLS = "svd_calls"
SVD_GFLOP = "svd_gflop"


class Tracer:
    """Spans and counters of one pass, held in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: dict[tuple[str, str], float] = {}
        self._open: list[int] = []
        self._last_error: BaseException | None = None

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(float("nan"))
        self._open.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        if self._open.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def count(self, counter: str, amount: float = 1) -> None:
        """Add ``amount`` to ``counter`` of the innermost open span."""
        owner = self.names[self.name_id[self._open[-1]]] if self._open else ""
        key = (owner, counter)
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[[tuple, dict], str],
        observe: Callable[["Tracer", object], None] | None = None,
    ) -> Callable:
        """``fn`` recorded as a span; ``name`` may derive from the arguments.

        An exception is counted once, under its class name, by the
        innermost span it leaves.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(self, result)
                return result
            except BaseException as exc:
                if exc is not self._last_error:
                    self._last_error = exc
                    self.count(type(exc).__name__)
                raise
            finally:
                self.close(idx)

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in self.names}
        for i, nid in enumerate(self.name_id):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - covered[i]
        return out

    def counter(self, counter: str, span: str | None = None) -> float:
        """Sum of ``counter`` over spans named ``span`` (all spans if None)."""
        return sum(
            v
            for (owner, c), v in self.counts.items()
            if c == counter and (span is None or owner == span)
        )

    def save(self, path) -> None:
        """Write the spans and counters as a compressed numpy archive."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            count_keys=np.array([f"{o}|{c}" for o, c in self.counts], dtype=str),
            count_values=np.array(list(self.counts.values()), dtype=np.float64),
        )


def _count_accepted(tracer: Tracer, result: object) -> None:
    if result:
        tracer.count(ACCEPTED)


def _check_span(args: tuple, kwargs: dict) -> str:
    check = args[1] if len(args) > 1 else kwargs["check"]
    return f"checks.{check}"


@dataclass(frozen=True)
class Group:
    """Functions of one ``ellrmx`` module recorded under one span name."""

    span: str | Callable[[tuple, dict], str]
    module: str
    functions: tuple[str, ...]
    metrics: tuple[str, ...] = ("calls", "self_s")
    observe: Callable[[Tracer, object], None] | None = None


CHECK_GROUP = Group(_check_span, "checks", ("run_single",), metrics=())

GROUPS = (
    CHECK_GROUP,
    Group("sampling.sample_params", "sampling", ("sample_params",)),
    Group("sampling.admissible", "sampling", ("admissible",), ("calls",), _count_accepted),
    Group("elliptic.theta", "elliptic", ("theta", "theta_d1", "theta_d2")),
    Group(
        "elliptic.kernel",
        "elliptic",
        ("kronecker_phi", "varphi", "eisenstein_e1", "eisenstein_e2"),
    ),
    Group("elliptic.lattice_distance", "elliptic", ("lattice_distance",)),
    Group(
        "tensor",
        "tensor",
        (
            "matrix_unit",
            "q_clock",
            "lambda_shift",
            "basis_t_raw",
            "basis_t",
            "kappa_raw",
            "kappa",
            "embed_matrix",
            "embed",
            "permute_components",
            "kron_all",
        ),
    ),
    Group("rmatrix.r_bb", "rmatrix", ("r_bb",)),
    Group("rmatrix.r_felder", "rmatrix", ("r_felder",)),
    Group("rmatrix.r_slnm", "rmatrix", ("r_slnm",)),
    Group(
        "rmatrix.residual",
        "rmatrix",
        (
            "relative_residual",
            "ybe_residual",
            "dybe_residual_felder",
            "dybe_residual_slnm",
            "zero_weight_residual",
            "bb_l_operator_rll_residual",
            "felder_dynamical_l_residual",
            "slnm_reduction_residual_m1",
            "slnm_reduction_residual_n1",
        ),
    ),
    Group(
        "relations.sklyanin",
        "relations",
        ("sklyanin_coeffs", "sklyanin_coeffs_eta", "sklyanin_representation_residual"),
    ),
    Group("relations.family", "relations", ("slnm_family_coeffs",)),
    Group("relations.tv", "relations", ("tv_relations",)),
    Group(
        "ncalgebra.defect",
        "ncalgebra",
        ("rll_defect", "component_ratio", "defect_factorization_check"),
    ),
    Group("ncalgebra.l_operator", "ncalgebra", ("l_operator",), ("calls",)),
    Group("ncalgebra.reference", "ncalgebra", ("relation_vectors_reference",)),
    Group("ncalgebra.span", "ncalgebra", ("span_rank", "span_equal", "span_gap")),
)


def svd_gflop(shape: tuple[int, ...], is_complex: bool, compute_uv: bool, full: bool) -> float:
    """Operation count of ``numpy.linalg.svd`` computed from the shape, in 1e9 flops.

    Golub and Van Loan's counts for an l x k matrix with l >= k:
    4 l k^2 - 4 k^3 / 3 for singular values only, 14 l k^2 + 8 k^3 with
    thin singular vectors, 4 l^2 k + 8 l k^2 + 9 k^3 with full ones.
    Complex arithmetic counts four real flops; stacked matrices multiply.
    """
    *batch, rows, cols = shape
    big, small = max(rows, cols), min(rows, cols)
    if not compute_uv:
        flops = 4 * big * small**2 - 4 * small**3 / 3
    elif full:
        flops = 4 * big**2 * small + 8 * big * small**2 + 9 * small**3
    else:
        flops = 14 * big * small**2 + 8 * small**3
    for b in batch:
        flops *= b
    return flops * (4 if is_complex else 1) / 1e9


def _counting_svd(tracer: Tracer, svd: Callable) -> Callable:
    @functools.wraps(svd)
    def counted(a, full_matrices=True, compute_uv=True, hermitian=False):
        import numpy as np

        arr = np.asarray(a)
        tracer.count(SVD_CALLS)
        tracer.count(
            SVD_GFLOP,
            svd_gflop(arr.shape, np.iscomplexobj(arr), compute_uv, full_matrices),
        )
        return svd(
            a, full_matrices=full_matrices, compute_uv=compute_uv, hermitian=hermitian
        )

    return counted


@dataclass
class Installed:
    """What :func:`install` patched, and which wrapped names it did not find."""

    spans: set
    missing: list[str]
    _restore: list[tuple[object, str, object]]

    def restore(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()


def install(tracer: Tracer, package: str = "ellrmx", groups=GROUPS) -> Installed:
    """Wrap every function of ``groups`` in every module of ``package`` that
    binds it, plus ``numpy.linalg.svd`` as a counter.

    A function is looked up by name in the module that defines it; a name
    that is not there is listed in ``missing`` and its span is left out.
    """
    modules = [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == package or n.startswith(package + "."))
    ]
    done = Installed(set(), [], [])
    for group in groups:
        home = sys.modules.get(f"{package}.{group.module}")
        for fname in group.functions:
            original = getattr(home, fname, None)
            if not callable(original):
                done.missing.append(f"{group.module}.{fname}")
                continue
            traced = tracer.wrap(original, group.span, group.observe)
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is original]:
                    setattr(mod, attr, traced)
                    done._restore.append((mod, attr, original))
            done.spans.add(group.span)
    linalg = sys.modules.get("numpy.linalg")
    if linalg is not None and callable(getattr(linalg, "svd", None)):
        done._restore.append((linalg, "svd", linalg.svd))
        linalg.svd = _counting_svd(tracer, linalg.svd)
    else:
        done.missing.append("numpy.linalg.svd")
    return done


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, done: Installed, trials: int, null_trials: int
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced pass as ``name -> (value, unit)``.

    A metric whose wrapped functions were all missing is absent.
    """
    summary = tracer.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    out: dict[str, tuple[float, str]] = {}
    if CHECK_GROUP.span in done.spans:
        for check in CHECK_NAMES:
            out[f"checks.{check}.s"] = (summary.get(f"checks.{check}", empty)["total_s"], "s")
    out["checks.trials"] = (trials, "count")
    out["checks.null_trials"] = (null_trials, "count")
    out["checks.null_frac"] = (_ratio(null_trials, trials), "ratio")
    for group in GROUPS:
        if group.span not in done.spans:
            continue
        row = summary.get(group.span, empty)
        for metric in group.metrics:
            out[f"{group.span}.{metric}"] = (row[metric], "count" if metric == "calls" else "s")
    spans = done.spans
    if "sampling.admissible" in spans:
        accepted = tracer.counter(ACCEPTED)
        calls = summary.get("sampling.admissible", empty)["calls"]
        out["sampling.accept_ratio"] = (_ratio(accepted, calls), "ratio")
    out["elliptic.pole_errors"] = (tracer.counter("PoleProximityError"), "count")
    if "relations.family" in spans:
        raised = tracer.counter("DegenerateRelationError", "relations.family")
        calls = summary.get("relations.family", empty)["calls"]
        out["relations.family.degenerate_ratio"] = (_ratio(raised, calls), "ratio")
    if "ncalgebra.span" in spans and "numpy.linalg.svd" not in done.missing:
        out["ncalgebra.span.svd_calls"] = (tracer.counter(SVD_CALLS, "ncalgebra.span"), "count")
        out["ncalgebra.span.svd_gflop"] = (
            tracer.counter(SVD_GFLOP, "ncalgebra.span"),
            "gflop_computed",
        )
    return out
