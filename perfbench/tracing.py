"""Span recording around modnet's layers, installed from outside.

The traced worker wraps public functions of each modnet module (the
layers) and the numpy/scipy LAPACK entry points beneath them (the
``kernel`` pseudo-layer).  Nothing under ``src/`` changes: the wrappers
replace module and class attributes in the worker process only.

A span is (id, name, start, end, parent id, op); ``op`` is the label of
the command whose ``cli.run_command`` call the span belongs to.  A
span's self time is its duration minus the part of its interval that
its child spans cover.

Kernel flop counts are computed from the argument shapes, not measured
(p = max(m, n), q = min(m, n); complex inputs count 4x; stacked inputs
multiply by the stack size):

    svd, vectors (also null_space, full U)   4 p^2 q + 8 p q^2 + 9 q^3
    svd, values only (also norm(., 2))       4 p q^2 - 4 q^3 / 3
    eigh (n x n, vectors)                    9 n^3
    eigvalsh (n x n)                         4 n^3 / 3
    solve (n x n, k right-hand sides)        2 n^3 / 3 + 2 n^2 k
    qr (m x n, reduced Q and R)              4 m n^2 - 4 n^3 / 3
    subspace_angles (A m x p, B m x q)       svd vectors of A and of B
                                             + 2 svd values of p x q
                                             + 4 m p q
"""

import functools
import json
import time
import warnings

# layers with spans; spacetime is only counted (REGION_COUNTER)
LAYERS = ("cli", "bgl", "stdspace", "reps", "mobius", "fock", "kernel")

# (layer, owner path inside modnet, attribute); "Class.attr" wraps a
# method on the class
LAYER_FUNCTIONS = (
    ("cli", "cli", "run_command"),
    ("cli", "cli", "write_report"),
    ("bgl", "bgl", "NetModel.__init__"),
    ("bgl", "bgl", "NetModel.wedge_subspace"),
    ("bgl", "bgl", "NetModel.wedge_modular"),
    ("bgl", "bgl", "NetModel.wedge_flow"),
    ("bgl", "bgl", "NetModel.unit_matrix_of"),
    ("bgl", "bgl", "NetModel.region_subspace_dual"),
    ("bgl", "bgl", "axioms_report"),
    ("bgl", "bgl", "reconstruct_ur"),
    ("bgl", "bgl", "counterexample_bw"),
    ("bgl", "bgl", "lightcone_separating_study"),
    ("stdspace", "stdspace", "intersect"),
    ("stdspace", "stdspace", "sum_closure"),
    ("stdspace", "stdspace", "symplectic_complement"),
    ("stdspace", "stdspace", "subspace_distance"),
    ("stdspace", "stdspace", "standardness"),
    ("stdspace", "stdspace", "modular_data"),
    ("stdspace", "stdspace", "subspace_from_modular"),
    ("stdspace", "stdspace", "ModularData.__init__"),
    ("stdspace", "stdspace", "ModularData.delta_it"),
    ("stdspace", "stdspace", "symmetry_commutation_check"),
    ("stdspace", "stdspace", "RealSubspace.transform"),
    ("reps", "reps", "build_rep"),
    ("reps", "reps", "apply"),
    ("mobius", "mobius", "commutation_residual"),
    ("mobius", "mobius", "MobiusElement.compose"),
    ("mobius", "mobius", "MobiusElement.act_angle"),
    ("mobius", "mobius", "CoverElement.compose"),
    ("fock", "fock", "weyl_reduce"),
    ("fock", "fock", "vacuum_expectation"),
    ("fock", "fock", "exponential_vector"),
    ("fock", "fock", "gamma_apply"),
    ("fock", "fock", "second_quantized_tomita_check"),
    ("fock", "fock", "locality_commutation_check"),
)

# span names: intersect is split by method
SPAN_NAMES = tuple(
    name
    for layer, module, attr in LAYER_FUNCTIONS
    for name in ((f"{layer}.{attr}.exact", f"{layer}.{attr}.halperin")
                 if attr == "intersect" else (f"{layer}.{attr}",)))

KERNEL_OPS = ("svd", "null_space", "eigh", "eigvalsh", "solve", "qr",
              "norm2", "subspace_angles")

# counted without a span: their time stays with the caller
REGION_COUNTER = "spacetime.Region"
CONDITIONING_COUNTER = "stdspace.subspace_from_modular.conditioning_warnings"
NONCONVERGENCE_COUNTER = "stdspace.intersect.halperin.nonconvergence"
COUNTERS = (REGION_COUNTER, CONDITIONING_COUNTER, NONCONVERGENCE_COUNTER)


class SpanRecorder:
    """In-memory spans of one single-threaded pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [id, name, start, end, parent, op]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.gflop = dict.fromkeys(KERNEL_OPS, 0.0)
        self.op = None
        self._stack = []

    def open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, self.clock(), None, parent, self.op])
        self._stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid][3] = self.clock()
        self._stack.pop()

    def write_jsonl(self, path, origin=0.0):
        """Write one JSON object per span, times relative to ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent, "op": op}))
                fh.write("\n")


def self_times(spans):
    """Per-span self time: duration minus the union its children cover.

    ``spans`` are (id, name, start, end, parent, ...) sequences with ids
    equal to their list index.  Child intervals are clipped to the parent
    interval before their union is taken.
    """
    children = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append((span[2], span[3]))
    out = []
    for span in spans:
        start, end = span[2], span[3]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span[0], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def summarize(recorder):
    """Per-name calls and self time, per-layer self time, per-op time."""
    spans = recorder.spans
    selfs = self_times(spans)
    names = SPAN_NAMES + tuple(f"kernel.{op}" for op in KERNEL_OPS)
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(calls, 0.0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    op_s = {}
    misses = 0
    for span, own in zip(spans, selfs):
        name = span[1]
        calls[name] += 1
        self_s[name] += own
        layer_self[name.split(".", 1)[0]] += own
        if name == "cli.run_command":
            op_s[span[5]] = op_s.get(span[5], 0.0) + (span[3] - span[2])
        elif (name == "bgl.NetModel.wedge_modular" and span[4] is not None
              and spans[span[4]][1] == "bgl.NetModel.wedge_subspace"):
            misses += 1
    return {"calls": calls, "self_s": self_s, "layer_self_s": layer_self,
            "op_s": op_s, "wedge_subspace_misses": misses,
            "self_sum_s": sum(selfs), "counters": dict(recorder.counters),
            "gflop": dict(recorder.gflop)}


# ---------------------------------------------------------------------------
# kernel flop formulas (computed from shapes)
# ---------------------------------------------------------------------------


def _shape(a):
    """(shape, is complex) of an array argument; ((), False) otherwise."""
    if not hasattr(a, "shape"):
        return (), False
    return tuple(a.shape), a.dtype.kind == "c"


def _stack(shape):
    count = 1
    for dim in shape[:-2]:
        count *= dim
    return count


def svd_flops(m, n, vectors):
    p, q = max(m, n), min(m, n)
    if vectors:
        return 4 * p * p * q + 8 * p * q * q + 9 * q ** 3
    return 4 * p * q * q - 4 * q ** 3 / 3


def _matrix_flops(op, args, kwargs):
    a = args[0] if args else None
    shape, cplx = _shape(a)
    if len(shape) < 2:
        return 0.0
    m, n = shape[-2], shape[-1]
    if op == "svd":
        vectors = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        flops = svd_flops(m, n, vectors)
    elif op == "null_space":
        flops = svd_flops(m, n, True)
    elif op == "norm2":
        flops = svd_flops(m, n, False)
    elif op == "eigh":
        flops = 9 * n ** 3
    elif op == "eigvalsh":
        flops = 4 * n ** 3 / 3
    elif op == "solve":
        b_shape, b_cplx = _shape(args[1] if len(args) > 1 else kwargs.get("b"))
        k = b_shape[-1] if len(b_shape) > 1 else 1
        cplx = cplx or b_cplx
        flops = 2 * n ** 3 / 3 + 2 * n * n * k
    elif op == "qr":
        flops = 4 * m * n * n - 4 * n ** 3 / 3
    elif op == "subspace_angles":
        b_shape, b_cplx = _shape(args[1] if len(args) > 1 else kwargs.get("B"))
        q = b_shape[-1] if len(b_shape) > 1 else 1
        cplx = cplx or b_cplx
        flops = (svd_flops(m, n, True) + svd_flops(m, q, True)
                 + 2 * svd_flops(n, q, False) + 4 * m * n * q)
    else:  # pragma: no cover - KERNEL_OPS is closed
        raise KeyError(op)
    return flops * _stack(shape) * (4 if cplx else 1) / 1e9


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------


def _resolve(root, path):
    owner = root
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _spanned(rec, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(sid)
    return wrapper


def _intersect_wrapper(rec, fn, nonconvergence):
    @functools.wraps(fn)
    def wrapper(subspaces, method="exact", *args, **kwargs):
        sid = rec.open(f"stdspace.intersect.{method}")
        try:
            return fn(subspaces, method, *args, **kwargs)
        except nonconvergence:
            rec.counters[NONCONVERGENCE_COUNTER] += 1
            raise
        finally:
            rec.close(sid)
    return wrapper


def _warning_counting_wrapper(rec, fn, category):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = rec.open("stdspace.subspace_from_modular")
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn(*args, **kwargs)
        finally:
            rec.close(sid)
        for w in caught:
            if issubclass(w.category, category):
                rec.counters[CONDITIONING_COUNTER] += 1
            warnings.warn_explicit(w.message, w.category, w.filename,
                                   w.lineno)
        return result
    return wrapper


def _counting_wrapper(rec, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counters[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _kernel_wrapper(rec, op, fn):
    name = f"kernel.{op}"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.gflop[op] += _matrix_flops(op, args, kwargs)
        sid = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(sid)
    return wrapper


def _norm_wrapper(rec, fn):
    """Only the matrix spectral norm is a kernel op (an SVD inside numpy)."""
    spectral = _kernel_wrapper(rec, "norm2", fn)

    @functools.wraps(fn)
    def wrapper(x, *args, **kwargs):
        order = args[0] if args else kwargs.get("ord")
        if (order == 2 and getattr(x, "ndim", 0) == 2
                and kwargs.get("axis") is None):
            return spectral(x, *args, **kwargs)
        return fn(x, *args, **kwargs)
    return wrapper


def install(rec, modnet_pkg):
    """Wrap every layer function and kernel entry point; return an undo.

    ``modnet_pkg`` is the imported ``modnet`` package with its modules
    loaded.  The caller sets ``rec.op`` before each command.
    """
    import numpy
    import scipy.linalg

    saved = []

    def replace(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for layer, module, path in LAYER_FUNCTIONS:
        owner, attr = _resolve(getattr(modnet_pkg, module), path)
        fn = owner.__dict__[attr]
        if path == "intersect":
            new = _intersect_wrapper(
                rec, fn, modnet_pkg.stdspace.HalperinNonConvergence)
        elif path == "subspace_from_modular":
            new = _warning_counting_wrapper(
                rec, fn, modnet_pkg.stdspace.ConditioningWarning)
        else:
            new = _spanned(rec, f"{layer}.{path}", fn)
        replace(owner, attr, new)
    region = modnet_pkg.spacetime.Region
    replace(region, "__init__", _counting_wrapper(
        rec, REGION_COUNTER, region.__dict__["__init__"]))

    for op, owner, attr in (
            ("svd", numpy.linalg, "svd"),
            ("eigh", numpy.linalg, "eigh"),
            ("eigvalsh", numpy.linalg, "eigvalsh"),
            ("qr", numpy.linalg, "qr"),
            ("null_space", scipy.linalg, "null_space"),
            ("solve", scipy.linalg, "solve"),
            ("subspace_angles", scipy.linalg, "subspace_angles")):
        replace(owner, attr, _kernel_wrapper(rec, op, getattr(owner, attr)))
    replace(numpy.linalg, "norm", _norm_wrapper(rec, numpy.linalg.norm))

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    return undo
