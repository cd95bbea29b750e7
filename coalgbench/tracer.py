"""Outside-in tracing of coalgkit's public entry points.

The tracer wraps functions from the benchmark's side: it replaces each
traced name in every ``coalgkit.*`` namespace that bound it (``from
.exactlin import kernel`` copies the name at import time) and on the
three traced methods.  Nothing inside the library changes.  Each wrapper
counts calls, measures self time (its duration minus that of traced calls
made beneath it) and, for a few functions, the sizes of the matrices that
pass through.  Hot leaf helpers such as ``rational`` are deliberately not
wrapped: their call counts run into the millions.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# layer -> traced function names, in report order
LAYERS = {
    "exactlin": [
        "kernel",
        "span",
        "solve",
        "factor_through",
        "cokernel",
        "subspace_sum",
        "subspace_intersect",
        "solve_matrix_equations",
        "kron",
        "matmul",
    ],
    "coalgebra": [
        "validate_coalgebra",
        "coalgebra_map_check",
        "coradical",
        "wedge_power",
        "wedge_filtration",
        "subcoalgebra_on",
    ],
    "bicomodule": [
        "validate_bicomodule",
        "cotensor",
        "cotensor_tower",
        "induced_on_cokernel",
        "bicomodule_map_check",
    ],
    "cohomology": [
        "differential_matrix",
        "differential",
        "cohomology",
        "hochschild_extension",
        "trivialize_extension",
        "is_coseparable",
        "is_I_injective",
        "is_formally_smooth",
    ],
    "cotensor": [
        "build_truncated",
        "build_iterative",
        "graded_cocycle",
        "wedge_recovery_check",
        "graded_limit_check",
        "component_formula_check",
        "universal_map",
    ],
    "quiver": ["parse_quiver", "deconcatenation_oracle", "oracle_compare"],
    "serialize": ["load_json", "dumps", "matrix_from_obj", "matrix_to_obj", "truncated_from_obj"],
    "cli": ["main"],
}

# traced names that are not module-level functions of the same name
ATTRIBUTES = {
    ("exactlin", "span"): "Subspace.span",
    ("exactlin", "kron"): "Matrix.kron",
    ("exactlin", "matmul"): "Matrix.__mul__",
    ("coalgebra", "coalgebra_map_check"): "CoalgebraMap.__post_init__",
    ("bicomodule", "bicomodule_map_check"): "BicomoduleMap.__post_init__",
}

# size and count metrics beyond calls and self time: name -> unit
EXTRA_METRICS = {
    "exactlin.kernel.nnz_in": "count",
    "exactlin.kernel.max_bits_in": "bits",
    "exactlin.kernel.max_bits_out": "bits",
    "exactlin.solve.nnz_in": "count",
    "exactlin.solve.max_bits_out": "bits",
    "exactlin.span.vectors_in": "count",
    "exactlin.kron.nnz_out": "count",
    "exactlin.kron.eye_calls": "count",
    "exactlin.kron.eye_nnz_out": "count",
    "exactlin.matmul.nnz_out": "count",
    "exactlin.solve_matrix_equations.residual_calls": "count",
    "bicomodule.cotensor.distinct_ratio": "ratio",
    "cohomology.differential_matrix.nnz_out": "count",
    "serialize.load_json.bytes": "bytes",
    "serialize.dumps.bytes": "bytes",
}


def metric_units() -> dict:
    """Every per-layer metric name the tracer reports, with its unit."""
    units = {}
    for layer, names in LAYERS.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


def _max_bits(values) -> int:
    best = 0
    for v in values:
        b = max(v.numerator.bit_length(), v.denominator.bit_length())
        if b > best:
            best = b
    return best


def _is_identity(m) -> bool:
    return (
        m.rows == m.cols
        and len(m.data) == m.rows
        and all(i == j and v == 1 for (i, j), v in m.data.items())
    )


class Tracer:
    """Install with :meth:`install`, read with :meth:`metrics`, remove with :meth:`uninstall`."""

    def __init__(self):
        self.stats = defaultdict(float)
        self._stack = []  # one [child_seconds] cell per active traced call
        self._undo = []  # (owner, attribute, original descriptor)
        self._cotensor_args = set()

    # -- per-function hooks --------------------------------------------------

    def _pre_span(self, args, kwargs):
        # Subspace.span(cls, ambient_dim, vectors): vectors may be a generator
        if len(args) != 3:
            return args, kwargs  # a call shape this tracer does not know: not counted
        cls, ambient, vectors = args
        vectors = list(vectors)
        self.stats["exactlin.span.vectors_in"] += len(vectors)
        return (cls, ambient, vectors), kwargs

    def _pre_residual(self, args, kwargs):
        if len(args) != 2:
            return args, kwargs
        shape, residual_fn = args

        def counted(x):
            self.stats["exactlin.solve_matrix_equations.residual_calls"] += 1
            return residual_fn(x)

        return (shape, counted), kwargs

    def _post_kernel(self, args, out):
        f = args[0]
        s = self.stats
        s["exactlin.kernel.nnz_in"] += len(f.data)
        s["exactlin.kernel.max_bits_in"] = max(s["exactlin.kernel.max_bits_in"], _max_bits(f.data.values()))
        s["exactlin.kernel.max_bits_out"] = max(
            s["exactlin.kernel.max_bits_out"], _max_bits(out.basis.data.values())
        )

    def _post_solve(self, args, out):
        a, b = args
        s = self.stats
        s["exactlin.solve.nnz_in"] += len(a.data) + len(b.data)
        if out is not None:
            s["exactlin.solve.max_bits_out"] = max(
                s["exactlin.solve.max_bits_out"], _max_bits(out.data.values())
            )

    def _post_kron(self, args, out):
        s = self.stats
        s["exactlin.kron.nnz_out"] += len(out.data)
        if _is_identity(args[0]) or _is_identity(args[1]):
            s["exactlin.kron.eye_calls"] += 1
            s["exactlin.kron.eye_nnz_out"] += len(out.data)

    def _post_matmul(self, args, out):
        if out is not NotImplemented:
            self.stats["exactlin.matmul.nnz_out"] += len(out.data)

    def _post_cotensor(self, args, out):
        self._cotensor_args.add(hash((args[0], args[1])))

    def _post_differential_matrix(self, args, out):
        self.stats["cohomology.differential_matrix.nnz_out"] += len(out.data)

    def _post_load_json(self, args, out):
        self.stats["serialize.load_json.bytes"] += os.path.getsize(args[0])

    def _post_dumps(self, args, out):
        self.stats["serialize.dumps.bytes"] += len(out)

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, key, fn, pre=None, post=None):
        stats = self.stats
        stack = self._stack
        calls_key = f"{key}.calls"
        self_key = f"{key}.self_s"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            cell = [0.0]
            stack.append(cell)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stats[calls_key] += 1
                stats[self_key] += (t1 - t0) - cell[0]
                if stack:
                    stack[-1][0] += t1 - t0
            if post is not None:
                post(args, out)
                if stack:
                    # size bookkeeping is tracing cost, not the caller's self time
                    stack[-1][0] += clock() - t1
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def install(self):
        """Wrap every traced entry point of the imported coalgkit modules."""
        hooks = {
            ("exactlin", "span"): (self._pre_span, None),
            ("exactlin", "solve_matrix_equations"): (self._pre_residual, None),
            ("exactlin", "kernel"): (None, self._post_kernel),
            ("exactlin", "solve"): (None, self._post_solve),
            ("exactlin", "kron"): (None, self._post_kron),
            ("exactlin", "matmul"): (None, self._post_matmul),
            ("bicomodule", "cotensor"): (None, self._post_cotensor),
            ("cohomology", "differential_matrix"): (None, self._post_differential_matrix),
            ("serialize", "load_json"): (None, self._post_load_json),
            ("serialize", "dumps"): (None, self._post_dumps),
        }
        namespaces = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "coalgkit" or name.startswith("coalgkit."))
        ]
        for layer, names in LAYERS.items():
            module = sys.modules.get(f"coalgkit.{layer}")
            if module is None:
                continue
            for name in names:
                pre, post = hooks.get((layer, name), (None, None))
                path = ATTRIBUTES.get((layer, name))
                key = f"{layer}.{name}"
                if path is None:
                    original = getattr(module, name, None)
                    if original is None:
                        continue  # renamed or removed: reported as zero
                    wrapper = self._wrap(key, original, pre, post)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is original:
                                self._replace(ns, attr, wrapper)
                else:
                    cls_name, attr = path.split(".")
                    cls = getattr(module, cls_name, None)
                    descriptor = None if cls is None else vars(cls).get(attr)
                    if descriptor is None:
                        continue
                    if isinstance(descriptor, classmethod):
                        wrapper = classmethod(self._wrap(key, descriptor.__func__, pre, post))
                    else:
                        wrapper = self._wrap(key, descriptor, pre, post)
                    self._replace(cls, attr, wrapper)

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict:
        """Every per-layer metric, zero where the layer was not reached."""
        out = {name: 0 for name in metric_units()}
        out.update(self.stats)
        for layer, names in LAYERS.items():
            out[f"{layer}.self_s"] = sum(out[f"{layer}.{n}.self_s"] for n in names)
        calls = out["bicomodule.cotensor.calls"]
        out["bicomodule.cotensor.distinct_ratio"] = (
            len(self._cotensor_args) / calls if calls else 0.0
        )
        return out
