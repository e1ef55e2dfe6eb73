"""Per-layer spans and counts for genuscenter, installed from outside.

The tracer replaces public entry points of each layer with wrappers.  A
function that other modules import by name is replaced in every loaded
``genuscenter`` module that binds it, so calls through ``center`` see the
wrapper as well as calls inside the defining module.  A name that does
not exist (a later version removed it) is listed in ``absent`` and its
metrics read 0; so is a probe that no longer finds an attribute it reads.

Spans (layers L1-L5 and set-up) record calls, inclusive seconds ``.s``
(outermost call of a name only) and self seconds ``.self_s`` (the span
minus its child spans and scalar time).  L0 scalar operations are counted
without spans: only the outermost one of a nest is timed, and that time
goes to ``exactnum.cyc.self_s`` and out of the enclosing span's self time.
So the self times and ``exactnum.cyc.self_s`` partition the traced time.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

SPAN, COUNT, SCALAR = "span", "count", "scalar"


def _scale_probe(tracer, args, _token, _result):
    rows = args[0].data
    tracer.add("exactnum.matrix_scale.entries", sum(len(r) for r in rows))
    tracer.add("exactnum.matrix_scale.nonzero", sum(not v.is_zero() for r in rows for v in r))


def _echelon_probe(tracer, args, _token, _result):
    m = args[0]
    tracer.top("exactnum.echelon.max_cells", m.rows * m.cols)


def _cache_size(args):
    return len(getattr(args[0], "_cache", ()))


def _op_map_probe(tracer, args, size_before, _result):
    # A miss stores the new map (and any tree lists) in spec._cache.
    if _cache_size(args) == size_before:
        tracer.add("trees.op_map.hits", 1)


def _tube_probe(tracer, _args, _token, result):
    tracer.top("center.tube_algebra.dim", result.dim)


def _find_idempotents_probe(tracer, args, _token, _result):
    tracer.top("algebra.decompose.field_order", args[2])


_CYC_TIMED = ("__sub__", "__rsub__", "__neg__", "__truediv__", "__rtruediv__", "__pow__",
              "__eq__", "conjugate", "galois")

# (module, attribute, kind, metric name, probe, before-call probe)
TARGETS = [
    ("exactnum", "Cyclotomic.__mul__", SCALAR, "exactnum.cyc_mul", None, None),
    ("exactnum", "Cyclotomic.__rmul__", SCALAR, "exactnum.cyc_mul", None, None),
    ("exactnum", "Cyclotomic.__add__", SCALAR, "exactnum.cyc_add", None, None),
    ("exactnum", "Cyclotomic.__radd__", SCALAR, "exactnum.cyc_add", None, None),
    ("exactnum", "Cyclotomic.inverse", SCALAR, "exactnum.cyc_inverse", None, None),
    ("exactnum", "Cyclotomic.lift", SCALAR, "exactnum.cyc_lift", None, None),
    *[("exactnum", f"Cyclotomic.{m}", SCALAR, "exactnum.cyc_other", None, None)
      for m in _CYC_TIMED],
    ("exactnum", "_echelon", SPAN, "exactnum.echelon", _echelon_probe, None),
    ("exactnum", "ExactMatrix.__matmul__", SPAN, "exactnum.matmul", None, None),
    ("exactnum", "ExactMatrix.scale", COUNT, "exactnum.matrix_scale", _scale_probe, None),
    ("trees", "Morphism.apply", SPAN, "trees.apply", None, None),
    ("trees", "Morphism.apply_coupon", SPAN, "trees.apply_coupon", None, None),
    ("trees", "Morphism.compose", COUNT, "trees.compose", None, None),
    ("trees", "_op_map", COUNT, "trees.op_map", _op_map_probe, _cache_size),
    ("center", "_contract", SPAN, "center.contract", None, None),
    ("center", "_create", SPAN, "center.create", None, None),
    ("center", "_apply_gamma", SPAN, "center.apply_gamma", None, None),
    ("center", "tube_algebra", SPAN, "center.tube_algebra", _tube_probe, None),
    ("center", "induced_half_braidings", SPAN, "center.induced_half_braidings", None, None),
    ("center", "verify_sigma_pair", SPAN, "center.verify_sigma_pair", None, None),
    ("center", "project_morphism", SPAN, "center.project_morphism", None, None),
    ("algebra", "decompose", SPAN, "algebra.decompose", None, None),
    ("algebra", "center_basis", SPAN, "algebra.center_basis", None, None),
    ("algebra", "_find_idempotents", COUNT, "algebra.find_idempotents",
     _find_idempotents_probe, None),
    ("algebra", "_match_orbit", SPAN, "algebra.match_orbit", None, None),
    ("algebra", "_krylov_minpoly", SPAN, "algebra.krylov_minpoly", None, None),
    ("catalog", "builtin", SPAN, "catalog.builtin", None, None),
]


class Tracer:
    """Holds the counts and times of one process; ``install`` patches genuscenter."""

    def __init__(self):
        self.values = defaultdict(int)
        self.absent: set[str] = set()
        self._stack = [[0.0, 0.0]]  # [start, time covered by children]
        self._active = defaultdict(int)
        self._in_scalar = [False]

    def add(self, key: str, amount) -> None:
        self.values[key] += amount

    def top(self, key: str, value) -> None:
        self.values[key] = max(self.values[key], value)

    def _wrap(self, fn, kind, name, probe, before):
        perf = time.perf_counter
        values, stack, active = self.values, self._stack, self._active
        calls_key, errors_key = f"{name}.calls", f"{name}.errors"
        incl_key, self_key = f"{name}.s", f"{name}.self_s"
        in_scalar = self._in_scalar

        if kind == SCALAR:
            def scalar(*args, **kwargs):
                values[calls_key] += 1
                if in_scalar[0]:
                    return fn(*args, **kwargs)
                in_scalar[0] = True
                start = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf() - start
                    in_scalar[0] = False
                    values["exactnum.cyc.self_s"] += elapsed
                    stack[-1][1] += elapsed
            return scalar

        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            values[calls_key] += 1
            if kind == SPAN:
                frame = [perf(), 0.0]
                stack.append(frame)
                active[name] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                values[errors_key] += 1
                raise
            finally:
                if kind == SPAN:
                    elapsed = perf() - frame[0]
                    stack.pop()
                    active[name] -= 1
                    if not active[name]:
                        values[incl_key] += elapsed
                    values[self_key] += elapsed - frame[1]
                    stack[-1][1] += elapsed
            if probe:
                # Probe time is taken out of the enclosing span's self time.
                start = perf()
                try:
                    probe(self, args, token, result)
                except AttributeError as exc:
                    self.absent.add(f"{name} probe: {exc}")
                stack[-1][1] += perf() - start
            return result
        return wrapper

    def install(self) -> None:
        """Patch every target; call after importing genuscenter.cli."""
        for module_name, attr, kind, name, probe, before in TARGETS:
            try:
                module = importlib.import_module(f"genuscenter.{module_name}")
            except ModuleNotFoundError:
                self.absent.add(f"{module_name}.{attr}")
                continue
            loaded = [m for k, m in sys.modules.items() if k.startswith("genuscenter.")]
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, member, None) if owner is not None else None
            if original is None:
                self.absent.add(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(original, kind, name, probe, before)
            if owner_name:
                setattr(owner, member, wrapped)
                continue
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
