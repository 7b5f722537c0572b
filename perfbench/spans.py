"""Outside-in tracing of coarsek's public functions.

``Tracer.install()`` wraps every traced function in every ``coarsek``
module namespace that binds it (the library imports names with
``from .operator import opnorm``, so patching only the defining module
would miss most calls) and the two traced ``FiniteOperator`` methods on
the class.  ``uninstall()`` restores the originals.  Untraced runs never
construct a ``Tracer``.

Spans ``(name, start, end, parent)`` are kept in memory and written out
by ``write_jsonl``.  Self time is a span's duration minus the durations
of its direct children; calls are synchronous on one thread, so children
never overlap.
"""

import functools
import json
import sys
import time

TRACED = [
    "geometry.discretize", "geometry.decompose", "geometry.neighborhood",
    "operator.opnorm", "operator.support", "operator.propagation",
    "operator.block_abs_max", "operator.restrict", "operator.direct_sum",
    "operator.FiniteOperator.__matmul__", "operator.FiniteOperator.concrete",
    "generators.random_banded", "generators.random_region_supported",
    "generators.random_quasi_projection", "generators.banded_near_unitary",
    "controlled.verify_certificate", "controlled.projection_defect",
    "controlled.unitary_defects", "controlled.herm_defect",
    "controlled.is_quasi_projection", "controlled.kappa_even",
    "controlled.k0_points",
    "coarse.delta_cover", "coarse.ad", "coarse.rotation_homotopy",
    "coarse.homotopy_invariance_certificate",
    "coarse.concatenate_certificates",
    "mv.coercive_split", "mv.cia_midpoint", "mv.verify_weak_mv_pair",
    "mv.clutching_projection", "mv.local_index",
    "paths.eventual_propagation", "paths.trim",
    "serialize.dumps_space", "serialize.loads_space", "serialize.space_hash",
    "serialize.dumps_operator", "serialize.loads_operator",
    "serialize.dumps_certificate", "serialize.loads_certificate",
    "serialize.atomic_write",
    "cli.main",
]

CERTIFICATE_BUILDERS = ("coarse.rotation_homotopy",
                        "coarse.homotopy_invariance_certificate")

# name -> (unit, better); per-function .calls/.self_s are added below
COUNTS = {
    "operator.opnorm.max_dim": ("count", "lower"),
    "operator.opnorm.n3_sum": ("count-computed", "lower"),
    "generators.random_banded.kept_fraction": ("ratio", "higher"),
    "generators.random_quasi_projection.attempts_per_result": ("ratio", "lower"),
    "coarse.certificate.samples": ("count", "lower"),
    "coarse.certificate.opnorm_per_sample": ("ratio", "lower"),
    "serialize.bytes_written": ("B", "lower"),
    "serialize.bytes_read": ("B", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def exact_counts(metrics):
    """The per-layer metrics that must repeat exactly for a fixed seed."""
    return {k: v for k, v in metrics.items()
            if not k.endswith("_s") and k != "trace.overhead_ratio"}


def per_layer_units():
    """Every per-layer metric name with its (unit, better)."""
    out = {}
    for name in TRACED:
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
    out.update(COUNTS)
    return out


def ratio(a, b):
    return a / b if b else 0.0


def _dim(op):
    shape = getattr(op, "shape", None)
    return int(shape[-1]) if shape is not None else int(op.dim)


class Tracer:
    def __init__(self):
        self.spans = []            # (name, start, end, parent index or -1)
        self.calls = dict.fromkeys(TRACED, 0)
        self.self_s = dict.fromkeys(TRACED, 0.0)
        self.active = dict.fromkeys(TRACED, 0)
        self.stack = []            # [span index, child seconds]
        self.opnorm_max_dim = 0
        self.opnorm_n3_sum = 0
        self.banded_kept = 0
        self.banded_drawn = 0
        self.near_unitary_in_qp = 0
        self.qp_results = 0
        self.cert_samples = 0
        self.cert_opnorms = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self.root_s = 0.0          # time covered by spans without a parent
        self._patched = []

    # -- installation --------------------------------------------------

    def install(self):
        import coarsek
        modules = [m for k, m in sys.modules.items()
                   if k == "coarsek" or k.startswith("coarsek.")]
        for name in TRACED:
            mod_name, _, attr = name.partition(".")
            owner = getattr(coarsek, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, target, key, original, wrapper):
        setattr(target, key, wrapper)
        self._patched.append((target, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._patched):
            setattr(target, key, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(name, fn, args, kwargs)
        return traced

    # -- recording -----------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        parent = self.stack[-1][0] if self.stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append([index, 0.0])
        self.active[name] += 1
        self._before(name, args)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.active[name] -= 1
            _, child_s = self.stack.pop()
            dur = end - start
            self.spans[index] = (name, start, end, parent)
            self.calls[name] += 1
            self.self_s[name] += dur - child_s
            if self.stack:
                self.stack[-1][1] += dur
            else:
                self.root_s += dur
        self._after(name, args, result)
        return result

    def _before(self, name, args):
        if name == "operator.opnorm":
            n = _dim(args[0])
            self.opnorm_max_dim = max(self.opnorm_max_dim, n)
            self.opnorm_n3_sum += n ** 3
            if any(self.active[b] for b in CERTIFICATE_BUILDERS):
                self.cert_opnorms += 1
        elif name == "generators.banded_near_unitary":
            if self.active["generators.random_quasi_projection"]:
                self.near_unitary_in_qp += 1
        elif name.startswith("serialize.loads_") and self._no_outer_serialize(name):
            self.bytes_read += len(args[0])

    def _after(self, name, args, result):
        if name == "generators.random_banded":
            n = result.entries.shape[0]
            self.banded_kept += int((result.entries != 0).sum())
            self.banded_drawn += n * n
        elif name == "generators.random_quasi_projection":
            self.qp_results += 1
        elif name == "coarse.rotation_homotopy":
            self.cert_samples += len(result.samples)
        elif name == "coarse.homotopy_invariance_certificate":
            self.cert_samples += len(result[0].samples)
        elif name.startswith("serialize.dumps_") and self._no_outer_serialize(name):
            self.bytes_written += len(result)

    def _no_outer_serialize(self, name):
        """True when no serialize call other than this one is running, so
        text nested in a certificate or a space hash is counted once."""
        return sum(self.active[n] for n in TRACED
                   if n.startswith("serialize.")) == (1 if self.active[name] else 0)

    # -- results -------------------------------------------------------

    def metrics(self, op_wall_s, traced_p50, untraced_p50):
        """Per-layer metrics over the traced ops; ``op_wall_s`` is the sum
        of their wall times."""
        out = {}
        for name in TRACED:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out["operator.opnorm.max_dim"] = self.opnorm_max_dim
        out["operator.opnorm.n3_sum"] = self.opnorm_n3_sum
        out["generators.random_banded.kept_fraction"] = ratio(
            self.banded_kept, self.banded_drawn)
        out["generators.random_quasi_projection.attempts_per_result"] = ratio(
            self.near_unitary_in_qp, self.qp_results)
        out["coarse.certificate.samples"] = self.cert_samples
        out["coarse.certificate.opnorm_per_sample"] = ratio(
            self.cert_opnorms, self.cert_samples)
        out["serialize.bytes_written"] = self.bytes_written
        out["serialize.bytes_read"] = self.bytes_read
        out["trace.unattributed_s"] = op_wall_s - self.root_s
        out["trace.overhead_ratio"] = ratio(traced_p50, untraced_p50)
        return out

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
