"""Spans around gramkit's public functions, recorded from outside the package.

The tracer replaces each wrapped function by a timing wrapper in every
gramkit module that holds it, because the package imports functions by name
(``cli`` calls its own ``finite_horizon_gramian`` binding, not the one in
``gramian``).  ``restore`` puts the originals back.

A span's self time is its duration minus the part covered by its child
spans.  Counts are kept per layer name; full span records are kept only for
the ops the caller asks for, so memory stays flat over a long run.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (layer name, module, function name).  The four entropy-chain functions
# share one layer, and the finite-horizon Gramian is split by method.
WRAPPED = [
    ("cli.main", "cli", "main"),
    ("entropy", "entropy", "fisher_dual_determinant"),
    ("entropy", "entropy", "gaussian_entropy_from_fim"),
    ("entropy", "entropy", "nats_to_bits"),
    ("entropy", "entropy", "thermodynamic_entropy"),
    ("gramian.finite_horizon_gramian", "gramian", "finite_horizon_gramian"),
    ("gramian.infinite_horizon_gramian_lyapunov", "gramian", "infinite_horizon_gramian_lyapunov"),
    ("gramian.oscillator_gramian_closed_form", "gramian", "oscillator_gramian_closed_form"),
    ("gramian.gramian_spectrum", "gramian", "gramian_spectrum"),
    ("gramian.gramian_determinant", "gramian", "gramian_determinant"),
    ("energy.synthesize_min_energy_control", "energy", "synthesize_min_energy_control"),
    ("energy.verify_control", "energy", "verify_control"),
    ("energy.min_control_energy", "energy", "min_control_energy"),
    ("lti.oscillator_expm", "lti", "oscillator_expm"),
    ("lti.matrix_exponential", "lti", "matrix_exponential"),
    ("lti.expm_scaling_squaring", "lti", "expm_scaling_squaring"),
    ("lti.simulate", "lti", "simulate"),
    ("lti.controllability_rank", "lti", "controllability_rank"),
]

FINITE = "gramian.finite_horizon_gramian"
FINITE_METHODS = ("augmented_expm", "quadrature")

LAYERS: list[str] = []
for _layer, _, _ in WRAPPED:
    for _name in [f"{_layer}.{m}" for m in FINITE_METHODS] if _layer == FINITE else [_layer]:
        if _name not in LAYERS:
            LAYERS.append(_name)

SQUARINGS = "lti.expm_scaling_squaring.squarings"
UNTRACED = "op.untraced_ms"


def per_layer_metric_names() -> list[str]:
    names = []
    for layer in LAYERS:
        names += [f"{layer}.self_ms", f"{layer}.calls"]
    return names + [SQUARINGS, UNTRACED]


class Tracer:
    """Installs timing wrappers and accumulates self time and call counts."""

    def __init__(self, gramkit_package) -> None:
        self._package = gramkit_package
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [span index or None, child ns]
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.squarings = 0
        self.covered_ns = 0
        self.spans: list[tuple] | None = None  # (id, parent, name, start, end)

    def _modules(self) -> list[object]:
        pkg = self._package
        return [pkg] + [getattr(pkg, m) for m in ("cli", "energy", "entropy", "gramian", "lti")]

    def install(self) -> None:
        for layer, module, attr in WRAPPED:
            original = getattr(getattr(self._package, module), attr)
            wrapper = self._wrap(layer, original)
            for mod in self._modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def restore(self) -> None:
        for mod, key, value in reversed(self._patched):
            setattr(mod, key, value)
        self._patched.clear()

    def _wrap(self, layer: str, fn):
        tracer = self
        finite = layer == FINITE
        squaring = layer == "lti.expm_scaling_squaring"

        def wrapper(*args, **kwargs):
            name = layer
            if finite:
                method = kwargs.get("method", args[2] if len(args) > 2 else "augmented_expm")
                name = f"{layer}.{method}"
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            span_id = None
            if tracer.spans is not None:
                span_id = len(tracer.spans)
                tracer.spans.append(None)
            frame = [span_id, 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - start
                tracer.self_ns[name] += duration - frame[1]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                else:
                    tracer.covered_ns += duration
                if span_id is not None:
                    tracer.spans[span_id] = (span_id, parent, name, start, end)
            if squaring:
                tracer.squarings += result.squarings
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def metrics(self, ops: int, op_ns: int) -> dict[str, float]:
        """Per-op averages over ``ops`` ops that took ``op_ns`` in total."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = self.self_ns[layer] / ops / 1e6
            out[f"{layer}.calls"] = self.calls[layer] / ops
        out[SQUARINGS] = self.squarings / ops
        out[UNTRACED] = (op_ns - self.covered_ns) / ops / 1e6
        return out
