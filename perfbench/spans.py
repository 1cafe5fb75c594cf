"""Span tracing around the program's layer functions, from outside it.

`Tracer.installed` replaces the public functions of the six layer modules,
and the public methods of their classes, by wrappers that record one span
per call: name, start, end, parent span and op id.  Names imported into
other `multweight` modules (`from .arith import factorize`) are rebound
too, so calls between layers are seen.  A name that a later version of the
program no longer has is simply not wrapped.  Leaving the block puts the
originals back.

`layer_metrics` turns the spans of one pass into the per-layer metrics:
self time per layer, call counts, computed megabytes of returned arrays
and a few work counts.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
from contextlib import contextmanager
from fnmatch import fnmatchcase
from time import perf_counter

import numpy as np

PACKAGE = "multweight"
LAYER_MODULES = ("arith", "weights", "sampling", "limitlaws", "asympt", "permutations")

# Function name patterns ("module.function" or "module.Class.method") per
# layer; the first match wins, unmatched names go to "<module>.other".
LAYERS = [
    ("cli", ["cli.main"]),
    ("arith.spf", ["arith.build_spf"]),
    ("arith.primes", ["arith.primes_upto", "arith.primes_in", "arith.SpfTable.*"]),
    ("arith.tables", ["arith.big_omega_table", "arith.omega_table", "arith.largest_prime_table",
                      "arith.nu_p_table"]),
    ("arith.factorize", ["arith.factorize", "arith.FactorProfile.*"]),
    ("weights.table", ["weights.build_weight_table", "weights.WeightTable.*"]),
    ("weights.hypotheses", ["weights.condition_I_residuals", "weights.condition_II_margin",
                            "weights.prime_weighted_sum"]),
    ("weights.values", ["weights.evaluate_weight", "weights.MultiplicativeWeight.*"]),
    ("sampling.exact_pmf", ["sampling.exact_pmf", "sampling.exact_pmf_from_values",
                            "sampling.joint_pmf_from_values"]),
    ("sampling.sampler", ["sampling.WeightedIntegerSampler.*"]),
    ("sampling.per_draw", ["sampling.size_biased_prime", "sampling.spectrum", "sampling.LogPrimeSpectrum.*"]),
    ("sampling.pmf", ["sampling.ExactPmf.*", "sampling.empirical_pmf", "sampling.nu_p_limit_pmf"]),
    ("limitlaws.gem", ["limitlaws.gem_*", "limitlaws.pd_*", "limitlaws.stick_break*", "limitlaws.beta_sample",
                       "limitlaws.size_biased_permutation*", "limitlaws.residual_ratios"]),
    ("limitlaws.ks", ["limitlaws.ks_*", "limitlaws.tv_distance_counts"]),
    ("limitlaws.residuals", ["limitlaws.DickmanSolution.residuals"]),
    ("limitlaws.dickman", ["limitlaws.dickman_rho", "limitlaws.DickmanSolution.*"]),
    ("asympt.euler", ["asympt.euler_constant", "asympt.predict_S_ewens"]),
    ("asympt.saddle", ["asympt.solve_saddle", "asympt.G_eval", "asympt.predict_S_poly", "asympt.poly_euler_factor",
                       "asympt.sigma_leading_order", "asympt.B_constant"]),
    ("permutations.partition", ["permutations.partition_function"]),
    ("permutations.sampler", ["permutations.sample_cycle_type*", "permutations.ewens_*",
                              "permutations.feller_cycle_samples"]),
    ("permutations.enumerate", ["permutations.enumerate_Sn*", "permutations.ExactSnDistribution.*"]),
]

# Per-layer metrics reported besides <layer>.self_s for every layer.
CALLS = ("arith.spf", "weights.table", "sampling.exact_pmf", "arith.factorize", "sampling.per_draw")
MEGABYTES = ("arith.tables", "weights.table", "limitlaws.gem")


@functools.cache
def layer_of(name: str) -> str:
    for layer, patterns in LAYERS:
        if any(fnmatchcase(name, p) for p in patterns):
            return layer
    return name.split(".", 1)[0] + ".other"


def returned_nbytes(result) -> int:
    """Bytes of the numpy arrays a call returned (directly or as fields)."""
    if isinstance(result, np.ndarray):
        return result.nbytes
    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        return sum(v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray))
    return 0


def _count(result) -> int:
    """Draws in a sampler result, or cycles in a cycle-type result."""
    if hasattr(result, "lengths"):
        return len(result.lengths)
    if isinstance(result, list):
        return sum(_count(r) for r in result)
    if isinstance(result, (np.ndarray, int, np.integer)):
        return int(np.size(result))
    return 0


# What a span records about its call, by function name.
MEASURES = {
    "arith.build_spf": lambda result: getattr(result, "limit", None),
    "sampling.WeightedIntegerSampler.sample": _count,
    "permutations.sample_cycle_type*": _count,
    "limitlaws.dickman_rho": lambda result: len(getattr(result, "grid", ())),
}
for _layer in MEGABYTES:
    for _pattern in dict(LAYERS)[_layer]:
        MEASURES.setdefault(_pattern, returned_nbytes)


class Tracer:
    """Collects spans in memory while installed.

    A span is [name, start, end, parent index (-1 for none), op id, info];
    `info` is what MEASURES records for the call, or None.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        measure = next((m for p, m in MEASURES.items() if fnmatchcase(name, p)), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if measure is not None:
                rec[5] = measure(result)
            return result

        return wrapper

    def _set(self, owner, attr: str, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _install(self) -> None:
        """Wrap the layer modules of the imported package and its `cli.main`."""
        wrappers: dict[int, object] = {}
        for short in LAYER_MODULES + ("cli",):
            mod = sys.modules.get(f"{PACKAGE}.{short}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if short == "cli" and attr != "main":
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._set(obj, meth, self._wrap(f"{short}.{attr}.{meth}", fn))
        # rebind every module-level name that refers to a wrapped function
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._set(mod, attr, wrappers[id(obj)])

    def _uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self, op_id: int):
        """Trace the calls made inside the block, tagged with `op_id`."""
        self.op_id = op_id
        self._install()
        try:
            yield self
        finally:
            self._uninstall()


def self_times(spans: list) -> list[float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for i, s in enumerate(spans):
        start, end = s[1], s[2]
        covered = 0.0
        reach = start
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append(end - start - covered)
    return out


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer metrics of the spans of one pass."""
    layers = [layer for layer, _ in LAYERS]
    out = {f"{layer}.self_s": 0.0 for layer in layers}
    out.update({f"{layer}.calls": 0 for layer in CALLS})
    out.update({f"{layer}.mb": 0.0 for layer in MEGABYTES})
    limits, draws, cycles, grid, solves, g_evals = [], 0, 0, 0, 0, 0
    span_layers = [layer_of(s[0]) for s in spans]
    for s, layer, self_s in zip(spans, span_layers, self_times(spans)):
        name, info = s[0], s[5]
        key = f"{layer}.self_s"
        out[key] = out.get(key, 0.0) + self_s
        # calls and bytes count the module functions a layer is entered by
        entry = name.count(".") == 1 and (s[3] < 0 or span_layers[s[3]] != layer)
        if layer in CALLS and entry:
            out[f"{layer}.calls"] += 1
        if layer in MEGABYTES and entry and info:
            out[f"{layer}.mb"] += info / 1e6
        if name == "arith.build_spf":
            limits.append(info)
        elif name == "sampling.WeightedIntegerSampler.sample":
            draws += info
        elif layer == "permutations.sampler" and info is not None:
            cycles += info
        elif name == "limitlaws.dickman_rho":
            grid += info
        elif name == "asympt.solve_saddle":
            solves += 1
        elif name == "asympt.G_eval" and s[3] >= 0 and spans[s[3]][0] == "asympt.solve_saddle":
            g_evals += 1
    out["arith.spf.useful_ratio"] = len(set(limits)) / len(limits) if limits else 0.0
    out["sampling.sampler.draws"] = draws
    out["permutations.sampler.cycles"] = cycles
    out["limitlaws.dickman.grid_points"] = grid
    out["asympt.saddle.g_evals"] = g_evals / solves if solves else 0.0
    return out


def write_span_file(path, passes: list[list], op_names: list[str]) -> int:
    """Save the spans of several traced passes as one compressed .npz.

    Arrays: name (index into names), start, end, parent (index into the
    file's spans, -1 for none), op (index into ops), traced_pass.
    Returns the number of spans written.
    """
    flat = [(k, s) for k, spans in enumerate(passes) for s in spans]
    offsets = np.cumsum([0] + [len(spans) for spans in passes])
    names = sorted({s[0] for _, s in flat})
    index = {n: i for i, n in enumerate(names)}
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        names=np.array(names),
        ops=np.array(op_names),
        name=np.array([index[s[0]] for _, s in flat], dtype=np.int32),
        start=np.array([s[1] for _, s in flat]),
        end=np.array([s[2] for _, s in flat]),
        parent=np.array([s[3] + offsets[k] if s[3] >= 0 else -1 for k, s in flat], dtype=np.int64),
        op=np.array([s[4] for _, s in flat], dtype=np.int32),
        traced_pass=np.array([k for k, _ in flat], dtype=np.int32),
    )
    return len(flat)


def read_span_file(path) -> tuple[list[list], list[str], int]:
    """(spans with op names, op names, number of traced passes) of a span file."""
    f = np.load(path)
    names, ops = [str(n) for n in f["names"]], [str(o) for o in f["ops"]]
    spans = [[names[n], s, e, int(p), ops[o], None] for n, s, e, p, o in
             zip(f["name"], f["start"], f["end"], f["parent"], f["op"])]
    passes = int(f["traced_pass"].max()) + 1 if len(spans) else 0
    return spans, ops, passes
