"""Per-kernel call counts and times for a traced experiment process.

The wrappers live in the benchmark, not in qflab, so the program under test
is not edited to be measured. Each kernel is patched in the module that
defines it and in every loaded qflab module that bound it by name with
`from ... import`; an unpatched alias would silently read as zero calls.
A kernel that no longer exists is reported missing, never as zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass, field
from time import perf_counter

# layer (qflab module) -> wrapped names; "Class.method" patches the class,
# and a bare class name times its construction.
KERNELS: dict[str, tuple[str, ...]] = {
    "spectral": ("u3_inner", "u2_inner", "fourier_transform", "ap3_average",
                 "ap4_average", "max_quadratic_correlation"),
    "fpn_core": ("GroupSpace.add", "GroupSpace.sum_grid", "GroupSpace.sum_grid3",
                 "rank_mod_p"),
    "factor": ("new_quadratic_factor", "QuadraticFactor.atom_indices",
               "mu_weight_matrix", "bilinear_level_sizes"),
    "local_norms": ("LocalContext3", "local_u2_inner", "local_u3_inner"),
    "pattern_ops": ("t_ip", "t_ip2", "t_ip2_local", "t_ternary",
                    "witness_count_ternary"),
    "combinatorics": ("has_k_ip", "has_m_ip2", "best_atom_union_approx"),
}

KERNEL_KEYS = tuple(f"{layer}.{name}" for layer, names in KERNELS.items()
                    for name in names)


@dataclass
class KernelStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    raised: dict = field(default_factory=dict)  # exception class name -> count


class Tracer:
    """Wraps the kernels in KERNELS. Not thread-safe: run with --threads 1."""

    def __init__(self, kernels: dict[str, tuple[str, ...]] = KERNELS) -> None:
        self.kernels = kernels
        self.stats: dict[str, KernelStats] = {}
        self.missing: list[str] = []
        # time spent in wrapped children of each open span; [0] is top level
        self._stack = [0.0]

    def install(self) -> None:
        for layer, names in self.kernels.items():
            try:
                module = importlib.import_module(f"qflab.{layer}")
            except ImportError:
                module = None
            for name in names:
                if not self._patch(layer, module, name):
                    self.missing.append(f"{layer}.{name}")
                    print(f"warning: perfbench cannot find qflab.{layer}.{name}; "
                          "its metrics are absent", file=sys.stderr)

    def _patch(self, layer: str, module, name: str) -> bool:
        owner, attr = module, name
        if "." in name:
            cls_name, attr = name.split(".", 1)
            owner = getattr(module, cls_name, None)
        target = getattr(owner, attr, None) if owner is not None else None
        if target is None:
            return False
        key = f"{layer}.{name}"
        if isinstance(target, type):
            target.__init__ = self._timed(key, target.__init__)
        elif owner is module:
            wrapped = self._timed(key, target)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "qflab" or mod_name.startswith("qflab."):
                    for alias, value in list(vars(mod).items()):
                        if value is target:
                            setattr(mod, alias, wrapped)
        else:
            setattr(owner, attr, self._timed(key, target))
        return True

    def _timed(self, key: str, fn):
        stats = self.stats[key] = KernelStats()
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                name = type(exc).__name__
                stats.raised[name] = stats.raised.get(name, 0) + 1
                raise
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children
                stack[-1] += elapsed

        return wrapper

    def snapshot(self) -> dict:
        return {
            "kernels": {key: vars(st) for key, st in self.stats.items()},
            "missing": list(self.missing),
            "top_level_s": self._stack[0],  # time inside outermost spans
        }
