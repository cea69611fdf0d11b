"""Outside-in layer timing for one CLI sweep.

Each layer is timed by wrapping one of its public functions from outside the
program.  A wrapper replaces every attribute of an ``rkksums`` module or
class that holds the original object, so calls made through a
``from module import name`` copy are timed too.  A layer whose function a
refactor removed is reported as ``"absent"``, never as zero.

Hot kernels get counting wrappers only (no clock reads).  The other layers
keep a per-layer call count, inclusive time and self time, aggregated as the
calls return; no per-call span record is stored except the checker
latencies needed for percentiles.
"""

import importlib
import math
import pkgutil
import sys
import time
from collections import defaultdict

ABSENT = "absent"

# layer -> functions timed under it, as "module:qualname"
TIMED = {
    "cli.build_tasks": ["rkksums.cli:build_tasks"],
    "report.emit_report": ["rkksums.report:emit_report"],
    "finlog.pounds": ["rkksums.finlog:pounds"],
    "kernels.weighted_powers_poly": ["rkksums.kernels:weighted_powers_poly"],
    "kernels.weighted_geometric_sum": ["rkksums.kernels:weighted_geometric_sum"],
    "polyfactor.root_factor_set": ["rkksums.polyfactor:root_factor_set"],
    "polyfactor.factor_mod_p": ["rkksums.polyfactor:factor_mod_p"],
    "polyfactor.hensel_lift": ["rkksums.polyfactor:hensel_lift"],
    "polyfactor.split_double_root": ["rkksums.polyfactor:split_double_root"],
    "gfpoly.powmod": ["rkksums._gfpoly:powmod"],
    "modring.inv": ["rkksums.modring:GaloisRing.inv"],
    "modring.pow": ["rkksums.modring:GaloisRing.pow"],
    "modring.trace": ["rkksums.modring:GaloisRing.trace"],
    "modring.charpoly": ["rkksums.modring:GaloisRing.charpoly"],
    "binomsums.lhs_sum": ["rkksums.binomsums:lhs_sum"],
    "binomsums.binom_table": ["rkksums.binomsums:binom_table"],
    "finlog.constants_table": ["rkksums.finlog:constants_table"],
    "finlog.fe": ["rkksums.finlog:check_functional_equations"],
    "seriesid.exact": [
        "rkksums.seriesid:fuss_catalan_residual",
        "rkksums.seriesid:check_series_log_identity",
        "rkksums.seriesid:check_identities",
        "rkksums.seriesid:check_differentiation_ladder",
    ],
}

# layer -> function counted under it (called too often to time per call)
COUNTED = {
    "kernels.poly_mulmod": "rkksums.kernels:poly_mulmod",
    "modring.mul": "rkksums.modring:GaloisRing.mul",
}

# every theorems.check_* function is a checker: one call settles one task
CHECK = "theorems.check"
CHECKER_MODULE = "rkksums.theorems"

CACHES = {
    "theorems.root_sums": "rkksums.theorems:root_sums",
    "theorems.factor_rings": "rkksums.theorems:_factor_rings",
}


def _pounds_layer(args, kwargs):
    # pounds(s, u): a GaloisElt argument is the polylog over a Galois ring,
    # anything else is the scalar polylog mod p^e
    u = args[1] if len(args) > 1 else kwargs.get("u")
    return "finlog.pounds_ring" if type(u).__name__ == "GaloisElt" else "finlog.pounds_scalar"


# a layer timed under names picked per call: (picker, the names it picks)
SPLIT = {"finlog.pounds": (_pounds_layer, ("finlog.pounds_ring", "finlog.pounds_scalar"))}

# timed layers whose call counts are reported as well as their time
WITH_CALLS = ("finlog.pounds_ring", "polyfactor.root_factor_set", "binomsums.lhs_sum")


def reported_layers():
    """Every timed layer under the name it is reported by."""
    for layer in TIMED:
        yield from SPLIT[layer][1] if layer in SPLIT else (layer,)


def import_package():
    """Import every rkksums submodule so each from-import copy is visible."""
    import rkksums

    for info in pkgutil.iter_modules(rkksums.__path__):
        importlib.import_module(f"rkksums.{info.name}")


def _package_namespaces():
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "rkksums" or name.startswith("rkksums.")):
            continue
        yield module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == name:
                yield value


def resolve(target):
    """(owner, attribute name, object) for "module:qualname", or None."""
    module_name, qualname = target.split(":")
    owner = sys.modules.get(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    obj = vars(owner).get(parts[-1]) if isinstance(owner, type) else getattr(owner, parts[-1], None)
    if not callable(obj):
        return None
    return owner, parts[-1], obj


def rebind(original, replacement):
    """Replace original in every rkksums module and class that holds it."""
    hits = 0
    for ns in _package_namespaces():
        for key, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, key, replacement)
                hits += 1
    return hits


class Tracer:
    """Per-layer counters for one sweep in this process."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self._depth = defaultdict(int)
        self._children = []      # child time of each open span
        self.top_level = 0.0     # time inside outermost spans
        self.check_ms = []
        self.counters = {}
        self.present = set()

    def _timed(self, fn, layer_of):
        calls, total, self_time = self.calls, self.total, self.self_time
        depth, children, check_ms = self._depth, self._children, self.check_ms
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            layer = layer_of(args, kwargs)
            depth[layer] += 1
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[layer] -= 1
                calls[layer] += 1
                self_time[layer] += elapsed - children.pop()
                if not depth[layer]:
                    total[layer] += elapsed
                if children:
                    children[-1] += elapsed
                else:
                    self.top_level += elapsed
                if layer == CHECK:
                    check_ms.append(elapsed * 1e3)

        return wrapper

    def _counted(self, fn, cell):
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _install(self, target, make):
        found = resolve(target)
        if found is None:
            return False
        owner, name, obj = found
        wrapper = make(obj)
        if not rebind(obj, wrapper):
            setattr(owner, name, wrapper)
        return True

    def install(self):
        import_package()
        for layer, targets in TIMED.items():
            layer_of, names = SPLIT.get(layer, (lambda args, kwargs, layer=layer: layer, (layer,)))
            for target in targets:
                if self._install(target, lambda fn: self._timed(fn, layer_of)):
                    self.present.update(names)
        for layer, target in COUNTED.items():
            cell = self.counters[layer] = [0]
            if self._install(target, lambda fn: self._counted(fn, cell)):
                self.present.add(layer)
        checkers = sys.modules.get(CHECKER_MODULE)
        names = [n for n in vars(checkers) if n.startswith("check_")] if checkers else []
        for name in names:
            if self._install(f"{CHECKER_MODULE}:{name}", lambda fn: self._timed(fn, lambda a, k: CHECK)):
                self.present.add(CHECK)

    def metrics(self, sweep_s):
        """Per-layer metric values for a sweep that took sweep_s seconds."""
        out = {}

        def put(name, layer, value):
            out[name] = value if layer in self.present else ABSENT

        for layer in reported_layers():
            put(f"{layer}_s", layer, self.total[layer])
        for layer in WITH_CALLS:
            put(f"{layer}_calls", layer, self.calls[layer])
        for layer, cell in self.counters.items():
            put(f"{layer}_calls", layer, cell[0])

        samples = sorted(self.check_ms)
        put("theorems.check_ms_p50", CHECK, percentile(samples, 0.50))
        put("theorems.check_ms_p99", CHECK, percentile(samples, 0.99))
        put("theorems.self_s", CHECK, self.self_time[CHECK])

        sums = cache_info("theorems.root_sums")
        rings = cache_info("theorems.factor_rings")
        lookups = sums.hits + sums.misses if sums else 0
        out["theorems.root_sums_hits"] = sums.hits if sums else ABSENT
        out["theorems.root_sums_misses"] = sums.misses if sums else ABSENT
        out["theorems.root_sums_hit_ratio"] = (
            (sums.hits / lookups if lookups else 0.0) if sums else ABSENT
        )
        out["theorems.factor_rings_misses"] = rings.misses if rings else ABSENT

        out["trace.sweep_s"] = sweep_s
        out["trace.covered_frac"] = self.top_level / sweep_s
        return out


def cache_info(key):
    """cache_info() of a cached function in CACHES, or None if it has none."""
    found = resolve(CACHES[key])
    info = getattr(found[2], "cache_info", None) if found else None
    return info() if info else None


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]
