"""Outside-in tracing of matlift's public functions.

The tracer replaces each listed function by a wrapper at every binding in
the globals of the ``matlift`` modules, found by object identity, so a
later move of an import is still caught. ``Matroid`` methods are wrapped on
the class. Each wrapped call records one span (name, parent span, item id,
start, end) in flat arrays; ``Matroid.rank`` runs too often for spans and is
only counted, so its time lands in its caller's self time. Nothing is
written until :meth:`Tracer.dump`, and :meth:`Tracer.remove` restores every
binding.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

LAYERS = (
    "sets", "axioms", "matroid", "minors", "quotient",
    "enumeration", "textio", "sweeps", "cli",
)

SWEEPS = (
    "catalog_cross_oracle_sweep", "lift_property_sweep", "lift_criterion_sweep",
    "witness_oracle_sweep", "lemma_exhaustive_sweep", "lemma_randomized_sweep",
    "homotopy_sweep", "remark_comparison_sweep", "roundtrip_sweep",
)

# (module, attribute path); "Matroid.__init__" reports as "Matroid.init"
SPANNED = (
    ("sets", "minimal_members"),
    ("axioms", "check_circuit_axioms"),
    ("axioms", "check_basis_exchange"),
    ("matroid", "Matroid.__init__"),
    ("matroid", "Matroid.bases"),
    ("matroid", "Matroid.dual"),
    ("matroid", "Matroid.from_bases"),
    ("matroid", "Matroid.cyclic_sets"),
    ("minors", "contract"),
    ("minors", "delete"),
    ("quotient", "certify_quotient"),
    ("quotient", "lift_witness"),
    ("quotient", "factor_homotopy"),
    ("quotient", "verify_pair"),
    ("quotient", "remark_comparison"),
    ("enumeration", "enumerate_matroids"),
    ("enumeration", "random_matroid"),
    ("textio", "parse_document"),
    ("textio", "serialize_matroid_text"),
    ("cli", "run_command"),
) + tuple(("sweeps", name) for name in SWEEPS)

COUNTED = (("matroid", "Matroid.rank"),)


def stem(module: str, path: str) -> str:
    return f"{module}.{path.replace('__init__', 'init')}"


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in report order."""
    out = []
    for module, path in SPANNED:
        s = stem(module, path)
        if module == "sweeps":
            out.append(f"{s}.total_s")
            continue
        out += [f"{s}.calls", f"{s}.self_s"]
        if path == "check_circuit_axioms":
            out += [f"{s}.strong_calls", f"{s}.pairs", f"{s}.passed_frac"]
        elif path == "check_basis_exchange":
            out.append(f"{s}.passed_frac")
        elif path == "certify_quotient":
            out.append(f"{s}.holds_frac")
    out += [stem(m, p) + ".calls" for m, p in COUNTED]
    out += ["trace.overhead_frac", "trace.wall_s", "trace.self_sum_s",
            "trace.remainder_s", "trace.spans"]
    return out


def _family_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["family"]


def _strong_arg(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("strong", False)


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.names = [stem(m, p) for m, p in SPANNED]
        self.name_id = array("i")
        self.parent = array("i")
        self.item_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.item = -1
        self.counts = {stem(m, p): 0 for m, p in COUNTED}
        self.extra = {"strong_calls": 0, "pairs": 0, "axioms_passed": 0,
                      "exchange_passed": 0, "holds": 0}
        self._restore: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- install

    def install(self) -> None:
        modules = {name: importlib.import_module(f"matlift.{name}") for name in LAYERS}
        for fid, (module, path) in enumerate(SPANNED):
            self._patch(modules[module], path, lambda fn, fid=fid, path=path:
                        self._span_wrapper(fid, fn, path))
        for module, path in COUNTED:
            key = stem(module, path)
            self._patch(modules[module], path, lambda fn, key=key:
                        self._count_wrapper(key, fn))

    def _patch(self, module, path: str, make) -> None:
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(make(raw.__func__))
            else:
                wrapped = make(raw)
            setattr(cls, attr, wrapped)
            self._restore.append((cls, attr, raw))
            return
        original = getattr(module, path)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "matlift" or name.startswith("matlift.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, original))

    def remove(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    # ------------------------------------------------------------- wrappers

    def _hook(self, path: str):
        """Counts taken from a call's arguments and result, or None."""
        extra = self.extra
        if path == "check_circuit_axioms":
            def hook(args, kwargs, result):
                size = len(_family_arg(args, kwargs))
                extra["pairs"] += size * (size - 1) // 2
                extra["strong_calls"] += bool(_strong_arg(args, kwargs))
                extra["axioms_passed"] += result.passed
        elif path == "check_basis_exchange":
            def hook(args, kwargs, result):
                extra["exchange_passed"] += result.passed
        elif path == "certify_quotient":
            def hook(args, kwargs, result):
                extra["holds"] += result.holds
        else:
            hook = None
        return hook

    def _span_wrapper(self, fid: int, fn, path: str):
        name_id, parent, item_id = self.name_id, self.parent, self.item_id
        start, end, stack = self.start, self.end, self.stack
        hook = self._hook(path)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(fid)
            parent.append(stack[-1])
            item_id.append(self.item)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -------------------------------------------------------------- results

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        """Per-layer metrics of the traced pass, keyed as in metric_names()."""
        count = len(self.name_id)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        total_s = [0.0] * len(self.names)
        self_sum = 0.0
        for i in range(count):
            fid = self.name_id[i]
            own = dur[i] - child[i]
            calls[fid] += 1
            self_s[fid] += own
            total_s[fid] += dur[i]
            self_sum += own
        out: dict[str, float] = {}
        for fid, (module, path) in enumerate(SPANNED):
            s = self.names[fid]
            if module == "sweeps":
                out[f"{s}.total_s"] = total_s[fid]
                continue
            out[f"{s}.calls"] = calls[fid]
            out[f"{s}.self_s"] = self_s[fid]
            n = calls[fid]
            if path == "check_circuit_axioms":
                out[f"{s}.strong_calls"] = self.extra["strong_calls"]
                out[f"{s}.pairs"] = self.extra["pairs"]
                out[f"{s}.passed_frac"] = self.extra["axioms_passed"] / n if n else 0.0
            elif path == "check_basis_exchange":
                out[f"{s}.passed_frac"] = self.extra["exchange_passed"] / n if n else 0.0
            elif path == "certify_quotient":
                out[f"{s}.holds_frac"] = self.extra["holds"] / n if n else 0.0
        for key, value in self.counts.items():
            out[f"{key}.calls"] = value
        out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        out["trace.wall_s"] = traced_wall
        out["trace.self_sum_s"] = self_sum
        out["trace.remainder_s"] = traced_wall - self_sum
        out["trace.spans"] = count
        return out

    def dump(self, path) -> None:
        """Write every span: one JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.name_id),
            "byteorder": sys.byteorder,
            "arrays": [["name_id", "i"], ["parent", "i"], ["item_id", "i"],
                       ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("ascii") + b"\n")
            for arr in (self.name_id, self.parent, self.item_id, self.start, self.end):
                arr.tofile(fh)
