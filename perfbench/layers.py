"""Per-layer tracing from outside the program.

`Tracer.install()` wraps the public functions and methods of each layer so
that every call records a span (name, start, end, parent span).  Names
that other koszulspec modules imported by value, such as
`polespec.kernel_int_columns` or `koszul.rank_mod`, are found and patched
too.  A hooked name that no longer exists raises `MissingHook`, so a
renamed layer can never read as zero time.  Spans stay in memory;
`summary()` reduces them to the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref

# (span name, module, attribute path, counter).  Several hooks may share a
# span name; their times and counts add up.
HOOKS = [
    ("cli.main", "cli", "main", None),
    ("poly.parse", "poly", "parse_poly", None),
    ("decomp.table", "decomp", "build_invariant_table", None),
    ("decomp.split", "decomp", "_split_window", None),
    ("koszul.window", "koszul", "KoszulWindow.__init__", None),
    ("koszul.evidence", "koszul", "assumption_evidence", None),
    ("koszul.columns", "koszul", "KoszulWindow.wedge_columns", "wedge_nnz"),
    ("koszul.columns", "koszul", "KoszulWindow.derivative_columns", None),
    ("koszul.promote_exact", "koszul", "KoszulWindow.promote_exact", None),
    ("linalg.rank_mod", "linalg", "rank_mod", "cells"),
    ("linalg.modspan", "linalg", "ModularSpan.__init__", None),
    ("linalg.modspan", "linalg", "ModularSpan.added_rank", None),
    ("linalg.rank_exact", "linalg", "rank_exact_rows", None),
    ("linalg.kernel", "linalg", "kernel_int_columns", "vecs"),
    ("linalg.echelon", "linalg", "IntEchelon.reduce_full", None),
    ("linalg.combo_kernel", "linalg", "combo_kernel", None),
    ("linalg.solve", "linalg", "solve_into", None),
    ("polespec.build", "polespec", "SubquotientState._build", None),
    ("polespec.stage", "polespec", "SubquotientState.finish_stage", "stage"),
    ("polespec.advance", "polespec", "SubquotientState.advance_degree", None),
]

# metric name -> (span name, what): "self", "incl" or "n" of the span, or
# the name of one of its counters
METRICS = {
    "linalg.kernel_s": ("linalg.kernel", "self"),
    "linalg.kernel_n": ("linalg.kernel", "n"),
    "linalg.kernel_vecs": ("linalg.kernel", "vecs"),
    "linalg.echelon_s": ("linalg.echelon", "self"),
    "linalg.echelon_n": ("linalg.echelon", "n"),
    "linalg.rank_mod_s": ("linalg.rank_mod", "self"),
    "linalg.rank_mod_n": ("linalg.rank_mod", "n"),
    "linalg.rank_mod_cells": ("linalg.rank_mod", "cells"),
    "linalg.modspan_s": ("linalg.modspan", "self"),
    "linalg.modspan_n": ("linalg.modspan", "n"),
    "linalg.rank_exact_s": ("linalg.rank_exact", "self"),
    "linalg.rank_exact_n": ("linalg.rank_exact", "n"),
    "koszul.promote_exact_n": ("koszul.promote_exact", "n"),
    "koszul.window_n": ("koszul.window", "n"),
    "koszul.evidence_n": ("koszul.evidence", "n"),
    "koszul.evidence_incl_s": ("koszul.evidence", "incl"),
    "linalg.solve_s": ("linalg.solve", "self"),
    "linalg.solve_n": ("linalg.solve", "n"),
    "linalg.combo_kernel_s": ("linalg.combo_kernel", "self"),
    "polespec.stage2_incl_s": ("polespec.stage2", "incl"),
    "polespec.stage3_incl_s": ("polespec.stage3", "incl"),
    "polespec.advance_n": ("polespec.advance", "n"),
    "polespec.build_incl_s": ("polespec.build", "incl"),
    "decomp.table_incl_s": ("decomp.table", "incl"),
    "decomp.split_incl_s": ("decomp.split", "incl"),
    "decomp.split_n": ("decomp.split", "n"),
    "koszul.columns_s": ("koszul.columns", "self"),
    "koszul.wedge_nnz": ("koszul.columns", "wedge_nnz"),
    "poly.parse_s": ("poly.parse", "self"),
    "cli.self_s": ("cli.main", "self"),
}


class MissingHook(RuntimeError):
    pass


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) for a dotted attribute of a module."""
    owner = importlib.import_module(f"koszulspec.{module_name}")
    *outer, attr = path.split(".")
    try:
        for part in outer:
            owner = getattr(owner, part)
        return owner, attr, getattr(owner, attr)
    except AttributeError:
        raise MissingHook(f"koszulspec.{module_name}.{path} no longer exists") from None


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, counters dict or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._seen_wedge: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- hooks -------------------------------------------------------------------

    def _counter(self, kind, args, result):
        if kind == "cells":  # rank_mod(columns, nrows, p): dense rows x cols
            return {"cells": len(args[0]) * args[1]}
        if kind == "vecs":
            return {"vecs": len(result)}
        if kind == "wedge_nnz":  # count each (window, j, m) block once
            seen = self._seen_wedge.setdefault(args[0], set())
            key = tuple(args[1:])
            if key in seen:
                return None
            seen.add(key)
            return {"wedge_nnz": sum(len(col) for col in result)}
        return None

    def _wrap(self, name: str, fn, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if counter == "stage":  # named after the page it produces
                span_name = f"{name}{args[0].stage + 1}"
            idx = len(spans)
            spans.append([span_name, clock(), 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if counter is not None and counter != "stage":
                spans[idx][4] = self._counter(counter, args, result)
            return result

        return traced

    def install(self) -> None:
        originals = {}
        for name, module_name, path, counter in HOOKS:
            owner, attr, fn = _resolve(module_name, path)
            originals[id(fn)] = wrapped = self._wrap(name, fn, counter)
            setattr(owner, attr, wrapped)
            self._patched.append((owner, attr, fn))
        # names imported by value elsewhere still point at the originals
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "koszulspec" or mod_name.startswith("koszulspec.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None and value is not wrapped:
                    setattr(mod, attr, wrapped)
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    # -- reduction ---------------------------------------------------------------

    def summary(self, first: int = 0) -> dict[str, float]:
        """Per-layer metrics over the spans recorded from index `first` on."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= first:
                child[s[3] - first] += s[2] - s[1]
        acc: dict[str, dict[str, float]] = {}
        for s, inner in zip(spans, child):
            a = acc.setdefault(s[0], {"self": 0.0, "incl": 0.0, "n": 0})
            a["incl"] += s[2] - s[1]
            a["self"] += s[2] - s[1] - inner
            a["n"] += 1
            for key, val in (s[4] or {}).items():
                a[key] = a.get(key, 0) + val
        out = {}
        for metric, (span, what) in METRICS.items():
            out[metric] = acc.get(span, {}).get(what, 0)
        cli = acc.get("cli.main", {"self": 0.0, "incl": 0.0})
        out["trace.coverage"] = 1 - cli["self"] / cli["incl"] if cli["incl"] else 0.0
        return out
