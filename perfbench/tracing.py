"""Spans around smtlab's public functions, recorded from outside.

``Tracer.install`` wraps each function in ``TARGETS`` by rebinding the
name in every smtlab module that holds it (``characteristic`` lives in
both ``nevanlinna`` and ``smt_verifier``, ``normal_form`` in ``groebner``
and ``weights``), and methods on their class. ``uninstall`` puts the
originals back. A span records name, start, end, parent span and report
id; counts come from return values. Spans stay in memory until the run
ends.

``exact_algebra`` and ``scalars`` are not wrapped: they are arithmetic
leaves called millions of times, and a wrapper would swamp them. Their
cost shows as the self time of the groebner and weights spans.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int            # index of the parent span, -1 for a root
    report: int
    counts: Dict[str, float] = field(default_factory=dict)


def _dim_drops(args, out) -> Dict[str, float]:
    """Scanned subsets, and those whose dimension fell below every
    parent's (the empty subset's dimension is dim V)."""
    n = args[0].dim
    dims = {frozenset(s): d for s, d, _ in out.table}
    drops = 0
    for subset, d, _ in out.table:
        s = frozenset(subset)
        parents = [dims.get(s - {j}, n) if len(s) > 1 else n for j in s]
        if d < min(parents):
            drops += 1
    return {"subsets": len(out.table), "drops": drops}


# (module or module.Class, attribute, span name, counter from (args, result))
TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("cli", "main", "cli", None),
    ("scenario", "load_scenario", "scenario.load", None),
    ("groebner", "groebner_basis", "groebner.basis",
     lambda a, out: {"polys": len(out)}),
    ("groebner", "normal_form", "groebner.normal_form", None),
    ("groebner", "variety_dim_degree", "groebner.dim_degree", None),
    ("groebner", "intersection_dim", "groebner.intersection_dim", None),
    ("groebner.Variety", "hilbert_function", "groebner.hilbert", None),
    ("weights", "hilbert_weight", "weights.hilbert_weight", None),
    ("weights", "chow_weight_estimate", "weights.chow",
     lambda a, out: {"rungs": len(out.sequence)}),
    ("weights", "check_evertse_ferretti", "weights.ef_check", None),
    ("position_geometry", "distributive_constant",
     "position_geometry.distributive", _dim_drops),
    ("analytic", "zeros_in_disc", "analytic.zeros",
     lambda a, out: {"points": len(out.points)}),
    ("analytic", "winding_circle", "analytic.winding",
     lambda a, out: {"nodes": out[1]}),
    ("analytic", "wronskian", "analytic.wronskian", None),
    ("nevanlinna", "circle_average", "nevanlinna.circle_average",
     lambda a, out: {"nodes": out[1]}),
    ("nevanlinna", "characteristic", "nevanlinna.characteristic", None),
    ("nevanlinna", "proximity", "nevanlinna.proximity", None),
    ("nevanlinna", "counting", "nevanlinna.counting", None),
    ("nevanlinna", "fmt_residual", "nevanlinna.fmt_residual", None),
    ("nevanlinna", "build_profile", "nevanlinna.build_profile", None),
    ("hypersurfaces.MovingHypersurface", "compose", "hypersurfaces.compose",
     None),
    ("smt_verifier", "constants_fixed", "smt_verifier.constants", None),
    ("smt_verifier", "constants_moving", "smt_verifier.constants", None),
    ("smt_verifier", "constants_plane", "smt_verifier.constants", None),
    ("smt_verifier", "constants_theoremB", "smt_verifier.constants", None),
    ("smt_verifier", "verify_main_inequality", "smt_verifier.verify", None),
    ("smt_verifier", "defect_relation_report",
     "smt_verifier.defect_relation", None),
]


class Tracer:
    """Records spans while installed; ``report`` tags the current report."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.report = 0
        self.curve_keys: Dict[int, tuple] = {}
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable,
              counter: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1,
                        self.report)
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, out)
            if name == "nevanlinna.characteristic":
                span.counts = {"key": self._curve_key(args)}
            return out

        return wrapper

    def _curve_key(self, args) -> tuple:
        """(curve content, r): the same curve reloaded for another report
        of the same scenario gets the same key."""
        curve, r = args[0], args[1]
        key = self.curve_keys.get(id(curve))
        if key is None or key[0] is not curve:
            key = (curve, tuple(str(c) for c in curve.components),
                   curve.domain_radius)
            self.curve_keys[id(curve)] = key
        return (key[1], key[2], r)

    def install(self) -> None:
        if self._saved:
            return
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "smtlab" or name.startswith("smtlab.")}
        for owner, attr, name, counter in TARGETS:
            modname, _, clsname = owner.partition(".")
            mod = mods["smtlab." + modname]
            if clsname:
                cls = getattr(mod, clsname)
                orig = cls.__dict__[attr]
                self._saved.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(name, orig, counter))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig, counter)
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._saved.append((m, key, orig))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
        self.curve_keys.clear()


def self_times(spans: List[Span], first: int = 0) -> List[float]:
    """Self time of each span from index first on: its duration minus the
    part of it that its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans[first:]:
        if span.parent >= first:
            children.setdefault(span.parent, []).append((span.start,
                                                         span.end))
    out = []
    for idx, span in enumerate(spans[first:], first):
        covered = 0.0
        cursor = span.start
        for a, b in sorted(children.get(idx, ())):
            a, b = max(a, cursor, span.start), min(b, span.end)
            if b > a:
                covered += b - a
                cursor = b
        out.append((span.end - span.start) - covered)
    return out
