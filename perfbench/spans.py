"""Outside-in tracing of lasergrav's layers, and the arithmetic on spans.

The traced pass wraps each public function in :data:`TARGETS` in every
``lasergrav`` module namespace where that name is bound, so calls made
inside the package (``variational.kernel_shape``, ``gpe.minimize_width``)
are caught too.  Nothing under ``src/`` changes.  Each call records a span
(id, parent, name, start, end) plus the counts taken at that boundary.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from collections import defaultdict

# (module, public function) per layer
TARGETS = (
    ("interaction", "kernel_shape"),
    ("variational", "pair_interaction_integral"),
    ("variational", "total_energy"),
    ("variational", "minimize_width"),
    ("variational", "critical_intensity_ratio"),
    ("gpe", "solve_ground"),
    ("gpe", "hartree_potential"),
    ("regimes", "atom_capacity"),
    ("regimes", "phase_map"),
    ("losses", "loss_report"),
    ("cli", "run"),
)


def _size(x) -> int:
    size = getattr(x, "size", None)
    if size is not None:
        return int(size)
    return len(x) if hasattr(x, "__len__") else 1


def _kernel_shape(fn, args, kwargs, span):
    span["points"] = _size(args[0] if args else kwargs["r_tilde"])
    return fn(*args, **kwargs)


def _minimize_width(fn, args, kwargs, span):
    result = fn(*args, **kwargs)
    span["bound"] = bool(result.bound_local)
    return result


def _solve_ground(fn, args, kwargs, span):
    """Count accepted steps through ``on_step``, chaining the caller's hook;
    rejected steps are iterations - accepted."""
    signature = inspect.signature(fn)
    if "on_step" not in signature.parameters:
        return fn(*args, **kwargs)
    bound = signature.bind(*args, **kwargs)
    user_hook = bound.arguments.get("on_step")
    accepted = 0

    def on_step(*a, **k):
        nonlocal accepted
        accepted += 1
        if user_hook is not None:
            user_hook(*a, **k)

    bound.arguments["on_step"] = on_step
    result = fn(*bound.args, **bound.kwargs)
    span.update(accepted=accepted, iterations=int(result.iterations),
                n_points=int(result.grid.n_points),
                kernel=getattr(bound.arguments.get("cfg"), "kernel", None))
    return result


_CALLERS = {"interaction.kernel_shape": _kernel_shape,
            "variational.minimize_width": _minimize_width,
            "gpe.solve_ground": _solve_ground}


class Recorder:
    """Keeps the spans of one process in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        call = _CALLERS.get(name, lambda f, a, k, s: f(*a, **k))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans),
                    "parent": self._stack[-1] if self._stack else None,
                    "name": name, "start": self.clock(), "end": None}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                return call(fn, args, kwargs, span)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = self.clock()
                self._stack.pop()

        return wrapper


def install(recorder: Recorder, modules: dict, targets=TARGETS) -> list[str]:
    """Wrap every target wherever a ``lasergrav`` module binds it.

    Returns the targets that no longer exist, so a refactor that renames or
    removes one is reported instead of breaking the traced pass.
    """
    package = {name: mod for name, mod in list(modules.items())
               if mod is not None
               and (name == "lasergrav" or name.startswith("lasergrav."))}
    missing = []
    for module_name, fn_name in targets:
        home = package.get(f"lasergrav.{module_name}")
        original = getattr(home, fn_name, None)
        if not callable(original):
            missing.append(f"{module_name}.{fn_name}")
            continue
        wrapper = recorder.wrap(f"{module_name}.{fn_name}", original)
        for mod in package.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
    return missing


def covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its direct child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - covered(s["start"], s["end"], children[s["id"]])
            for s in spans}


def quads_per_span(spans: list[dict], names=("variational.minimize_width",
                                             "variational.critical_intensity_ratio")):
    """Quadratures (pair_interaction_integral calls) under each span of
    ``names``, as {name: [(count, bound verdict or None) per span, in call
    order]}."""
    by_id = {s["id"]: s for s in spans}
    counts = {s["id"]: 0 for s in spans if s["name"] in names}
    for s in spans:
        if s["name"] != "variational.pair_interaction_integral":
            continue
        parent = s["parent"]
        while parent is not None:
            if parent in counts:
                counts[parent] += 1
            parent = by_id[parent]["parent"]
    out = {name: [] for name in names}
    for sid in sorted(counts):
        out[by_id[sid]["name"]].append((counts[sid], by_id[sid].get("bound")))
    return out


def import_time(stderr_text: str, module: str) -> float:
    """Cumulative import time (s) of ``module`` from ``-X importtime``
    output, 0 when the process never imported it."""
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) == 3 and fields[2].strip() == module:
            try:
                return int(fields[1]) * 1e-6
            except ValueError:
                continue
    return 0.0


def layer_metrics(ops: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics summed over the traced ops of one pass.

    ``ops`` holds, per op, ``spans`` and ``import_s`` as written by
    ``runop.py``.  ``iterations_n512`` and ``iterations_n1024`` count
    full-kernel solves only, so they show how the iteration count grows
    with n.  Returns (metrics, quadrature counts per minimize_width and per
    critical_intensity_ratio call).
    """
    calls, total, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    extra = defaultdict(int)
    quads = {"variational.minimize_width": [],
             "variational.critical_intensity_ratio": []}
    for op in ops:
        spans = op["spans"]
        own = self_times(spans)
        for s in spans:
            name = s["name"]
            calls[name] += 1
            total[name] += s["end"] - s["start"]
            self_s[name] += own[s["id"]]
            for key in ("points", "bound", "accepted", "iterations"):
                extra[f"{name}.{key}"] += int(s.get(key, 0))
            if name == "gpe.solve_ground" and s.get("kernel") == "full":
                extra[f"{name}.iterations_n{s['n_points']}"] += s["iterations"]
        for name, counts in quads_per_span(spans).items():
            quads[name] += counts

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    ks, pii = "interaction.kernel_shape", "variational.pair_interaction_integral"
    mw, cir = "variational.minimize_width", "variational.critical_intensity_ratio"
    sg = "gpe.solve_ground"
    iterations = extra[f"{sg}.iterations"]
    m = {
        "setup.import_lasergrav_s": statistics.median(op["import_s"] for op in ops),
        "cli.run.calls": calls["cli.run"],
        "cli.run.self_s": self_s["cli.run"],
        f"{ks}.calls": calls[ks],
        f"{ks}.points": extra[f"{ks}.points"],
        f"{ks}.self_s": self_s[ks],
        f"{ks}.ns_per_point": per(self_s[ks], extra[f"{ks}.points"], 1e9),
        f"{pii}.calls": calls[pii],
        f"{pii}.self_s": self_s[pii],
        f"{pii}.us_per_call": per(total[pii], calls[pii], 1e6),
        "variational.total_energy.calls": calls["variational.total_energy"],
        f"{mw}.calls": calls[mw],
        f"{mw}.s": total[mw],
        f"{mw}.quads_per_call": per(sum(q for q, _ in quads[mw]), len(quads[mw])),
        f"{mw}.bound_frac": per(extra[f"{mw}.bound"], calls[mw]),
        f"{cir}.s": total[cir],
        f"{cir}.quads": sum(q for q, _ in quads[cir]),
        f"{sg}.calls": calls[sg],
        f"{sg}.s": total[sg],
        f"{sg}.iterations": iterations,
        f"{sg}.iterations_n512": extra[f"{sg}.iterations_n512"],
        f"{sg}.iterations_n1024": extra[f"{sg}.iterations_n1024"],
        f"{sg}.rejected_steps": iterations - extra[f"{sg}.accepted"],
        f"{sg}.s_per_iter": per(self_s[sg], iterations),
        "gpe.hartree_potential.calls": calls["gpe.hartree_potential"],
        "gpe.hartree_potential.s": total["gpe.hartree_potential"],
        "regimes.atom_capacity.calls": calls["regimes.atom_capacity"],
        "regimes.atom_capacity.s": total["regimes.atom_capacity"],
        "regimes.phase_map.s": total["regimes.phase_map"],
        "losses.loss_report.calls": calls["losses.loss_report"],
        "losses.loss_report.s": total["losses.loss_report"],
        "losses.loss_report.self_s": self_s["losses.loss_report"],
    }
    return m, quads


def write_spans(path, traces: list[dict]) -> None:
    """Write the spans of every traced op as JSON lines, tagged by op."""
    with open(path, "w", encoding="utf-8") as fh:
        for trace in traces:
            for s in trace["spans"]:
                fh.write(json.dumps({"op": trace["op"], **s}) + "\n")
