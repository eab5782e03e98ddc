"""Spans around every public function of the fdilab modules, from outside.

``Tracer.install`` replaces each public function (and each public method
of the classes a module defines) with a wrapper that records a span, at
every place the function is reachable: its own module, which also catches
calls inside that module, every other fdilab module that imported it, and
the package namespace. ``uninstall`` puts the originals back.

A span is ``(name, start, end, parent, op, ok)``: ``parent`` is the index
of the enclosing span or -1, ``op`` the benchmark operation it belongs to
and ``ok`` False when the call raised. Spans stay in memory until
``write_jsonl`` writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("caseio", "network", "estimation", "detection", "attack", "market", "scenario")


class Tracer:
    """Records spans while installed; ``op`` is set by the caller before each operation."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, ok)

        return traced

    def install(self) -> None:
        import fdilab

        modules = {layer: sys.modules[f"fdilab.{layer}"] for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._swap(obj, meth, self._wrap(f"{layer}.{attr}.{meth}", fn))
        sites = [fdilab, *(m for n, m in sys.modules.items() if n.startswith("fdilab."))]
        for site in sites:
            for attr, obj in list(vars(site).items()):
                if id(obj) in wrapped:
                    self._swap(site, attr, wrapped[id(obj)])

    def _swap(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path: Path) -> None:
        """One JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans) -> dict[str, float]:
    """Per-layer counts and busy times from a finished list of spans.

    A span's self time is its duration minus the time of its child spans;
    a layer's entry calls are the spans whose caller is outside that layer.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    calls, failed, entry_calls, entry_failed = Counter(), Counter(), Counter(), Counter()
    busy_time, self_time, entry_time = defaultdict(float), defaultdict(float), defaultdict(float)
    for i, (name, start, end, parent, _, ok) in enumerate(spans):
        layer = layer_of(name)
        calls[name] += 1
        failed[name] += not ok
        busy_time[name] += end - start
        self_time[name] += end - start - child_time[i]
        if parent < 0 or layer_of(spans[parent][0]) != layer:
            entry_calls[layer] += 1
            entry_failed[layer] += not ok
            entry_time[layer] += end - start

    def total(table, *names):
        return sum(table[name] for name in names)

    synth = ("attack.random_constrained_attack", "attack.targeted_attack", "attack.attack_from_c")
    attempts = total(calls, *synth)
    out = {
        "caseio.parse_calls": entry_calls["caseio"],
        "caseio.parse_s": entry_time["caseio"],
        "network.build_h_calls": calls["network.build_h_matrix"],
        "network.build_h_s": busy_time["network.build_h_matrix"],
        "estimation.wls_calls": calls["estimation.wls_estimate"],
        "estimation.wls_s": busy_time["estimation.wls_estimate"],
        "estimation.simulate_s": busy_time["estimation.simulate_measurements"],
        "detection.quantile_calls": total(calls, "detection.chi_square_quantile", "detection.gaussian_quantile"),
        "detection.chi2_s": busy_time["detection.chi_square_test"],
        "detection.lnr_s": busy_time["detection.lnr_test"],
        "detection.omega_calls": calls["detection.residual_covariance"],
        "detection.omega_s": busy_time["detection.residual_covariance"],
        "attack.attempts": attempts,
        "attack.feasible_ratio": (attempts - total(failed, *synth)) / attempts if attempts else 0.0,
        "attack.synth_s": total(busy_time, *synth),
        "attack.verify_s": busy_time["attack.verify_stealth"],
        "market.opf_calls": calls["market.solve_dc_opf"],
        "market.opf_s": busy_time["market.solve_dc_opf"],
        "market.perceived_s": busy_time["market.perceived_case_from_attack"],
        "market.errors": entry_failed["market"],
        "scenario.self_s": total(self_time, "scenario.run_scenario", "scenario.run_monte_carlo"),
        "scenario.render_s": total(
            busy_time,
            "scenario.ScenarioReport.to_text",
            "scenario.ScenarioReport.to_csv",
            "scenario.MonteCarloSummary.to_text",
            "scenario.MonteCarloSummary.to_csv",
        ),
    }
    for layer in LAYERS[:-1]:
        out[f"{layer}.self_s"] = sum(t for name, t in self_time.items() if layer_of(name) == layer)
    return out
