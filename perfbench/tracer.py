"""Per-layer tracing of greymatch from outside the package.

``Tracer.install()`` replaces every public function of each greymatch module
with a timing wrapper, in every greymatch namespace that holds it (so
``integral_matching.solve_reduced`` and ``simulate.solve_reduced`` are both
traced), and patches the ``evaluate``/``jacobian`` methods of the nonlinear
bases.  ``uninstall()`` puts the originals back.

Each wrapped call pushes a frame on one stack; its self time is its duration
minus the durations of the wrapped calls made directly inside it, and a
layer's self time is the sum over its functions.  Calls of coarse functions
are kept as spans ``(name, start, end, parent)``; the per-state hot calls
(basis evaluations and the RK4 right-hand side, hundreds of thousands per
run) are only counted and timed, so memory stays bounded.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("ode", "core", "grey_twostep", "integral_matching", "simulate",
          "transform", "metrics", "cli")


class Tracer:
    def __init__(self):
        self.spans = []            # (name, start, end, parent index or -1)
        self._stack = [[-1, 0.0]]  # frames: [span index, child time]; bottom sentinel
        self.self_s = defaultdict(float)    # layer -> seconds
        self.incl_s = defaultdict(float)    # function -> seconds
        self.calls = Counter()              # function -> calls
        self.counts = Counter()             # named counters
        self.active = Counter()             # function -> open activations
        self._patched = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, layer, name, fn, after=None):
        stack, spans, pc = self._stack, self.spans, perf_counter
        self_s, incl_s, calls, active = self.self_s, self.incl_s, self.calls, self.active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0]
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            active[name] += 1
            start = pc()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = pc()
                active[name] -= 1
                stack.pop()
                duration = end - start
                spans[frame[0]] = (name, start, end, parent)
                self_s[layer] += duration - frame[1]
                incl_s[name] += duration
                calls[name] += 1
                stack[-1][1] += duration
                if after is not None:
                    after(args, kwargs, result, error)

        return wrapper

    def _wrap_hot(self, layer, counter, fn):
        stack, pc = self._stack, perf_counter
        self_s, counts = self.self_s, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [-1, 0.0]
            stack.append(frame)
            start = pc()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = pc() - start
                stack.pop()
                self_s[layer] += duration - frame[1]
                stack[-1][1] += duration
                counts[counter] += 1

        return wrapper

    # -- per-function hooks that derive the layer counters -----------------

    def _rk4(self, fn, domain_error):
        counts = self.counts
        wrap_hot = self._wrap_hot

        def rk4_integrate(rhs, *args, **kwargs):
            before = counts["ode.rhs_evals"]
            try:
                traj = fn(wrap_hot("ode", "ode.rhs_evals", rhs), *args, **kwargs)
            except domain_error:
                counts["ode.domain_exits"] += 1
                raise
            finally:
                counts["ode.rk4_steps"] += (counts["ode.rhs_evals"] - before) // 4
            if traj.blown_up:
                counts["ode.blowups"] += 1
            return traj

        return functools.wraps(fn)(rk4_integrate)

    def _after_hooks(self):
        counts, active = self.counts, self.active

        def solve_grey(args, kwargs, result, error):
            if active["grey_twostep.select_initial"]:
                counts["grey_twostep.init_integrations"] += 1

        def fit_matching_power(args, kwargs, result, error):
            if active["integral_matching.gamma_line_search"]:
                counts["integral_matching.candidates"] += 1
            if not active["integral_matching.fit_matching"]:
                counts["integral_matching.fits"] += 1

        def fit_matching(args, kwargs, result, error):
            counts["integral_matching.fits"] += 1

        def score(args, kwargs, result, error):
            if (active["integral_matching.gamma_line_search"] and error is None
                    and math.isfinite(result)):
                counts["integral_matching.scored"] += 1

        def run_monte_carlo(args, kwargs, result, error):
            if result is not None:
                for record in result.records:
                    if record.status != "ok":
                        counts[f"simulate.failures.{record.status}"] += 1

        return {
            "ode.solve_grey": solve_grey,
            "integral_matching.fit_matching_power": fit_matching_power,
            "integral_matching.fit_matching": fit_matching,
            "metrics.mape": score,
            "metrics.rmse": score,
            "simulate.run_monte_carlo": run_monte_carlo,
        }

    # -- patching ---------------------------------------------------------

    def install(self):
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == "greymatch" or name.startswith("greymatch.")}
        core = modules["greymatch.core"]
        hooks = self._after_hooks()
        replacement = {}
        for layer in LAYERS:
            module = modules.get(f"greymatch.{layer}")
            if module is None:
                continue
            for attr, value in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name == "core.evaluate_basis" or name == "core.basis_jacobian":
                    wrapped = self._wrap_hot("core", f"{name}.calls", value)
                elif name == "ode.rk4_integrate":
                    wrapped = self._wrap(layer, name, self._rk4(value, core.DomainError))
                else:
                    wrapped = self._wrap(layer, name, value, hooks.get(name))
                replacement[value] = wrapped
            if layer == "core":
                for cls in vars(module).values():
                    if inspect.isclass(cls) and issubclass(cls, module.NonlinearBasis):
                        for method, counter in (("evaluate", "core.basis_evals"),
                                                ("jacobian", "core.jacobian_evals")):
                            original = cls.__dict__.get(method)
                            if original is not None and cls is not module.NonlinearBasis:
                                self._patched.append((cls, method, original))
                                setattr(cls, method, self._wrap_hot("core", counter, original))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replacement:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, replacement[value])

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self, statuses):
        """Per-layer metrics of everything traced so far, named ``<layer>.<metric>``."""
        c, calls, incl = self.counts, self.calls, self.incl_s

        def layer_calls(layer):
            return sum(n for name, n in calls.items() if name.startswith(layer + "."))

        rk4_s = incl["ode.rk4_integrate"]
        candidates = c["integral_matching.candidates"]
        out = {
            "ode.integrations": calls["ode.rk4_integrate"],
            "ode.rk4_steps": c["ode.rk4_steps"],
            "ode.rhs_evals": c["ode.rhs_evals"],
            "ode.blowups": c["ode.blowups"],
            "ode.domain_exits": c["ode.domain_exits"],
            "ode.self_s": self.self_s["ode"],
            "ode.steps_per_s": c["ode.rk4_steps"] / rk4_s if rk4_s > 0 else 0.0,
            "core.basis_evals": c["core.basis_evals"],
            "core.jacobian_evals": c["core.jacobian_evals"],
            "core.self_s": self.self_s["core"],
            "grey_twostep.fits": calls["grey_twostep.fit_grey"],
            "grey_twostep.self_s": self.self_s["grey_twostep"],
            "grey_twostep.lstsq_calls": calls["grey_twostep.least_squares_solve"],
            "grey_twostep.lstsq_s": incl["grey_twostep.least_squares_solve"],
            "grey_twostep.init_searches": calls["grey_twostep.select_initial"],
            "grey_twostep.init_integrations": c["grey_twostep.init_integrations"],
            "grey_twostep.init_s": incl["grey_twostep.select_initial"],
            "integral_matching.fits": c["integral_matching.fits"],
            "integral_matching.design_s": incl["integral_matching.build_design_matching"],
            "integral_matching.self_s": self.self_s["integral_matching"],
            "integral_matching.candidates": candidates,
            "integral_matching.candidates_scored_ratio":
                c["integral_matching.scored"] / candidates if candidates else 0.0,
            "simulate.replications": calls["simulate.add_noise"],
            "simulate.clean_s": incl["simulate.generate_clean"],
            "simulate.noise_s": incl["simulate.add_noise"],
            "simulate.self_s": self.self_s["simulate"],
        }
        for status in statuses:
            out[f"simulate.failures.{status}"] = c[f"simulate.failures.{status}"]
        for layer in ("transform", "metrics"):
            out[f"{layer}.calls"] = layer_calls(layer)
            out[f"{layer}.self_s"] = self.self_s[layer]
        out["cli.commands"] = calls["cli.main"]
        out["cli.io_s"] = incl["cli.read_timeseries_csv"] + incl["cli.write_manifest"]
        out["cli.self_s"] = self.self_s["cli"]
        return out

    def write_spans(self, path):
        """Write the kept spans as JSON lines: name, start, end (s), parent index."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent = span
                handle.write(json.dumps({"i": index, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")
