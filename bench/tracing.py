"""Per-layer tracing of fml2hol from outside the program.

``Tracer.install`` replaces each traced public function with a wrapper in
every fml2hol module that binds it (``qmf`` imports ``validate_problem``
by name, the package re-exports most entry points), and ``uninstall`` puts
the originals back.  A wrapper records a span (name, start, end, parent)
and charges the span's duration minus its traced children to the
function's self time.  A function that re-enters itself (the recursive
``hol.beta_normalize`` and ``embedding.embed_formula``) is recorded at its
outermost entry only.
"""

from __future__ import annotations

import sys
import time

TRACED = {
    "cli": ("main",),
    "qmf": ("parse_problem",),
    "fml": ("validate_problem",),
    "embedding": ("embed_problem", "embed_formula", "connective_definitions"),
    "hol": ("expand_definitions", "beta_normalize"),
    "thf": ("emit_problem",),
    "kripke": (
        "find_countermodel",
        "eval_fml",
        "eval_hol",
        "correspondence_check",
        "frame_violations",
        "domain_violations",
        "parse_model",
        "print_model",
    ),
}
NAMES = tuple(f"{module}.{func}" for module, funcs in TRACED.items() for func in funcs)
PACKAGE = "fml2hol"

SEARCH = "kripke.find_countermodel"
EVAL_FML = "kripke.eval_fml"
OUTCOMES = {"Countermodel": "found", "NoCountermodelWithinBounds": "exhausted", "Timeout": "timeout"}

# spans deeper than this under the outermost call are aggregated but not
# kept, so a search that makes 10^5 eval_fml calls does not fill memory
KEPT_SPAN_DEPTH = 1


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(NAMES, 0)
        self.self_s = dict.fromkeys(NAMES, 0.0)
        self.raised = dict.fromkeys(NAMES, 0)
        self.outcomes = dict.fromkeys(OUTCOMES.values(), 0)
        self.eval_fml_in_search = 0
        self.root_s = 0.0  # total duration of outermost spans
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[list] = []  # [name, start, child seconds, span index]
        self._active: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, original):
        stack, active, spans = self._stack, self._active, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if name in active:
                return original(*args, **kwargs)
            parent = stack[-1][3] if stack else -1
            index = -1
            if len(stack) <= KEPT_SPAN_DEPTH:
                index = len(spans)
                spans.append(None)
            frame = [name, 0.0, 0.0, index]
            stack.append(frame)
            active.add(name)
            frame[1] = start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                active.discard(name)
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                else:
                    self.root_s += duration
                if name == EVAL_FML and SEARCH in active:
                    self.eval_fml_in_search += 1
                if index >= 0:
                    spans[index] = (name, start, end, parent)
            if name == SEARCH:
                outcome = OUTCOMES.get(type(result).__name__)
                if outcome:
                    self.outcomes[outcome] += 1
            return result

        traced.__wrapped__ = original
        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for qualified in NAMES:
            module_name, func = qualified.rsplit(".", 1)
            home = sys.modules[f"{PACKAGE}.{module_name}"]
            original = getattr(home, func)
            wrapper = self._wrap(qualified, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def metrics(self) -> dict:
        """Per-layer metrics by name: (value, unit)."""
        out = {}
        for name in NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
            out[f"{name}.raised"] = (self.raised[name], "count")
        for outcome, count in self.outcomes.items():
            out[f"{SEARCH}.{outcome}"] = (count, "count")
        searches = self.calls[SEARCH]
        out[f"{EVAL_FML}.calls_per_search"] = (
            self.eval_fml_in_search / searches if searches else 0.0, "count")
        return out
