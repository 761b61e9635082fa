"""Layer tracing from outside the program.

Wraps the public functions of raqdp's modules at the names their callers
import them under (`raqdp.cli.load_csv`, not `raqdp.engine.load_csv`), so a
call is seen exactly where one layer hands work to the next. Each wrapped call
records a span (name, start, end, parent); spans are kept in memory, turned
into per-layer metrics when the traced pass ends, and optionally written out. Functions called
once per row or per grid point are only counted, not timed, because a span
per call would cost more than the call.
"""

from __future__ import annotations

import importlib
import json
import time

# (module, attribute, span name). The span name's prefix is the layer.
SPANNED = (
    ("raqdp.cli", "main", "cli.main"),
    ("raqdp.cli", "parse_schemas", "parsing.parse"),
    ("raqdp.cli", "parse_query", "parsing.parse"),
    ("raqdp.cli", "validate", "query.validate"),
    ("raqdp.dp", "validate", "query.validate"),
    ("raqdp.analyzer", "validate", "query.validate"),
    ("raqdp.oracle", "validate", "query.validate"),
    ("raqdp.analyzer", "diameter", "constraints.diameter"),
    ("raqdp.analyzer", "attribute_bounds", "constraints.bounds"),
    ("raqdp.engine", "attribute_bounds", "constraints.bounds"),
    ("raqdp.query", "attribute_bounds", "constraints.bounds"),
    ("raqdp.cli", "global_sensitivity", "analyzer.global_sensitivity"),
    ("raqdp.dp", "global_sensitivity", "analyzer.global_sensitivity"),
    ("raqdp.cli", "load_csv", "engine.load"),
    ("raqdp.cli", "answer", "engine.eval"),
    ("raqdp.dp", "answer", "engine.eval"),
    ("raqdp.oracle", "answer", "engine.eval"),
    ("raqdp.cli", "dp_answer", "dp.answer"),
    ("raqdp.dp", "make_rng", "dp.noise"),
    ("raqdp.dp", "laplace_sample", "dp.noise"),
    ("raqdp.cli", "build_universe", "oracle.universe"),
    ("raqdp.cli", "brute_sensitivity", "oracle.brute"),
)

# (module, attribute, counter). `evaluate` recurses through the module-level
# name, so only calls made while no other evaluate call is open are counted:
# one per row tested (engine) or per grid point tested (constraints).
COUNTED = (
    ("raqdp.engine", "evaluate", "engine.predicate_evals"),
    ("raqdp.constraints", "evaluate", "constraints.evaluate_calls"),
)

# Self time is reported for these span names: the span minus its children.
SELF_TIMED = {
    "cli.main": "cli.self_s",
    "analyzer.global_sensitivity": "analyzer.self_s",
    "oracle.brute": "oracle.self_s",
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, rows or None)
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._depth = 0
        self._saved: list = []

    def install(self) -> None:
        for module, attr, name in SPANNED:
            self._patch(module, attr, lambda fn, name=name: self._spanned(fn, name))
        for module, attr, name in COUNTED:
            self.counts[name] = 0
            self._patch(module, attr, lambda fn, name=name: self._counted(fn, name))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _patch(self, module: str, attr: str, make) -> None:
        try:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{attr}")
            return
        self._saved.append((mod, attr, fn))
        setattr(mod, attr, make(fn))

    def _spanned(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            rows = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if name == "engine.load":
                    rows = len(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, rows)

        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self._depth == 0:
                counts[name] += 1
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1

        return wrapper

    def write_spans(self, path: str) -> None:
        """All spans as JSON lines: name, start, end (seconds) and parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")

    def layer_metrics(self, calls: int) -> dict[str, float]:
        """Per-layer totals over the traced pass, divided by the CLI calls made."""
        total: dict[str, float] = {}
        n: dict[str, int] = {}
        child_time = [0.0] * len(self.spans)
        rows = 0
        for name, start, end, parent, r in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            n[name] = n.get(name, 0) + 1
            if parent >= 0:
                child_time[parent] += end - start
            rows += r or 0
        self_time = dict.fromkeys(SELF_TIMED.values(), 0.0)
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            if name in SELF_TIMED:
                self_time[SELF_TIMED[name]] += (end - start) - inner
        # databases the oracle evaluated: engine calls made inside brute force
        dbs = sum(
            1 for name, _, _, parent, _ in self.spans
            if name == "engine.eval" and parent >= 0 and self.spans[parent][0] == "oracle.brute"
        )
        load_s = total.get("engine.load", 0.0)
        per = 1.0 / max(calls, 1)
        out = {
            "engine.load_s": load_s * per,
            "engine.load_rows_per_s": rows / load_s if load_s else 0.0,
            "engine.eval_s": total.get("engine.eval", 0.0) * per,
            "engine.eval_calls": n.get("engine.eval", 0) * per,
            "engine.predicate_evals": self.counts.get("engine.predicate_evals", 0) * per,
            "constraints.diameter_s": total.get("constraints.diameter", 0.0) * per,
            "constraints.diameter_calls": n.get("constraints.diameter", 0) * per,
            "constraints.bounds_s": total.get("constraints.bounds", 0.0) * per,
            "constraints.bounds_calls": n.get("constraints.bounds", 0) * per,
            "constraints.evaluate_calls": self.counts.get("constraints.evaluate_calls", 0) * per,
            "parsing.parse_s": total.get("parsing.parse", 0.0) * per,
            "query.validate_s": total.get("query.validate", 0.0) * per,
            "query.validate_calls": n.get("query.validate", 0) * per,
            "oracle.universe_s": total.get("oracle.universe", 0.0) * per,
            "oracle.dbs": dbs * per,
            "dp.noise_s": total.get("dp.noise", 0.0) * per,
        }
        out.update({k: v * per for k, v in self_time.items()})
        return out
