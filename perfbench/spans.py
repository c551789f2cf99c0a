"""Benchmark-side tracing of distdet's layers.

The tracer wraps public functions of the package where each distdet module
binds them, so a call from any module is recorded, and keeps one span per call
in memory: [name, start_ns, end_ns, parent index, op id, info]. Nothing in the
package is edited; uninstall puts every original function back. summarize()
turns a span list into the per-layer metrics, using self times (a span's
duration minus the time its direct children cover).
"""

from __future__ import annotations

import functools
import importlib
import time

LAYERS = ("cli", "graphs", "blocks", "formulas", "linalg", "verify")
ROOT_SPAN = "cli.main"


def _bits(args, result):
    return max(abs(result.det).bit_length(), abs(result.cof).bit_length())


# (span name, defining module, function, optional info taken from a call).
TARGETS = (
    ("graphs.parse", "graphs", "parse_edge_list", None),
    ("graphs.distance_matrix", "graphs", "distance_matrix", None),
    ("graphs.generate", "graphs", "random_block_graph", None),
    ("blocks.decompose", "blocks", "biconnected_components", lambda args, result: len(result)),
    ("blocks.classify", "blocks", "classify_block", None),
    ("blocks.classify_graph", "blocks", "classify_graph", None),
    ("blocks.inventory", "blocks", "inventory", None),
    ("formulas.census", "formulas", "det_cof_closed", _bits),
    ("formulas.compose", "formulas", "compose_ghh", None),
    ("formulas.block_value", "formulas", "block_detcof", None),
    ("linalg.bareiss", "linalg", "bareiss_det", lambda args, result: len(args[0])),
    ("linalg.cof_sum", "linalg", "cof_sum", None),
    ("linalg.rational", "linalg", "rat_inverse", None),
    ("linalg.rational", "linalg", "mat_mul", None),
    ("verify.oracle", "verify", "det_cof_oracle", None),
    ("verify.identities", "verify", "cycle_inverse_identity", None),
    ("verify.identities", "verify", "scalar_identity_checks", None),
    ("verify.identities", "verify", "congruence_check_theta", None),
    ("verify.identities", "verify", "congruence_check_theta_prime", None),
    ("verify.graph", "verify", "verify_graph", None),
    ("verify.campaign", "verify", "fuzz_campaign", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [importlib.import_module(f"distdet.{layer}") for layer in LAYERS]
        for name, home, func, info in TARGETS:
            original = getattr(modules[LAYERS.index(home)], func, None)
            if original is None:
                self.missing.append(f"distdet.{home}.{func}")
                continue
            wrapper = self._wrap(name, original, info)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))

    def _wrap(self, name, fn, info):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if info is not None:
                try:
                    record[5] = info(args, result)
                except (AttributeError, TypeError):
                    pass  # the function's result changed shape; no info then
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def begin_op(self, op: int) -> None:
        """Open the op's root span; everything the op calls nests under it."""
        self.op = op
        self.stack.append(len(self.spans))
        self.spans.append([ROOT_SPAN, time.perf_counter_ns(), 0, -1, op, None])

    def end_op(self) -> None:
        self.spans[self.stack.pop()][2] = time.perf_counter_ns()
        self.stack.clear()


# Per-layer metric -> (span name, statistic). Statistics: self = self seconds
# per op, total = inclusive seconds per op, calls = calls per op, info_mean =
# mean of the recorded info per call, info_max = largest recorded info.
STAGES = {
    "graphs.parse_s": ("graphs.parse", "self"),
    "graphs.distance_matrix_s": ("graphs.distance_matrix", "self"),
    "blocks.decompose_s": ("blocks.decompose", "self"),
    "blocks.decompose_calls": ("blocks.decompose", "calls"),
    "blocks.classify_s": ("blocks.classify", "self"),
    "blocks.count": ("blocks.decompose", "info_mean"),
    "formulas.compose_s": ("formulas.compose", "self"),
    "formulas.census_s": ("formulas.census", "self"),
    "formulas.result_bits": ("formulas.census", "info_mean"),
    "linalg.bareiss_s": ("linalg.bareiss", "self"),
    "linalg.bareiss_calls": ("linalg.bareiss", "calls"),
    "linalg.max_order": ("linalg.bareiss", "info_max"),
    "linalg.rational_s": ("linalg.rational", "self"),
    "verify.oracle_s": ("verify.oracle", "total"),
    "verify.identities_s": ("verify.identities", "self"),
    "verify.graphs": ("verify.graph", "calls"),
}


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics per traced op, from one run's spans."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats: dict[str, dict] = {}
    for index, (name, start, end, _, _, info) in enumerate(spans):
        entry = stats.setdefault(name, {"self": 0, "total": 0, "calls": 0, "infos": []})
        entry["self"] += end - start - child_ns[index]
        entry["total"] += end - start
        entry["calls"] += 1
        if info is not None:
            entry["infos"].append(info)
    ops = max(stats.get(ROOT_SPAN, {}).get("calls", 0), 1)
    empty = {"self": 0, "total": 0, "calls": 0, "infos": []}

    def value(name: str, stat: str) -> float:
        entry = stats.get(name, empty)
        if stat in ("self", "total"):
            return entry[stat] / 1e9 / ops
        if stat == "calls":
            return entry["calls"] / ops
        if stat == "info_max":
            return max(entry["infos"], default=0)
        return sum(entry["infos"]) / len(entry["infos"]) if entry["infos"] else 0

    metrics = {metric: value(*spec) for metric, spec in STAGES.items()}
    for layer in LAYERS:
        self_ns = sum(entry["self"] for name, entry in stats.items() if name.split(".")[0] == layer)
        metrics[f"{layer}.self_s"] = self_ns / 1e9 / ops
    return metrics
