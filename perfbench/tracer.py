"""Spans and counters recorded around calls into the bihomega layers.

The tracer measures from outside the program: it replaces public functions
by timing wrappers at every module binding that holds them (``from .linalg
import rank`` copies the name into ``cochain``, ``rbf`` and ``algebra``, so
patching ``linalg.rank`` alone would miss those callers), and restores the
originals on exit.  A function the program no longer defines is skipped,
and a count whose return value no longer has the expected shape is
recorded as ``<name>.unobserved``, so a refactor leaves counters at zero
instead of breaking the run.

Each call records one span: name, start, end and the span it was called
from.  Spans stay in memory until the traced pass ends.  A layer's self
time is its spans' durations minus the time covered by their direct child
spans and by the tracer's own bookkeeping inside them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Coboundary routes: a direct child span with one of these names inside
# ``rbf.partial`` is one route evaluated.  ``_partial_expanded`` is the
# second, expanded-sum route; it is counted while the program has it.
ROUTES = frozenset(
    {"cochain.apply_delta", "cochain.delta_op", "gerstenhaber.delta_via_bracket", "rbf._partial_expanded"}
)


def _is_integral(v) -> bool:
    return getattr(v, "denominator", 1) == 1


class Tracer:
    """Context manager that wraps the traced functions while it is active."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, bookkeeping seconds inside]
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []  # (module, attribute, original)
        self._seen = {}  # (name, id(first arg), second arg) -> (first arg, result)

    # -- installation -----------------------------------------------------

    def __enter__(self):
        targets = {
            "linalg": ("rank", "sparse_rref"),
            "cochain": ("equivariant_basis", "delta_op", "delta_matrix", "apply_delta", "cohomology_dims"),
            "rbf": ("phi", "partial", "_partial_expanded", "combined_raw_matrix", "chain_map_check"),
            "gerstenhaber": ("circ_i", "bracket", "mc_residual", "delta_via_bracket"),
            "serialization": ("parse_workbench", "workbench_to_json"),
            "algebra": ("validate_algebra", "check_rota_baxter"),
            "bimodule": ("validate_bimodule", "validate_rbf_bimodule"),
            "deformation": ("check_jet", "rigidity_report"),
            "extension": ("build_extension", "extract_cocycle", "compare_extensions"),
            "search": ("search_rbf",),
            "cli": ("run_command",),
        }
        modules = [m for n, m in list(sys.modules.items()) if n == "bihomega" or n.startswith("bihomega.")]
        for short, names in targets.items():
            home = sys.modules.get(f"bihomega.{short}")
            if home is None:
                continue
            for attr in names:
                original = getattr(home, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._patched.append((mod, key, original))
        return self

    def __exit__(self, *exc):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()
        return False

    def _wrap(self, name: str, original):
        observe = getattr(self, "_obs_" + name.replace(".", "_"), None)
        pre = getattr(self, "_pre_" + name.replace(".", "_"), None)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            entered = clock()
            if pre is not None:
                try:
                    pre(*args, **kwargs)
                except (AttributeError, TypeError):  # the layer's arguments changed
                    counts[name + ".unobserved"] += 1
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(span)
            counts[name + ".calls"] += 1
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                stack.pop()
                counts[name + ".raised." + type(exc).__name__] += 1
                raise
            span[2] = clock()
            stack.pop()
            if observe is not None:
                try:
                    observe(result, *args, **kwargs)
                except (AttributeError, TypeError):  # the layer's return type changed
                    counts[name + ".unobserved"] += 1
            if parent >= 0:
                spans[parent][4] += (span[1] - entered) + (clock() - span[2])
            return result

        return wrapper

    # -- observers: counts taken at the layer boundary ----------------------

    def _first_sight(self, name: str, owner, key, result) -> bool:
        """True when this call built a new object rather than returning a cached one."""
        slot = (name, id(owner), key)
        prior = self._seen.get(slot)
        if prior is not None and prior[1] is result:
            self.counts[name + ".hits"] += 1
            return False
        self._seen[slot] = (owner, result)
        return True

    def _scalars(self, values):
        nonzero = integral = 0
        for v in values:
            if v:
                nonzero += 1
                integral += _is_integral(v)
        self.counts["rationals.nonzero"] += nonzero
        self.counts["rationals.integral"] += integral

    def _obs_cochain_equivariant_basis(self, result, b, n, *rest, **kw):
        if self._first_sight("cochain.equivariant_basis", b, n, result):
            self.counts["cochain.equivariant_basis.dim"] += result.dim()

    def _obs_cochain_delta_op(self, result, b, n, *rest, **kw):
        if self._first_sight("cochain.delta_op", b, n, result):
            self.counts["cochain.delta_op.nnz"] += sum(len(c) for c in result.cols)
            self._scalars(v for col in result.cols for _, v in col)

    def _obs_cochain_delta_matrix(self, result, b, n, *rest, **kw):
        if self._first_sight("cochain.delta_matrix", b, n, result):
            self.counts["cochain.delta_matrix.entries"] += result.rows * result.cols
            self._scalars(result.entries)

    def _obs_cochain_apply_delta(self, result, *args, **kw):
        self._scalars(result.coords)

    def _pre_linalg_sparse_rref(self, rows, *args, **kw):
        self.counts["linalg.sparse_rref.rows_in"] += len(rows)
        self.counts["linalg.sparse_rref.nonzero_rows"] += sum(1 for r in rows if r)

    def _obs_linalg_sparse_rref(self, result, *args, **kw):
        self.counts["linalg.sparse_rref.pivots"] += len(result)

    def _obs_rbf_combined_raw_matrix(self, result, ctx, n, *rest, **kw):
        if self._first_sight("rbf.combined_raw_matrix", ctx, n, result):
            self.counts["rbf.combined_raw_matrix.entries"] += result.rows * result.cols
            self._scalars(result.entries)

    def _obs_gerstenhaber_circ_i(self, result, *args, **kw):
        self.counts["gerstenhaber.circ_i.coords_out"] += len(result.coords)

    def _obs_gerstenhaber_bracket(self, result, *args, **kw):
        self._scalars(result.coords)

    def _obs_serialization_parse_workbench(self, result, text, *args, **kw):
        self.counts["serialization.parse_workbench.bytes"] += len(text.encode("utf-8"))

    def _obs_search_search_rbf(self, result, a, bound, *args, **kw):
        from bihomega.search import enumeration_size

        self.counts["search.search_rbf.candidates"] += enumeration_size(a, bound)
        self.counts["search.search_rbf.hits"] += len(result)

    # -- summaries ----------------------------------------------------------

    def self_times(self) -> dict:
        """Seconds per span name, excluding direct children and bookkeeping."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, bookkeeping) in enumerate(self.spans):
            out[name] += (end - start) - covered[i] - bookkeeping
        return out

    def routes_per_partial(self) -> int:
        """Coboundary routes evaluated directly inside ``rbf.partial`` spans.

        A call in which no traced route shows counts as one route, since every
        call computes its result by some route.
        """
        per_call = defaultdict(int)
        partial_spans = [i for i, s in enumerate(self.spans) if s[0] == "rbf.partial"]
        for name, _, _, parent, _ in self.spans:
            if parent >= 0 and name in ROUTES and self.spans[parent][0] == "rbf.partial":
                per_call[parent] += 1
        return sum(max(1, per_call[i]) for i in partial_spans)


def ratio(num, den) -> float:
    return num / den if den else 0.0
