"""Per-layer tracing of cosmo from outside the program.

``Tracer.install`` replaces cosmo's public functions (and three methods of
``LinkDiagram``) with wrappers that record a span per call: name, start,
end and the enclosing span.  cosmo binds names at import time
(``from .arith import dedekind_symbol`` and so on), so a wrapper is bound
under every name in every ``cosmo`` module that refers to the original, not
only in the module that defines it.  ``uninstall`` puts the originals back.

Self time (a span minus its child spans) and counters are summed per layer
as the spans close.  The first ``SPAN_CAP`` spans are also kept in memory
and written out when the run ends; ``dropped`` counts the rest.  Span
clocks are ``perf_counter_ns``: a process CPU clock costs about four times as
much per read on Linux, and self time is summed over millions of spans.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from reference import euclid_steps

SPAN_CAP = 100_000

# (module, attribute, layer, call counter); a counter of None counts nothing
FUNCTIONS = [
    ("cosmo.arith", "dedekind_sum_fast", "arith", "arith.calls"),
    ("cosmo.arith", "dedekind_sum_naive", "arith", "arith.calls"),
    ("cosmo.arith", "dedekind_symbol", "arith", "arith.calls"),
    ("cosmo.arith", "sawtooth", "arith", "arith.calls"),
    ("cosmo.casson_walker", "casson_walker_link_surgery", "casson_walker", "casson_walker.calls"),
    ("cosmo.casson_walker", "casson_boyer_lines", "casson_walker", "casson_walker.calls"),
    ("cosmo.casson_walker", "linking_matrix", "casson_walker", "casson_walker.calls"),
    ("cosmo.casson_walker", "signature_2x2", "casson_walker", "casson_walker.calls"),
    ("cosmo.casson_walker", "lambda_w_from_lambda", "casson_walker", "casson_walker.calls"),
    ("cosmo.obstructions", "purely_cosmetic_candidates_ihs", "obstructions", "obstructions.calls"),
    ("cosmo.obstructions", "purely_cosmetic_obstruction_bl", "obstructions", "obstructions.calls"),
    ("cosmo.obstructions", "chirally_cosmetic_obstruction_ihs", "obstructions", "obstructions.calls"),
    ("cosmo.obstructions", "purely_cosmetic_quadratic", "obstructions", "obstructions.calls"),
    ("cosmo.obstructions", "purely_cosmetic_obstruction_thm4", "obstructions", "obstructions.calls"),
    ("cosmo.obstructions", "chirally_cosmetic_obstruction", "obstructions", "obstructions.calls"),
    ("cosmo.obstructions", "pretzel_analysis", "obstructions", "obstructions.calls"),
    # the closed forms v3 and pretzel_a3_closed_form count toward their callers
    ("cosmo.links", "conway_polynomial", "links", "links.calls"),
    ("cosmo.links", "invariants_from_diagram", "links", "links.calls"),
    ("cosmo.seifert", "conway_from_seifert", "seifert.det", "seifert.det.calls"),
    ("cosmo.seifert", "alexander_second_derivative", "seifert.det", None),
    ("cosmo.seifert", "levine_tristram_signature", "seifert.signature", "seifert.signature.calls"),
    ("cosmo.seifert", "total_p_signature", "seifert.signature", None),
    ("cosmo.seifert", "casson_gordon_tau", "seifert.tau", "seifert.tau.calls"),
    ("cosmo.cli", "parse_args", "cli.parse", None),
    ("cosmo.cli", "run", "cli.run", None),
]

# LinkDiagram methods: (method, layer or None for a bare counter, counter)
METHODS = [
    ("__init__", "links.build", "links.diagrams_built"),
    ("canonical_key", "links.key", "links.key_calls"),
    ("switch_crossing", None, "links.skein_nodes"),
]


class CountingMemo(dict):
    """Skein memo table that counts lookups which find an entry."""

    __slots__ = ("hits",)

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.hits = 0

    def __contains__(self, key) -> bool:
        found = dict.__contains__(self, key)
        self.hits += found
        return found


class Tracer:
    def __init__(self) -> None:
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple[int, str, int, int, int]] = []
        self.dropped = 0
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object, object]] = []
        self._build_patches()

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name: str, layer: str, fn, counter: str | None, before=None):
        stack, spans, self_ns, counts = self._stack, self.spans, self.self_ns, self.counts
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            if counter is not None:
                counts[counter] += 1
            parent = stack[-1] if stack else None
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_ns[layer] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((sid, name, start, end, -1 if parent is None else parent[0]))
                else:
                    self.dropped += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting(self, fn, counter: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _conway_with_memo_counts(self, original):
        """conway_polynomial with its memo table swapped for a CountingMemo."""
        counts = self.counts

        def call(d, *, memo=None, **kwargs):
            counts["links.crossings"] += len(d.crossings)
            table = CountingMemo() if memo is None else CountingMemo(memo)
            before = len(table)
            try:
                return original(d, memo=table, **kwargs)
            finally:
                counts["links.memo_entries"] += len(table) - before
                counts["links.memo_hits"] += table.hits
                if memo is not None:
                    memo.update(table)

        return call

    def _before_dedekind(self, args) -> None:
        p, q = args[0], args[1]
        if q:
            self.counts["arith.euclid_steps"] += euclid_steps(p, q)

    def _before_signature(self, args) -> None:
        self.counts["seifert.signature.size_sum"] += args[0].size

    def _before_det(self, args) -> None:
        self.counts["seifert.det.size_sum"] += args[0].size

    def _build_patches(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "cosmo" or name.startswith("cosmo.")]
        hooks = {
            "dedekind_sum_fast": self._before_dedekind,
            "levine_tristram_signature": self._before_signature,
            "conway_from_seifert": self._before_det,
        }
        for module_name, attr, layer, counter in FUNCTIONS:
            if module_name not in sys.modules:
                continue
            original = getattr(sys.modules[module_name], attr)
            inner = self._conway_with_memo_counts(original) if attr == "conway_polynomial" else original
            wrapper = self._span(f"{module_name[6:]}.{attr}", layer, inner, counter, hooks.get(attr))
            for module in modules:
                for name, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, name, original, wrapper))
        links = sys.modules.get("cosmo.links")
        if links is not None:
            cls = links.LinkDiagram
            for method, layer, counter in METHODS:
                original = cls.__dict__[method]
                if layer is None:
                    wrapper = self._counting(original, counter)
                else:
                    wrapper = self._span(f"links.LinkDiagram.{method}", layer, original, counter)
                self._patches.append((cls, method, original, wrapper))

    def install(self) -> None:
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    # -- results ------------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
            "spans": self.spans,
            "dropped": self.dropped,
        }
