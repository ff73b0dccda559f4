"""Layer tracer for the benchmark's traced run.

Wraps the public functions of each ``commvar`` module from outside the
package: a wrapped function replaces the original in every ``commvar``
module namespace that holds it (``partitions_of`` is imported by name
into ``symfunc``, ``charmodel`` and ``verify``), and a wrapped method
replaces every alias of it on its class (``__radd__ = __add__``).

Every call opens a span.  A span's self time is its duration minus the
time its child spans cover.  Calls and self time are summed per span
name; counts derived from call arguments or results go to ``counts``.
Spans of the coarse layers (everything but the hot kernels) are also
kept in memory with name, start, end, parent and command id.
"""

from __future__ import annotations

import sys
import time

# Hot kernels: tallied, but their spans are not kept one by one.
_HOT = {
    "arith.poly_mul", "arith.poly_divmod", "arith.poly_gcd", "arith.ratfunc_add",
    "arith.ratfunc_mul", "arith.ratfunc_init", "arith.tseries_mul",
    "symfunc.mn_character", "symfunc.symfunc_mul", "symfunc.schur",
    "charmodel.graded_trace_product", "charmodel.flag_schur_coefficient",
    "partitions.partitions_of", "oracle.matrix_ok", "oracle.commute", "oracle.det_mod",
}
SPAN_LIMIT = 2000


def _count_poly_mul(counts, args, result):
    a, b = args
    nb = len(b.coeffs) if hasattr(b, "coeffs") else 1
    counts["arith.poly_mul.coeff_pairs"] += len(a.coeffs) * nb


def _count_poly_gcd(counts, args, result):
    if result.degree() > 0:
        counts["arith.poly_gcd.nontrivial"] += 1


def _count_count_points(counts, args, result):
    family, n, p = args[:3]
    counts["oracle.candidates_computed"] += p ** (family.tuple_len * n * n)
    counts["oracle.tuples_counted"] += result


def _count_partitions(counts, args, result):
    counts["partitions.enumerated"] += len(result)


class Tracer:
    def __init__(self, command_id: int):
        self.command_id = command_id
        self.stack: list[list] = []  # per open span: [child time, kept span id]
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counts: dict[str, int] = {
            "arith.poly_mul.coeff_pairs": 0,
            "arith.poly_gcd.nontrivial": 0,
            "oracle.candidates_computed": 0,
            "oracle.tuples_counted": 0,
            "partitions.enumerated": 0,
        }
        self.spans: list[tuple] = []
        self.spans_dropped = 0

    def _wrap(self, name, fn, count=None, name_from_args=None):
        perf = time.perf_counter
        stack, stats, counts, spans = self.stack, self.stats, self.counts, self.spans
        keep = name not in _HOT
        tracer = self

        def wrapper(*args, **kwargs):
            span = name if name_from_args is None else name_from_args(args, kwargs)
            parent = stack[-1][1] if stack else None
            record = keep and len(spans) < SPAN_LIMIT
            if record:
                kept = len(spans)
                spans.append(None)
            else:
                kept = parent
                if keep:
                    tracer.spans_dropped += 1
            frame = [0.0, kept]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                st = stats.get(span)
                if st is None:
                    st = stats[span] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur - frame[0]
                st[2] += dur
                if stack:
                    stack[-1][0] += dur
                if record:
                    spans[kept] = (kept, span, start, end, parent, tracer.command_id)
            if count is not None:
                count(counts, args, result)
            return result

        return wrapper

    def _patch_function(self, name, module, attr, **kw):
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "commvar" or mod_name.startswith("commvar."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _patch_method(self, name, classes, attr, **kw):
        for cls in classes:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(name, raw.__func__, **kw))
            else:
                patched = self._wrap(name, raw, **kw)
            for key, value in list(vars(cls).items()):
                if value is raw:
                    setattr(cls, key, patched)

    def install(self) -> None:
        import commvar.cli
        from commvar import arith, charmodel, oracle, partitions, series, symfunc, varieties, verify

        fn, meth = self._patch_function, self._patch_method
        meth("arith.poly_mul", [arith.Poly], "__mul__", count=_count_poly_mul)
        meth("arith.poly_divmod", [arith.Poly], "__divmod__")
        fn("arith.poly_gcd", arith, "poly_gcd", count=_count_poly_gcd)
        meth("arith.ratfunc_add", [arith.RatFunc], "__add__")
        meth("arith.ratfunc_mul", [arith.RatFunc], "__mul__")
        meth("arith.ratfunc_init", [arith.RatFunc], "__init__")
        meth("arith.tseries_mul", [arith.TSeries], "__mul__")

        fn("partitions.partitions_of", partitions, "partitions_of", count=_count_partitions)

        fn("symfunc.mn_character", symfunc, "mn_character")
        meth("symfunc.to_schur", [symfunc.SymFunc], "to_schur")
        meth("symfunc.schur", [symfunc.SymFunc], "schur")
        meth("symfunc.principal_spec", [symfunc.SymFunc], "principal_spec")
        meth("symfunc.symfunc_mul", [symfunc.SymFunc], "__mul__")

        for attr in (
            "enhanced_character", "graded_trace_product", "poincare",
            "flag_character", "flag_schur_coefficient", "point_count",
        ):
            fn(f"charmodel.{attr}", charmodel, attr)
        for attr in ("betti_zeta", "coh_series", "stable_betti", "stable_betti_verified", "groupoid_series"):
            fn(f"series.{attr}", series, attr)

        fn("oracle.count_points", oracle, "count_points", count=_count_count_points)
        fn("oracle.commute", oracle, "commute")
        fn("oracle.det_mod", oracle, "det_mod")
        meth("oracle.matrix_ok", [oracle.AffineSpace, oracle.Torus, oracle.PuncturedLine], "matrix_ok")

        for attr in ("resolve_variety", "family_for", "builtin_space"):
            fn(f"varieties.{attr}", varieties, attr)

        fn("cli.main", commvar.cli, "main")
        fn(
            "verify.run_suite", verify, "run_suite",
            name_from_args=lambda args, kwargs: f"verify.{args[0] if args else kwargs.get('name', 'all')}",
        )

    def report(self) -> dict:
        from commvar import symfunc

        info = symfunc._mn.cache_info()
        return {
            "stats": self.stats,
            "counts": dict(self.counts, **{"symfunc.mn_cache.hits": info.hits, "symfunc.mn_cache.misses": info.misses}),
            "spans": [s for s in self.spans if s is not None],
            "spans_dropped": self.spans_dropped,
        }
