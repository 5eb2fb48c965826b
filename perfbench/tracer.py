"""Spans around eisdescent's layer boundaries, recorded from outside.

`Tracer.attach` rebinds, in this process only, the names each module
imports from the layer below (for example `verify.descent_form_image`,
`descent.is_cube`, `eisenstein.factor_int`) to wrappers that record a span:
name, start, end and parent.  `detach` puts every original back.  No file of
the program changes.  Spans are kept in memory; `per_layer` turns them
into the per-layer metrics and `write` saves them when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time

from eisdescent import cli, descent, eisenstein, residues, verify

# The package re-exports the function search() under the module's name.
search = importlib.import_module("eisdescent.search")


def _scan_counts(args, result):
    return {"cells": args[0].size, "distinct": len(result)}


def _closure_products(args, result):
    return {"products": result.set_sizes["cubes"] * result.set_sizes["form_image"]}


def _points(args, result):
    return {"points": result.n_points}


def _bytes(args, result):
    return {"bytes": len(result)}


# (module, attribute, span name, counter function or None).  Each entry is
# the name through which a module reaches the layer below it.
BINDINGS = [
    (cli, "main", "cli.main", None),
    (cli, "parse_element", "parsing.parse", None),
    (cli, "dumps_document", "reports.dumps", _bytes),
    (cli, "make_document", "reports.make_document", None),
    (cli, "verify_no_solution", "verify.no_solution", None),
    (cli, "verify_cube_closure", "verify.cube_closure", _closure_products),
    (cli, "minimal_modulus", "verify.minimal_modulus", None),
    (cli, "search", "search.search", _points),
    (cli, "classify", "descent.classify", None),
    (cli, "descent_form", "descent.form", None),
    (cli, "descent_form_preimage", "descent.preimage", None),
    (cli, "galois_commutes", "descent.galois", None),
    (cli, "reduce_by_pi", "descent.reduce_by_pi", None),
    (cli, "pi_divides_both_factors", "descent.pi_divides_both_factors", None),
    (cli, "is_cube", "eisenstein.is_cube", None),
    (cli, "factor", "eisenstein.factor", None),
    (verify, "verify_no_solution", "verify.no_solution", None),
    (verify, "descent_form_image", "residues.scan", _scan_counts),
    (verify, "rhs_values", "residues.scan", _scan_counts),
    (verify, "cube_values", "residues.scan", _scan_counts),
    (search, "specialize", "descent.specialize", None),
    (search, "galois_commutes", "descent.galois", None),
    (descent, "classify", "descent.classify", None),
    (descent, "descent_form_preimage", "descent.preimage", None),
    (descent, "is_cube", "eisenstein.is_cube", None),
    (descent, "exact_cbrt", "intfactor.exact_cbrt", None),
    (eisenstein, "factor", "eisenstein.factor", None),
    (eisenstein, "factor_int", "intfactor.factor_int", None),
    (eisenstein, "exact_cbrt", "intfactor.exact_cbrt", None),
    (residues.ResidueSet, "write_csv", "residues.write_csv", None),
]


class Tracer:
    """Records spans as (name, start_ns, end_ns, parent index, counters)."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack = [-1]
        self._saved: list = []

    def _wrap(self, name, fn, counters):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if counters is not None:
                spans[index] = (name, start, end, parent, counters(args, result))
            return result
        return wrapper

    def _wrap_generator(self, name, fn):
        # search() lists the rationals at once, so listing them inside the
        # span times the enumeration without a span per point.
        listed = self._wrap(name, lambda *a, **k: list(fn(*a, **k)), None)
        return functools.wraps(fn)(lambda *a, **k: iter(listed(*a, **k)))

    def attach(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already attached")
        for owner, attr, name, counters in BINDINGS:
            self._bind(owner, attr, self._wrap(name, getattr(owner, attr), counters))
        self._bind(search, "enumerate_rationals",
                   self._wrap_generator("search.enumerate", search.enumerate_rationals))
        for key, fn in list(cli._SET_BUILDERS.items()):
            self._bind(cli._SET_BUILDERS, key, self._wrap("residues.scan", fn, _scan_counts))

    def _bind(self, owner, attr, wrapper) -> None:
        if isinstance(owner, dict):
            self._saved.append((owner, attr, owner[attr]))
            owner[attr] = wrapper
        else:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def detach(self) -> None:
        """Restore every wrapped name; raise if one does not come back."""
        saved, self._saved = self._saved, []
        for owner, attr, original in reversed(saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        for owner, attr, original in saved:
            current = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
            if current is not original:
                raise RuntimeError(f"{attr} was not restored")

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="ascii") as fh:
            for name, start, end, parent, counters in self.spans:
                fh.write(json.dumps([name, start, end, parent, counters]) + "\n")

    def per_layer(self) -> dict[str, float]:
        """Per-layer totals over every span recorded so far.

        Inclusive time `<name>_s` sums a name's spans; self time subtracts
        the spans directly below each one.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        factor_below: set[int] = set()
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
                if name == "eisenstein.factor":
                    factor_below.add(parent)
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        counts: dict[str, int] = {}
        filtered = 0
        for i, (name, start, end, parent, counters) in enumerate(spans):
            total[name] = total.get(name, 0) + (end - start) / 1e9
            own[name] = own.get(name, 0) + (end - start - child_ns[i]) / 1e9
            calls[name] = calls.get(name, 0) + 1
            for key, value in (counters or {}).items():
                counts[key] = counts.get(key, 0) + value
            if name == "eisenstein.is_cube" and i not in factor_below:
                filtered += 1
        scan_s = total.get("residues.scan", 0.0)
        cells = counts.get("cells", 0)
        return {
            "residues.scan_s": scan_s,
            "residues.cells": cells,
            "residues.cells_per_s": cells / scan_s if scan_s else 0.0,
            "residues.distinct_ratio": counts.get("distinct", 0) / cells if cells else 0.0,
            "residues.write_csv_s": total.get("residues.write_csv", 0.0),
            "verify.no_solution.self_s": own.get("verify.no_solution", 0.0),
            "verify.cube_closure.self_s": own.get("verify.cube_closure", 0.0),
            "verify.cube_closure.products": counts.get("products", 0),
            "descent.specialize.self_s": own.get("descent.specialize", 0.0),
            "search.self_s": own.get("search.search", 0.0),
            "search.enumerate_s": total.get("search.enumerate", 0.0),
            "search.points": counts.get("points", 0),
            "eisenstein.is_cube_s": total.get("eisenstein.is_cube", 0.0),
            "eisenstein.norm_filter.reject_ratio": (
                filtered / calls["eisenstein.is_cube"] if "eisenstein.is_cube" in calls else 0.0),
            "intfactor.exact_cbrt_s": total.get("intfactor.exact_cbrt", 0.0),
            "intfactor.exact_cbrt.calls": calls.get("intfactor.exact_cbrt", 0),
            "descent.preimage_s": total.get("descent.preimage", 0.0),
            "descent.galois_s": total.get("descent.galois", 0.0),
            "descent.classify.self_s": own.get("descent.classify", 0.0),
            "descent.classify.calls": calls.get("descent.classify", 0),
            "reports.dumps_s": total.get("reports.dumps", 0.0),
            "reports.bytes": counts.get("bytes", 0),
            "eisenstein.factor.self_s": own.get("eisenstein.factor", 0.0),
            "eisenstein.factor.calls": calls.get("eisenstein.factor", 0),
            "intfactor.factor_int_s": total.get("intfactor.factor_int", 0.0),
            "intfactor.factor_int.calls": calls.get("intfactor.factor_int", 0),
            "parsing.parse_s": total.get("parsing.parse", 0.0),
            "cli.self_s": own.get("cli.main", 0.0),
        }
