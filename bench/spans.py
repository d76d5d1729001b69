"""Span tracing of plgp from outside: wrap its functions, record spans, derive
per-layer metrics.

`install` replaces each traced function with a wrapper, both where it is
defined and wherever another plgp module bound it by name (`from .exact
import rank` makes `plgp.flats.rank` a second binding).  Each call records a
span (name, start, end, parent span, request) in memory; the request is the
benchmark's command case.  `uninstall` puts the originals back.

Only the functions named by a per-layer metric are wrapped.  The tiny public
helpers (`rat`, `vec`, `vec_sub`, ...) run millions of times per workload, and
wrapping them would make the traced run measure the tracer.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module, attribute); "Class.method" wraps a method on the class
TARGETS = (
    ("exact.rank", "plgp.exact", "rank"),
    ("exact.solve_affine", "plgp.exact", "solve_affine"),
    ("exact.affinely_independent", "plgp.exact", "affinely_independent"),
    ("exact.dist_sq", "plgp.exact", "dist_sq"),
    ("complexes.subdivide_until", "plgp.complexes", "subdivide_until"),
    ("complexes.barycentric_subdivide", "plgp.complexes", "barycentric_subdivide"),
    ("complexes.maximal_simplices", "plgp.complexes", "SimplicialComplex.maximal_simplices"),
    ("complexes.load_json", "plgp.complexes", "load_json"),
    ("complexes.dump_json", "plgp.complexes", "dump_json"),
    ("complexes.plmap_from_obj", "plgp.complexes", "plmap_from_obj"),
    ("complexes.plmap_to_obj", "plgp.complexes", "plmap_to_obj"),
    ("perturb.certificate", "plgp.perturb", "general_position_certificate"),
    ("perturb.perturb", "plgp.perturb", "perturb_to_general_position"),
    ("flats.transversal", "plgp.flats", "transversal_line_through_point"),
    ("flats.line_meets_simplex", "plgp.flats", "line_meets_simplex"),
    ("flats.image_distance", "plgp.flats", "point_to_image_distance_sq_lower"),
    ("secant.secant_set", "plgp.secant", "secant_set"),
    ("secant.secant_pairs", "plgp.secant", "secant_pairs"),
    ("secant.zero_dim_certificate", "plgp.secant", "zero_dim_certificate"),
    ("secant.line_distance", "plgp.secant", "line_distance"),
    ("secant.probe_region_samples", "plgp.secant", "probe_region_samples"),
    ("nerve.build_cover", "plgp.nerve", "build_cover"),
    ("nerve.refine_for_separation", "plgp.nerve", "refine_for_separation"),
    ("nerve.nerve_complex", "plgp.nerve", "nerve_complex"),
    ("fiber.fiberwise_embed", "plgp.fiber", "fiberwise_embed"),
    ("fiber.fibered_report", "plgp.fiber", "fibered_report"),
    ("cli.main", "plgp.cli", "main"),
)

JSON_SPANS = frozenset(
    ("complexes.load_json", "complexes.dump_json", "complexes.plmap_from_obj",
     "complexes.plmap_to_obj")
)


def _coeff_bits(tracer, matrix, rhs=()):
    best = tracer.counters["exact.max_coeff_bits"]
    for x in (*matrix.entries, *rhs):
        bits = max(x.numerator.bit_length(), x.denominator.bit_length())
        if bits > best:
            best = bits
    tracer.counters["exact.max_coeff_bits"] = best


def _add(counter, size):
    def observe(tracer, args, result):
        tracer.counters[counter] += size(result)
    return observe


# Counts read off a traced call's arguments or result, keyed by span name.
OBSERVERS = {
    "exact.rank": lambda t, args, result: _coeff_bits(t, args[0]),
    "exact.solve_affine": lambda t, args, result: _coeff_bits(t, args[0], args[1]),
    "complexes.subdivide_until": _add("complexes.faces", lambda h: len(h.complex.simplices)),
    "perturb.perturb": _add("perturb.rounds", lambda r: r[1].rounds),
    "perturb.certificate": _add("perturb.pairs_checked", lambda c: len(c.pair_verdicts)),
    "secant.secant_set": _add("secant.secants_found", len),
    "nerve.nerve_complex": _add("nerve.faces", lambda c: len(c.simplices)),
    "fiber.fiberwise_embed": _add("fiber.fibers", len),
}


class Tracer:
    """Spans and counters of one traced iteration.

    spans[i] is (name, start, end, parent index or None, request).
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = None
        self.counters = Counter()
        self.warnings = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.request)
            if observe is not None:
                try:
                    observe(self, args, result)
                except (AttributeError, TypeError, IndexError) as exc:
                    self.warnings.append(f"{name}: observer failed: {exc!r}")
            return result

        return wrapper


def install(tracer) -> list:
    """Wrap every target at all of its plgp bindings; returns the undo list."""
    undo = []
    for name, modname, attr in TARGETS:
        try:
            module = importlib.import_module(modname)
        except ImportError:
            tracer.warnings.append(f"{name}: module {modname} is missing")
            continue
        owner, _, attr_name = attr.rpartition(".")
        owner = getattr(module, owner) if owner else module
        original = getattr(owner, attr_name, None)
        if original is None:
            tracer.warnings.append(f"{name}: {modname}.{attr} is missing")
            continue
        wrapper = tracer.wrap(name, original)
        if owner is not module:
            bindings = [(owner, attr_name)]
        else:
            bindings = [
                (mod, key)
                for modname2, mod in list(sys.modules.items())
                if modname2 == "plgp" or modname2.startswith("plgp.")
                for key, value in list(vars(mod).items())
                if value is original
            ]
        for holder, key in bindings:
            setattr(holder, key, wrapper)
            undo.append((holder, key, original))
    return undo


def uninstall(undo) -> None:
    for holder, key, original in reversed(undo):
        setattr(holder, key, original)


def covered(intervals, start, end) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans, names) -> float:
    """Summed self time of the spans with the given names: duration minus the
    part of it that child spans cover."""
    children = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent is not None and spans[parent][0] in names:
            children[parent].append((start, end))
    return sum(
        (end - start) - covered(children[i], start, end)
        for i, (name, start, end, _, _) in enumerate(spans)
        if name in names
    )


def inclusive_time(spans, names) -> float:
    """Wall time inside any span with the given names, counting nested ones once."""
    total = 0.0
    for name, start, end, parent, _ in spans:
        if name not in names:
            continue
        while parent is not None and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent is None:
            total += end - start
    return total


def layer_metrics(tracer) -> dict:
    """Per-layer metrics of one traced iteration (names without the cli.* cases)."""
    spans = tracer.spans
    calls = Counter(s[0] for s in spans)
    c = tracer.counters

    def t(*names):
        return inclusive_time(spans, frozenset(names))

    pairs = c["perturb.pairs_checked"]
    cert_s = t("perturb.certificate")
    solved = calls["flats.transversal"]
    out = {}
    for name in ("exact.rank", "exact.solve_affine", "exact.affinely_independent",
                 "exact.dist_sq", "complexes.maximal_simplices", "perturb.certificate",
                 "flats.transversal", "flats.line_meets_simplex", "flats.image_distance",
                 "secant.secant_set", "secant.secant_pairs", "secant.probe_region_samples",
                 "nerve.build_cover"):
        out[name + ".calls"] = calls[name]
        out[name + ".s"] = t(name)
    out.update({
        "exact.max_coeff_bits": c["exact.max_coeff_bits"],
        "complexes.subdivide_until.s": t("complexes.subdivide_until"),
        "complexes.barycentric_subdivide.calls": calls["complexes.barycentric_subdivide"],
        "complexes.faces": c["complexes.faces"],
        "complexes.json.s": t(*JSON_SPANS),
        "perturb.rounds": c["perturb.rounds"],
        "perturb.pairs_checked": pairs,
        "perturb.us_per_pair": 1e6 * cert_s / pairs if pairs else 0.0,
        "secant.secants_found": c["secant.secants_found"],
        "secant.hit_ratio": c["secant.secants_found"] / solved if solved else 0.0,
        "secant.zero_dim_certificate.s": t("secant.zero_dim_certificate"),
        "secant.line_distance.calls": calls["secant.line_distance"],
        "nerve.refine_for_separation.s": t("nerve.refine_for_separation"),
        "nerve.nerve_complex.s": t("nerve.nerve_complex"),
        "nerve.faces": c["nerve.faces"],
        "fiber.fiberwise_embed.s": t("fiber.fiberwise_embed"),
        "fiber.fibered_report.s": t("fiber.fibered_report"),
        "fiber.fibered_report.self_s": self_times(spans, {"fiber.fibered_report"}),
        "fiber.fibers": c["fiber.fibers"],
        "cli.self_s": self_times(spans, {"cli.main"}),
        "trace.spans": len(spans),
    })
    return out


def write_spans(path, tracers) -> None:
    """One JSON array per line: iteration, span id, name, start, end, parent, request."""
    with open(path, "w", encoding="utf-8") as fh:
        for iteration, tracer in enumerate(tracers):
            for sid, (name, start, end, parent, request) in enumerate(tracer.spans):
                fh.write(json.dumps([iteration, sid, name, start, end, parent, request]))
                fh.write("\n")
