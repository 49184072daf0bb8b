"""Spans around calls into weylalg's public functions, recorded from outside.

The program is not edited. A span is recorded by replacing a function at
the name its caller looks it up by (a module attribute, or a class
attribute for methods), for the duration of one traced phase, and putting
the original back afterwards. Spans nest: each records its duration, and
the time its traced children took, so that self time is the difference.

Spans are aggregated in memory by name; nothing is written while tracing.
A target that no longer exists at its name is listed in `missing` and its
metrics read 0, so that the benchmark keeps running while the program's
functions are merged or removed.
"""

from __future__ import annotations

import importlib
import os
from collections import defaultdict
from time import thread_time

FACTOR = "factorization.factor"


def _term_pairs(a, b):
    """Term pairs the Moyal kernel multiplies: those within the truncation."""
    cutoff = a.ctx.trunc
    ha, hb = _grade_counts(a), _grade_counts(b)
    return sum(na * nb for ga, na in ha.items() for gb, nb in hb.items()
               if ga + gb <= cutoff)


def _grade_counts(x):
    buckets = getattr(x, "_buckets", None)
    if buckets is not None:  # cached by the element, and the kernel uses it
        return {g: len(items) for g, items in buckets().items()}
    out = defaultdict(int)
    for mono in x.terms():
        out[mono.grade()] += 1
    return out


def _sized(args, result):
    # pullback(m, a) and AutomorphismData.apply(self, a)
    return {"calls": 1, "terms_in": len(args[1]), "terms_out": len(result)}


def _record_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _image_terms(args, result):
    return {"calls": 1, "terms": sum(len(im) for im in result.images)}


def _moyal_counts(args, result):
    return {"calls": 1, "term_pairs": _term_pairs(args[0], args[1]),
            "terms_out": len(result)}


# (module, attribute path, span name or None, factor stage or None,
#  counter function or None). Without a counter function a span counts
# one call. A stage is charged only when the span's parent is factor().
TARGETS = [
    ("weylalg.exprio", "load_record", "exprio.parse", None, _record_bytes),
    ("weylalg.exprio", "automorphism_from_record", "exprio.parse", None,
     _image_terms),
    ("weylalg.exprio", "automorphism_record", "exprio.format", None, None),
    ("weylalg.exprio", "factorization_record", "exprio.format", None, None),
    ("weylalg.exprio", "dumps_record", "exprio.format", None, None),
    ("weylalg.factorization", "factor", FACTOR, None, None),
    ("weylalg.factorization", "linear_part", None, "linear", None),
    ("weylalg.factorization", "SympMatrix", None, "linear", None),
    ("weylalg.factorization", "is_symplectic", None, "linear", None),
    ("weylalg.symplectic", "SympMatrix.inverse", None, "linear", None),
    ("weylalg.factorization", "pullback", "symplectic.pullback", "peel",
     _sized),
    ("weylalg.factorization", "AutomorphismData", None, "peel", None),
    ("weylalg.factorization", "log_automorphism",
     "automorphism.log_automorphism", "log", None),
    ("weylalg.factorization", "closedness_check", None, "integrate", None),
    ("weylalg.factorization", "poincare_integrate", None, "integrate", None),
    ("weylalg.factorization", "verify_factorization", None, "verify", None),
    ("weylalg.factorization", "compose", "automorphism.compose", None, None),
    ("weylalg.factorization", "inner_automorphism",
     "automorphism.inner_automorphism", None, None),
    ("weylalg.sampling", "random_instance", "sampling.random_instance", None,
     None),
    ("weylalg.sampling", "compose", "automorphism.compose", None, None),
    ("weylalg.sampling", "inner_automorphism",
     "automorphism.inner_automorphism", None, None),
    ("weylalg.sampling", "pullback_automorphism",
     "symplectic.pullback_automorphism", None, None),
    ("weylalg.automorphism", "AutomorphismData.apply", "automorphism.apply",
     None, _sized),
    ("weylalg.automorphism", "DerivationData.apply",
     "automorphism.derivation_apply", None, None),
    ("weylalg.automorphism", "exp_derivation", "automorphism.exp_derivation",
     None, None),
    ("weylalg.automorphism", "log_automorphism",
     "automorphism.log_automorphism", None, None),
    ("weylalg.automorphism", "scaled_bracket", "star.scaled_bracket", None,
     None),
    ("weylalg.star", "moyal", "star.moyal", None, _moyal_counts),
    ("weylalg.star", "scaled_bracket", "star.scaled_bracket", None, None),
]


class Tracer:
    """Installs the spans in TARGETS; aggregates them by name.

    `totals[name]` holds "s" (summed duration), "self_s" (duration minus
    traced children) and the counters. `top_s` is the time covered by
    spans that have no traced parent.
    """

    def __init__(self):
        self.totals = defaultdict(lambda: defaultdict(float))
        self.top_s = 0.0
        self.missing = []
        self._stack = []     # one [span name, child seconds] per open span
        self._saved = []     # (owner, attribute, original)

    def install(self):
        for module, path, name, stage, count in TARGETS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(f"{module}.{path}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, stage, count))

    def remove(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def _wrap(self, fn, name, stage, count):
        stack = self._stack
        totals = self.totals

        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = thread_time() - t0
                stack.pop()
            self_s = dur - frame[1]
            if stack:
                parent = stack[-1]
                parent[1] += dur
                if stage is not None and parent[0] == FACTOR:
                    agg = totals[f"factorization.{stage}"]
                    agg["s"] += dur
                    agg["self_s"] += self_s
            else:
                self.top_s += dur
            if name is not None:
                agg = totals[name]
                agg["s"] += dur
                agg["self_s"] += self_s
                if count is None:
                    agg["calls"] += 1
                else:
                    for key, v in count(args, result).items():
                        agg[key] += v
            return result

        span.__wrapped__ = fn
        return span
