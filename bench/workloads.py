"""The benchmark's two workloads.

Each workload builds its inputs in `setup()`, runs every operation once
per `run_round()` in a closed loop (one caller, the next operation starts
when the previous one returns), and checks outputs with properties the
method must have or with a computation made apart from the program. An
operation that raises, or whose output a check rejects, counts as failed.

The program is always called through its module attributes at call time
(`exprio.load_record`, `star.moyal`, `dv.apply`), so that the tracer's
spans see the calls.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import shutil
import traceback
from array import array
from time import thread_time

from weylalg import automorphism, exprio, factorization, sampling, star
from weylalg.elements import Context, WeylElement

C07_SEED = 107   # tests/test_acceptance.py::test_c07_derivation_exp_log
C08_SEED = 108   # tests/test_acceptance.py::instance_corpus


class Stats:
    """Operations attempted and failed, and latency samples in ms."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.op_ms = array("d")
        self.call_ms = array("d")
        self.first_failure = None

    def fail(self, what):
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = what


def _terms_text(e):
    """A canonical line for an element, from its public term map."""
    return ";".join(f"{m.hpow}{list(m.exps)}{c.re},{c.im}"
                    for m, c in sorted(e.terms().items()))


class FactorCorpus:
    """`weyl factor`, in-process, over the C08 acceptance corpus.

    The corpus is the C08 generator call, unchanged: seed 108, 50 instances
    for each d = 1..3. The seed given to the benchmark only orders the
    operations; see README.md for why it does not draw the corpus.
    """

    name = "factor-corpus"
    setups = 1   # one set-up takes about 15 s

    def __init__(self, seed, workdir, per_dim=50):
        self.seed = seed
        self.workdir = workdir
        self.per_dim = per_dim
        self.outputs = []        # (instance index, factorization record text)

    def setup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        rng = random.Random(C08_SEED)
        items = []
        for d in (1, 2, 3):
            ctx = Context(d, 8)
            for i in range(self.per_dim):
                phi, m, s = sampling.random_instance(
                    rng, ctx, steps=8, generator_terms=10,
                    complex_scalars=(i % 5 == 0))
                path = os.path.join(self.workdir, f"d{d}-{i:02d}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(exprio.dumps_record(
                        exprio.automorphism_record(phi)))
                items.append((path, m, s))
        order = list(range(len(items)))
        random.Random(self.seed).shuffle(order)
        self.items, self.order = items, order

    def digest(self):
        h = hashlib.sha256()
        for path, _m, _s in self.items:
            with open(path, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()

    def describe(self):
        return (f"{len(self.items)} automorphism/1 records, C08 generator "
                f"seed {C08_SEED}, {self.per_dim} per d = 1..3")

    def run_round(self, stats):
        for idx in self.order:
            path = self.items[idx][0]
            stats.attempted += 1
            t0 = thread_time()
            try:
                phi = exprio.automorphism_from_record(exprio.load_record(path))
                t1 = thread_time()
                res = factorization.factor(phi)
                t2 = thread_time()
                text = exprio.dumps_record(exprio.factorization_record(res))
                t3 = thread_time()
            except Exception:
                stats.fail(f"{path}: {traceback.format_exc(limit=3)}")
                continue
            stats.op_ms.append((t3 - t0) * 1e3)
            stats.call_ms.append((t2 - t1) * 1e3)
            self.outputs.append((idx, text))

    def check_output(self, idx, text):
        """The record read back equals the generator's own (M, S)."""
        _path, m, s = self.items[idx]
        rec = json.loads(text)
        got_m, got_s = exprio.factorization_from_record(rec)
        report = rec["payload"]["residual_report"]
        return (got_m == m and got_s == s and report["passed"]
                and all(g["passed"] for g in report["generators"]))

    def finish(self, stats):
        """Checks every output of the timed phase; a wrong one has failed."""
        for idx, text in self.outputs:
            if not self.check_output(idx, text):
                stats.fail(f"{self.items[idx][0]}: wrong factorization")
        self.outputs = []
        return True

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def basis_pairs(d, max_grade=8):
    """hbar-free basis monomial pairs (a, b) with grade(a) + grade(b) <= 8."""
    ctx = Context(d, max_grade)
    monos = [WeylElement.monomial(ctx, 0, exps)
             for g in range(max_grade + 1)
             for exps in itertools.product(range(g + 1), repeat=ctx.nvars)
             if sum(exps) == g]
    return [(a, b) for a in monos for b in monos
            if a.max_grade() + b.max_grade() <= max_grade]


class DerivationSweep:
    """The C07 shape: exp/log round trip, then Leibniz on every basis pair.

    The derivations are the first `count` of C07 (seed 107, d alternating
    1, 2, truncation 8): bracket derivations D = (i/hbar)[S, .] of random
    S in X_3. Each round rebuilds them, runs exp_derivation and
    log_automorphism, and checks the Leibniz rule for log(exp(D)) on every
    hbar-free basis pair of total grade <= 8. One operation is one pair;
    the seed orders the pairs. After the timed phase, on `oracle_count`
    seeded pairs of each derivation, moyal(D(a), b), moyal(a, D(b)) and
    moyal(D(a), D(b)) are checked against oracle.py's product.
    """

    name = "derivation-sweep"
    setups = 9
    count = 4
    oracle_count = 3

    def __init__(self, seed):
        self.seed = seed
        self.round_trip_bad = 0
        self.logs = []       # log(exp(D)) of each derivation, last round

    def setup(self):
        rng = random.Random(C07_SEED)
        order_rng = random.Random(self.seed)
        pairs = {d: basis_pairs(d) for d in (1, 2)}
        derivations = []
        for i in range(self.count):
            ctx = Context(1 + i % 2, 8)
            s = sampling.random_element(
                rng, ctx, terms=3, min_grade=3, max_grade=ctx.trunc,
                require_z=True, complex_scalars=(i % 5 == 0))
            images = [star.scaled_bracket(s, WeylElement.variable(ctx, k))
                      for k in range(ctx.nvars)]
            order = pairs[ctx.dim][:]
            order_rng.shuffle(order)
            derivations.append((ctx, images, order))
        self.derivations = derivations

    def digest(self):
        h = hashlib.sha256()
        for _ctx, images, order in self.derivations:
            for im in images:
                h.update(_terms_text(im).encode())
                h.update(b"\n")
            for a, b in order:
                h.update(f"{list(a.terms())[0].exps}{list(b.terms())[0].exps}"
                         .encode())
        return h.hexdigest()

    def describe(self):
        dims = [ctx.dim for ctx, _i, _o in self.derivations]
        npairs = sum(len(o) for _c, _i, o in self.derivations)
        return (f"{len(dims)} derivations of C07 (seed {C07_SEED}), d = "
                f"{dims}, {npairs} basis pairs per round")

    def run_round(self, stats):
        self.logs = []
        for ctx, images, order in self.derivations:
            dv = automorphism.DerivationData(ctx, images)
            phi = automorphism.exp_derivation(dv)
            back = automorphism.log_automorphism(phi)
            if (back.images != dv.images
                    or automorphism.exp_derivation(back).images != phi.images):
                self.round_trip_bad += 1
            self.logs.append(back)
            self.sweep(back, order, stats)

    @staticmethod
    def sweep(dv, pairs, stats):
        """Leibniz: D(a*b) == D(a)*b + a*D(b), one operation per pair."""
        op_ms, call_ms = stats.op_ms, stats.call_ms
        for a, b in pairs:
            stats.attempted += 1
            try:
                t0 = thread_time()
                ab = star.moyal(a, b)
                c0 = thread_time()
                lhs = dv.apply(ab)
                c1 = thread_time()
                da = dv.apply(a)
                c2 = thread_time()
                db = dv.apply(b)
                c3 = thread_time()
                rhs = star.moyal(da, b) + star.moyal(a, db)
                t1 = thread_time()
            except Exception:
                stats.fail(traceback.format_exc(limit=3))
                continue
            op_ms.append((t1 - t0) * 1e3)
            call_ms.extend(((c1 - c0) * 1e3, (c2 - c1) * 1e3,
                            (c3 - c2) * 1e3))
            if lhs != rhs:
                stats.fail("Leibniz rule fails on a basis pair")

    def oracle_pairs(self):
        """(derivation index, a, b): seeded pairs of grades >= 2 whose
        images under the last round's log(exp(D)) are both non-zero."""
        rng = random.Random(f"{self.seed}/oracle")
        picks = []
        for i, (_ctx, _images, order) in enumerate(self.derivations):
            pool = [(a, b) for a, b in order
                    if a.max_grade() >= 2 and b.max_grade() >= 2]
            rng.shuffle(pool)
            dv = self.logs[i]
            found = ((i, a, b) for a, b in pool
                     if not (dv.apply(a).is_zero() or dv.apply(b).is_zero()))
            picks += itertools.islice(found, self.oracle_count)
        return picks

    def finish(self, stats):
        """True if every exp/log round trip of the timed phase was exact,
        and the Moyal products of the seeded pairs equal oracle.py's."""
        # imported here: sympy would otherwise count in the peak memory
        from oracle import moyal_oracle, terms_of
        ok = True
        if self.round_trip_bad:
            ok = False
            stats.first_failure = stats.first_failure or (
                f"{self.round_trip_bad} exp/log round trips not exact")
        for i, a, b in self.oracle_pairs():
            da, db = self.logs[i].apply(a), self.logs[i].apply(b)
            for x, y in ((da, b), (a, db), (da, db)):
                if terms_of(star.moyal(x, y)) != moyal_oracle(x, y):
                    ok = False
                    stats.first_failure = stats.first_failure or (
                        f"derivation {i}: a Moyal product differs from the "
                        "oracle")
        return ok

    def close(self):
        pass


WORKLOADS = {w.name: w for w in (FactorCorpus, DerivationSweep)}
