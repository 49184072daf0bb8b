"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest -q bench

Each workload must count a deliberately corrupted result as failed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from weylalg import automorphism, exprio, star  # noqa: E402
from weylalg.elements import WeylElement  # noqa: E402


def _drop_one_term(e):
    mono, c = sorted(e.terms().items())[-1]
    return e - WeylElement.monomial(e.ctx, mono.hpow, mono.exps, c)


def test_factor_corpus_counts_a_changed_generator_coefficient(tmp_path):
    w = workloads.FactorCorpus(seed=1, workdir=str(tmp_path / "corpus"),
                               per_dim=1)
    w.setup()
    stats = workloads.Stats()
    w.run_round(stats)
    assert stats.attempted == 3 and len(w.outputs) == 3
    idx, text = next((i, t) for i, t in w.outputs
                     if not w.items[i][2].is_zero())
    rec = json.loads(text)
    _m, s = exprio.factorization_from_record(rec)
    mono = next(iter(s.terms()))
    changed = s + WeylElement.monomial(s.ctx, mono.hpow, mono.exps, 1)
    rec["payload"]["generator"] = exprio.format_element(changed)
    assert w.check_output(idx, text)
    assert not w.check_output(idx, exprio.dumps_record(rec))

    w.outputs = [(i, exprio.dumps_record(rec) if i == idx else t)
                 for i, t in w.outputs]
    assert w.finish(stats)
    assert stats.failed == 1
    w.close()


def test_derivation_sweep_oracle_rejects_a_product_with_a_dropped_term(
        monkeypatch):
    w = workloads.DerivationSweep(seed=3)
    w.setup()
    w.logs = [automorphism.log_automorphism(automorphism.exp_derivation(
        automorphism.DerivationData(ctx, images)))
        for ctx, images, _pairs in w.derivations]
    assert w.finish(workloads.Stats())
    original = star.moyal

    def moyal(a, b):
        r = original(a, b)
        return r if r.is_zero() else _drop_one_term(r)
    monkeypatch.setattr(star, "moyal", moyal)
    assert not w.finish(workloads.Stats())


def test_derivation_sweep_counts_an_image_with_a_dropped_term():
    w = workloads.DerivationSweep(seed=1)
    w.setup()
    ctx, images, pairs = w.derivations[2]
    assert ctx.dim == 1
    dv = automorphism.log_automorphism(
        automorphism.exp_derivation(automorphism.DerivationData(ctx, images)))
    stats = workloads.Stats()
    w.sweep(dv, pairs, stats)
    assert stats.attempted == len(pairs) and stats.failed == 0

    # Drop from D(x1) a term that carries x1. A term free of x1 would leave
    # a derivation (x1 -> x1 + f(p1) is the flow of a function of p1),
    # which no Leibniz check can tell apart.
    mono, c = next((m, c) for m, c in sorted(images[0].terms().items())
                   if m.exps[0])
    bad = automorphism.DerivationData(ctx, [
        images[0] - WeylElement.monomial(ctx, mono.hpow, mono.exps, c),
        images[1]])
    stats = workloads.Stats()
    w.sweep(bad, pairs, stats)
    assert stats.attempted == len(pairs) and stats.failed > 0


def test_tracer_restores_the_program_and_reports_missing_spans(monkeypatch):
    original = star.moyal
    monkeypatch.delattr(automorphism, "exp_derivation")
    with Tracer() as tracer:
        assert star.moyal is not original
        x = WeylElement.variable(workloads.Context(1, 4), 0)
        star.moyal(x, x)
    assert star.moyal is original
    assert "weylalg.automorphism.exp_derivation" in tracer.missing
    assert tracer.totals["star.moyal"]["calls"] == 1
    assert tracer.totals["star.moyal"]["term_pairs"] == 1


def test_percentile_is_the_harrell_davis_estimate():
    import run
    samples = list(range(100))
    assert run.percentile(samples, 0.5) == pytest.approx(49.5)
    assert 89 < run.percentile(samples, 0.9) < 90
    assert run.percentile([3.0] * 7, 0.9) == pytest.approx(3.0)


def test_metric_lists_match_benchmark_json():
    import run
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == \
        list(run.WORKLOAD_NAMES)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload",
         "derivation-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
