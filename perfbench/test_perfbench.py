"""Tests of the benchmark's own parts: references, checker, specs, tracing.

    python3 -m pytest perfbench -q      (from the repository root)
"""

import json
import math
import os
import sys

import numpy as np
import pytest
from scipy import integrate, special

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import specs  # noqa: E402
from check import check_report  # noqa: E402
from reference import POSITIVE_FAMILIES, Reference, law_of  # noqa: E402
from run import END_TO_END, UNITS  # noqa: E402

CP_GAMMA = {"rate": 1.5, "jumps": {"kind": "gamma", "a": 2.0, "b": 3.0}}
POSITIVE = [("gamma", {"a": 2.0, "b": 1.5}), ("poisson", {"lam": 2.0}),
            ("inverse_gaussian", {"alpha": 1.0, "lam": 2.0}),
            ("compound_poisson", CP_GAMMA),
            ("compound_poisson",
             {"rate": 1.2, "jumps": {"kind": "atoms",
                                     "atoms": [[1.0, 0.6], [2.0, 0.4]]}})]


# -- references reproduce known closed forms ---------------------------------


@pytest.mark.parametrize("a", [0.5, 2.0, 3.7])
def test_gamma_gini_closed_form(a):
    got = Reference("gamma", {"a": a, "b": 1.5}).gini()
    want = math.gamma(a + 0.5) / (math.gamma(a + 1.0) * math.sqrt(math.pi))
    assert got == pytest.approx(want, rel=1e-9)


def test_poisson_fourth_moment_identity():
    # Cov(X^2, X^2) for Poisson(2) is lam (4 lam^2 + 6 lam + 1) = 58
    ref = Reference("poisson", {"lam": 2.0})
    assert ref.cov_xn_g(2, "square") == pytest.approx(58.0, rel=1e-12)
    assert ref.law.raw_moment(4) - ref.law.raw_moment(2) ** 2 \
        == pytest.approx(58.0, rel=1e-12)


def test_laplace_mean_abs_difference():
    # X - X' for Laplace(mu0, delta) has E|X - X'| = 3 delta / 2
    law = law_of("laplace", {"mu0": 0.4, "delta": 0.8})
    assert law.mean_abs_difference() == pytest.approx(1.2, rel=1e-8)


@pytest.mark.parametrize("family,params", POSITIVE)
def test_distribution_route_matches_levy_route(family, params):
    ref = Reference(family, params)
    law = ref.law
    for n in (1, 2, 3):
        via_cf = law.xn_exp(n, 1j).imag - law.raw_moment(n) * law.cf(1.0).imag
        assert ref.cov_xn_g(n, "sin") == pytest.approx(via_cf, rel=1e-8,
                                                       abs=1e-12)
        assert ref.weighted_premium(n, "exp_tilt", 0.3) == pytest.approx(
            law.tilted_moments(n, 0.3)[n].real, rel=1e-9)
    var_cf = (1.0 - law.cf(2.0).real) / 2.0 - law.cf(1.0).imag ** 2
    assert ref.var_g("sin") == pytest.approx(var_cf, rel=1e-9)


@pytest.mark.parametrize("family", ["cgmy", "gtsd", "bgd", "inverse_gaussian"])
def test_cumulants_match_levy_integrals(family):
    params = dict(specs.BASE[family])
    law = law_of(family, params)
    for k in (2, 3, 4):
        total = 0.0
        for sign, c, beta, rate in law.sides:
            f = lambda u: (sign * u) ** k * c * u ** (-1 - beta) \
                * math.exp(-rate * u)
            total += integrate.quad(f, 0, 1)[0] + integrate.quad(f, 1, np.inf)[0]
        assert law.cumulant(k) == pytest.approx(total, rel=1e-8)


def test_gtsd_mean_is_mu():
    assert law_of("gtsd", specs.BASE["gtsd"]).mean() \
        == pytest.approx(specs.BASE["gtsd"]["mu"], rel=1e-13)


def test_gini_with_an_atom_at_zero():
    # direct (2/mu) Cov(X, F(X)) with the mixture cdf of gamma jumps
    ref = Reference("compound_poisson", CP_GAMMA)
    rate, a, b = 1.5, 2.0, 3.0
    ns = np.arange(1, 80)
    w = np.exp(-rate) * rate ** ns / special.gamma(ns + 1.0)

    def cdf(x):
        return math.exp(-rate) + float(np.dot(w, special.gammainc(ns * a, b * x)))

    mu = ref.law.mean()
    cov = ref.dist.expect(lambda x: x * cdf(x)) - mu * ref.dist.expect(cdf)
    assert ref.gini() == pytest.approx(2.0 * cov / mu, rel=1e-7)


# -- the checker --------------------------------------------------------------


def _run(doc):
    from levy_stein import cli
    return cli.run_task(cli.build_spec(doc))


def _doc(family, params, task, n=4000, batch=250, seed=5):
    return {"distribution": {"family": family, "params": params},
            "task": task, "mc": {"n_samples": n, "seed": seed, "batch": batch}}


def _perturbed(report, name, value=None, scale=None):
    out = json.loads(json.dumps(report))
    for row in out["results"]:
        if row["name"] == name:
            row["value"] = value if value is not None else row["value"] * scale
    return out


def test_checker_accepts_and_rejects_identity():
    doc = _doc("gamma", {"a": 2.0, "b": 1.5},
               {"kind": "verify-identity", "n": 2, "g_name": "sin"})
    report = _run(doc)
    assert check_report(doc, report) == (2 + 1, [])
    rhs = next(r for r in report["results"] if r["name"] == "identity_rhs")
    moved = _perturbed(report, "identity_rhs",
                       value=rhs["value"] + 30.0 * rhs["std_error"])
    n, bad = check_report(doc, moved)
    assert len(bad) == 1 and bad[0].startswith("identity_rhs")


def test_checker_rejects_perturbed_closed_form():
    doc = _doc("cgmy", specs.BASE["cgmy"], {"kind": "cumulants", "k_max": 3})
    report = _run(doc)
    assert check_report(doc, report)[1] == []
    bad = check_report(doc, _perturbed(report, "C3", scale=1.0 + 1e-6))[1]
    assert len(bad) == 1 and bad[0].startswith("C3")


def test_checker_rejects_crossed_bound():
    doc = _doc("two_sided_exp", specs.BASE["two_sided_exp"],
               {"kind": "bounds", "g_name": "sin"})
    report = _run(doc)
    assert check_report(doc, report)[1] == []
    var = Reference("two_sided_exp", specs.BASE["two_sided_exp"]).var_g("sin")
    bad = check_report(doc, _perturbed(report, "cacoullos_upper",
                                       value=0.5 * var))[1]
    assert any(m.startswith("cacoullos_upper") for m in bad)


def test_checker_rejects_nonzero_stein_residual():
    doc = _doc("bgd", specs.BASE["bgd"], {"kind": "stein", "g_name": "sin"})
    report = _run(doc)
    assert check_report(doc, report)[1] == []
    row = next(r for r in report["results"] if r["name"] == "stein_residual")
    bad = check_report(doc, _perturbed(
        report, "stein_residual", value=40.0 * row["std_error"]))[1]
    assert len(bad) == 1


# -- workloads and tracing ------------------------------------------------------


def test_round_specs_follow_the_seed():
    a = specs.round_specs("small-sweep", 3, 0)
    assert a == specs.round_specs("small-sweep", 3, 0)
    b = specs.round_specs("small-sweep", 3, 1)
    assert [d["task"] for d in a] == [d["task"] for d in b]
    assert a[0]["distribution"]["params"] != b[0]["distribution"]["params"]
    assert a[0]["mc"]["seed"] != specs.round_specs("small-sweep", 4, 0)[0]["mc"]["seed"]
    for doc in specs.round_specs("bias-exact", 3, 0):
        assert doc["mc"]["n_samples"] >= 10**6
        assert doc["distribution"]["family"] in POSITIVE_FAMILIES + ("bgd", "vgd")


def test_tracer_counts_layers_and_restores_the_package():
    from levy_stein import cli, identities, levy_core, mc
    before = (mc.mc_mean, identities.mc_mean, levy_core.FixedRule.shifted_sum)
    tracer = layers.Tracer()
    assert layers.install(tracer) == []
    try:
        doc = _doc("gamma", {"a": 2.0, "b": 1.5}, {"kind": "gini"}, n=2000,
                   batch=250)
        cli.emit(cli.run_task(cli.build_spec(doc)), "json")
    finally:
        tracer.uninstall()
    assert (mc.mc_mean, identities.mc_mean,
            levy_core.FixedRule.shifted_sum) == before
    got = layers.summarize(tracer.spans)
    assert got["dist_catalog.draws"] == 4000      # two estimators of 2000
    assert got["mc.batches"] == 16
    assert got["levy_core.inner_evals"] == 2000 * got["levy_core.rule_nodes"]
    assert got["dist_catalog.cdf_points"] > 0
    assert got["cli.report_bytes"] > 0
    for name in ("dist_catalog.sample_s", "levy_core.inner_sum_s",
                 "mc.estimator_s", "actuarial.self_s", "cli.emit_s"):
        assert got[name] > 0.0, name


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(specs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer == {k: UNITS[k] for k in UNITS if k not in END_TO_END}
