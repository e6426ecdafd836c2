"""Spec parsing, report assembly, serialization, exit codes."""

import io
import json
from dataclasses import replace

import numpy as np
import pytest

from levy_stein import Gamma
from levy_stein.cli import build_spec, emit, main, parse_spec, run_task
from levy_stein.errors import NonConvergence, ParseError, ValidationError, \
    ValidationFailure
from levy_stein.mc import substreams


def minimal_doc(**over):
    doc = {
        "distribution": {"family": "gamma", "params": {"a": 2.0, "b": 1.0}},
        "task": {"kind": "gini"},
        "mc": {"n_samples": 20_000, "seed": 7, "batch": 5_000},
    }
    doc.update(over)
    return doc


def write_spec(tmp_path, doc, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# -- building ---------------------------------------------------------------------


def test_build_spec_defaults_are_noted():
    spec = build_spec({
        "distribution": {"family": "gamma", "params": {"a": 2.0, "b": 1.5}},
        "task": {"kind": "gini"},
    })
    assert spec.output == "json"
    assert spec.mc.n_samples == 10**6 and spec.mc.batch == 10**5
    noted = "\n".join(spec.notes)
    for key in ("mc.n_samples", "mc.seed", "mc.batch", "quadrature.rel_tol",
                "quadrature.abs_tol", "quadrature.max_subdivisions",
                "output"):
        assert key in noted
    # explicit values generate no note
    spec2 = build_spec(minimal_doc())
    assert not any(n.startswith("mc.") for n in spec2.notes)


@pytest.mark.parametrize("doc", [
    minimal_doc(plot=True),                                   # unknown top key
    {"task": {"kind": "gini"}},                               # no distribution
    {"distribution": {"family": "gamma", "params": {"a": 2, "b": 1}}},
    minimal_doc(distribution={"family": "gamma"}),            # params missing
    minimal_doc(distribution={"family": "cauchy", "params": {}}),
    minimal_doc(task={"kind": "moments"}),
    minimal_doc(task={"kind": "cumulants"}),                  # k_max missing
    minimal_doc(task={"kind": "cumulants", "k_max": 0}),
    minimal_doc(task={"kind": "verify-identity", "g_name": "square"}),
    minimal_doc(task={"kind": "verify-identity", "g_name": "square",
                      "n": 2, "s": 0.5}),
    minimal_doc(task={"kind": "bounds", "g_name": "cube"}),
    minimal_doc(task={"kind": "bounds", "g_name": "exp_tilt"}),  # no kappa
    minimal_doc(task={"kind": "premium"}),
    minimal_doc(task={"kind": "premium", "principle": "esscher"}),
    minimal_doc(task={"kind": "premium", "principle": "wpcp",
                      "w_name": "gauss"}),
    minimal_doc(task={"kind": "premium", "principle": "generalized_wpcp",
                      "w_name": "shift", "c": 1.0}),          # n missing
    minimal_doc(mc={"n_samples": True}),
    minimal_doc(mc={"seed": 1.5}),
    minimal_doc(mc={"n_samples": 10}),                        # below the floor
    minimal_doc(mc={"chains": 4}),
    minimal_doc(output="yaml"),
    minimal_doc(quadrature={"rel_tol": "tight"}),
])
def test_build_spec_rejects(doc):
    with pytest.raises(ValidationFailure):
        build_spec(doc)


def test_parse_spec_reports_json_location(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "distribution": ,\n}\n')
    with pytest.raises(ParseError, match=r"line 2"):
        parse_spec(str(p))


def test_parse_spec_missing_file():
    with pytest.raises(ParseError, match="cannot read"):
        parse_spec("/nonexistent/task.json")


# -- reports ----------------------------------------------------------------------


def test_cumulants_report_shape():
    spec = build_spec({
        "distribution": {"family": "poisson", "params": {"lam": 3.0}},
        "task": {"kind": "cumulants", "k_max": 4},
    })
    rep = run_task(spec)
    assert set(rep) == {"input", "results", "diagnostics", "warnings"}
    assert [r["value"] for r in rep["results"]] == [3.0, 3.0, 3.0, 3.0]
    assert [r["name"] for r in rep["results"]] == ["C1", "C2", "C3", "C4"]
    assert all(r["method"] == "closed_form" for r in rep["results"])
    assert rep["diagnostics"]["max_std_error"] is None
    assert rep["input"]["distribution"]["params"] == {"lam": 3.0}
    assert set(rep["diagnostics"]["versions"]) == \
        {"levy_stein", "python", "numpy", "scipy"}


def test_esscher_report_value():
    spec = build_spec(minimal_doc(
        task={"kind": "premium", "principle": "esscher", "kappa": 0.5}))
    rep = run_task(spec)
    row = rep["results"][0]
    assert row["name"] == "esscher(0.5)"
    assert row["value"] == 4.0  # a / (b - kappa) on Ga(2, 1)
    assert row["method"] == "closed_form"
    assert row["std_error"] is None


def test_gini_report_warns_about_variance_scale():
    rep = run_task(build_spec(minimal_doc()))
    assert any("not a Gini coefficient" in w for w in rep["warnings"])
    names = [r["name"] for r in rep["results"]]
    assert names == ["gini_levy_formula", "gini_covariance_oracle", "z_score"]
    z = rep["results"][2]["value"]
    assert abs(z) < 5.0


def test_gini_two_sided_support_warns():
    rep = run_task(build_spec(minimal_doc(
        distribution={"family": "bgd",
                      "params": {"alpha_pos": 2.0, "lam_pos": 3.0,
                                 "alpha_neg": 1.0, "lam_neg": 4.0}})))
    assert any("not a Lorenz-Gini" in w for w in rep["warnings"])


def test_stein_task_needs_supported_family():
    spec = build_spec(minimal_doc(task={"kind": "stein", "g_name": "sin"}))
    with pytest.raises(ValidationError, match="cgmy, vgd or bgd"):
        run_task(spec)


def test_verify_identity_report():
    spec = build_spec(minimal_doc(
        task={"kind": "verify-identity", "n": 1, "g_name": "square"}))
    rep = run_task(spec)
    names = [r["name"] for r in rep["results"]]
    assert names == ["identity_rhs", "oracle", "z_score"]
    assert abs(rep["results"][2]["value"]) < 5.0
    assert rep["diagnostics"]["max_std_error"] > 0


# -- emission ---------------------------------------------------------------------


def test_emit_json_round_trips():
    rep = run_task(build_spec(minimal_doc(
        task={"kind": "premium", "principle": "modified_variance"})))
    payload = emit(rep, "json")
    assert payload.endswith(b"\n")
    assert json.loads(payload) == rep


def test_emit_csv_layout():
    rep = run_task(build_spec(minimal_doc(
        task={"kind": "cumulants", "k_max": 2})))
    lines = emit(rep, "csv").decode().splitlines()
    assert lines[0] == "name,value,std_error,method,n"
    assert len(lines) == 3
    assert lines[1] == "C1,2,,closed_form,"
    assert lines[2] == "C2,2,,closed_form,"


def test_emit_rejects_unknown_format():
    with pytest.raises(ValidationError):
        emit({"results": []}, "xml")


def test_values_rendered_to_12_digits():
    rep = run_task(build_spec(minimal_doc()))
    for row in rep["results"]:
        assert row["value"] == float(f"{row['value']:.12g}")


# -- entry point ------------------------------------------------------------------


def test_main_success_and_determinism(tmp_path, capsysbinary):
    path = write_spec(tmp_path, minimal_doc())
    assert main(["run", path]) == 0
    first = capsysbinary.readouterr().out
    assert main(["run", path]) == 0
    second = capsysbinary.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["input"]["mc"]["seed"] == 7


def test_main_seed_override_changes_stream(tmp_path, capsysbinary):
    path = write_spec(tmp_path, minimal_doc())
    assert main(["run", path]) == 0
    base = json.loads(capsysbinary.readouterr().out)
    assert main(["run", path, "--seed", "8"]) == 0
    other = json.loads(capsysbinary.readouterr().out)
    assert other["input"]["mc"]["seed"] == 8
    assert base["results"][0]["value"] != other["results"][0]["value"]
    assert any("overridden" in n for n in other["diagnostics"]["notes"])


def test_main_samples_and_format_override(tmp_path, capsysbinary):
    path = write_spec(tmp_path, minimal_doc(
        task={"kind": "cumulants", "k_max": 1}))
    assert main(["run", path, "--samples", "50000", "--format", "csv"]) == 0
    out = capsysbinary.readouterr().out.decode()
    assert out.splitlines()[0] == "name,value,std_error,method,n"


def test_main_validation_exit_code(tmp_path, capsysbinary):
    path = write_spec(tmp_path, minimal_doc(output="yaml"))
    assert main(["run", path]) == 2
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert b"error:" in captured.err


def test_main_bad_override_exit_code(tmp_path, capsysbinary):
    path = write_spec(tmp_path, minimal_doc())
    assert main(["run", path, "--samples", "10"]) == 2
    assert b"error:" in capsysbinary.readouterr().err


def test_main_numeric_exit_code(tmp_path, capsysbinary, monkeypatch):
    import levy_stein.cli as cli
    monkeypatch.setattr(cli, "run_task",
                        lambda spec: (_ for _ in ()).throw(
                            NonConvergence("tolerance not reached")))
    path = write_spec(tmp_path, minimal_doc())
    assert main(["run", path]) == 3
    assert b"numeric failure" in capsysbinary.readouterr().err


CGMY_NEAR_ONE = {"family": "cgmy", "params": {
    "alpha": 1.0, "beta": 0.99, "lam_pos": 2.0, "lam_neg": 3.0}}


@pytest.mark.parametrize("task", [
    {"kind": "stein", "g_name": "gauss"},
    {"kind": "verify-identity", "n": 1, "g_name": "gauss"},
], ids=["stein", "verify-identity"])
def test_main_stein_near_beta_one_exits_numeric(tmp_path, capsysbinary,
                                                task):
    # the nu-rule for CGMY with beta = 0.99 cannot be built in floating
    # point; gauss has no closed inner integral, so the task builds that
    # rule and must fail with exit 3, not report nan
    doc = minimal_doc(distribution=CGMY_NEAR_ONE, task=task)
    path = write_spec(tmp_path, doc)
    assert main(["run", path]) == 3
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert b"numeric failure" in captured.err and b"beta=0.99" in captured.err


def test_stein_sin_near_beta_one_takes_closed_route():
    # sin has a closed inner integral, so beta = 0.99 needs no rule; a
    # variate there costs about 100 times its cost at beta = 0.5, so n is
    # small
    doc = minimal_doc(distribution=CGMY_NEAR_ONE,
                      task={"kind": "stein", "g_name": "sin"},
                      mc={"n_samples": 2000, "seed": 11, "batch": 250})
    report = run_task(build_spec(doc))
    rows = {r["name"]: r for r in report["results"]}
    assert np.isfinite(rows["stein_residual"]["value"])
    assert abs(rows["z_score"]["value"]) <= 4.0
    assert report["diagnostics"]["inner_routes"] == {
        "stein_residual": "closed"}


@pytest.mark.parametrize("dist", [
    {"family": "gamma", "params": {"a": 0.0, "b": 2.0}},
    {"family": "inverse_gaussian", "params": {"alpha": 0.0, "lam": 2.0}},
], ids=["gamma", "inverse_gaussian"])
@pytest.mark.parametrize("task,code", [
    ({"kind": "verify-identity", "n": 1, "g_name": "sin"}, 0),
    ({"kind": "bounds", "g_name": "sin"}, 3),
    ({"kind": "premium", "principle": "wpcp", "w_name": "one"}, 0),
    ({"kind": "gini"}, 2),
], ids=["verify-identity", "bounds", "wpcp", "gini"])
def test_main_point_mass_at_zero_exit_codes(tmp_path, capsysbinary, dist,
                                            task, code):
    # a zero Lévy measure is the point mass at 0: the Monte Carlo tasks
    # run on it, the bounds find C_2 = 0 (exit 3), and the Gini index
    # refuses its zero mean (exit 2); never a traceback
    doc = minimal_doc(distribution=dist, task=task,
                      mc={"n_samples": 2000, "seed": 1})
    path = write_spec(tmp_path, doc)
    assert main(["run", path]) == code
    if code:
        assert capsysbinary.readouterr().out == b""


def test_main_gini_with_too_long_cdf_series_exits_numeric(tmp_path,
                                                         capsysbinary):
    # the cf of CGMY(0.6, 0.02, 2, 3) decays so slowly that its cdf series
    # would need 3.6e9 terms; the gini task must refuse it with exit 3
    doc = minimal_doc(distribution={"family": "cgmy", "params": {
        "alpha": 0.6, "beta": 0.02, "lam_pos": 2.0, "lam_neg": 3.0}})
    path = write_spec(tmp_path, doc)
    assert main(["run", path]) == 3
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert b"numeric failure" in captured.err and b"beta=0.02" in captured.err


@pytest.mark.parametrize("task", [
    {"kind": "cumulants", "k_max": 200},
    {"kind": "verify-identity", "n": 200, "g_name": "square"},
], ids=["cumulants", "verify-identity"])
def test_main_cumulant_overflow_exits_numeric(tmp_path, capsysbinary, task):
    # C_k of gamma(2, 1.5) is 2 (k-1)! / 1.5^k, past the double range
    # before k = 200: exit 3 naming the order, not a traceback
    doc = minimal_doc(distribution={"family": "gamma",
                                    "params": {"a": 2.0, "b": 1.5}},
                      task=task)
    path = write_spec(tmp_path, doc)
    assert main(["run", path]) == 3
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert b"numeric failure" in captured.err
    assert b"moment of order 187 overflows" in captured.err


@pytest.mark.parametrize("task", [
    {"kind": "verify-identity", "n": 200, "g_name": "square"},
    {"kind": "premium", "principle": "generalized_wpcp", "n": 200,
     "w_name": "exp_tilt", "kappa": 0.3},
], ids=["verify-identity", "generalized_wpcp"])
def test_main_monte_carlo_overflow_exits_numeric(tmp_path, capsysbinary,
                                                 task):
    # every cumulant of poisson(2) is finite, but X^200 leaves the double
    # range in the accumulators: exit 3, not a value with SE nan
    doc = minimal_doc(distribution={"family": "poisson",
                                    "params": {"lam": 2.0}},
                      task=task, mc={"n_samples": 2000, "seed": 1})
    path = write_spec(tmp_path, doc)
    assert main(["run", path]) == 3
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert b"numeric failure" in captured.err
    assert b"overflows the range of a double" in captured.err


def test_main_reads_stdin(monkeypatch, capsysbinary):
    doc = minimal_doc(task={"kind": "premium", "principle": "esscher",
                            "kappa": 0.5})
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["run", "-"]) == 0
    rep = json.loads(capsysbinary.readouterr().out)
    assert rep["results"][0]["value"] == 4.0


def test_verify_identity_oracle_replays_no_estimate_stream(sample_spy):
    # the identity draws its pairs through sample_conv, so every recorded
    # draw is the oracle's; its first batch must be neither the estimate
    # stream's first batch of this seed nor that of the next seed
    draws = sample_spy(Gamma)
    spec = build_spec(minimal_doc(
        task={"kind": "verify-identity", "n": 1, "g_name": "sin"}))
    run_task(spec)
    oracle_first = draws[0]
    for seed in (spec.mc.seed, spec.mc.seed + 1):
        rng = next(substreams(replace(spec.mc, seed=seed)))
        assert not np.array_equal(
            oracle_first, spec.base.sample(rng, oracle_first.size)), seed


CGMY_HALF = {"family": "cgmy", "params": {
    "alpha": 1.0, "beta": 0.5, "lam_pos": 2.0, "lam_neg": 3.0}}
TILT = {"w_name": "exp_tilt", "kappa": 0.5}


@pytest.mark.parametrize("dist,task,routes", [
    (CGMY_HALF, {"kind": "verify-identity", "n": 2, "g_name": "sin"},
     {"identity_rhs": "closed"}),
    (CGMY_HALF, {"kind": "verify-identity", "n": 1, "g_name": "gauss"},
     {"identity_rhs": "rule"}),
    (None, {"kind": "verify-identity", "n": 1, "g_name": "sin"},
     {"identity_rhs": "bias"}),
    ({"family": "poisson", "params": {"lam": 2.0}},
     {"kind": "verify-identity", "n": 1, "g_name": "sin"},
     {"identity_rhs": "bias"}),
    (CGMY_HALF, {"kind": "bounds", "g_name": "sin"},
     {"cacoullos_lower": "bias", "cacoullos_upper": "bias",
      "chen_upper": "closed"}),
    (None, {"kind": "bounds", "g_name": "square"},
     {"cacoullos_lower": "closed", "cacoullos_upper": "closed",
      "chen_upper": "closed"}),
    (CGMY_HALF, {"kind": "premium", "principle": "wpcp", **TILT},
     {"wpcp(exp_tilt(0.5))": "closed"}),
    (None, {"kind": "premium", "principle": "generalized_wpcp", "n": 2,
            **TILT},
     {"generalized_wpcp(n=2, exp_tilt(0.5))": "bias"}),
    (CGMY_HALF, {"kind": "stein", "g_name": "sin"},
     {"stein_residual": "closed"}),
    ({"family": "vgd", "params": {"mu0": 0.2, "alpha": 1.5, "lam_pos": 3.0,
                                  "lam_neg": 4.0}},
     {"kind": "stein", "g_name": "sin"}, {}),
    ({"family": "poisson", "params": {"lam": 2.0}}, {"kind": "gini"},
     {"gini_levy_formula": "atoms"}),
    (None, {"kind": "gini"}, {"gini_levy_formula": "rule"}),
])
def test_report_names_inner_routes(dist, task, routes):
    over = {"task": task, "mc": {"n_samples": 2000, "seed": 3, "batch": 250}}
    if dist is not None:
        over["distribution"] = dist
    spec = build_spec(minimal_doc(**over))
    first = emit(run_task(spec), "json")
    assert json.loads(first)["diagnostics"]["inner_routes"] == routes
    # the routes, like every other field, are byte-identical across runs
    assert emit(run_task(spec), "json") == first
