"""Spec parsing, report assembly, serialization, exit codes."""

import io
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from levy_stein import Gamma, dist_catalog, levy_core
from levy_stein.cli import (_FIELDS, _PARSE, _RUNNERS, PRINCIPLES,
                            TASK_KINDS, build_spec, emit, main, parse_spec,
                            run_task)
from levy_stein.errors import NonConvergence, ParseError, ValidationError, \
    ValidationFailure
from levy_stein.functions import G_REGISTRY, PARAMS, W_REGISTRY
from levy_stein.mc import MCEstimate, batch_sizes, substreams

from conftest import SMALL_SWEEP


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
    for key in ("mc.n_samples", "mc.seed", "mc.batch", "output"):
        assert key in noted
    # explicit values generate no note
    spec2 = build_spec(minimal_doc())
    assert not any(n.startswith("mc.") for n in spec2.notes)


def test_readme_spec_example_builds():
    # the spec example in README's "Command line" section is one that
    # build_spec accepts, with every optional key given
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split(
        "\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert build_spec(json.loads(example)).notes == ()


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


# every task the README's table admits: each kind (and principle) with its
# fields, and a g or w from the registry with the parameter it takes
FUNCTION_PARAMS = {"exp_tilt": {"kappa": 0.5}, "shift": {"c": 1.0}}
TASK_SHAPES = [
    {"kind": "cumulants", "k_max": 2},
    {"kind": "verify-identity", "n": 1, "g_name": None},
    {"kind": "bounds", "g_name": None},
    {"kind": "premium", "principle": "esscher", "kappa": 0.5},
    {"kind": "premium", "principle": "wpcp", "w_name": None},
    {"kind": "premium", "principle": "modified_variance"},
    {"kind": "premium", "principle": "generalized_wpcp", "n": 1,
     "w_name": None},
    {"kind": "gini"},
    {"kind": "stein", "g_name": None},
]
# a well-typed value for each field a task can carry besides "kind"
FIELD_VALUES = {"k_max": 2, "n": 1, "g_name": "sin", "w_name": "one",
                "principle": "wpcp", "kappa": 0.5, "c": 1.0}


def _minimal_tasks():
    for shape in TASK_SHAPES:
        registry = (G_REGISTRY if "g_name" in shape
                    else W_REGISTRY if "w_name" in shape else (None,))
        for name in registry:
            task = dict(shape)
            if name is not None:
                task["g_name" if "g_name" in shape else "w_name"] = name
                task.update(FUNCTION_PARAMS.get(name, {}))
            yield task


@pytest.mark.parametrize("task", list(_minimal_tasks()),
                         ids=lambda t: "-".join(v for k, v in t.items()
                                                if isinstance(v, str)))
def test_task_takes_exactly_its_fields(task):
    # the minimal task builds, and adding any other task field, even one
    # of the right type, fails validation (exit 2) and names that field;
    # among these are kappa on bounds/sin and verify-identity/square, c on
    # wpcp/one and generalized_wpcp/exp_tilt, and kappa on wpcp/shift
    assert build_spec(minimal_doc(task=task)).task == task
    for field, value in FIELD_VALUES.items():
        if field not in task:
            with pytest.raises(ValidationFailure, match=f"'{field}'"):
                build_spec(minimal_doc(task={**task, field: value}))


def test_task_tables_cover_one_another():
    # every kind has a runner and a row of the field table, every principle
    # a row; kind, principle and function names share one lookup, so they
    # must not overlap; and every field the tables name has a parser
    assert list(_RUNNERS) == list(TASK_KINDS)
    assert list(_FIELDS) == list(TASK_KINDS) + list(PRINCIPLES)
    assert set(PARAMS) == set(G_REGISTRY) | set(W_REGISTRY)
    assert not set(_FIELDS) & set(PARAMS)
    named = {f for fields in (*_FIELDS.values(), *PARAMS.values())
             for f in fields}
    assert named | {"kind"} == set(_PARSE)
    assert named == set(FIELD_VALUES)


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


@pytest.mark.parametrize("dist,warns", [
    ({"family": "bgd", "params": {"alpha_pos": 2.0, "lam_pos": 3.0,
                                  "alpha_neg": 1.0, "lam_neg": 4.0}}, True),
    # jumps only upward, but the uncompensated drift is -1.153, so about
    # half the mass lies below zero
    ({"family": "gtsd", "params": {"mu": 0.1, "beta": 0.5, "alpha_pos": 1.0,
                                   "lam_pos": 2.0, "alpha_neg": 0.0,
                                   "lam_neg": 1.0}}, True),
    # no jumps at all: a point mass at 1
    ({"family": "vgd", "params": {"mu0": 1.0, "alpha": 0.0, "lam_pos": 3.0,
                                  "lam_neg": 2.0}}, False),
    (None, False),
], ids=["bgd", "gtsd_negative_drift", "vgd_point_mass", "gamma"])
def test_gini_two_sided_support_warns(dist, warns):
    # X >= 0 almost surely exactly when nu has no negative part and the
    # uncompensated drift is nonnegative
    over = {"mc": {"n_samples": 2000, "seed": 3, "batch": 500}}
    if dist is not None:
        over["distribution"] = dist
    rep = run_task(build_spec(minimal_doc(**over)))
    assert any("not a Lorenz-Gini" in w for w in rep["warnings"]) == warns


def test_stein_task_runs_on_every_family(tmp_path, capsysbinary):
    # the first-order residual comes from the triplet of any family; vgd
    # and bgd report their second-order one
    docs = {family: params for family, params in SMALL_SWEEP.values()}
    assert set(docs) == set(dist_catalog.FAMILIES)
    codes = {family: main(["run", write_spec(tmp_path, minimal_doc(
        distribution={"family": family, "params": params},
        task={"kind": "stein", "g_name": "sin"},
        mc={"n_samples": 2000, "seed": 1}))])
        for family, params in docs.items()}
    assert set(codes.values()) == {0}, codes


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


def test_main_rejects_quadrature_block(tmp_path, capsysbinary):
    # no task reads a tolerance, so the spec has no quadrature block
    path = write_spec(tmp_path, minimal_doc(quadrature={"rel_tol": 1e-9}))
    assert main(["run", path]) == 2
    assert b"quadrature" in capsysbinary.readouterr().err


def test_main_bad_override_exit_code(tmp_path, capsysbinary):
    path = write_spec(tmp_path, minimal_doc())
    assert main(["run", path, "--samples", "10"]) == 2
    assert b"error:" in capsysbinary.readouterr().err


@pytest.mark.parametrize("over, field", [
    ({"distribution": {"family": "poisson", "params": {"lam": True}}}, "lam"),
    ({"distribution": {"family": "poisson", "params": {"lam": "2"}}}, "lam"),
    ({"distribution": {"family": "poisson", "params": {"lam": math.inf}}},
     "lam"),
    ({"distribution": {"family": "poisson", "params": {"lam": 10**400}}},
     "lam"),
    ({"distribution": {"family": "gamma", "params": {"a": 2, "b": math.inf}}},
     "b"),
    ({"distribution": {"family": "compound_poisson", "params": {
        "rate": 1.0, "jumps": {"kind": "gamma", "a": math.nan, "b": 3}}}},
     "jumps.a"),
    ({"task": {"kind": "premium", "principle": "esscher",
               "kappa": math.nan}}, "task.kappa"),
    ({"task": {"kind": "premium", "principle": "wpcp", "w_name": "shift",
               "c": -math.inf}}, "task.c"),
])
def test_main_rejects_bad_spec_numbers(tmp_path, capsysbinary, over, field):
    # a bool, a string, a non-finite number or an int beyond a double's
    # range is not a parameter value: exit 2, naming the field, before any
    # number is computed from it
    path = write_spec(tmp_path, minimal_doc(**over))
    assert main(["run", path]) == 2
    err = capsysbinary.readouterr().err
    assert err.startswith(b"error:") and f"'{field}'".encode() in err


def test_main_numeric_exit_code(tmp_path, capsysbinary, monkeypatch):
    import levy_stein.cli as cli
    monkeypatch.setattr(cli, "run_task",
                        lambda spec: (_ for _ in ()).throw(
                            NonConvergence("tolerance not reached")))
    path = write_spec(tmp_path, minimal_doc())
    assert main(["run", path]) == 3
    assert b"numeric failure" in capsysbinary.readouterr().err


@pytest.mark.parametrize("task", [
    {"kind": "verify-identity", "n": 1, "g_name": "exp_tilt", "kappa": 1.0},
    {"kind": "stein", "g_name": "exp_tilt", "kappa": 1.0},
], ids=["verify-identity", "stein"])
def test_main_tilt_without_finite_variance_exits_numeric(tmp_path,
                                                         capsysbinary, task):
    # e^X on Ga(2, 1.5): each row would average e^{2X}, of infinite mean,
    # so the task exits 3 instead of reporting an SE that means nothing
    doc = minimal_doc(task=task, distribution={
        "family": "gamma", "params": {"a": 2.0, "b": 1.5}})
    assert main(["run", write_spec(tmp_path, doc)]) == 3
    captured = capsysbinary.readouterr()
    assert captured.out == b"" and b"exp_tilt(1) squared" in captured.err


@pytest.mark.parametrize("kappa,code", [(0.5, 3), (0.3, 0)])
def test_main_bounds_oracle_needs_four_times_the_tilt(tmp_path, capsysbinary,
                                                      kappa, code):
    # the bounds task's variance oracle is a sample variance of e^{kappa X}
    # on Ga(2, 1.5), whose SE reads E[e^{4 kappa X}]: finite at 0.3, not
    # at 0.5
    doc = minimal_doc(task={"kind": "bounds", "g_name": "exp_tilt",
                            "kappa": kappa},
                      distribution={"family": "gamma",
                                    "params": {"a": 2.0, "b": 1.5}})
    assert main(["run", write_spec(tmp_path, doc)]) == code
    captured = capsysbinary.readouterr()
    if code:
        assert captured.out == b""
        assert b"exp_tilt(0.5)^2 squared" in captured.err
    else:
        assert json.loads(captured.out)["results"]


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


def test_identity_far_in_gauss_tails_has_a_finite_z():
    # at mean 50 and sd 6.8, g(x) = e^{-x^2/2} is about 1e-290 at most and
    # every column's square would underflow: both rows must keep an SE of
    # their own size and the z-score must stay finite
    doc = minimal_doc(
        distribution={"family": "bgd", "params": {
            "alpha_pos": 300, "lam_pos": 3, "alpha_neg": 200,
            "lam_neg": 4}},
        task={"kind": "verify-identity", "n": 1, "g_name": "gauss"},
        mc={"n_samples": 2000, "seed": 1, "batch": 500})
    rows = {r["name"]: r for r in run_task(build_spec(doc))["results"]}
    for name in ("identity_rhs", "oracle"):
        row = rows[name]
        assert row["value"] == 0.0 or row["std_error"] > 0.0, name
    z = rows["z_score"]["value"]
    assert isinstance(z, float) and abs(z) <= 4.0


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
    ({"kind": "bounds", "g_name": "sin"}, 0),
    ({"kind": "premium", "principle": "wpcp", "w_name": "one"}, 0),
    ({"kind": "gini"}, 2),
], ids=["verify-identity", "bounds", "wpcp", "gini"])
def test_main_point_mass_at_zero_exit_codes(tmp_path, capsysbinary, dist,
                                            task, code):
    # a zero Lévy measure is the point mass at 0: the Monte Carlo tasks
    # run on it, the bounds give Var(g(X)) = 0 exactly, and the Gini index
    # refuses its zero mean (exit 2); never a traceback
    doc = minimal_doc(distribution=dist, task=task,
                      mc={"n_samples": 2000, "seed": 1})
    path = write_spec(tmp_path, doc)
    assert main(["run", path]) == code
    if code:
        assert capsysbinary.readouterr().out == b""


@pytest.mark.parametrize("dist", [
    {"family": "vgd", "params": {"mu0": 0.3, "alpha": 0.0, "lam_pos": 3.0,
                                 "lam_neg": 4.0}},
    {"family": "bgd", "params": {"alpha_pos": 0.0, "lam_pos": 3.0,
                                 "alpha_neg": 0.0, "lam_neg": 4.0}},
    {"family": "cgmy", "params": {"alpha": 0.0, "beta": 0.5, "lam_pos": 2.0,
                                  "lam_neg": 3.0}},
], ids=["vgd", "bgd", "cgmy"])
def test_main_stein_on_point_mass(tmp_path, capsysbinary, dist):
    # a zero shape leaves a point mass, on which the Stein residual is
    # exactly 0 (for VGD, X = mu0 and r = 2 alpha = 0)
    doc = minimal_doc(distribution=dist, task={"kind": "stein",
                                               "g_name": "sin"},
                      mc={"n_samples": 2000, "seed": 1})
    path = write_spec(tmp_path, doc)
    assert main(["run", path]) == 0
    rows = {r["name"]: r["value"]
            for r in json.loads(capsysbinary.readouterr().out)["results"]}
    assert rows["stein_residual"] == 0.0 and rows["z_score"] == 0.0


@pytest.mark.parametrize("fmt,want", [("json", "inf"), ("csv", "inf")])
def test_z_row_of_a_gap_at_zero_se_is_inf(tmp_path, capsysbinary,
                                          monkeypatch, fmt, want):
    # z reads 0 at SE 0 only when the gap is 0 too (as MCEstimate.z); a
    # nonzero gap that no error covers is infinitely many SEs away
    monkeypatch.setattr("levy_stein.cli.stein_residual",
                        lambda *args: MCEstimate(0.25, 0.0, 2000))
    doc = minimal_doc(task={"kind": "stein", "g_name": "sin"},
                      mc={"n_samples": 2000, "seed": 1}, output=fmt)
    assert main(["run", write_spec(tmp_path, doc)]) == 0
    out = capsysbinary.readouterr().out.decode()
    if fmt == "json":
        rows = {r["name"]: r["value"] for r in json.loads(out)["results"]}
        assert rows["stein_residual"] == 0.25 and rows["z_score"] == want
    else:
        assert out.splitlines()[-1].split(",")[:2] == ["z_score", want]


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
    {"kind": "premium", "principle": "generalized_wpcp", "n": 400,
     "w_name": "exp_tilt", "kappa": 0.3},
], ids=["verify-identity", "generalized_wpcp"])
def test_main_monte_carlo_overflow_exits_numeric(tmp_path, capsysbinary,
                                                 task):
    # every cumulant of poisson(2) is finite, but X^200 leaves the double
    # range in the accumulators, and the closed E[X^400 e^{0.3 X}] leaves
    # it in the Bell recursion: exit 3, not a value with SE nan or an inf
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
    # for g with terms (sin) the identity draws X with sample at every n,
    # one call per batch, so the oracle's first batch is the first recorded
    # draw after the estimate's batches; log1psq has no terms, and at n = 3
    # its bias route draws the pairs through sample_conv, so every recorded
    # draw is the oracle's. The oracle's first batch must be neither the
    # estimate stream's first batch of this seed nor that of the next seed
    draws = sample_spy(Gamma)
    for n, g_name in ((1, "sin"), (2, "sin"), (3, "sin"), (3, "log1psq")):
        draws.clear()
        spec = build_spec(minimal_doc(
            task={"kind": "verify-identity", "n": n, "g_name": g_name}))
        run_task(spec)
        oracle_first = draws[0]
        if g_name == "sin":
            rng = next(substreams(spec.mc))
            assert np.array_equal(
                draws[0], spec.base.sample(rng, draws[0].size))
            oracle_first = draws[len(list(batch_sizes(spec.mc)))]
        for seed in (spec.mc.seed, spec.mc.seed + 1):
            rng = next(substreams(replace(spec.mc, seed=seed)))
            assert not np.array_equal(
                oracle_first, spec.base.sample(rng, oracle_first.size)), \
                (n, g_name, seed)


def _assert_identity_draws_only_x(sample_spy, monkeypatch, n):
    # the right-hand side draws n_samples variates through sample, one call
    # per batch, and sample_conv runs only as sample's scalar case, never
    # for the pair
    draws = sample_spy(Gamma)
    powers = []
    conv = Gamma.sample_conv

    def counted(self, rng, s, size=None):
        powers.append(s)
        return conv(self, rng, s, size)

    monkeypatch.setattr(Gamma, "sample_conv", counted)
    spec = build_spec(minimal_doc(
        task={"kind": "verify-identity", "n": n, "g_name": "sin"}))
    run_task(spec)
    n_batches = len(list(batch_sizes(spec.mc)))
    # the estimate's batches, then the oracle's
    assert len(draws) == 2 * n_batches
    assert sum(x.size for x in draws[:n_batches]) == spec.mc.n_samples
    assert powers == [1.0] * len(draws)


def test_first_order_identity_draws_only_x(sample_spy, monkeypatch):
    # at n = 1 the right-hand side reads only X_s, which has the law of X
    _assert_identity_draws_only_x(sample_spy, monkeypatch, 1)


def test_second_order_identity_draws_only_x(sample_spy, monkeypatch):
    # at n = 2 sin is closed: it reads X alone and averages
    # Phi_2(z) e^{zX}, with s integrated out through the cumulants of Y_s
    # under the tilt e^{z X_s}
    _assert_identity_draws_only_x(sample_spy, monkeypatch, 2)


def test_third_order_identity_draws_only_x(sample_spy, monkeypatch):
    # at n = 3 Y_s enters twice; for g with terms the s-integral is closed
    # through the cumulants of Y_s under the tilt e^{z X_s}
    _assert_identity_draws_only_x(sample_spy, monkeypatch, 3)


CGMY_HALF = {"family": "cgmy", "params": {
    "alpha": 1.0, "beta": 0.5, "lam_pos": 2.0, "lam_neg": 3.0}}
TILT = {"w_name": "exp_tilt", "kappa": 0.5}


@pytest.mark.parametrize("dist,task,routes", [
    (CGMY_HALF, {"kind": "verify-identity", "n": 2, "g_name": "sin"},
     {"identity_rhs": "closed"}),
    (CGMY_HALF, {"kind": "verify-identity", "n": 1, "g_name": "gauss"},
     {"identity_rhs": "rule"}),
    (None, {"kind": "verify-identity", "n": 1, "g_name": "sin"},
     {"identity_rhs": "closed"}),
    ({"family": "poisson", "params": {"lam": 2.0}},
     {"kind": "verify-identity", "n": 1, "g_name": "sin"},
     {"identity_rhs": "closed"}),
    (CGMY_HALF, {"kind": "bounds", "g_name": "sin"},
     {"cacoullos_lower": "closed", "cacoullos_upper": "closed",
      "chen_upper": "closed"}),
    (None, {"kind": "bounds", "g_name": "square"},
     {"cacoullos_lower": "closed", "cacoullos_upper": "closed",
      "chen_upper": "closed"}),
    # the premiums are closed sums with no inner integral, as esscher is
    (CGMY_HALF, {"kind": "premium", "principle": "wpcp", **TILT}, {}),
    (None, {"kind": "premium", "principle": "generalized_wpcp", "n": 2,
            **TILT}, {}),
    (CGMY_HALF, {"kind": "stein", "g_name": "sin"},
     {"stein_residual": "closed"}),
    ({"family": "vgd", "params": {"mu0": 0.2, "alpha": 1.5, "lam_pos": 3.0,
                                  "lam_neg": 4.0}},
     {"kind": "stein", "g_name": "sin"}, {}),
    ({"family": "poisson", "params": {"lam": 2.0}}, {"kind": "gini"},
     {"gini_levy_formula": "atoms"}),
    (None, {"kind": "gini"}, {"gini_levy_formula": "rule"}),
    # g without terms keeps the bias route on positive support
    (None, {"kind": "verify-identity", "n": 1, "g_name": "log1psq"},
     {"identity_rhs": "bias"}),
    # without terms the bracket draws bias variables, and Chen's bound
    # takes the nu-rule, an exact sum over a Poisson law's atom
    (None, {"kind": "bounds", "g_name": "gauss"},
     {"cacoullos_lower": "bias", "cacoullos_upper": "bias",
      "chen_upper": "rule"}),
    ({"family": "poisson", "params": {"lam": 2.0}},
     {"kind": "bounds", "g_name": "gauss"},
     {"cacoullos_lower": "bias", "cacoullos_upper": "bias",
      "chen_upper": "atoms"}),
    (CGMY_HALF, {"kind": "stein", "g_name": "gauss"},
     {"stein_residual": "rule"}),
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


@pytest.mark.parametrize("dist,task,name,want", [
    # Ga(2, 1): E[X^2 (X + 1)] / E[X + 1] = (24 + 6) / 3
    (None, {"kind": "premium", "principle": "generalized_wpcp", "n": 2,
            "w_name": "shift", "c": 1.0}, "generalized_wpcp(n=2, shift(1))",
     10.0),
    # CGMY(1, 1/2, 2, 3): the Esscher premium, the mean of the tilted law
    (CGMY_HALF, {"kind": "premium", "principle": "wpcp", **TILT},
     "wpcp(exp_tilt(0.5))", math.gamma(0.5) * (1.5 ** -0.5 - 3.5 ** -0.5)),
    # Ga(2, 1): 2 / (1 - kappa)
    (None, {"kind": "premium", "principle": "esscher", "kappa": 0.5},
     "esscher(0.5)", 4.0),
    # Ga(2, 1): E X + Var X / E X = 2 + 2 / 2
    (None, {"kind": "premium", "principle": "modified_variance"},
     "modified_variance", 3.0),
], ids=["generalized_wpcp", "wpcp", "esscher", "modified_variance"])
def test_premium_rows_are_closed(dist, task, name, want):
    over = {"task": task, "mc": {"n_samples": 2000, "seed": 3, "batch": 250}}
    if dist is not None:
        over["distribution"] = dist
    report = run_task(build_spec(minimal_doc(**over)))
    row, = report["results"]
    assert row["name"] == name
    assert row["method"] == "closed_form"
    assert row["std_error"] is None and row["n"] is None
    assert report["diagnostics"]["max_std_error"] is None
    # the report keeps 12 significant digits
    assert abs(row["value"] - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("g_name,drew", [("gauss", True), ("sin", False)])
def test_bracket_rows_carry_their_draws(g_name, drew):
    # a bracket edge that drew carries its draw count beside its SE; a
    # closed one carries neither
    mc = {"n_samples": 4000, "seed": 3, "batch": 500}
    report = run_task(build_spec(minimal_doc(
        distribution={"family": "gamma", "params": {"a": 2.0, "b": 1.5}},
        task={"kind": "bounds", "g_name": g_name}, mc=mc)))
    rows = {r["name"]: r for r in report["results"]}
    for name in ("cacoullos_lower", "cacoullos_upper"):
        row = rows[name]
        if drew:
            assert row["method"] == "numeric", name
            assert row["n"] == mc["n_samples"], name
            assert row["std_error"] is not None and row["std_error"] > 0
        else:
            assert row["method"] == "closed_form", name
            assert row["n"] is None and row["std_error"] is None, name


@pytest.mark.parametrize("dist,route,rule,mixture", [
    (None, "triplet", None, (1, 1)),
    # 19 Poisson terms at shapes 2, 4, ..., 38: one class, one gammainc
    ({"family": "compound_poisson",
      "params": {"rate": 1.5, "jumps": {"kind": "gamma", "a": 2.0, "b": 3.0}}},
     "triplet", None, (19, 1)),
    ({"family": "inverse_gaussian", "params": {"alpha": 1.5, "lam": 2.0}},
     "triplet", None, None),
    ({"family": "bgd", "params": {"alpha_pos": 2.0, "lam_pos": 3.0,
                                  "alpha_neg": 1.0, "lam_neg": 4.0}},
     "table", "double_exponential", None),
    (CGMY_HALF, "table", "cos", None),
], ids=["gamma", "cp_gamma", "inverse_gaussian", "bgd", "cgmy"])
def test_gini_report_names_its_cdf(dist, route, rule, mixture):
    over = {"mc": {"n_samples": 2000, "seed": 3, "batch": 250}}
    if dist is not None:
        over["distribution"] = dist
    spec = build_spec(minimal_doc(**over))
    first = emit(run_task(spec), "json")
    cdf = json.loads(first)["diagnostics"]["cdf"]
    assert cdf["route"] == route
    if mixture is not None:
        # the gamma mixture's terms and its gammainc calls per point
        terms, calls = mixture
        assert cdf == {"route": route, "mixture_terms": terms,
                       "gammainc_calls": calls}
    elif rule is None:
        assert cdf == {"route": route}
    else:
        assert set(cdf) == {"route", "range", "knots", "knot_rule",
                            "knot_error_estimate"}
        assert cdf["knots"] == 2049 and cdf["knot_rule"] == rule
        lo, hi = cdf["range"]
        assert lo < spec.base.mean() < hi
        err = cdf["knot_error_estimate"]
        # the COS series has no estimate; the rule met its tolerance
        assert err is None if rule == "cos" else 0 <= err <= 1e-13
    # byte-identical when a new spec builds its table again
    assert emit(run_task(build_spec(minimal_doc(**over))), "json") == first


def test_gini_builds_its_table_once(monkeypatch):
    # the levy formula, the oracle and cdf_route share one table
    builds = []
    init = dist_catalog.CdfTable.__init__

    def counted(self, spec, rule):
        builds.append(spec)
        init(self, spec, rule)

    monkeypatch.setattr(dist_catalog.CdfTable, "__init__", counted)
    bgd = {"family": "bgd", "params": {"alpha_pos": 2.0, "lam_pos": 3.0,
                                       "alpha_neg": 1.0, "lam_neg": 4.0}}
    run_task(build_spec(minimal_doc(
        distribution=bgd, mc={"n_samples": 2000, "seed": 3, "batch": 250})))
    assert len(builds) == 1


def test_gini_report_is_the_per_node_report(monkeypatch):
    # _BLOCK = 1 hands the cdf one point of x + u a call, as a loop over
    # nodes and samples would
    spec = build_spec(minimal_doc(
        mc={"n_samples": 1000, "seed": 3, "batch": 500}))
    blocked = emit(run_task(spec), "json")
    monkeypatch.setattr(levy_core, "_BLOCK", 1)
    assert emit(run_task(spec), "json") == blocked
