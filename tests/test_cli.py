"""Command-line workflow: artifacts, config layering, exit codes, reruns."""

import dataclasses
import hashlib
import json
import logging
from pathlib import Path

import numpy as np
import pytest

from qlrlab import jsonable
from qlrlab.cli import (
    _coerce,
    _problem_payload,
    _rebuild_problem,
    _rebuild_solution,
    _solution_payload,
    main,
)
from qlrlab.mitigation import read_confusion_csv
from qlrlab.qlr_engine import QLRProblem, QLRSolution, ResponseBuilder, solve
from qlrlab.sim_engine import ConvergenceError

FIXTURES = Path(__file__).parent / "fixtures"
H2 = str(FIXTURES / "h2.fcidump")
H2_DIPOLE = str(FIXTURES / "h2")


def run_cli(*argv):
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code


def read_json(path):
    return json.loads(Path(path).read_text())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-h2")
    code = run_cli(
        "ground-state", "--fcidump", H2, "--dipole-prefix", H2_DIPOLE, "--out", out
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def exact_artifacts(workdir):
    for par in ("naive", "proj", "allproj"):
        assert run_cli("qlr", "--parametrization", par, "--out", workdir) == 0
    return workdir


# -- ground state ---------------------------------------------------------------


def test_ground_state_artifact(workdir):
    payload = read_json(workdir / "ground-state.json")
    assert payload["command"] == "ground-state"
    assert payload["energy"] == pytest.approx(-1.137275943617, abs=1e-9)
    assert payload["config"]["fcidump"] == H2
    assert len(payload["theta"]) == 3 and payload["kappa"] == []
    body = dict(payload)
    digest = body.pop("sha256")
    assert digest == hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()
    ).hexdigest()
    index = (workdir / "index.jsonl").read_text().splitlines()
    assert any(json.loads(line)["artifact"] == "ground-state.json" for line in index)


def test_ground_state_rerun_is_byte_identical(workdir):
    path = workdir / "ground-state.json"
    before = path.read_bytes()
    code = run_cli(
        "ground-state", "--fcidump", H2, "--dipole-prefix", H2_DIPOLE, "--out", workdir
    )
    assert code == 0
    assert path.read_bytes() == before


def test_missing_fcidump_is_a_validation_error(tmp_path):
    code = run_cli("ground-state", "--fcidump", tmp_path / "nope.fcidump")
    assert code == 2


def test_bad_active_space_is_a_validation_error(tmp_path):
    # Out of range, odd electron count, duplicate orbital, more active
    # electrons than electrons: all parse, none is a valid active space.
    for active in ("2:0,9", "3:0,1", "2:0,0", "6:0"):
        out = tmp_path / active.replace(":", "_").replace(",", "_")
        code = run_cli("ground-state", "--fcidump", H2, "--active", active, "--out", out)
        assert code == 2, active
        assert not out.exists(), active


def test_convergence_failure_exit_code(tmp_path, monkeypatch):
    import qlrlab.cli as cli_module

    def fail(*args, **kwargs):
        raise ConvergenceError("stuck")

    monkeypatch.setattr(cli_module, "oo_vqe", fail)
    code = run_cli("ground-state", "--fcidump", H2, "--out", tmp_path)
    assert code == 3


# -- qlr ---------------------------------------------------------------------------


def test_qlr_exact_artifact(exact_artifacts):
    payload = read_json(exact_artifacts / "qlr-naive-exact.json")
    solution = payload["solution"]
    assert solution["valid"] is True
    assert solution["omega"] == pytest.approx([0.9679842, 1.61841402], abs=1e-6)
    assert solution["f"][0] == pytest.approx(0.86813904, abs=1e-5)
    assert payload["mode"] == "exact" and payload["shots"] is None
    assert payload["ground_sha256"]
    csv = np.loadtxt(
        exact_artifacts / "spectrum-naive-exact.csv", delimiter=",", skiprows=1
    )
    assert np.all(np.diff(csv[:, 0]) > 0)
    assert csv[:, 1].max() > 0.5


def test_qlr_proj_equals_allproj(exact_artifacts):
    proj = read_json(exact_artifacts / "qlr-proj-exact.json")
    allproj = read_json(exact_artifacts / "qlr-allproj-exact.json")
    assert proj["solution"]["omega"] == pytest.approx(
        allproj["solution"]["omega"], abs=1e-9
    )
    assert np.abs(np.asarray(proj["matrices"]["b"])).max() <= 1e-12


def _same(stored, rebuilt):
    if not isinstance(stored, np.ndarray):
        return stored == rebuilt
    return (
        isinstance(rebuilt, np.ndarray)
        and stored.dtype == rebuilt.dtype
        and np.array_equal(stored, rebuilt, equal_nan=True)
    )


def test_qlr_payloads_round_trip_through_json_text(h2_ground):
    builder = ResponseBuilder(h2_ground, "allproj")
    problem = builder.evaluate_sampled(500, master_seed=2)
    assert problem.delta is None
    a_std = problem.a_std.copy()
    a_std[0, 0] = np.nan  # stored as null, read back as NaN
    problem = dataclasses.replace(problem, a_std=a_std)
    solution = solve(problem)
    assert solution.n_states == 2
    complex_vectors = solution.vectors * np.exp(0.3j)
    variants = [
        dataclasses.replace(solution, f=np.array([0.25, np.nan])),
        dataclasses.replace(solution, f=None),
        dataclasses.replace(solution, vectors=complex_vectors, f=np.array([1.0, 2.0])),
    ]
    for original in variants:
        payload = _problem_payload(problem)
        payload["solution"] = _solution_payload(original)
        artifact = json.loads(json.dumps(jsonable(payload), allow_nan=False))
        rebuilt_problem = _rebuild_problem(artifact)
        rebuilt = _rebuild_solution(artifact, rebuilt_problem)
        for field in dataclasses.fields(QLRProblem):
            name = field.name
            assert _same(getattr(problem, name), getattr(rebuilt_problem, name)), name
        for field in dataclasses.fields(QLRSolution):
            if field.name != "problem":
                name = field.name
                assert _same(getattr(original, name), getattr(rebuilt, name)), name
    assert np.iscomplexobj(rebuilt.vectors)


def test_qlr_requires_ground_artifact(tmp_path):
    assert run_cli("qlr", "--out", tmp_path) == 2


def test_qlr_sampled_without_saving(workdir, tmp_path):
    code = run_cli(
        "qlr",
        "--mode",
        "sampled",
        "--shots",
        400,
        "--pauli-saving",
        "off",
        "--seed",
        3,
        "--ground",
        workdir / "ground-state.json",
        "--out",
        tmp_path,
    )
    assert code in (0, 4)
    payload = read_json(tmp_path / "qlr-naive-sampled-ps_off.json")
    assert payload["pauli_saving"] is False
    assert payload["cliques_sampled"] > 9


def test_config_file_with_flag_override(workdir, tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[qlrlab]\n"
        "parametrization = proj\n"
        "mode = sampled\n"
        "shots = 123\n"
        f"ground = {workdir / 'ground-state.json'}\n"
        f"out = {tmp_path}\n"
    )
    code = run_cli("qlr", "--config", ini, "--parametrization", "naive")
    assert code in (0, 4)
    payload = read_json(tmp_path / "qlr-naive-sampled-ps_on.json")
    assert payload["config"]["parametrization"] == "naive"
    assert payload["config"]["shots"] == 123
    assert payload["shots"] == 123


def test_rerun_from_artifact_config_is_byte_identical(workdir, tmp_path):
    args = (
        "qlr",
        "--mode",
        "sampled",
        "--shots",
        500,
        "--seed",
        11,
        "--ground",
        workdir / "ground-state.json",
        "--out",
        tmp_path,
    )
    first = run_cli(*args)
    path = tmp_path / "qlr-naive-sampled-ps_on.json"
    before = path.read_bytes()
    second = run_cli("qlr", "--config", path)
    assert first == second
    assert path.read_bytes() == before


def test_retired_threads_key_is_ignored(workdir, tmp_path, caplog):
    ini = tmp_path / "old.ini"
    ini.write_text(
        "[qlrlab]\n"
        "mode = sampled\n"
        "shots = 200\n"
        "threads = 4\n"
        f"ground = {workdir / 'ground-state.json'}\n"
        f"out = {tmp_path}\n"
    )
    with caplog.at_level(logging.WARNING, logger="qlrlab.cli"):
        assert run_cli("qlr", "--config", ini) in (0, 4)
    assert any("threads" in r.getMessage() for r in caplog.records)
    path = tmp_path / "qlr-naive-sampled-ps_on.json"
    before = path.read_bytes()
    payload = json.loads(before)
    assert "threads" not in payload["config"]
    # An artifact written while the key existed still reruns byte for byte.
    payload["config"]["threads"] = 0
    old = tmp_path / "old-artifact.json"
    old.write_text(json.dumps(payload))
    assert run_cli("qlr", "--config", old) in (0, 4)
    assert path.read_bytes() == before


def test_unknown_config_key_is_rejected(tmp_path):
    ini = tmp_path / "bad.ini"
    ini.write_text("[qlrlab]\nwavelength = 7\n")
    assert run_cli("qlr", "--config", ini, "--out", tmp_path) == 2


@pytest.mark.parametrize("raw, flag", [("yes", True), ("off", False), ("ON", True), ("0", False)])
def test_coerce_reads_flag_words(raw, flag):
    assert _coerce("paired", raw, bool) is flag


def test_coerce_rejects_an_unknown_flag_word():
    with pytest.raises(ValueError, match="maybe"):
        _coerce("paired", "maybe", bool)


def test_coerce_reads_integer_text():
    value = _coerce("shots", "7", int)
    assert value == 7 and type(value) is int


@pytest.mark.parametrize(
    "settings, flags, message",
    [
        ("parametrization = bogus\n", (), "unknown parametrization"),
        ("mode = bogus\n", (), "unknown mode"),
        ("mitigation = bogus\n", (), "unknown mitigation kind"),
        ("", ("--mode", "sampled", "--shots", 0), "requires shots > 0"),
        ("", ("--runs", 0), "runs must be at least 1"),
        ("", ("--confusion", "missing.csv"), "confusion CSV not found"),
    ],
)
def test_invalid_config_is_a_validation_error(tmp_path, capsys, settings, flags, message):
    ini = tmp_path / "run.ini"
    ini.write_text("[qlrlab]\n" + settings)
    out = tmp_path / "out"
    flags = tuple(tmp_path / f if f == "missing.csv" else f for f in flags)
    assert run_cli("qlr", "--config", ini, *flags, "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# -- campaign ------------------------------------------------------------------------


def test_campaign_artifact_and_csv(workdir, tmp_path):
    code = run_cli(
        "campaign",
        "--mode",
        "sampled",
        "--runs",
        3,
        "--shots",
        400,
        "--seed",
        2,
        "--ground",
        workdir / "ground-state.json",
        "--out",
        tmp_path,
    )
    assert code == 0
    payload = read_json(tmp_path / "campaign-naive-sampled-ps_on.json")
    runs = payload["campaigns"]["ps_on"]
    assert runs["runs"] == 3 and len(runs["per_run"]) == 3
    assert runs["low_statistics"] is False
    assert all(sigma >= 0 for sigma in runs["sigma_k"])
    csv = (tmp_path / "campaign-naive-sampled-ps_on-sigma.csv").read_text()
    assert csv.splitlines()[0] == "state,sigma_ps_on"


def test_campaign_single_run_reports_low_statistics(workdir, tmp_path):
    code = run_cli(
        "campaign",
        "--mode",
        "sampled",
        "--runs",
        1,
        "--shots",
        400,
        "--ground",
        workdir / "ground-state.json",
        "--out",
        tmp_path,
    )
    assert code == 0
    runs = read_json(tmp_path / "campaign-naive-sampled-ps_on.json")["campaigns"]["ps_on"]
    assert runs["low_statistics"] is True
    assert runs["sigma_k"] == [0.0] * len(runs["sigma_k"])


def test_campaign_paired(workdir, tmp_path):
    code = run_cli(
        "campaign",
        "--mode",
        "sampled",
        "--paired",
        "--runs",
        2,
        "--shots",
        300,
        "--ground",
        workdir / "ground-state.json",
        "--out",
        tmp_path,
    )
    assert code == 0
    payload = read_json(tmp_path / "campaign-naive-paired.json")
    assert set(payload["campaigns"]) == {"ps_on", "ps_off"}
    header = (tmp_path / "campaign-naive-paired-sigma.csv").read_text().splitlines()[0]
    assert header == "state,sigma_ps_on,sigma_ps_off"


def test_campaign_zero_valid_runs_is_nonphysical(workdir, tmp_path):
    code = run_cli(
        "campaign",
        "--mode",
        "sampled",
        "--runs",
        2,
        "--shots",
        50,
        "--noise-readout",
        0.5,
        "--seed",
        1,
        "--ground",
        workdir / "ground-state.json",
        "--out",
        tmp_path,
    )
    assert code == 4


# -- metrics and spectrum ---------------------------------------------------------------


def test_metrics_reports_infinite_cv_for_projected_b(exact_artifacts, capsys):
    code = run_cli(
        "metrics", "--parametrization", "proj", "--out", exact_artifacts
    )
    assert code == 0
    payload = read_json(exact_artifacts / "metrics-proj-exact.json")
    b_report = payload["report"]["matrices"]["B"]
    assert b_report["cv_token"] == "inf"
    assert b_report["cond_token"] == "inf"
    b_line = next(line for line in payload["table"] if line.startswith("B"))
    assert "inf" in b_line
    assert "inf" in capsys.readouterr().out


def test_spectrum_from_artifact(exact_artifacts):
    path = exact_artifacts / "spectrum-naive-exact.csv"
    path.unlink()
    code = run_cli("spectrum", "--out", exact_artifacts)
    assert code == 0
    assert path.exists()


def test_spectrum_without_strengths_is_rejected(tmp_path, capsys):
    out = tmp_path / "plain"
    assert run_cli("ground-state", "--fcidump", H2, "--out", out) == 0
    assert run_cli("qlr", "--out", out) == 0
    payload = read_json(out / "qlr-naive-exact.json")
    assert payload["solution"]["f"] is None
    assert run_cli("spectrum", "--out", out) == 2
    assert "dipole" in capsys.readouterr().err


# -- mitigation workflow -------------------------------------------------------------------


def test_mitigate_build_writes_loadable_csv(workdir, tmp_path):
    code = run_cli(
        "mitigate-build",
        "--mitigation",
        "readout",
        "--noise-readout",
        0.05,
        "--ground",
        workdir / "ground-state.json",
        "--out",
        tmp_path,
    )
    assert code == 0
    matrix = read_confusion_csv(tmp_path / "confusion-readout-exact.csv")
    assert matrix.kind == "readout" and matrix.n_qubits == 4
    assert matrix.matrix.sum(axis=0) == pytest.approx(np.ones(16))
    payload = read_json(tmp_path / "confusion-readout-exact.json")
    assert payload["csv_sha256"] == hashlib.sha256(
        (tmp_path / "confusion-readout-exact.csv").read_bytes()
    ).hexdigest()


def test_mitigate_build_requires_a_kind(workdir, tmp_path):
    code = run_cli(
        "mitigate-build",
        "--ground",
        workdir / "ground-state.json",
        "--out",
        tmp_path,
    )
    assert code == 2


def test_mitigated_sampled_qlr_recovers_exact_energies(workdir, tmp_path):
    noisy = run_cli(
        "qlr",
        "--mode",
        "sampled",
        "--shots",
        20000,
        "--seed",
        4,
        "--noise-readout",
        0.05,
        "--ground",
        workdir / "ground-state.json",
        "--out",
        tmp_path / "noisy",
    )
    assert noisy in (0, 4)
    mitigated = run_cli(
        "qlr",
        "--mode",
        "sampled",
        "--shots",
        20000,
        "--seed",
        4,
        "--noise-readout",
        0.05,
        "--mitigation",
        "ansatz",
        "--ground",
        workdir / "ground-state.json",
        "--out",
        tmp_path / "fixed",
    )
    assert mitigated == 0
    exact = np.array([0.9679842, 1.61841402])
    raw = read_json(tmp_path / "noisy" / "qlr-naive-sampled-ps_on.json")
    fixed = read_json(tmp_path / "fixed" / "qlr-naive-sampled-ps_on.json")
    err_raw = np.abs(np.asarray(raw["solution"]["omega"]) - exact).max()
    err_fixed = np.abs(np.asarray(fixed["solution"]["omega"]) - exact).max()
    assert err_fixed < err_raw
    assert err_fixed < 0.05
