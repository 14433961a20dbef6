"""Command-line front end for the response-simulation workflow.

Subcommands chain through JSON artifacts in an output directory: the
ground-state solve feeds the response solve, which feeds metrics and
spectrum export. Every artifact embeds the fully resolved configuration
and seed, so re-running a command from an artifact's config reproduces
it byte for byte. An append-only ``index.jsonl`` records content hashes.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import EV_PER_HARTREE, jsonable
from .chem_io import (
    ActiveSpace,
    MolecularSystem,
    kappa_matrix,
    parse_dipole,
    parse_fcidump,
    rotate_integrals,
)
from .mitigation import (
    MitigationError,
    build_confusion,
    read_confusion_csv,
    write_confusion_csv,
)
from .noise_metrics import matrix_metrics, run_campaign
from .qlr_engine import (
    PARAMETRIZATIONS,
    MeasurementCache,
    QLRProblem,
    QLRSolution,
    ResponseBuilder,
    solve,
    spectrum,
)
from .sim_engine import ConvergenceError, NoiseModel, OOVQEResult, TUCCSDAnsatz, oo_vqe

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_NONPHYSICAL = 4

MITIGATION_KINDS = ("none", "readout", "ansatz")


@dataclasses.dataclass
class RunConfig:
    """Fully resolved run settings: defaults, then config file, then flags."""

    fcidump: str = ""
    dipole_prefix: str = ""
    out: str = "qlrlab-out"
    active: str = ""
    parametrization: str = "naive"
    mode: str = "exact"
    shots: int = 100_000
    runs: int = 100
    pauli_saving: bool = True
    paired: bool = False
    noise_readout: float = 0.0
    noise_depol: float = 0.0
    mitigation: str = "none"
    confusion: str = ""
    seed: int = 0
    fwhm_ev: float = 0.5
    points: int = 2000
    ground: str = ""
    qlr: str = ""


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _coerce(name: str, raw, target_type):
    if isinstance(raw, target_type) and not (
        target_type is int and isinstance(raw, bool)
    ):
        return raw
    text = str(raw).strip()
    if target_type is bool:
        lowered = text.lower()
        if lowered in _BOOL_TRUE:
            return True
        if lowered in _BOOL_FALSE:
            return False
        raise ValueError(f"config key {name}: cannot read {raw!r} as a flag")
    return target_type(text)


def _read_config_file(path: str) -> dict:
    """Read settings from an INI file or from a prior artifact's JSON."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        return dict(payload.get("config", payload))
    parser = configparser.ConfigParser()
    parser.read_string(text)
    section = "qlrlab" if parser.has_section("qlrlab") else parser.default_section
    return dict(parser[section])


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, and explicit CLI flags in that order."""
    values = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    types = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    if getattr(args, "config", None):
        for key, raw in _read_config_file(args.config).items():
            key = key.replace("-", "_")
            if key == "threads":  # older configs set the campaign thread pool
                logger.warning("config key threads is no longer used; ignoring it")
                continue
            if key not in values:
                raise ValueError(f"unknown config key: {key}")
            values[key] = raw
    for key in values:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    casts = {"str": str, "int": int, "float": float, "bool": bool}
    for key, raw in values.items():
        values[key] = _coerce(key, raw, casts[str(types[key])])
    return RunConfig(**values)


def _fail(code: int, message: str) -> "SystemExit":
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(code)


def validate_config(cfg: RunConfig, needs_system: bool = True) -> None:
    if cfg.parametrization not in PARAMETRIZATIONS:
        raise _fail(EXIT_VALIDATION, f"unknown parametrization {cfg.parametrization!r}")
    if cfg.mode not in ("exact", "sampled"):
        raise _fail(EXIT_VALIDATION, f"unknown mode {cfg.mode!r}")
    if cfg.mitigation not in MITIGATION_KINDS:
        raise _fail(EXIT_VALIDATION, f"unknown mitigation kind {cfg.mitigation!r}")
    if cfg.mode == "sampled" and cfg.shots <= 0:
        raise _fail(EXIT_VALIDATION, "sampled mode requires shots > 0")
    if cfg.runs < 1:
        raise _fail(EXIT_VALIDATION, "runs must be at least 1")
    if needs_system:
        if not cfg.fcidump:
            raise _fail(EXIT_VALIDATION, "an FCIDUMP path is required (--fcidump)")
        if not Path(cfg.fcidump).exists():
            raise _fail(EXIT_VALIDATION, f"FCIDUMP not found: {cfg.fcidump}")
    if cfg.confusion and not Path(cfg.confusion).exists():
        raise _fail(EXIT_VALIDATION, f"confusion CSV not found: {cfg.confusion}")


def _parse_active(cfg: RunConfig, system: MolecularSystem) -> ActiveSpace:
    if not cfg.active:
        return ActiveSpace.full(system.n_orb, system.n_elec)
    try:
        elec_part, orb_part = cfg.active.split(":")
        n_active_elec = int(elec_part)
        orbitals = tuple(sorted(int(tok) for tok in orb_part.split(",")))
    except ValueError:
        raise _fail(
            EXIT_VALIDATION,
            f'cannot parse active space {cfg.active!r}; expected "n_elec:orb,orb"',
        ) from None
    try:
        return ActiveSpace(system.n_orb, system.n_elec, orbitals, n_active_elec)
    except ValueError as exc:
        raise _fail(EXIT_VALIDATION, f"invalid active space {cfg.active!r}: {exc}") from None


def _load_system(cfg: RunConfig) -> tuple[MolecularSystem, ActiveSpace]:
    system = parse_fcidump(cfg.fcidump)
    if cfg.dipole_prefix:
        system = dataclasses.replace(
            system, dipole=parse_dipole(cfg.dipole_prefix, system.n_orb)
        )
    return system, _parse_active(cfg, system)


# ---------------------------------------------------------------------------
# Artifact persistence
# ---------------------------------------------------------------------------


def write_artifact(out_dir: Path, name: str, payload: dict) -> Path:
    """Write one canonical JSON artifact and log its hash to the index."""
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = jsonable(payload)
    payload.pop("sha256", None)
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()
    payload["sha256"] = digest
    path = out_dir / name
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    _index(out_dir, name, digest)
    return path


def _index(out_dir: Path, name: str, digest: str) -> None:
    line = json.dumps({"artifact": name, "sha256": digest}, sort_keys=True)
    with open(out_dir / "index.jsonl", "a") as handle:
        handle.write(line + "\n")


def _index_file(out_dir: Path, path: Path) -> None:
    _index(out_dir, path.name, hashlib.sha256(path.read_bytes()).hexdigest())


def _load_artifact(path: Path, what: str) -> dict:
    if not path.exists():
        raise _fail(EXIT_VALIDATION, f"{what} artifact not found: {path}")
    return json.loads(path.read_text())


def _tag(cfg: RunConfig) -> str:
    tag = f"{cfg.parametrization}-{cfg.mode}"
    if cfg.mode == "sampled":
        tag += "-ps_on" if cfg.pauli_saving else "-ps_off"
    return tag


# ---------------------------------------------------------------------------
# Ground-state round trip
# ---------------------------------------------------------------------------


def _ground_payload(cfg: RunConfig, ground: OOVQEResult) -> dict:
    return {
        "command": "ground-state",
        "config": dataclasses.asdict(cfg),
        "energy": ground.energy,
        "energy_ev": ground.energy * EV_PER_HARTREE,
        "theta": ground.theta,
        "kappa": ground.kappa,
        "grad_norm": ground.grad_norm,
        "n_iterations": ground.n_iterations,
        "mapping": ground.ansatz.mapping,
        "n_qubits": ground.ansatz.n_qubits,
        "space": dataclasses.asdict(ground.space),
    }


def _rebuild_ground(artifact: dict) -> OOVQEResult:
    """Reconstruct the converged ground state from its artifact."""
    saved = artifact["config"]
    cfg = RunConfig(
        **{
            key: saved[key]
            for key in ("fcidump", "dipole_prefix", "active")
            if key in saved
        }
    )
    validate_config(cfg)
    system, space = _load_system(cfg)
    kappa = np.asarray(artifact["kappa"], dtype=float)
    if kappa.size:
        system = rotate_integrals(system, kappa_matrix(space, kappa))
    ansatz = TUCCSDAnsatz(space.n_active_orb, space.n_active_elec, artifact["mapping"])
    theta = np.asarray(artifact["theta"], dtype=float)
    return OOVQEResult(
        theta=theta,
        kappa=kappa,
        energy=float(artifact["energy"]),
        system=system,
        space=space,
        ansatz=ansatz,
        state=ansatz.prepare(theta),
        grad_norm=float(artifact["grad_norm"]),
        n_iterations=int(artifact["n_iterations"]),
    )


def _load_ground(cfg: RunConfig) -> tuple[OOVQEResult, dict]:
    path = Path(cfg.ground) if cfg.ground else Path(cfg.out) / "ground-state.json"
    artifact = _load_artifact(path, "ground-state")
    return _rebuild_ground(artifact), artifact


# ---------------------------------------------------------------------------
# Noise and mitigation wiring
# ---------------------------------------------------------------------------


def _noise_model(cfg: RunConfig, n_qubits: int) -> NoiseModel | None:
    if cfg.noise_readout == 0.0 and cfg.noise_depol == 0.0:
        return None
    return NoiseModel.uniform(
        n_qubits, readout=cfg.noise_readout, depolarizing=cfg.noise_depol
    )


def _mitigator(cfg: RunConfig, ground: OOVQEResult, noise: NoiseModel | None):
    """Load or build the confusion matrix selected by the config.

    Without a prebuilt CSV the channel is characterized analytically,
    which keeps runs deterministic; a sampled build comes from the
    mitigate-build subcommand and is reused via --confusion.
    """
    if cfg.mitigation == "none":
        return None
    if cfg.confusion:
        return read_confusion_csv(cfg.confusion)
    kind = "readout" if cfg.mitigation == "readout" else "ansatz_based"
    return build_confusion(
        ground.ansatz.n_qubits, kind, ansatz=ground.ansatz, noise=noise
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_ground_state(cfg: RunConfig) -> int:
    validate_config(cfg)
    system, space = _load_system(cfg)
    try:
        ground = oo_vqe(system, space)
    except ConvergenceError as exc:
        raise _fail(EXIT_CONVERGENCE, f"ground state did not converge: {exc}")
    path = write_artifact(Path(cfg.out), "ground-state.json", _ground_payload(cfg, ground))
    print(
        f"E = {ground.energy:.10f} Ha ({ground.energy * EV_PER_HARTREE:.6f} eV), "
        f"max|grad| = {ground.grad_norm:.2e}, {ground.n_iterations} iterations"
    )
    print(f"wrote {path}")
    return EXIT_OK


# The qlr artifact keeps QLRProblem's fields, with these under "matrices".
_MATRICES = ("a", "b", "sigma", "a_std", "b_std", "sigma_std",
             "a_std_nc", "b_std_nc", "sigma_std_nc", "delta")


def _problem_payload(problem: QLRProblem) -> dict:
    payload = dataclasses.asdict(problem)
    payload["matrices"] = {key: payload.pop(key) for key in _MATRICES}
    return payload


def _solution_payload(solution: QLRSolution) -> dict:
    vectors = solution.vectors
    return {
        "omega": solution.omega,
        "omega_ev": solution.omega_ev,
        "vectors_real": vectors.real,
        "vectors_imag": vectors.imag if np.iscomplexobj(vectors) else None,
        "norms_ok": solution.norms_ok,
        "hessian_eigs": solution.hessian_eigs,
        "valid": solution.valid,
        "f": solution.f,
    }


def _array(data) -> np.ndarray | None:
    """Read a stored array back; a None entry (non-finite on write) is NaN."""
    return None if data is None else np.asarray(data, dtype=float)


def _rebuild_problem(artifact: dict) -> QLRProblem:
    scalars = {
        field.name: artifact[field.name]
        for field in dataclasses.fields(QLRProblem)
        if field.name not in _MATRICES
    }
    matrices = {key: _array(artifact["matrices"][key]) for key in _MATRICES}
    return QLRProblem(**scalars, **matrices)


def _rebuild_solution(artifact: dict, problem: QLRProblem) -> QLRSolution:
    sol = artifact["solution"]
    vectors = _array(sol["vectors_real"])
    if sol["vectors_imag"] is not None:
        vectors = vectors + 1j * _array(sol["vectors_imag"])
    return QLRSolution(
        problem=problem,
        omega=_array(sol["omega"]),
        vectors=vectors,
        norms_ok=np.asarray(sol["norms_ok"], dtype=bool),
        hessian_eigs=_array(sol["hessian_eigs"]),
        valid=sol["valid"],
        f=_array(sol["f"]),
    )


def _write_spectrum_csv(cfg: RunConfig, solution: QLRSolution, name: str) -> Path:
    grid, intensity = spectrum(solution, fwhm_ev=cfg.fwhm_ev, points=cfg.points)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    rows = np.column_stack([grid, intensity])
    np.savetxt(path, rows, delimiter=",", fmt="%.12g", header="energy_ev,intensity")
    _index_file(out_dir, path)
    return path


def cmd_qlr(cfg: RunConfig) -> int:
    validate_config(cfg, needs_system=False)
    ground, ground_artifact = _load_ground(cfg)
    builder = ResponseBuilder(ground, cfg.parametrization)
    cache = None
    if cfg.mode == "exact":
        if cfg.mitigation != "none":
            print("note: mitigation has no effect in exact mode; ignoring")
        problem = builder.evaluate_exact()
    else:
        noise = _noise_model(cfg, ground.ansatz.n_qubits)
        try:
            mitigator = _mitigator(cfg, ground, noise)
        except (MitigationError, ValueError) as exc:
            raise _fail(EXIT_VALIDATION, str(exc))
        cache = MeasurementCache(
            ground.state,
            cfg.shots,
            master_seed=cfg.seed,
            run_id=0,
            noise=noise,
            mitigator=mitigator,
            pauli_saving=cfg.pauli_saving,
        )
        problem = builder.evaluate_sampled(cfg.shots, cache=cache)
    solution = solve(problem)
    have_dipole = bool(ground.system.dipole)
    if have_dipole and solution.n_states:
        builder.oscillator_strengths(solution, cache)
    payload = _problem_payload(problem)
    payload["command"] = "qlr"
    payload["config"] = dataclasses.asdict(cfg)
    payload["ground_sha256"] = ground_artifact.get("sha256")
    payload["solution"] = _solution_payload(solution)
    path = write_artifact(Path(cfg.out), f"qlr-{_tag(cfg)}.json", payload)
    omegas = ", ".join(f"{w:.6f}" for w in solution.omega) or "none"
    print(f"omega (Ha): {omegas}")
    print(f"valid: {solution.valid}  states: {solution.n_states}", end="")
    if problem.cliques_sampled is not None:
        print(f"  cliques sampled: {problem.cliques_sampled}", end="")
    print()
    print(f"wrote {path}")
    if solution.f is not None and np.isfinite(solution.f).any():
        csv_path = _write_spectrum_csv(cfg, solution, f"spectrum-{_tag(cfg)}.csv")
        print(f"wrote {csv_path}")
    elif not have_dipole:
        print("note: no dipole files; skipping oscillator strengths and spectrum")
    if not solution.valid:
        print("warning: electronic Hessian has negative eigenvalues", file=sys.stderr)
        return EXIT_NONPHYSICAL
    return EXIT_OK


def _campaign_payload(result) -> dict:
    payload = result.to_json_dict()
    payload["low_statistics"] = result.runs < 2
    if payload["low_statistics"]:
        count = 0 if result.sigma_k is None else len(result.sigma_k)
        payload["sigma_k"] = [0.0] * count
    payload["per_run"] = [
        {"valid": valid, "n_states": sol.n_states, "omega": sol.omega}
        for sol, valid in zip(result.solutions, result.valid)
    ]
    return payload


def _sigma_csv_rows(campaigns: dict) -> list[str]:
    keys = list(campaigns)
    width = max(
        (len(c["sigma_k"]) for c in campaigns.values() if c["sigma_k"]), default=0
    )
    lines = ["state," + ",".join(f"sigma_{key}" for key in keys)]
    for k in range(width):
        cells = []
        for key in keys:
            sigma = campaigns[key]["sigma_k"] or []
            value = sigma[k] if k < len(sigma) else None
            cells.append("" if value is None else f"{value:.12g}")
        lines.append(f"{k}," + ",".join(cells))
    return lines


def cmd_campaign(cfg: RunConfig) -> int:
    validate_config(cfg, needs_system=False)
    ground, ground_artifact = _load_ground(cfg)
    builder = ResponseBuilder(ground, cfg.parametrization)
    noise = _noise_model(cfg, ground.ansatz.n_qubits)
    try:
        mitigator = _mitigator(cfg, ground, noise)
    except (MitigationError, ValueError) as exc:
        raise _fail(EXIT_VALIDATION, str(exc))
    shots = cfg.shots if cfg.mode == "sampled" else None
    settings = [True, False] if cfg.paired else [cfg.pauli_saving]
    campaigns = {}
    for saving in settings:
        result = run_campaign(
            builder,
            runs=cfg.runs,
            shots=shots,
            pauli_saving=saving,
            noise=noise,
            mitigator=mitigator,
            master_seed=cfg.seed,
        )
        campaigns["ps_on" if saving else "ps_off"] = _campaign_payload(result)
    payload = {
        "command": "campaign",
        "config": dataclasses.asdict(cfg),
        "ground_sha256": ground_artifact.get("sha256"),
        "campaigns": campaigns,
    }
    stem = f"campaign-{cfg.parametrization}" + ("-paired" if cfg.paired else f"-{_tag(cfg).split('-', 1)[1]}")
    path = write_artifact(Path(cfg.out), stem + ".json", payload)
    csv_path = Path(cfg.out) / (stem + "-sigma.csv")
    csv_path.write_text("\n".join(_sigma_csv_rows(campaigns)) + "\n")
    _index_file(Path(cfg.out), csv_path)
    failed = False
    for key, campaign in campaigns.items():
        print(
            f"{key}: {campaign['n_valid']}/{campaign['runs']} valid runs, "
            f"failure fraction {campaign['failure_fraction']:.3f}"
        )
        if campaign["n_valid"] == 0:
            failed = True
    print(f"wrote {path}")
    print(f"wrote {csv_path}")
    if failed:
        print("error: a campaign produced zero valid runs", file=sys.stderr)
        return EXIT_NONPHYSICAL
    return EXIT_OK


def _load_qlr(cfg: RunConfig) -> tuple[dict, QLRProblem]:
    path = Path(cfg.qlr) if cfg.qlr else Path(cfg.out) / f"qlr-{_tag(cfg)}.json"
    artifact = _load_artifact(path, "qlr")
    return artifact, _rebuild_problem(artifact)


def _metrics_table(tokens: dict[str, dict[str, str]]) -> list[str]:
    header = f"{'matrix':<12}{'cond':>14}{'std':>14}{'std_nc':>14}{'cv':>14}"
    lines = [header]
    for key in ("A", "B", "S"):
        row = tokens[key]
        lines.append(
            f"{key:<12}{row['cond']:>14}{row['std']:>14}"
            f"{row['std_nc']:>14}{row['cv']:>14}"
        )
    lines.append(f"{'E2':<12}{tokens['E2']['cond']:>14}")
    lines.append(f"{'(S2)^-1 E2':<12}{tokens['S2invE2']['cond']:>14}")
    return lines


def cmd_metrics(cfg: RunConfig) -> int:
    validate_config(cfg, needs_system=False)
    artifact, problem = _load_qlr(cfg)
    report = matrix_metrics(problem)
    table = _metrics_table(report.tokens())
    payload = {
        "command": "metrics",
        "config": dataclasses.asdict(cfg),
        "source_sha256": artifact.get("sha256"),
        "report": report.to_json_dict(),
        "table": table,
    }
    name = f"metrics-{_tag(cfg)}.json"
    path = write_artifact(Path(cfg.out), name, payload)
    print("\n".join(table))
    print(f"wrote {path}")
    return EXIT_OK


def cmd_spectrum(cfg: RunConfig) -> int:
    validate_config(cfg, needs_system=False)
    artifact, problem = _load_qlr(cfg)
    solution = _rebuild_solution(artifact, problem)
    if solution.f is None or not np.isfinite(np.atleast_1d(solution.f)).any():
        raise _fail(
            EXIT_VALIDATION,
            "the qlr artifact has no oscillator strengths; rerun qlr with dipole files",
        )
    try:
        path = _write_spectrum_csv(cfg, solution, f"spectrum-{_tag(cfg)}.csv")
    except ValueError as exc:
        raise _fail(EXIT_VALIDATION, str(exc))
    print(f"wrote {path}")
    return EXIT_OK


def cmd_mitigate_build(cfg: RunConfig) -> int:
    validate_config(cfg, needs_system=False)
    if cfg.mitigation == "none":
        raise _fail(EXIT_VALIDATION, "choose --mitigation readout or ansatz")
    ground, _ = _load_ground(cfg)
    noise = _noise_model(cfg, ground.ansatz.n_qubits)
    kind = "readout" if cfg.mitigation == "readout" else "ansatz_based"
    shots = cfg.shots if cfg.mode == "sampled" else None
    rng = np.random.default_rng(cfg.seed) if shots else None
    matrix = build_confusion(
        ground.ansatz.n_qubits,
        kind,
        ansatz=ground.ansatz,
        noise=noise,
        shots=shots,
        rng=rng,
    )
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"confusion-{kind}-{cfg.mode}.csv"
    write_confusion_csv(matrix, csv_path)
    _index_file(out_dir, csv_path)
    payload = {
        "command": "mitigate-build",
        "config": dataclasses.asdict(cfg),
        "kind": kind,
        "n_qubits": matrix.n_qubits,
        "condition": float(matrix.condition),
        "csv": csv_path.name,
        "csv_sha256": hashlib.sha256(csv_path.read_bytes()).hexdigest(),
    }
    path = write_artifact(out_dir, f"confusion-{kind}-{cfg.mode}.json", payload)
    print(f"confusion matrix ({kind}, {matrix.n_qubits} qubits), condition {matrix.condition:.4g}")
    print(f"wrote {csv_path}")
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file or prior JSON artifact")
    common.add_argument("--fcidump", help="FCIDUMP integral file")
    common.add_argument("--dipole-prefix", dest="dipole_prefix", help="dipole sidecar prefix (<prefix>.dx/.dy/.dz)")
    common.add_argument("--active", help='active space as "n_elec:orb,orb,..."')
    common.add_argument("--parametrization", choices=PARAMETRIZATIONS)
    common.add_argument("--mode", choices=("exact", "sampled"))
    common.add_argument("--shots", type=int, help="shots per measured clique")
    common.add_argument("--runs", type=int, help="campaign run count")
    common.add_argument(
        "--pauli-saving",
        dest="pauli_saving",
        choices=("on", "off"),
        help="reuse sampled distributions across matrix elements",
    )
    common.add_argument("--paired", action="store_const", const=True, help="campaign: run both Pauli-saving settings")
    common.add_argument("--noise-readout", dest="noise_readout", type=float, help="per-qubit readout flip probability")
    common.add_argument("--noise-depol", dest="noise_depol", type=float, help="depolarizing mix weight")
    common.add_argument("--mitigation", choices=MITIGATION_KINDS)
    common.add_argument("--confusion", help="prebuilt confusion matrix CSV")
    common.add_argument("--seed", type=int, help="master seed")
    common.add_argument("--fwhm-ev", dest="fwhm_ev", type=float, help="Lorentzian FWHM in eV")
    common.add_argument("--points", type=int, help="spectrum grid size")
    common.add_argument("--ground", help="ground-state artifact path")
    common.add_argument("--qlr", help="qlr artifact path")
    common.add_argument("--out", help="output directory")

    parser = argparse.ArgumentParser(
        prog="qlrlab",
        description="Quantum linear response workflow on a statevector simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "ground-state": (cmd_ground_state, "optimize the ground state"),
        "qlr": (cmd_qlr, "build and solve the response problem"),
        "campaign": (cmd_campaign, "repeat sampled runs and aggregate spreads"),
        "metrics": (cmd_metrics, "tabulate noise metrics of a qlr artifact"),
        "spectrum": (cmd_spectrum, "export a broadened spectrum CSV"),
        "mitigate-build": (cmd_mitigate_build, "characterize the readout channel"),
    }
    for name, (func, help_text) in commands.items():
        cmd = sub.add_parser(name, parents=[common], help=help_text)
        cmd.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "pauli_saving", None) is not None:
        args.pauli_saving = args.pauli_saving == "on"
    try:
        cfg = resolve_config(args)
    except (ValueError, OSError) as exc:
        raise _fail(EXIT_VALIDATION, str(exc))
    try:
        return args.func(cfg)
    except SystemExit:
        raise
    except ConvergenceError as exc:
        raise _fail(EXIT_CONVERGENCE, str(exc))
    except MitigationError as exc:
        raise _fail(EXIT_VALIDATION, str(exc))


if __name__ == "__main__":
    sys.exit(main())
