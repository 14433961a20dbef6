"""End-to-end and per-layer benchmark for qlrlab.

Usage (from the repository root):

    python3 perfbench/run.py --workload h6-cas22 --seed 0 --seconds 40 --trace 0

The benchmark drives qlrlab only through its public functions and through
``qlrlab.cli.main`` in one subprocess per command (``perfbench/cli_entry.py``),
timing every call from outside. One process generates the load with no
threads of its own; the only extra threads are the campaign pool that
``run_campaign`` starts at its default size.

A run sets up a workload several times (import, parse, oo-VQE, compile of
the campaign builder), then repeats measurement rounds until ``--seconds``
is used up, always completing at least one round. A round runs these long
operations, each repeated as often as its workload asks:

* the exact spectrum (compile, evaluate, solve, oscillator strengths)
  for the naive, proj and allproj parametrizations;
* oo-VQE on the set-up's system;
* a Pauli-saving campaign and a smaller one without Pauli saving;
* the nine-command h2 CLI chain, one subprocess per command;

and around each of them a batch of single sampled problems with readout
noise and mitigation, a pair of confusion-matrix builds that mitigate a
batch of clique histograms, and a calibration of the machine's speed
(see ``Bench.calibrate``).

Every output is checked; a failed check, an exception or a non-zero exit
status counts as a failed operation. With ``--trace 0`` the last line of
standard output holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics, and the spans are written to ``.perfbench/``.
``--freeze`` stores this run's outputs as the references for its workload
in ``perfbench/reference.json``. It needs the reference seed 0, and the
seed-dependent references are compared only in runs with that seed.
"""

from __future__ import annotations

import os

# The load is one process whose only extra threads are qlrlab's campaign
# pool, so the BLAS libraries stay single-threaded; the CLI children inherit
# this. It must be set before NumPy is imported.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import bisect
import dataclasses
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = ROOT / "tests" / "fixtures"
REFERENCE = HERE / "reference.json"
OUTPUT = ROOT / ".perfbench"

PARAMETRIZATIONS = ("naive", "proj", "allproj")
SHOTS = 10_000
READOUT = 0.02
PS_ON_RUNS = 250
# The machine's speed drifts over seconds, so the short operations run in
# small batches after each long one and their medians span the whole round.
SAMPLED_PER_BATCH = 12
MITIGATION_PER_BATCH = 2
CHAIN_CAMPAIGN_RUNS = 20
EXACT_OMEGA_TOL = 1e-8
# Draws frozen in reference.json were made with this seed.
REFERENCE_SEED = 0
# Median seconds of one calibration on the reference machine, a 2-vCPU
# "Intel(R) Xeon(R) Processor" virtual machine (374 calibrations over 13 runs).
# See Bench.calibrate.
CALIBRATION_REF_S = 0.0083
# Seed-dependent outputs are compared with a relative tolerance, so a
# reordered floating-point sum still passes while a changed draw does not.
SAMPLED_RTOL = 1e-6
LAYERS = (
    "chem_io",
    "pauli_core",
    "sim_engine",
    "qlr_engine",
    "noise_metrics",
    "mitigation",
    "cli",
)
CHAIN_STEPS = (
    "ground-state",
    "qlr-exact-naive",
    "qlr-exact-allproj",
    "qlr-sampled",
    "campaign",
    "metrics",
    "spectrum",
    "mitigate-build",
    "qlr-rerun",
)


@dataclasses.dataclass(frozen=True)
class Workload:
    fixture: str
    active: tuple | None  # (orbitals, active electrons); None is the full space
    ps_off_runs: int
    # How often each operation runs. The machine's speed drifts over
    # seconds, so cheap operations repeat more and their medians span
    # several of its phases.
    setups: int
    exact_repeats: dict[str, int]
    campaign_repeats: int
    ground_repeats: int


# The CLI chain always runs on h2 in the full space. Every command pays for
# interpreter start, import and artifact I/O, and each qlr or campaign
# command recompiles its builder: naive once, allproj after that, which keeps
# the chain short enough to run once per round on both workloads.
WORKLOADS = {
    "h6-cas22": Workload(
        "h6", ((2, 3), 2), ps_off_runs=8, setups=2,
        exact_repeats={"naive": 2, "proj": 3, "allproj": 2}, campaign_repeats=1,
        ground_repeats=1,
    ),
    "h2-full": Workload(
        "h2", None, ps_off_runs=40, setups=5,
        exact_repeats={"naive": 3, "proj": 3, "allproj": 3}, campaign_repeats=1,
        ground_repeats=4,
    ),
}


class CheckFailed(Exception):
    pass


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def expect_close(actual, reference, atol: float, rtol: float, what: str) -> None:
    actual = np.asarray(actual, dtype=float)
    reference = np.asarray(reference, dtype=float)
    expect(actual.shape == reference.shape, f"{what}: shape {actual.shape} != {reference.shape}")
    expect(
        np.allclose(actual, reference, atol=atol, rtol=rtol, equal_nan=True),
        f"{what}: max deviation {np.nanmax(np.abs(actual - reference)):.3e}",
    )


class Ledger:
    """Counts operations and the ones that raised or failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    @contextmanager
    def op(self, name: str):
        self.attempted += 1
        try:
            yield
        except Exception:
            self.failed += 1
            print(f"FAILED {name}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)


def percentile(samples: list[float], pct: int) -> float:
    """The pct-th percentile; needs ten samples beyond it."""
    expect(len(samples) * (100 - pct) >= 1000, f"too few samples for p{pct}")
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def environment(pool_workers: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                line.split(":", 1)[1].strip()
                for line in handle
                if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qlrlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import scipy

    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "campaign_pool_workers": pool_workers,
        "QLRLAB_THREADS": os.environ.get("QLRLAB_THREADS"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class Bench:
    def __init__(self, args, qlr, import_s: float):
        self.args = args
        self.seed = args.seed
        self.workload = WORKLOADS[args.workload]
        self.qlr = qlr
        self.import_s = import_s
        self.tracer = Tracer(args.trace == 1)
        self.ledger = Ledger()
        reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        entry = reference.get("workloads", {}).get(args.workload, {})
        self.frozen = entry.get("fixed", {})
        self.frozen_seeded = entry.get("seeded", {}) if self.seed == REFERENCE_SEED else {}
        self.observed = {"fixed": {}, "seeded": {}}
        self.samples: dict[str, list[float]] = {}
        self.calibrations: list[tuple[float, float]] = []  # (perf_counter, seconds)
        self.windows: dict[str, list[tuple[float, float]]] = {}
        self.counters: dict[str, int] = {}
        self.work = OUTPUT / f"work-{os.getpid()}"

    # -- bookkeeping ---------------------------------------------------------

    def sample(self, key: str, value: float, span=None) -> None:
        """Record a value; with the span of a main-thread call, it can also
        be scaled to the reference speed."""
        self.samples.setdefault(key, []).append(value)
        if span is not None:
            self.windows.setdefault(key, []).append((span.start, span.start + span.dur))

    def calibrate(self) -> None:
        """Time a fixed workload that never touches qlrlab.

        The reference machine's speed swings by up to 40% within seconds
        as other tenants load the host. Calibrations run in the main thread right
        before and after every long operation and between the batches of
        short ones. A main-thread operation is scaled by CALIBRATION_REF_S
        over the mean of the calibrations around it, so it reads as seconds
        at the reference speed. The campaign pool's threads and the CLI's
        child processes may run on the other vCPU, which these calibrations
        do not see, so their times stay raw.
        """
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            table: dict = {}
            for i in range(6000):
                key = (i % 97, i % 89, i & 7)
                table[key] = table.get(key, 0.0) + i * 0.5
            sorted(table.items())
            mat = np.arange(256, dtype=float).reshape(16, 16) / 256.0
            for _ in range(60):
                mat = np.tanh(mat @ mat.T * 0.01 + 0.1)
            best = min(best, time.perf_counter() - start)
        self.calibrations.append((time.perf_counter(), best))

    def at_reference_speed(self, key: str) -> list[float]:
        stamps = [stamp for stamp, _ in self.calibrations]
        scaled = []
        for value, (start, end) in zip(self.samples[key], self.windows[key]):
            before = bisect.bisect_right(stamps, start) - 1
            after = bisect.bisect_left(stamps, end)
            around = [self.calibrations[i][1] for i in (before, after) if 0 <= i < len(stamps)]
            scaled.append(value * CALIBRATION_REF_S / statistics.mean(around))
        return scaled

    def counter(self, key: str, value: int, frozen: str | None = "fixed") -> None:
        """Record a deterministic count: it must repeat within the run and,
        unless ``frozen`` is None, match the count frozen for the workload
        (``"seeded"`` ones only at the reference seed)."""
        value = int(value)
        previous = self.counters.setdefault(key, value)
        expect(previous == value, f"counter {key} changed from {previous} to {value}")
        if frozen is None:
            return
        self.observed[frozen].setdefault("counters", {})[key] = value
        reference = (self.frozen if frozen == "fixed" else self.frozen_seeded).get("counters", {})
        expect(key not in reference or reference[key] == value,
               f"counter {key} = {value}, frozen {reference.get(key)}")

    def compare(self, kind: str, key: str, value, atol: float, rtol: float) -> None:
        """Check value against the frozen reference and record it for --freeze."""
        value = [None if not np.isfinite(x) else float(x) for x in np.atleast_1d(value)]
        self.observed[kind][key] = value
        frozen = (self.frozen if kind == "fixed" else self.frozen_seeded).get(key)
        if frozen is not None:
            as_array = lambda xs: np.array([np.nan if x is None else x for x in xs])
            expect_close(as_array(value), as_array(frozen), atol, rtol, key)

    # -- set-up --------------------------------------------------------------

    def load_system(self, fixture: str, span: str = "parse"):
        qlr = self.qlr
        with self.tracer.span(span, "chem_io"):
            system = qlr.parse_fcidump(FIXTURES / f"{fixture}.fcidump")
            dipole = qlr.parse_dipole(FIXTURES / fixture, system.n_orb)
        return dataclasses.replace(system, dipole=dipole)

    def setup(self) -> None:
        qlr = self.qlr
        with self.tracer.span("setup", "bench") as setup:
            self.system = self.load_system(self.workload.fixture)
            n_orb, n_elec = self.system.n_orb, self.system.n_elec
            if self.workload.active is None:
                self.space = qlr.ActiveSpace.full(n_orb, n_elec)
            else:
                orbitals, n_active = self.workload.active
                self.space = qlr.ActiveSpace(n_orb, n_elec, orbitals, n_active)
            self.ground = self.ground_state()
            with self.tracer.span("compile.allproj", "qlr_engine"):
                self.builder = qlr.ResponseBuilder(self.ground, "allproj")
        self.sample("setup_s", self.import_s + setup.dur)

    def ground_state(self):
        with self.tracer.span("oo_vqe", "sim_engine") as vqe:
            ground = self.qlr.oo_vqe(self.system, self.space)
        self.sample("ground_state_s", vqe.dur, vqe)
        self.sample("oo_vqe_cpu_s", vqe.cpu)
        self.counter("sim_engine.oo_vqe_iterations", ground.n_iterations, frozen=None)
        self.compare("fixed", "ground_energy", ground.energy, 1e-8, 0.0)
        expect(ground.grad_norm <= 1e-7, f"oo-VQE gradient norm {ground.grad_norm:.2e}")
        return ground

    def ground_state_op(self) -> None:
        with self.ledger.op("ground_state"):
            self.ground_state()

    def prepare_inputs(self):
        """Active Hamiltonian cliques, noise channel and sampled histograms."""
        qlr = self.qlr
        ground, space = self.ground, self.space
        n_qubits = space.n_active_modes
        with self.tracer.span("active_hamiltonian", "chem_io"):
            _, poly = qlr.active_hamiltonian(ground.system, space)
        with self.tracer.span("map_to_paulis.active", "pauli_core"):
            hamiltonian = qlr.map_to_paulis(poly, n_qubits, ground.ansatz.mapping)
        with self.tracer.span("cover_first_fit.active", "pauli_core"):
            cover = qlr.cover_first_fit(n_qubits, hamiltonian.strings())
        self.axes = [clique.axes for clique in cover.cliques]
        self.noise = qlr.NoiseModel.uniform(n_qubits, readout=READOUT)
        rng = np.random.default_rng(self.seed)
        with self.tracer.span("sample_clique", "sim_engine"):
            self.histograms = [
                qlr.sample_clique(ground.state, axes, SHOTS, self.noise, rng) / SHOTS
                for axes in self.axes
            ]
        self.ideal = [ground.state.rotated_probabilities(axes) for axes in self.axes]
        with self.tracer.span("evaluate_exact.reference", "qlr_engine"):
            self.exact_allproj = qlr.solve(self.builder.evaluate_exact()).omega
        h2 = self.h2
        singlets = qlr.oracles.singlet_energies(h2.h, h2.g, h2.e_core, h2.n_elec)
        self.h2_fci_gaps = singlets[1:] - singlets[0]

    # -- measured operations -------------------------------------------------

    def exact_spectrum(self, par: str) -> None:
        qlr = self.qlr
        with self.ledger.op(f"exact_spectrum.{par}"):
            with self.tracer.span(f"exact_spectrum.{par}", "bench") as op:
                with self.tracer.span(f"compile.{par}", "qlr_engine"):
                    builder = qlr.ResponseBuilder(self.ground, par)
                with self.tracer.span(f"evaluate_exact.{par}", "qlr_engine"):
                    problem = builder.evaluate_exact()
                with self.tracer.span("solve", "qlr_engine"):
                    solution = qlr.solve(problem)
                with self.tracer.span(f"oscillator.{par}", "qlr_engine"):
                    strengths = builder.oscillator_strengths(solution)
            self.sample(f"exact_spectrum_s.{par}", op.dur, op)
            expect(solution.valid, f"{par}: electronic Hessian is not positive")
            self.compare("fixed", f"omega.{par}", solution.omega, EXACT_OMEGA_TOL, 0.0)
            self.compare("fixed", f"f.{par}", strengths, 1e-8, 0.0)
            if self.workload.fixture == "h2":
                expect_close(solution.omega, self.h2_fci_gaps, EXACT_OMEGA_TOL, 0.0, f"{par} vs FCI")
            self.counter("qlr_engine.n_operators", len(builder.basis))
            for kind, count in builder.count_measurements().items():
                self.counter(f"qlr_engine.groups.{kind}.{par}", count)

    def mitigation(self, repeats: int) -> None:
        qlr = self.qlr
        n_qubits = self.space.n_active_modes
        with self.ledger.op("mitigate_build"):
            for _ in range(repeats):
                with self.tracer.span("mitigate_build", "bench") as op:
                    with self.tracer.span("build_confusion.readout", "mitigation"):
                        readout = qlr.build_confusion(n_qubits, "readout", noise=self.noise)
                    with self.tracer.span("build_confusion.ansatz_based", "mitigation"):
                        ansatz = qlr.build_confusion(
                            n_qubits, "ansatz_based", ansatz=self.ground.ansatz, noise=self.noise
                        )
                    with self.tracer.span("condition", "mitigation"):
                        conditions = (readout.condition, ansatz.condition)
                    mitigated = []
                    for histogram in self.histograms:
                        with self.tracer.span("apply", "mitigation"):
                            mitigated.append(ansatz.apply(histogram))
                self.sample("mitigate_build_s", op.dur, op)
            expect(max(conditions) < qlr.CONDITION_LIMIT, f"condition {conditions}")
            for matrix in (readout, ansatz):
                for ideal in self.ideal:
                    recovered = matrix.apply(self.noise.apply(ideal))
                    expect_close(recovered, ideal, 1e-10, 0.0, f"{matrix.kind} recovery")
            for quasi, ideal in zip(mitigated, self.ideal):
                expect(abs(quasi.sum() - 1.0) < 1e-9, "mitigation changed the total weight")
                expect(np.abs(quasi - ideal).max() < 0.05, "mitigated histogram far from ideal")
        self.mitigator = readout

    def sampled_problems(self, run_ids: range) -> None:
        qlr = self.qlr
        builder = self.builder
        for run_id in run_ids:
            with self.ledger.op("sampled_qlr"):
                with self.tracer.span("sampled_qlr", "bench") as op:
                    with self.tracer.span("measurement_cache", "sim_engine"):
                        cache = qlr.MeasurementCache(
                            self.ground.state,
                            SHOTS,
                            master_seed=self.seed,
                            run_id=run_id,
                            noise=self.noise,
                            mitigator=self.mitigator,
                        )
                    with self.tracer.span("evaluate_sampled.ps_on", "qlr_engine"):
                        problem = builder.evaluate_sampled(SHOTS, cache=cache)
                    with self.tracer.span("solve", "qlr_engine"):
                        solution = qlr.solve(problem)
                    with self.tracer.span("oscillator.sampled", "qlr_engine"):
                        builder.oscillator_strengths(solution, cache)
                self.sample("sampled_qlr_ms", op.dur * 1e3, op)
                expect(solution.valid, f"sampled run {run_id}: Hessian not positive")
                expect(solution.n_states >= 1, f"sampled run {run_id}: no states")
                error = abs(solution.omega[0] - self.exact_allproj[0])
                expect(error < 0.02, f"sampled run {run_id}: lowest omega off by {error:.3g} Ha")
                self.counter("sim_engine.cliques_sampled.qlr", problem.cliques_sampled)
                if run_id == 0:
                    self.compare("seeded", "sampled_omega.run0", solution.omega, 0.0, SAMPLED_RTOL)

    def campaign(self, saving: bool, runs: int) -> None:
        qlr = self.qlr
        tag = "ps_on" if saving else "ps_off"
        with self.ledger.op(f"campaign.{tag}"):
            with self.tracer.span(f"run_campaign.{tag}", "noise_metrics") as op:
                result = qlr.run_campaign(
                    self.builder,
                    runs=runs,
                    shots=SHOTS,
                    pauli_saving=saving,
                    master_seed=self.seed,
                )
            self.sample(f"run_campaign_s.{tag}", op.dur)
            self.sample(f"run_campaign_cpu_s.{tag}", op.cpu)
            cliques = {sol.problem.cliques_sampled for sol in result.solutions}
            expect(len(cliques) == 1, f"{tag}: cliques per run differ: {sorted(cliques)}")
            total = sum(sol.problem.cliques_sampled for sol in result.solutions)
            self.counter(f"sim_engine.cliques_sampled.{tag}", total)
            self.counter(f"sim_engine.shots_spent.{tag}", total * SHOTS)
            self.counter(f"noise_metrics.n_valid.{tag}", result.n_valid, frozen="seeded")
            self.check_campaign(tag, result.sigma_k, result.failure_fraction, result.n_valid)
            kept = result.omegas[:, : len(self.exact_allproj)]
            mean = np.nanmean(kept, axis=0)
            sigma = result.sigma_k[: len(mean)]
            error = np.abs(mean - self.exact_allproj[: len(mean)])
            expect(np.all(error <= 5.0 * sigma + 1e-6), f"{tag}: campaign mean far from exact")

    def check_campaign(self, tag: str, sigma_k, failure_fraction: float, n_valid: int) -> None:
        expect(n_valid >= 2, f"{tag}: only {n_valid} valid runs")
        sigma = np.asarray([np.nan if s is None else s for s in sigma_k], dtype=float)
        expect(np.all(np.isfinite(sigma)) and np.all(sigma > 0.0), f"{tag}: sigma_k {sigma}")
        self.compare("seeded", f"{tag}.sigma_k", sigma, 1e-12, SAMPLED_RTOL)
        self.compare("seeded", f"{tag}.failure_fraction", failure_fraction, 1e-12, 0.0)

    def cli_chain(self, round_id: int) -> None:
        out = self.work / f"round{round_id}"
        ground = out / "ground-state.json"
        exact = out / "qlr-naive-exact.json"
        sampled = out / "qlr-allproj-sampled-ps_on.json"
        seed = str(self.seed)
        sampling = ["--parametrization", "allproj", "--shots", str(SHOTS), "--seed", seed]
        noisy = ["--noise-readout", str(READOUT), "--mitigation", "ansatz"]
        commands = {
            "ground-state": ["ground-state", "--fcidump", FIXTURES / "h2.fcidump",
                             "--dipole-prefix", FIXTURES / "h2"],
            "qlr-exact-naive": ["qlr", "--ground", ground, "--parametrization", "naive"],
            "qlr-exact-allproj": ["qlr", "--ground", ground, "--parametrization", "allproj"],
            "qlr-sampled": ["qlr", "--ground", ground, "--mode", "sampled", *sampling, *noisy],
            "campaign": ["campaign", "--ground", ground, "--mode", "sampled", *sampling,
                         "--runs", str(CHAIN_CAMPAIGN_RUNS), "--paired"],
            "metrics": ["metrics", "--qlr", exact],
            "spectrum": ["spectrum", "--qlr", exact],
            "mitigate-build": ["mitigate-build", "--ground", ground, "--mode", "sampled",
                               *sampling, *noisy],
        }
        with self.tracer.span("cli_chain", "bench") as chain:
            for step in CHAIN_STEPS:
                if step == "qlr-rerun":
                    before = sampled.read_bytes() if sampled.exists() else b""
                    self.cli(step, ["qlr", "--config", sampled])
                    with self.ledger.op("cli.rerun-identical"):
                        expect(sampled.read_bytes() == before, "qlr --config rerun changed the artifact")
                else:
                    self.cli(step, [*commands[step], "--out", out])
        self.sample("cli_chain_s", chain.dur)
        with self.ledger.op("cli.outputs"):
            self.check_chain_outputs(out)
        with self.ledger.op("cli.artifact_bytes"):
            # Repeats between rounds, but depends on the seed and on the
            # artifact format, so it is not frozen.
            size = sum(path.stat().st_size for path in out.iterdir())
            self.counter("cli.artifact_bytes", size, frozen=None)

    def cli(self, step: str, argv: list) -> None:
        cmd = [sys.executable, str(HERE / "cli_entry.py"), *map(str, argv)]
        with self.ledger.op(f"cli.{step}"):
            with self.tracer.span(f"cli.{step}", "cli") as op:
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
            self.sample(f"cli.{step}_s", op.dur)
            marks = [line for line in proc.stderr.splitlines() if line.startswith("perfbench-import-s ")]
            if marks:
                self.sample("cli.import_s", float(marks[-1].split()[1]))
            expect(proc.returncode == 0, f"{step} exited {proc.returncode}: {proc.stderr[-400:]}")

    def check_chain_outputs(self, out: Path) -> None:
        load = lambda name: json.loads((out / name).read_text())
        naive = load("qlr-naive-exact.json")["solution"]["omega"]
        allproj = load("qlr-allproj-exact.json")["solution"]["omega"]
        expect_close(naive, self.h2_fci_gaps, EXACT_OMEGA_TOL, 0.0, "cli naive vs FCI")
        expect_close(allproj, self.h2_fci_gaps, EXACT_OMEGA_TOL, 0.0, "cli allproj vs FCI")
        sampled = load("qlr-allproj-sampled-ps_on.json")["solution"]
        expect(sampled["valid"], "cli sampled: Hessian not positive")
        expect_close(sampled["omega"], self.h2_fci_gaps, 0.05, 0.0, "cli sampled vs FCI")
        self.compare("seeded", "cli.sampled_omega", sampled["omega"], 0.0, SAMPLED_RTOL)
        campaigns = load("campaign-allproj-paired.json")["campaigns"]
        for tag, result in campaigns.items():
            self.check_campaign(f"cli.{tag}", result["sigma_k"], result["failure_fraction"], result["n_valid"])
        expect(load("metrics-naive-exact.json")["report"], "cli metrics: empty report")
        rows = (out / "spectrum-naive-exact.csv").read_text().splitlines()
        expect(len(rows) > 100, "cli spectrum: too few rows")
        condition = load("confusion-ansatz_based-sampled.json")["condition"]
        expect(condition < self.qlr.CONDITION_LIMIT, f"cli confusion condition {condition}")

    # -- trace-only probes ---------------------------------------------------

    def probes(self) -> None:
        """Calls that the untraced run does not make, timed for the layer table."""
        qlr = self.qlr
        with self.ledger.op("probe.pauli_core"):
            system = self.ground.system
            poly = qlr.build_hamiltonian_poly(system)
            with self.tracer.span("map_to_paulis", "pauli_core"):
                hamiltonian = qlr.map_to_paulis(poly, 2 * system.n_orb, self.ground.ansatz.mapping)
            with self.tracer.span("cover_first_fit", "pauli_core"):
                cover = qlr.cover_first_fit(2 * system.n_orb, hamiltonian.strings())
            self.counter("pauli_core.cliques", len(cover))
        with self.ledger.op("probe.ps_off"):
            for run_id in range(3):
                with self.tracer.span("evaluate_sampled.ps_off", "qlr_engine"):
                    self.builder.evaluate_sampled(
                        SHOTS, master_seed=self.seed, run_id=run_id, pauli_saving=False
                    )
        with self.ledger.op("probe.confusion_8q"):
            ansatz = qlr.TUCCSDAnsatz(4, 4, self.ground.ansatz.mapping)
            noise = qlr.NoiseModel.uniform(ansatz.n_qubits, readout=READOUT)
            with self.tracer.span("build_confusion.readout_8q", "mitigation"):
                readout = qlr.build_confusion(ansatz.n_qubits, "readout", noise=noise)
            with self.tracer.span("build_confusion.ansatz_based_8q", "mitigation"):
                replayed = qlr.build_confusion(ansatz.n_qubits, "ansatz_based", ansatz=ansatz, noise=noise)
            expect(readout.dim == replayed.dim == 256, "8-qubit confusion size")

    # -- the run -------------------------------------------------------------

    def schedule(self, round_id: int) -> list:
        """The round's long operations, with the repeats spread evenly."""
        repeats = self.workload.exact_repeats
        exact = [
            lambda par=par: self.exact_spectrum(par)
            for index in range(max(repeats.values()))
            for par in ("naive", "allproj", "proj")
            if index < repeats[par]
        ]
        others = [
            lambda: self.campaign(True, PS_ON_RUNS),
            lambda: self.campaign(False, self.workload.ps_off_runs),
        ] * self.workload.campaign_repeats + [self.ground_state_op] * self.workload.ground_repeats
        others.append(lambda: self.cli_chain(round_id))
        step = len(exact) / len(others)
        ops = list(exact)
        for index, op in enumerate(others):
            ops.insert(round(index * step + step / 2) + index, op)
        return ops

    def run(self) -> None:
        self.h2 = self.load_system("h2", "parse_oracle")
        for _ in range(self.workload.setups):
            self.calibrate()
            with self.ledger.op("setup"):
                self.setup()
        self.calibrate()
        with self.ledger.op("prepare_inputs"):
            self.prepare_inputs()
        measure_start = time.perf_counter()
        round_id = 0
        try:
            while True:
                round_start = time.perf_counter()
                self.tracer.run_id = round_id
                long_ops = self.schedule(round_id)
                self.mitigation(MITIGATION_PER_BATCH)
                for batch, long_op in enumerate(long_ops):
                    start = batch * SAMPLED_PER_BATCH
                    self.sampled_problems(range(start, start + SAMPLED_PER_BATCH))
                    self.calibrate()
                    long_op()
                    self.calibrate()
                    self.mitigation(MITIGATION_PER_BATCH)
                self.calibrate()
                round_id += 1
                now = time.perf_counter()
                if now - measure_start + (now - round_start) > self.args.seconds:
                    break
            self.rounds = round_id
            if self.tracer.enabled:
                self.tracer.run_id = round_id
                self.probes()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def end_to_end(self, scaled: bool = True) -> dict:
        """End-to-end metrics. Unless ``scaled`` is false, the medians of
        main-thread operations are at the reference speed; the rest is raw."""
        timed = self.at_reference_speed if scaled else self.samples.__getitem__
        med = lambda key: statistics.median(timed(key))
        raw = lambda key: statistics.median(self.samples[key])
        peak_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        sampled = timed("sampled_qlr_ms")
        return {
            "setup_s": (raw("setup_s"), "s"),
            **{
                f"exact_spectrum_s.{par}": (med(f"exact_spectrum_s.{par}"), "s")
                for par in PARAMETRIZATIONS
            },
            "campaign_runs_per_s.ps_on": (PS_ON_RUNS / raw("run_campaign_s.ps_on"), "1/s"),
            "campaign_runs_per_s.ps_off": (
                self.workload.ps_off_runs / raw("run_campaign_s.ps_off"), "1/s"),
            "sampled_qlr_ms.p50": (statistics.median(sampled), "ms"),
            # The tail is the slow spells themselves, so it is not scaled.
            "sampled_qlr_ms.p90": (percentile(self.samples["sampled_qlr_ms"], 90), "ms"),
            "cli_chain_s": (raw("cli_chain_s"), "s"),
            "ground_state_s": (med("ground_state_s"), "s"),
            "mitigate_build_s": (med("mitigate_build_s"), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }

    def per_layer(self) -> dict:
        tracer = self.tracer
        med = lambda name: statistics.median(tracer.durations(name))
        values = {
            "chem_io.parse_s": (med("parse"), "s"),
            "pauli_core.map_hamiltonian_s": (med("map_to_paulis"), "s"),
            "pauli_core.cover_s": (med("cover_first_fit"), "s"),
        }
        for par in PARAMETRIZATIONS:
            compiles = [r for r in tracer.records if r["name"] == f"compile.{par}"]
            values[f"qlr_engine.compile_s.{par}"] = (med(f"compile.{par}"), "s")
            values[f"qlr_engine.compile_cpu_s.{par}"] = (
                statistics.median(r["cpu"] for r in compiles), "s")
            values[f"qlr_engine.evaluate_exact_s.{par}"] = (med(f"evaluate_exact.{par}"), "s")
            values[f"qlr_engine.oscillator_s.{par}"] = (med(f"oscillator.{par}"), "s")
        values["qlr_engine.solve_s"] = (med("solve"), "s")
        for tag in ("ps_on", "ps_off"):
            values[f"qlr_engine.evaluate_sampled_ms.{tag}"] = (
                med(f"evaluate_sampled.{tag}") * 1e3, "ms")
        values["sim_engine.oo_vqe_s"] = (med("oo_vqe"), "s")
        values["sim_engine.oo_vqe_cpu_s"] = (statistics.median(self.samples["oo_vqe_cpu_s"]), "s")
        for tag in ("ps_on", "ps_off"):
            values[f"noise_metrics.run_campaign_s.{tag}"] = (
                statistics.median(self.samples[f"run_campaign_s.{tag}"]), "s")
            values[f"noise_metrics.run_campaign_cpu_s.{tag}"] = (
                statistics.median(self.samples[f"run_campaign_cpu_s.{tag}"]), "s")
        for kind in ("readout", "ansatz_based", "readout_8q", "ansatz_based_8q"):
            values[f"mitigation.build_confusion_s.{kind}"] = (med(f"build_confusion.{kind}"), "s")
        values["mitigation.condition_s"] = (med("condition"), "s")
        values["mitigation.apply_ms"] = (med("apply") * 1e3, "ms")
        values["cli.import_s"] = (statistics.median(self.samples["cli.import_s"]), "s")
        for step in CHAIN_STEPS:
            values[f"cli.{step}_s"] = (statistics.median(self.samples[f"cli.{step}_s"]), "s")
        for key, count in sorted(self.counters.items()):
            values[key] = (count, "count")
        self_time = tracer.self_time_by_layer()
        for layer in (*LAYERS, "bench"):
            values[f"{layer}.self_s"] = (self_time.get(layer, 0.0), "s")
        values["machine.calibration_ms"] = (
            statistics.median(c for _, c in self.calibrations) * 1e3, "ms")
        values["trace.overhead_s"] = (tracer.overhead_s, "s")
        values["trace.spans"] = (len(tracer.records), "count")
        return values


def import_qlrlab():
    """Import the package from this checkout; the elapsed time is set-up."""
    src = ROOT / "src"
    if not (src / "qlrlab" / "__init__.py").exists() or not FIXTURES.is_dir():
        raise SystemExit(f"error: no qlrlab source tree or fixtures under {ROOT}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(ROOT / "tests"))
    start = time.perf_counter()
    import qlrlab.cli  # noqa: F401  (the CLI imports every module)
    from qlrlab import chem_io, mitigation, noise_metrics, pauli_core, qlr_engine, sim_engine

    import_s = time.perf_counter() - start
    import oracles

    if Path(qlrlab.cli.__file__).resolve().parents[2] != ROOT:
        raise SystemExit(f"error: imported qlrlab from {qlrlab.cli.__file__}, not {ROOT}")
    api = argparse.Namespace(
        oracles=oracles,
        ActiveSpace=chem_io.ActiveSpace,
        parse_fcidump=chem_io.parse_fcidump,
        parse_dipole=chem_io.parse_dipole,
        active_hamiltonian=chem_io.active_hamiltonian,
        build_hamiltonian_poly=chem_io.build_hamiltonian_poly,
        map_to_paulis=pauli_core.map_to_paulis,
        cover_first_fit=pauli_core.cover_first_fit,
        oo_vqe=sim_engine.oo_vqe,
        NoiseModel=sim_engine.NoiseModel,
        MeasurementCache=sim_engine.MeasurementCache,
        TUCCSDAnsatz=sim_engine.TUCCSDAnsatz,
        sample_clique=sim_engine.sample_clique,
        ResponseBuilder=qlr_engine.ResponseBuilder,
        solve=qlr_engine.solve,
        run_campaign=noise_metrics.run_campaign,
        build_confusion=mitigation.build_confusion,
        CONDITION_LIMIT=mitigation.CONDITION_LIMIT,
    )
    # The pool size is private to noise_metrics; record it while it exists.
    pool = getattr(noise_metrics, "_thread_count", None)
    api.pool_workers = pool(None) if pool is not None else 1
    return api, import_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze", action="store_true", help="store this run's outputs as references")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.freeze and args.seed != REFERENCE_SEED:
        parser.error(f"--freeze needs --seed {REFERENCE_SEED}")
    api, import_s = import_qlrlab()
    bench = Bench(args, api, import_s)
    env = environment(api.pool_workers)
    print("environment: " + json.dumps(env, sort_keys=True))
    bench.run()
    metrics, scaled, raw = {}, {}, {}
    with bench.ledger.op("metrics"):
        scaled = bench.end_to_end()
        raw = bench.end_to_end(scaled=False)
        values = bench.per_layer() if args.trace else scaled
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    if args.trace:
        trace_path = OUTPUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        header = {"workload": args.workload, "seed": args.seed, "rounds": bench.rounds, "environment": env}
        bench.tracer.write(trace_path, header)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    if args.freeze:
        reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        reference.setdefault("workloads", {})[args.workload] = bench.observed
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"workload {args.workload}, seed {args.seed}, {bench.rounds} round(s), "
          f"ops_failed_frac {bench.ledger.failed / bench.ledger.attempted:.4f}")
    print(f"  {'end to end':<44} {'reference speed':>15} {'raw':>12} unit")
    for name, (value, unit) in scaled.items():
        print(f"  {name:<44} {value:>15.6g} {raw[name][0]:>12.6g} {unit}")
    if args.trace:
        print(f"  {'per layer (raw)':<44}")
        for name, entry in metrics.items():
            print(f"  {name:<44} {entry['value']:>15.6g} {'':>12} {entry['unit']}")
    result = {
        "correct": bench.ledger.failed == 0,
        "attempted": bench.ledger.attempted,
        "failed": bench.ledger.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
