"""The benchmark's four workloads.

Each workload makes its inputs from the benchmark seed, sets up (import,
fixed inputs, warm-up), runs one op at a time and checks each op's output
outside the op's timed span. ``run`` is the timed op; ``verify`` returns a
failure message or None.

helispin and numpy are imported inside the workloads that run in process,
so ``cli_cold`` pays import only in its child processes.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: The five bundled inputs as (subcommand, name).
COMMANDS = (
    ("run", "eq10_theta_independent"),
    ("run", "eq11_entropy"),
    ("run", "eq15_isotropic_helicity"),
    ("sweep", "eq12_tau_sweep"),
    ("sweep", "anisotropy_alpha_sweep"),
)
#: A cold CLI op takes about 0.4 s; this only stops a hung child.
CLI_TIMEOUT_S = 60.0

#: Non-separable states per mesh_generic run; ops cycle through them.
MESH_POOL = 3
#: Largest direct-versus-with_basis gap accepted (the test-suite tolerance).
BASIS_GAP_TOL = 1e-10
#: Largest |integral of |psi|^2 - 1| accepted for a normalized state.
NORM_TOL = 1e-12

#: (family, constructor args, target basis) of each Monte-Carlo cross-check.
MC_CASES = (
    ("gaussian_spin_up", (1.0,), "helicity"),
    ("gaussian_helicity_up", (1.0,), "spin"),
    ("anisotropic_spin_up", (1.0, 0.7), "helicity"),
)
MC_SAMPLES = 1_000_000


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

def command_cycles(seed: int):
    """Endless cycles through COMMANDS, each cycle in a seeded order."""
    rng = random.Random(seed)
    while True:
        yield rng.sample(COMMANDS, len(COMMANDS))


def mesh_states(seed: int) -> list[tuple[str, float, object]]:
    """(basis, tau, coefficients) of MESH_POOL random packets.

    Gaussian radial profile times a low-order angular modulation with random
    complex spinor coefficients, as in the test suite's random states.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    out = []
    for _ in range(MESH_POOL):
        coeffs = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        coeffs[:, 1:] *= 0.2  # keep the modulated density strictly positive
        tau = float(rng.uniform(0.6, 1.6))
        basis = ("spin", "helicity")[int(rng.integers(2))]
        out.append((basis, tau, coeffs))
    return out


def mc_seeds(seed: int) -> list[int]:
    """One Monte-Carlo seed per case, derived from the benchmark seed."""
    import numpy as np

    states = np.random.SeedSequence(seed).generate_state(len(MC_CASES), dtype=np.uint64)
    return [int(s) for s in states]


# ---------------------------------------------------------------------------
# Closed forms for the bundled sweeps
# ---------------------------------------------------------------------------

def _binary_entropy(radius: float) -> float:
    """Entropy in bits of the eigenvalue pair 1/2 +- radius."""
    return -sum(v * math.log2(v) for v in (0.5 + radius, 0.5 - radius) if v > 0.0)


#: Sweep column -> closed form in the swept parameter. The tau sweep is the
#: theta-independent reduction at every width; the alpha sweep is
#: [[1/2 + a/6, -pi/8], [-pi/8, 1/2 - a/6]] in the helicity basis.
SWEEP_CLOSED_FORMS = {
    "eq12_tau_sweep": {
        "helicity_entropy": lambda tau: _binary_entropy(math.pi / 8.0),
    },
    "anisotropy_alpha_sweep": {
        "helicity_entropy": lambda a: _binary_entropy(math.hypot(a / 6.0, math.pi / 8.0)),
        "helicity_density[0][0].re": lambda a: 0.5 + a / 6.0,
        "helicity_density[0][1].re": lambda a: -math.pi / 8.0,
    },
}


def output_error(name: str, data: bytes) -> float:
    """Largest deviation of a CLI output from its closed forms.

    Scenario reports carry their own check deviations; sweep tables are
    compared column by column with SWEEP_CLOSED_FORMS.
    """
    if name not in SWEEP_CLOSED_FORMS:
        return max(check["deviation"] for check in json.loads(data)["checks"])
    forms = SWEEP_CLOSED_FORMS[name]
    lines = data.decode("utf-8").splitlines()
    header = lines[0].split(",")
    worst = 0.0
    for line in lines[1:]:
        cells = line.split(",")
        x = float(cells[0])
        for column, cell in zip(header[1:-1], cells[1:-1]):
            worst = max(worst, abs(float(cell) - forms[column](x)))
    return worst


def _import_helispin(tracer):
    """Import the package and its CLI, recording the import as a span.

    A traced run keeps the wrappers installed for the rest of set-up, so
    set-up spans (such as the first ``build_grid``) are recorded too; they
    carry no op id.
    """
    start = time.perf_counter()
    import helispin
    import helispin.cli

    if tracer is not None:
        tracer.add_span("import.helispin_cli", start, time.perf_counter())
        tracer.install()
    return helispin


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    #: True when ops call helispin in this process (and can be traced here).
    in_process = True

    def __init__(self, seed: int, workdir: Path, tracer=None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer

    def setup(self) -> None:
        """Import, fixed inputs and warm-up; runs before the first timed op."""

    def next_cycle(self) -> list:
        """The inputs of the next cycle of ops."""
        raise NotImplementedError

    def run(self, item, traced: bool = False):
        """One timed op."""
        raise NotImplementedError

    def verify(self, item, output) -> str | None:
        raise NotImplementedError

    def label(self, item) -> str:
        """Name of an op's input in the report's per-input medians."""
        return str(item)

    def adopt_spans(self, root: int, op_id: int) -> None:
        """Collect spans a traced op recorded outside this process."""

    def finish(self) -> tuple[dict, list[str]]:
        """Checks made once after the timed ops: (report extras, failures)."""
        return {}, []

    def peak_rss_mb(self) -> float:
        return _rss_mb(resource.RUSAGE_SELF)


class _CliWorkload(Workload):
    """Ops are the five bundled CLI commands; each op's report or CSV bytes
    must equal those of the first op of the same input."""

    def __init__(self, seed: int, workdir: Path, tracer=None) -> None:
        super().__init__(seed, workdir, tracer)
        self.cycles = command_cycles(seed)
        self.reference: dict[str, bytes] = {}

    def next_cycle(self) -> list:
        return next(self.cycles)

    def label(self, item) -> str:
        return item[1]

    def output_path(self, name: str) -> Path:
        suffix = ".csv" if name in SWEEP_CLOSED_FORMS else ".report.json"
        return self.workdir / f"{name}{suffix}"

    def args(self, item) -> list[str]:
        command, name = item
        return [command, name, "--out", str(self.output_path(name))]

    def verify(self, item, output) -> str | None:
        name = item[1]
        code, stderr = output
        if code != 0:
            return f"{name}: exit code {code}: {stderr.strip()[-300:]}"
        path = self.output_path(name)
        try:
            data = path.read_bytes()
        except OSError as exc:
            return f"{name}: no output ({exc})"
        path.unlink()  # a later op must write it afresh
        reference = self.reference.setdefault(name, data)
        if data != reference:
            return f"{name}: output bytes differ from the first op of this input"
        return None

    def finish(self) -> tuple[dict, list[str]]:
        if not self.reference:
            return {}, ["no op wrote a checked output"]
        errors = [output_error(name, data) for name, data in self.reference.items()]
        return {"max_abs_error": max(errors)}, []


class CliCold(_CliWorkload):
    """A fresh ``python -m helispin.cli`` per op; one child at a time."""

    in_process = False

    def spans_path(self) -> Path:
        return self.workdir / "child-spans.jsonl"

    def run(self, item, traced: bool = False):
        if traced:
            head = [sys.executable, str(HERE / "cli_child.py"), str(self.spans_path())]
        else:
            head = [sys.executable, "-m", "helispin.cli"]
        proc = subprocess.run(
            head + self.args(item), cwd=self.workdir, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=CLI_TIMEOUT_S,
        )
        return proc.returncode, proc.stderr

    def adopt_spans(self, root: int, op_id: int) -> None:
        import spans

        path = self.spans_path()
        if path.exists():  # a child that failed early wrote none; verify reports it
            self.tracer.absorb(spans.load(path), root, op_id)
            path.unlink()

    def peak_rss_mb(self) -> float:
        return _rss_mb(resource.RUSAGE_CHILDREN)


class ScenarioWarm(_CliWorkload):
    """The same five commands through ``helispin.cli.main`` in this process."""

    def setup(self) -> None:
        self.cli = _import_helispin(self.tracer).cli
        for item in COMMANDS:  # warm-up; also the reference outputs
            failure = self.verify(item, self.run(item))
            if failure is not None:
                raise RuntimeError(f"warm-up failed: {failure}")

    def run(self, item, traced: bool = False):
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(self.args(item))
        return code, ""


class MeshGeneric(Workload):
    """Seeded non-separable states on a default grid built in set-up: the
    generic mesh path, the su2 transforms over every node, the per-state
    mesh cache and the node materialisation in ``integrate``."""

    def setup(self) -> None:
        self.hs = _import_helispin(self.tracer)
        self.grid = self.hs.build_grid()
        self.params = mesh_states(self.seed)
        self.reference = [self.run(i) for i in range(len(self.params))]

    def state(self, params):
        """A bare evaluator with no product form; counts its evaluations."""
        import numpy as np

        basis, tau, coeffs = params
        tracer = self.tracer

        def amplitude(p, theta, phi):
            if tracer is not None:
                tracer.tally("states.amplitude_evals")
            radial = np.exp(-(np.asarray(p) ** 2) / (2.0 * tau * tau))
            cos_t, sin_t = np.cos(theta), np.sin(theta)
            cos_p, sin_p = np.cos(phi), np.sin(phi)
            up, down = (
                radial * (c[0] + c[1] * cos_t + c[2] * sin_t * cos_p + c[3] * sin_t * sin_p)
                for c in coeffs
            )
            return up, down

        return self.hs.OneParticleState(basis=basis, amplitude=amplitude, label="perfbench packet")

    def next_cycle(self) -> list:
        return list(range(len(self.params)))

    def run(self, item, traced: bool = False):
        hs, grid = self.hs, self.grid
        state = hs.normalize(self.state(self.params[item]), grid)
        spin = hs.reduced_spin_density(state, grid)
        helicity = hs.reduced_helicity_density(state, grid)
        entropies = (hs.von_neumann_entropy(spin).entropy_bits,
                     hs.von_neumann_entropy(helicity).entropy_bits)

        def density(p, theta, phi):
            up, down = state.amplitude(p, theta, phi)
            return abs(up) ** 2 + abs(down) ** 2

        norm = hs.integrate(grid, density)
        return spin.entries, helicity.entries, entropies, norm

    def verify(self, item, output) -> str | None:
        import numpy as np

        spin, helicity, entropies, norm = output
        ref_spin, ref_helicity, ref_entropies, ref_norm = self.reference[item]
        if not np.array_equal(spin, ref_spin):
            return f"state {item}: spin matrix differs from the set-up pass"
        if not np.array_equal(helicity, ref_helicity):
            return f"state {item}: helicity matrix differs from the set-up pass"
        if entropies != ref_entropies or norm != ref_norm:
            return f"state {item}: entropies or norm differ from the set-up pass"
        if abs(norm - 1.0) > NORM_TOL:
            return f"state {item}: integral of |psi|^2 is {norm!r}, not 1"
        return None

    def finish(self) -> tuple[dict, list[str]]:
        import numpy as np

        hs, grid = self.hs, self.grid
        gap = 0.0
        for params in self.params:
            state = hs.normalize(self.state(params), grid)
            other = "helicity" if state.basis == "spin" else "spin"
            converted = hs.with_basis(state, other)
            for reduce in (hs.reduced_spin_density, hs.reduced_helicity_density):
                diff = reduce(state, grid).entries - reduce(converted, grid).entries
                gap = max(gap, float(np.max(np.abs(diff))))
        failures = []
        if gap > BASIS_GAP_TOL:
            failures.append(f"direct and with_basis reductions differ by {gap:.3e}")
        return {"max_abs_error": gap}, failures


class McCrosscheck(Workload):
    """``mc_density`` with 10^6 samples per op for three families; every
    estimate within MC_SIGMA_BOUND standard errors of the quadrature value
    and bit-identical to the first estimate of the same case."""

    def __init__(self, seed: int, workdir: Path, tracer=None) -> None:
        super().__init__(seed, workdir, tracer)
        self.reference: dict[int, tuple[bytes, bytes]] = {}
        self.worst_sigma = 0.0

    def setup(self) -> None:
        hs = self.hs = _import_helispin(self.tracer)
        self.sigma_bound = hs.cli.MC_SIGMA_BOUND
        grid = hs.build_grid()
        self.cases = []
        for (family, args, target), mc_seed in zip(MC_CASES, mc_seeds(self.seed)):
            state = getattr(hs, family)(*args)
            reduce = hs.reduced_helicity_density if target == "helicity" else hs.reduced_spin_density
            quadrature = reduce(hs.normalize(state, grid), grid).entries
            self.cases.append((state, target, mc_seed, quadrature))
        state, target, mc_seed, _ = self.cases[0]
        hs.mc_density(state, target, 100, mc_seed)  # warm-up

    def next_cycle(self) -> list:
        return list(range(len(self.cases)))

    def label(self, item) -> str:
        return MC_CASES[item][0]

    def run(self, item, traced: bool = False):
        state, target, mc_seed, _ = self.cases[item]
        return self.hs.mc_density(state, target, MC_SAMPLES, mc_seed)

    def verify(self, item, output) -> str | None:
        import numpy as np

        quadrature = self.cases[item][3]
        gap = np.abs(quadrature - output.value)
        with np.errstate(divide="ignore", invalid="ignore"):
            sigmas = np.where(gap == 0.0, 0.0, gap / output.std_error)
        worst = float(np.max(sigmas))
        self.worst_sigma = max(self.worst_sigma, worst)
        if not worst <= self.sigma_bound:
            return f"case {item}: {worst:.2f} standard errors from the quadrature value"
        bits = (output.value.tobytes(), output.std_error.tobytes())
        if bits != self.reference.setdefault(item, bits):
            return f"case {item}: estimate differs from the first op of this case"
        return None

    def finish(self) -> tuple[dict, list[str]]:
        return {"max_sigma_distance": self.worst_sigma}, []


WORKLOADS = {
    "cli_cold": CliCold,
    "scenario_warm": ScenarioWarm,
    "mesh_generic": MeshGeneric,
    "mc_crosscheck": McCrosscheck,
}
