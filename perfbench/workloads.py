"""The four benchmark workloads.

Each workload turns the seed into a fixed *cycle* of operations (its inputs),
runs one operation at a time through corrspace's public API, and checks the
results.  Everything that changes while a cycle runs (the sampling generator,
tallies for the statistical checks) lives in a pass object that the caller
creates with ``new_pass()``, so a traced pass can repeat an untraced one
exactly.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections import Counter
from math import pi, sqrt
from pathlib import Path

import numpy as np
from corrspace import analysis, cli, noise_tomo, protocols, wires

HERE = Path(__file__).resolve().parent
THETA = pi / 6
Z_BAND = 5.0  # statistical checks accept deviations up to 5 standard deviations


class Workload:
    """One cycle of operations plus the checks of their results."""

    trace_cycles = 1  # cycles per pass of the traced run
    # The timed phase runs reference_kernels calls of the reference kernel
    # (reference.py) after every reference_every operations: a burst of at
    # least 1.6 ms, about a tenth of the time, and one every 2 s or sooner.
    reference_kernel = "interpreted"
    reference_every = 1
    reference_kernels = 4

    def __init__(self, seed: int, scratch: Path, smoke: bool) -> None:
        inputs, self.sampling_seed = np.random.SeedSequence(seed).spawn(2)
        self.rng = np.random.default_rng(inputs)
        self.cycle: list = []

    def new_pass(self):
        return Pass(np.random.default_rng(self.sampling_seed))

    def warm_up(self) -> list:
        """Operations run once, untimed, before the first timed one."""
        return self.cycle

    def run(self, op, state: "Pass"):
        raise NotImplementedError

    def check(self, op, out, state: "Pass") -> bool:
        return True

    def finish(self, state: "Pass") -> tuple[int, dict]:
        """Aggregate checks: (operations they fail, details for the report)."""
        return 0, {}

    def counters(self, state: "Pass") -> dict[str, float]:
        """Per-layer metrics that the workload itself observes."""
        return {}


class Pass:
    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.attempts: Counter = Counter()
        self.hits: Counter = Counter()
        self.aborts: Counter = Counter()
        self.failed: Counter = Counter()
        self.notes: dict = {}


# ---------------------------------------------------------------------------
# shots: Born-sampled protocol shots
# ---------------------------------------------------------------------------

class Shots(Workload):
    """One operation is one sampled shot of a measurement program.

    Shots fall into three clusters of latency: the 2-qubit compensation, the
    four-qubit programs, and the six-qubit programs at about twice their
    cost.  The weights give the fastest and the slowest cluster the same
    share, so the median shot lies in the middle of the four-qubit cluster
    and not on the edge of a gap between clusters.
    """

    # kind: (shots per input slot, uniform random angles, measurement steps)
    KINDS = {
        "compensate_4q": (2, 1, 3),
        "compensate_2q": (3, 1, 1),
        "rotate_sequence": (2, 3, 3),
        "cz_gate": (1, 1, 4),
        "deutsch_constant": (1, 0, 4),
        "deutsch_balanced": (1, 0, 4),
    }
    trace_cycles = 25
    reference_every = 32
    reference_kernels = 4

    def __init__(self, seed, scratch, smoke):
        super().__init__(seed, scratch, smoke)
        slots = 4 if smoke else 16
        ops = []
        for kind, (weight, n_angles, _) in self.KINDS.items():
            for _ in range(weight * slots):
                ops.append((kind, tuple(float(a) for a in self.rng.uniform(-pi, pi, n_angles))))
        self.cycle = [ops[i] for i in self.rng.permutation(len(ops))]
        self._exact: dict = {}

    def run(self, op, state):
        kind, angles = op
        rng = state.rng
        if kind == "compensate_4q":
            return protocols.compensate(angles[0], "4-qubit", rng=rng)
        if kind == "compensate_2q":
            return protocols.compensate(angles[0], "2-qubit", rng=rng)
        if kind == "rotate_sequence":
            return protocols.rotate_sequence(*angles, rng=rng)
        if kind == "cz_gate":
            return protocols.cz_gate_protocol(angles[0], rng=rng)
        try:
            return protocols.deutsch(kind.split("_")[1], rng=rng)[2]
        except protocols.ProtocolAbort:
            if kind == "deutsch_balanced":
                return None  # documented outcome: r2 or r3 nonzero
            raise

    def check(self, op, tr, state):
        state.attempts[op] += 1
        if tr is None:
            state.aborts[op] += 1
            return True
        ok = (len(tr.outcomes) == self.KINDS[op[0]][2]
              and 0.0 < tr.total_probability <= 1.0 + 1e-12)
        state.hits[op] += bool(tr.success)
        if not ok:
            state.failed[op[0]] += 1
        return ok

    # Exact per-input probabilities, from the library's exhaustive or
    # closed-form routes, never from sampling.

    def _branches(self, kind, angles):
        """Post-selected transcripts of every branch that completes."""
        out = []
        for pattern in itertools.product((0, 1), repeat=4):
            try:
                if kind == "cz_gate":
                    tr = protocols.cz_gate_protocol(angles[0], outcomes=pattern)
                else:
                    tr = protocols.deutsch(kind.split("_")[1], outcomes=pattern)[2]
            except protocols.ProtocolAbort:
                continue
            except ValueError:  # zero-probability branch
                continue
            out.append(tr)
        return out

    def _exact_success(self, kind, angles) -> tuple[float, float]:
        """(P(success), P(abort)) of one input."""
        key = (kind, angles)
        if key not in self._exact:
            abort = 0.0
            if kind == "compensate_4q":
                p = protocols.enumerate_compensation(angles[0], "4-qubit")[0]
            elif kind == "compensate_2q":
                p = protocols.success_probability(angles[0])[0]
            elif kind == "rotate_sequence":
                p = protocols.rotate_sequence(*angles, outcomes=(0, 0, 0)).total_probability
            else:
                branches = self._branches(kind, angles)
                p = sum(tr.total_probability for tr in branches if tr.success)
                if kind == "deutsch_balanced":
                    abort = 1.0 - sum(tr.total_probability for tr in branches)
            self._exact[key] = (float(p), float(abort))
        return self._exact[key]

    def finish(self, state):
        failed, report = 0, {}
        for kind in self.KINDS:
            inputs = [op for op in state.attempts if op[0] == kind]
            n = sum(state.attempts[op] for op in inputs)
            if not n:
                continue
            checks = [("success", sum(state.hits[op] for op in inputs), 0)]
            if kind == "deutsch_balanced":
                checks.append(("abort", sum(state.aborts[op] for op in inputs), 1))
            ok = True
            for label, observed, which in checks:
                probs = [(state.attempts[op], self._exact_success(*op)[which]) for op in inputs]
                mean = sum(k * p for k, p in probs)
                sd = sqrt(sum(k * p * (1.0 - p) for k, p in probs))
                z = (observed - mean) / sd if sd > 0 else 0.0
                ok &= abs(observed - mean) <= Z_BAND * sd + 0.5
                report[f"{kind}.{label}"] = {"observed": observed / n,
                                             "exact": mean / n, "z": round(z, 3)}
            if not ok:
                failed += n - state.failed[kind]
        return failed, {"shots": sum(state.attempts.values()), "bands": report}

    def counters(self, state):
        def ratio(tally, kind):
            n = sum(c for op, c in state.attempts.items() if op[0] == kind)
            return sum(c for op, c in tally.items() if op[0] == kind) / n if n else 0.0

        out = {f"protocols.{kind}.success_ratio": ratio(state.hits, kind)
               for kind in self.KINDS}
        out["protocols.deutsch_balanced.abort_ratio"] = ratio(state.aborts, "deutsch_balanced")
        return out


# ---------------------------------------------------------------------------
# witness: 36-setting fidelity estimates of psi6
# ---------------------------------------------------------------------------

def _pauli_rows(letter: str) -> np.ndarray:
    """Rows are the bras of the +1 and -1 eigenstates (phases are irrelevant)."""
    s = 1 / sqrt(2)
    kets = {"Z": [[1, 0], [0, 1]], "X": [[s, s], [s, -s]], "Y": [[s, 1j * s], [s, -1j * s]]}
    return np.conj(np.array(kets[letter], dtype=complex))


class Witness(Workload):
    """One operation is one fidelity estimate, computed as ``witness fidelity``
    computes it, for a white-noise fidelity, a decomposition variant, and
    exact cells or finite-shot counts.
    """

    GRID = (0.7, 0.85, 1.0)
    SHOTS = 5000  # per setting, for the finite-shot operations

    trace_cycles = 2
    reference_kernels = 25

    def __init__(self, seed, scratch, smoke):
        super().__init__(seed, scratch, smoke)
        grid = self.GRID[-1:] if smoke else self.GRID
        ops = [(f, corrected, shots) for f in grid for corrected in (False, True)
               for shots in (0, self.SHOTS)]
        self.cycle = [ops[i] for i in self.rng.permutation(len(ops))]
        self._oracle = {c: self._estimator(c) for c in (False, True)}

    def warm_up(self):
        return self.cycle[:2]

    def _estimator(self, corrected: bool):
        """Independent evaluation of the estimator on white-noise psi6.

        Per setting, the estimator is a linear functional g of the 64 cell
        frequencies (parity sums of its terms' Pauli words).  The pure-state
        cells come from a direct tensor contraction, and a white-noise state's
        cells are w * pure + (1 - w) / 64.
        """
        terms = analysis.witness_terms(THETA, corrected)
        cells = np.arange(64)
        funcs: dict[str, np.ndarray] = {}
        for term in terms:
            g = funcs.setdefault(term.setting, np.zeros(64))
            for word in term.words:
                mask = sum(1 << (5 - i) for i, l in enumerate(word.letters) if l != "I")
                parity = np.array([bin(c & mask).count("1") % 2 for c in cells])
                g += word.coefficient.real * (1 - 2 * parity)
        scale = 0.5 if corrected else 1.0
        psi = wires.build_psi6(THETA).reorder(analysis.WITNESS_ORDER).amps.reshape([2] * 6)
        pure = {}
        for setting in funcs:
            amp = psi
            for axis, letter in enumerate(setting):
                amp = np.moveaxis(np.tensordot(_pauli_rows(letter), amp, axes=(1, axis)), 0, axis)
            pure[setting] = np.abs(amp.reshape(64)) ** 2
        return scale, funcs, pure

    def expected(self, fidelity: float, corrected: bool, shots: int) -> tuple[float, float]:
        """(mean, standard deviation) of the estimate; sd is 0 for exact cells."""
        scale, funcs, pure = self._oracle[corrected]
        w = (64 * fidelity - 1) / 63
        mean = var = 0.0
        for setting, g in funcs.items():
            p = w * pure[setting] + (1 - w) / 64
            m = g @ p
            mean += m
            if shots:
                var += (g * g @ p - m * m) / shots
        return scale * mean, scale * sqrt(var)

    def run(self, op, state):
        fidelity, corrected, shots = op
        pure = wires.build_psi6(THETA).reorder(analysis.WITNESS_ORDER)
        rho = pure if fidelity == 1.0 else noise_tomo.white_noise(pure, fidelity)
        report = analysis.assemble_witness(THETA, corrected=corrected)
        settings = tuple(sorted(set(report.derived_settings)))
        if shots:
            seed = int(state.rng.integers(2**31))
            counts = noise_tomo.simulate_counts(rho, settings=settings, shots=shots, seed=seed)
            cells = analysis.counts_to_cells(counts)
        else:
            cells = analysis.exact_setting_cells(rho, settings)
        return analysis.fidelity_from_settings(cells, theta=THETA, corrected=corrected)

    def check(self, op, value, state):
        fidelity, corrected, shots = op
        mean, sd = self.expected(fidelity, corrected, shots)
        if shots:
            z = abs(value - mean) / sd
            state.notes["max_z"] = max(state.notes.get("max_z", 0.0), z)
            return z <= Z_BAND
        if not corrected:
            state.notes.setdefault("literal_residual", {})[str(fidelity)] = value - fidelity
            return abs(value - mean) <= 1e-9
        return abs(value - fidelity) <= 1e-9 and abs(value - mean) <= 1e-9

    def finish(self, state):
        return 0, state.notes


# ---------------------------------------------------------------------------
# tomo: ML tomography jobs
# ---------------------------------------------------------------------------

class Tomo(Workload):
    """One operation is one tomography job: simulate product-basis counts,
    reconstruct by maximum likelihood, then bootstrap the fidelity.

    ML runs at max_iters=1000 (the CLI's --max-iters).  At the library
    default of 10,000 the iteration count of a psi4 job ranges from about
    2,700 to the cap with the sampled counts, so one job takes 1 to 15 s and
    a time-bounded run would hold a handful of jobs of unpredictable cost.
    At 1000 every psi4 fit ends at the cap, which noise_tomo.ml.capped
    counts.  Each psi4 case runs on two counts tables drawn from the seed, so
    the median job is the third-fastest of eight psi4 jobs, not the fastest
    of four, and moves less with one seed's draws.
    """

    CASES = (("psi4", 1.0, 2000), ("psi4", 1.0, 100_000), ("psi4", 0.9, 2000),
             ("psi4", 0.9, 100_000), ("lambda34", 1.0, 2000), ("lambda34", 1.0, 100_000),
             ("lambda34", 0.9, 2000))
    MAX_ITERS = 1000
    reference_kernel = "dense"
    reference_kernels = 100
    MC_RUNS = 2
    # Accepted |fidelity - true fidelity|, by shots per setting.
    BAND = {2000: 0.05, 100_000: 0.01}

    def __init__(self, seed, scratch, smoke):
        super().__init__(seed, scratch, smoke)
        cases = [c for c in self.CASES if c[0] == "lambda34"] if smoke else self.CASES
        self.cycle = [self._job(*case, self.MAX_ITERS) for case in cases
                      for _ in range(2 if case[0] == "psi4" else 1)]

    def _job(self, name, fidelity, shots, max_iters):
        return (name, fidelity, shots, max_iters,
                int(self.rng.integers(2**31)), int(self.rng.integers(2**31)))

    def warm_up(self):
        """The two-qubit jobs, then a psi4 job cut to 100 iterations.

        The first psi4-sized fit of a process can run at half speed for
        about a second; the short psi4 job absorbs that before timing.
        """
        return [op for op in self.cycle if op[0] == "lambda34"] + [
            self._job("psi4", 0.9, 100_000, 100)]

    def run(self, op, state):
        name, fidelity, shots, max_iters, counts_seed, mc_seed = op
        target = wires.build_psi4() if name == "psi4" else wires.lambda34()
        rho = target if fidelity == 1.0 else noise_tomo.white_noise(target, fidelity)
        counts = noise_tomo.simulate_counts(rho, shots=shots, seed=counts_seed)
        result = noise_tomo.ml_reconstruct(counts, target, max_iters=max_iters)
        mean, sigma = noise_tomo.monte_carlo_error(
            counts, target, runs=self.MC_RUNS, seed=mc_seed, max_iters=max_iters)
        return result.fidelity_to_target, mean, sigma, result.iterations

    def check(self, op, out, state):
        name, fidelity, shots, max_iters = op[:4]
        fit, mean, sigma, iterations = out
        band = self.BAND[shots]
        dev = abs(fit - fidelity)
        key = f"{name}/F={fidelity}/{shots}"
        state.notes.setdefault("max_abs_deviation", {})
        state.notes["max_abs_deviation"][key] = max(
            dev, state.notes["max_abs_deviation"].get(key, 0.0))
        return (dev <= band and abs(mean - fit) <= band and np.isfinite(sigma)
                and sigma >= 0.0 and 1 <= iterations <= max_iters)

    def finish(self, state):
        return 0, {**state.notes, "max_iters": self.MAX_ITERS, "mc_runs": self.MC_RUNS}


# ---------------------------------------------------------------------------
# cli: in-process command-line calls
# ---------------------------------------------------------------------------

THETAS = ("pi/8", "pi/6", "pi/5")
ALPHAS = ("pi/6", "pi/4", "pi/3", "pi/2", "2pi/3")
DIGESTS = HERE / "cli_digests.json"


def cli_commands(theta: str, alpha4: str, alpha2: str) -> list[list[str]]:
    """The commands run at one wire angle."""
    common = ["--theta", theta]
    return [
        ["curve", "fig2", "--resource", "4", "--fidelity", "0.73", "--grid", "25",
         "--format", "csv", *common],
        ["curve", "fig2", "--resource", "2", "--fidelity", "0.9", "--grid", "25",
         "--format", "csv", *common],
        ["curve", "fig2", "--resource", "4", "--fidelity", "0.9", "--grid", "13",
         "--format", "json", *common],
        ["protocol", "compensate", "--alpha", alpha4, "--resource", "4", "--enumerate", *common],
        ["protocol", "compensate", "--alpha", alpha2, "--resource", "2", "--enumerate", *common],
        ["state", "analyze", "--state", "psi4", *common],
        ["state", "analyze", "--state", "lambda34", *common],
    ]


def all_cli_commands() -> list[list[str]]:
    """Every command any seed can choose; cli_digests.json covers each one."""
    seen = {}
    for theta in THETAS:
        for a4, a2 in itertools.product(ALPHAS, ALPHAS):
            for argv in cli_commands(theta, a4, a2):
                seen[" ".join(argv)] = argv
    return list(seen.values())


class Cli(Workload):
    """One operation is one in-process ``corrspace.cli.main(argv)`` call that
    writes to a file; the output's SHA-256 must equal the digest recorded
    for that command.
    """

    trace_cycles = 10

    def __init__(self, seed, scratch, smoke):
        super().__init__(seed, scratch, smoke)
        ops = []
        for theta in THETAS[1:2] if smoke else THETAS:
            a4, a2 = self.rng.choice(ALPHAS, 2)
            ops += cli_commands(theta, str(a4), str(a2))
        self.cycle = [ops[i] for i in self.rng.permutation(len(ops))]
        self.digests = json.loads(DIGESTS.read_text())
        self.out_path = str(scratch / "out")

    def run(self, argv, state):
        return cli.main([*argv, "--out", self.out_path])

    def check(self, argv, code, state):
        data = Path(self.out_path).read_bytes()
        state.notes["output_bytes"] = state.notes.get("output_bytes", 0) + len(data)
        return code == 0 and hashlib.sha256(data).hexdigest() == self.digests.get(" ".join(argv))

    def counters(self, state):
        return {"cli.output_bytes": state.notes.get("output_bytes", 0)}


WORKLOADS = {"shots": Shots, "witness": Witness, "tomo": Tomo, "cli": Cli}
