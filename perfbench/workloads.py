"""The benchmark's workloads: fixed lists of real ``omband`` CLI invocations.

Each workload is a list of argv vectors for the ``omband`` command line.
The seed only chooses, from fixed lists, the drive phases each parameter
set runs at and the order of the invocations; the program sees nothing
but the generated argv.  No argv passes ``workers``, ``n_k_coarse`` or
``refine_tol``: those keys are planned for removal, and an unknown key
exits 2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Phases a seed may pick from.
PHASES = ("0", "0.25pi", "0.5pi", "0.8pi", "pi")

#: Parameter sets: W is the wide-band default set, N the narrow-band set.
SETS: dict[str, tuple[str, ...]] = {
    "W": (),
    "N": ("--J", "0.043", "--K", "0.0013", "--g", "0.086"),
}
#: Coupling g of each set, for the minimum-gap invariant.
SET_G = {"W": 0.1, "N": 0.086}

MEANFIELD_DRIVES = ("0.5", "1", "2", "4", "8", "16")
TRACE_KDS = ("0.48", "0.1")

#: Why each workload exists; the same lines are in BENCHMARK.json.
WHY = {
    "zone-tables": "n_k=32768 band, weight, thermal and gap tables: bands, "
    "commands and CSV/JSON emit carry it; ramps and oracles idle",
    "ramp-verify": "n_k=4096 quench scans and n_t=4096 traces, verify (RK4, "
    "Jacobi), --verify ahead of commands, start-up-bound meanfield: quench "
    "and oracles carry it",
}

#: How many phases each workload takes per parameter set.
_PHASES_PER_SET = {"zone-tables": 2, "ramp-verify": 1}


@dataclass(frozen=True)
class Invocation:
    """One CLI run: its argv (without output flags) and what to expect."""

    argv: tuple[str, ...]
    set_name: str
    json_out: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def key(self) -> str:
        """Reference-table key: the argv, which never holds output flags."""
        return " ".join(self.argv)

    def flags(self) -> dict[str, str]:
        """The ``--key value`` pairs of the argv, as the CLI receives them."""
        it = iter(self.argv[1:])
        return {k[2:]: v for k, v in zip(it, it)}


def _zone_tables(phases: dict[str, list[str]]) -> list[Invocation]:
    invs = []
    for s, extra in SETS.items():
        for i, phase in enumerate(phases[s]):
            for cmd in ("bands", "weights", "thermal"):
                argv = (cmd, "--n_k", "32768", *extra, "--theta", phase)
                # alternate phases write CSV to stdout and JSON to a file
                invs.append(Invocation(argv, s, json_out=i % 2 == 1))
        argv = ("gap", "--n_k", "32768", *extra, "--theta_list", ",".join(PHASES))
        invs.append(Invocation(argv, s))
    return invs


def _ramp_verify(phases: dict[str, list[str]]) -> list[Invocation]:
    invs = [Invocation(("verify", "--lattice_N", "24", "--lattice_m", "5"), "W")]
    for s, extra in SETS.items():
        for phase in phases[s]:
            base = ("--n_k", "4096", *extra, "--theta", phase)
            invs.append(Invocation(("quench-scan", *base, "--tq_mode", "per-k"), s))
            invs.append(Invocation(("quench-scan", *base, "--tq_mode", "global-min"), s))
            invs.append(
                Invocation(
                    ("quench-scan", *base, "--tq_mode", "fixed", "--tq_value", "1"),
                    s,
                    json_out=True,
                )
            )
            trace = ("quench-trace", "--n_t", "4096", *extra, "--theta", phase)
            for kd in TRACE_KDS:
                invs.append(Invocation((*trace, "--kd_over_pi", kd), s))
            invs.append(Invocation(("verify", *extra, "--theta", phase), s))
            # start-up dominated: half of the drives on each set
            for drive in MEANFIELD_DRIVES[s == "N"::2]:
                invs.append(Invocation(("meanfield", *extra, "--theta", phase,
                                        "--Omega_d", drive), s))
    for phase in phases["W"]:
        invs.append(Invocation(("bands", "--n_k", "512", "--theta", phase,
                                "--verify", "true"), "W"))
    for phase in phases["N"]:
        invs.append(Invocation(("quench-scan", "--n_k", "512", *SETS["N"],
                                "--theta", phase, "--verify", "true"), "N"))
    return invs


_BUILDERS = {
    "zone-tables": _zone_tables,
    "ramp-verify": _ramp_verify,
}

NAMES = tuple(_BUILDERS)


def build(name: str, seed: int, pass_index: int = 0) -> list[Invocation]:
    """The invocations of one pass for ``seed``, in the order they run.

    The seed orders the phases of each parameter set, and each pass takes
    the next ones in that order, so the passes of a run cycle through the
    phases rather than repeat one choice.
    """
    rng = random.Random(f"{name}:{seed}")
    order = {s: rng.sample(PHASES, len(PHASES)) for s in SETS}
    k = _PHASES_PER_SET[name]
    phases = {s: [order[s][(pass_index * k + j) % len(PHASES)] for j in range(k)]
              for s in SETS}
    invs = _BUILDERS[name](phases)
    random.Random(f"{name}:{seed}:{pass_index}").shuffle(invs)
    return invs


def every_table(name: str) -> list[Invocation]:
    """Every invocation any seed can give, one per distinct output table."""
    invs = _BUILDERS[name]({s: list(PHASES) for s in SETS})
    return list({inv.key: inv for inv in invs}.values())
