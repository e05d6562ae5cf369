"""Write every output of the byte contract into one directory.

    PYTHONPATH=src python tests/contract.py OUT_DIR

Runs ``verify``, ``sweep``, ``table1`` and ``tangle`` through ``cli.main`` on
fixed inputs, and keeps for each command its output files, stdout, stderr and
exit code under fixed names. A change keeps the contract when the directory
it writes and the one the parent commit writes give an empty ``diff -r``.
Not a pytest module: it needs only numpy and the package.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from qtangle.cli import main  # noqa: E402
from qtangle.qstate import PureState, state_to_json  # noqa: E402
from qtangle.states import ghz, random_slocc_state, sample_seed, w  # noqa: E402

SEED = 20260823


def run(out: Path, name: str, argv: list) -> None:
    """Run one command; keep its stdout, stderr and exit code as name.*."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    (out / f"{name}.stdout").write_text(stdout.getvalue())
    (out / f"{name}.stderr").write_text(stderr.getvalue())
    (out / f"{name}.exit").write_text(f"{code}\n")


def contract_states() -> dict:
    """The tangle command's input states, by name."""
    rng = np.random.default_rng(SEED)
    states = {"ghz4": ghz(4), "w4": w(4), "w3": w(3)}
    for n in (2, 3):
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        states[f"random{n}"] = PureState.from_amplitudes(v, n_qubits=n)
    for cls in range(1, 10):
        for idx in range(3):
            states[f"class{cls}-{idx}"] = random_slocc_state(cls, sample_seed(SEED, cls, idx))[0]
    return states


def write_contract(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for samples in (100, 300):
        for workers in (1, 2):
            name = f"verify-n{samples}-w{workers}"
            run(out, name, [
                "verify", "--samples", str(samples), "--seed", str(SEED),
                "--workers", str(workers), "--out", str(out / f"{name}.csv"),
                "--summary", str(out / f"{name}.summary.json"),
            ])  # fmt: skip
    for cls in range(2, 7):
        grid = ["--class", str(cls), "--a-min", "0", "--a-max", "2", "--step", "0.01"]
        run(out, f"sweep-{cls}", ["sweep", *grid, "--out", str(out / f"sweep-{cls}.csv")])
        run(out, f"sweep-{cls}-json", ["sweep", *grid, "--json"])
    run(out, "table1", ["table1", "--out", str(out / "table1.csv")])
    run(out, "table1-json", ["table1", "--json"])
    states = out / "states"
    states.mkdir(exist_ok=True)
    for label, psi in contract_states().items():
        path = states / f"{label}.json"
        state_to_json(psi, path)
        for focus in range(1, psi.n_qubits + 1):
            argv = ["tangle", str(path), "--focus", str(focus)]
            run(out, f"tangle-{label}-f{focus}", argv)
            run(out, f"tangle-{label}-f{focus}-json", [*argv, "--json"])


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/contract.py OUT_DIR")
    write_contract(Path(sys.argv[1]))
