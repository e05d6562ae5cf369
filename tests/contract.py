"""Write every output of the contract into one directory, or compare two.

    PYTHONPATH=src python tests/contract.py OUT_DIR
    PYTHONPATH=src python tests/contract.py --compare PARENT_DIR CHANGE_DIR

Runs ``verify``, ``sweep``, ``table1`` and ``tangle`` through ``cli.main`` on
fixed inputs, and keeps for each command its output files, stdout, stderr and
exit code under fixed names. A change keeps the byte contract when the
directory it writes and the one the parent commit writes give an empty
``diff -r``.

``--compare`` reports on two such directories: how many files of each group
are byte-identical, the largest absolute change in each float column (CSV
columns, JSON key paths, and the numbers of each text line), and every other
change (a method tag, an integer such as a count or an exit code, a key, a
file, a float that becomes or stops being NaN or infinite). It exits 1 if
there is any such other change, else 0.
Not a pytest module: it needs only numpy and the package.
"""

import contextlib
import csv
import io
import json
import os
import re
import sys
from collections import defaultdict
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from qtangle.cli import main  # noqa: E402
from qtangle.qstate import PureState  # noqa: E402
from qtangle.states import ghz, random_slocc_state, sample_seed, w  # noqa: E402
from reference import write_state  # noqa: E402

SEED = 20260823
WIDE_SEEDS = (2**32 + 5, 2**64 + 3)
USAGE = "usage: python tests/contract.py OUT_DIR | --compare PARENT_DIR CHANGE_DIR"


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
    # The wide seeds take two and three 32-bit words of seed entropy.
    runs = [(100, SEED), (300, SEED), (40, WIDE_SEEDS[0]), (40, WIDE_SEEDS[1])]
    for samples, seed in runs:
        for workers in (1, 2):
            name = f"verify-n{samples}-w{workers}" + ("" if seed == SEED else f"-s{seed}")
            run(out, name, [
                "verify", "--samples", str(samples), "--seed", str(seed),
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
        write_state(psi, path)
        for focus in range(1, psi.n_qubits + 1):
            argv = ["tangle", str(path), "--focus", str(focus)]
            run(out, f"tangle-{label}-f{focus}", argv)
            run(out, f"tangle-{label}-f{focus}-json", [*argv, "--json"])


# -- comparing two contract directories ----------------------------------------

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _scalar(text: str):
    """A CSV cell or text token as an int, a float or the string itself."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _leaves(path: Path) -> dict:
    """The file's values by location, each with the name of its column. CSV
    cells are located by (row, column) and named by their header; JSON
    leaves by their key path, named by its keys with list indices and
    numeric keys as '#'; any other text by (line, k) for its k-th number,
    named by the line's shape (the line with each number as '#'), and each
    line's shape is a value too."""
    text = path.read_text()
    leaves = {}
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(text)))
        header = rows[0] if rows else []
        leaves["header"] = ("header", tuple(header))
        for i, row in enumerate(rows[1:]):
            names = header + [f"#{j}" for j in range(len(header), len(row))]
            leaves.update({(i, name): (name, _scalar(c)) for name, c in zip(names, row)})
        return leaves
    try:
        doc = json.loads(text)
    except ValueError:
        for i, line in enumerate(text.splitlines()):
            shape = _NUMBER.sub("#", line)
            leaves[(i, "shape")] = ("shape", shape)
            for k, number in enumerate(_NUMBER.findall(line)):
                leaves[(i, k)] = (shape, _scalar(number))
        return leaves
    stack = [((), doc)]
    while stack:
        key, value = stack.pop()
        if isinstance(value, dict):
            stack.extend((key + (k,), v) for k, v in value.items())
        elif isinstance(value, list):
            stack.extend((key + (i,), v) for i, v in enumerate(value))
        else:
            name = " ".join("#" if isinstance(k, int) or k.isdigit() else k for k in key)
            leaves[key] = (name, value)
    return leaves


def _group(name: str) -> str:
    """A file's group: its name with the run labels and inputs' numbers as '#'."""
    return re.sub(r"[0-9]+", "#", name)


def compare(parent: Path, change: Path) -> int:
    """Print how two contract directories differ; 1 on any non-numeric change."""
    names = sorted(
        {p.relative_to(d).as_posix() for d in (parent, change) for p in d.rglob("*") if p.is_file()}
    )
    same, largest, other = defaultdict(lambda: [0, 0]), defaultdict(float), []
    for name in names:
        a, b = parent / name, change / name
        group = same[_group(name)]
        group[1] += 1
        if not (a.is_file() and b.is_file()):
            other.append(f"{name}: only in {parent if a.is_file() else change}")
            continue
        if a.read_bytes() == b.read_bytes():
            group[0] += 1
            continue
        old, new = _leaves(a), _leaves(b)
        for key in sorted(old.keys() | new.keys(), key=str):
            (column, x), (_, y) = old.get(key, (None, None)), new.get(key, (None, None))
            if type(x) is float and type(y) is float and np.isfinite([x, y]).all():
                column = f"{_group(name)} {column}"
                largest[column] = max(largest[column], abs(x - y))
            elif x != y and not (x != x and y != y):  # NaN to NaN is no change
                other.append(f"{name} {key}: {x!r} -> {y!r}")
    print("byte-identical files, by group:")
    for group, (n_same, n) in same.items():
        print(f"  {n_same:4d} of {n:4d}  {group}")
    print("largest absolute difference, by numeric column that differs:")
    for column, diff in sorted(largest.items()):
        if diff:
            print(f"  {diff:9.2e}  {column}")
    print(f"non-numeric changes: {len(other)}")
    for line in other:
        print(f"  {line}")
    return 1 if other else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(compare(Path(sys.argv[2]), Path(sys.argv[3])))
    if len(sys.argv) != 2:
        sys.exit(USAGE)
    write_contract(Path(sys.argv[1]))
