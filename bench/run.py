"""qtangle benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) from the qtangle sources of the
checkout this file sits in, in this process, for about ``S`` seconds of
fixed-size rounds, then checks every file the rounds wrote. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. ``failed`` counts the states that errored or whose
output failed a check (every state of a command that exited non-zero);
``failed / attempted`` is the run's failure share, which is 0 at a correct
commit and so is not a metric. ``metrics`` holds the ``end_to_end`` metrics
of ``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``. Earlier lines record the environment and each round.

With ``--trace 0``:

* ``states_per_ref`` is the states processed in the time this machine
  needs for one run of a fixed reference kernel (``ReferenceKernel``):
  all states of the run divided by the sum of the rounds' times, each
  round's time counted in units of the kernel's time just before and
  after it. The machine is shared, and its speed swings by a third within
  a minute; the kernel slows with it, so the ratio stays steady where raw
  states per second does not. Raw states per second is printed for every
  round;
* ``setup_s`` is the median over fresh processes of the time to import
  qtangle and process the workload's first state;
* ``peak_rss_mb`` is this process's peak resident set after the rounds.

With ``--trace 1`` rounds alternate between untraced and traced (see
``tracing.py``); the per-layer numbers come from the traced rounds, and the
gap between the two kinds of round is reported as ``trace.overhead_frac``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
MIN_ROUNDS = 4  # with tracing, two of each kind
# Layer self times must explain the traced wall time to within the tracing
# overhead, or this share of it when the measured overhead is smaller.
MIN_TRACE_SLACK = 0.02
# Metrics of one function; they read 0 when the workload never calls it.
FUNCTION_METRICS = (".us_per_call", ".calls_per_state", ".self_us_per_state", ".p50_us", ".p99_us", ".self_us")


def import_program():
    """Import qtangle from this checkout's sources, or exit with an error."""
    src = ROOT / "src"
    if not (src / "qtangle" / "__init__.py").is_file():
        sys.exit(f"error: no qtangle sources under {src}")
    sys.path.insert(0, str(src))
    import qtangle

    if Path(qtangle.__file__).resolve().parent != (src / "qtangle").resolve():
        sys.exit(f"error: qtangle was imported from {qtangle.__file__}, not {src}")


def environment() -> dict:
    import numpy as np
    import scipy

    def blas(module) -> str:
        info = module.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        return f"{info.get('name')} {info.get('version')}"

    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": blas(np), "scipy": blas(scipy)},
        "blas_threads": {k: os.environ.get(k) for k in threads},
        "loadavg_at_start": os.getloadavg(),
    }


# -- set-up --------------------------------------------------------------------------


def probe(name: str, seed: int, out: Path) -> None:
    """Body of one set-up probe process: import, then the first state."""
    t0 = time.perf_counter()
    import_program()
    import workloads

    workload = workloads.make(name)
    rc = workload.probe(workload.inputs(seed, 0), out / "probe")
    elapsed = time.perf_counter() - t0
    if rc != 0:
        sys.exit(f"error: first state of {name} exited with {rc}")
    print(repr(elapsed))


def setup_seconds(name: str, seed: int, out: Path) -> float:
    """Median set-up time over fresh processes, after one that fills caches."""
    times = []
    for i in range(SETUP_PROBES + 1):
        d = out / f"setup{i}"
        d.mkdir()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--probe"]
        cmd += ["--workload", name, "--seed", str(seed), "--out", str(d)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        if i:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# -- rounds --------------------------------------------------------------------------


class ReferenceKernel:
    """Fixed work that runs no qtangle code but has the instruction mix of a
    qtangle state, as a profile of ``campaign`` shows it: partial traces by
    tensor contraction, many small complex LAPACK calls (eigvalsh and eigh
    on 8x8, svd, eigvals, lstsq and det on 4x4), norms, errstate blocks and
    float formatting. Timed between rounds, it measures how fast this shared
    machine is running qtangle-like work at that moment."""

    REPEATS = 20

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(1405)
        self._np = np
        self._psis = [(rng.normal(size=16) + 1j * rng.normal(size=16)).reshape(2, 2, 2, 2) for _ in range(40)]

    def seconds(self) -> float:
        np = self._np
        la = np.linalg
        t0 = time.perf_counter()
        for _ in range(self.REPEATS):
            for t in self._psis:
                rho8 = np.tensordot(t, t.conj(), axes=([0], [0])).reshape(8, 8)
                la.eigvalsh(rho8)
                la.eigvalsh(rho8)
                ev, vec = la.eigh(rho8)
                rho4 = np.tensordot(t, t.conj(), axes=([0, 1], [0, 1])).reshape(4, 4)
                with np.errstate(divide="ignore", invalid="ignore"):
                    la.eigvalsh(rho4)
                la.svd(rho4, compute_uv=False)
                la.eigvals(rho4)
                la.lstsq(rho4.real, ev[:4], rcond=None)
                np.outer(vec[:, 0], vec[:, 1].conj()).trace()
                la.norm(rho4 - rho4.conj().T)
                la.det(rho4[:2, :2])
                ",".join(repr(float(x)) for x in rho4.real.ravel())
        return time.perf_counter() - t0


@dataclass
class Round:
    index: int
    inputs: dict
    rc: int
    seconds: float
    traced: bool
    ref_seconds: float  # reference kernel time around the round


def run_rounds(workload, seed: int, seconds: float, tracer, out: Path) -> list:
    """Rounds until ``seconds`` would be exceeded; every other one traced if
    a tracer is given. One untimed first state runs before."""
    workload.probe(workload.inputs(seed, 0), out / "warm")
    kernel = ReferenceKernel()
    kernel.seconds()
    rounds = []
    start = time.perf_counter()
    ref_before = kernel.seconds()
    while True:
        r = len(rounds)
        traced = tracer is not None and r % 2 == 1
        inputs = workload.inputs(seed, r)
        with tracer if traced else contextlib.nullcontext():
            if traced:
                tracer.request = r
            t0 = time.perf_counter()
            rc = workload.run(inputs, out / f"r{r}")
            dt = time.perf_counter() - t0
        ref_after = kernel.seconds()
        rounds.append(Round(r, inputs, rc, dt, traced, (ref_before + ref_after) / 2))
        ref_before = ref_after
        print(json.dumps({
            "round": r, "traced": traced, "exit_code": rc, "seconds": dt,
            "states_per_s": workload.states_per_round / dt, "ref_seconds": rounds[-1].ref_seconds,
        }))  # fmt: skip
        if r + 1 >= MIN_ROUNDS and time.perf_counter() - start + dt > seconds:
            return rounds


def check_rounds(workload, seed: int, rounds: list, out: Path):
    attempted = failed = 0
    problems = []
    for rd in rounds:
        outcome = workload.check(rd.inputs, out / f"r{rd.index}", rd.rc)
        attempted += outcome.attempted
        # A command that exits non-zero has delivered none of its states.
        failed += outcome.attempted if rd.rc != 0 else outcome.failed
        problems += outcome.problems
    problems += workload.final_check(seed, out)
    return attempted, failed, problems


# -- metrics -------------------------------------------------------------------------


def _rate(workload, rounds: list, traced: bool) -> float:
    """States per reference-kernel time over the rounds of one kind."""
    chosen = [rd for rd in rounds if rd.traced == traced]
    return workload.states_per_round * len(chosen) / sum(rd.seconds / rd.ref_seconds for rd in chosen)


def _p(values: list, q: int) -> float:
    """q-th percentile (1..99) of at least two values."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def layer_metrics(workload, rounds: list, tracer, out: Path) -> tuple[dict, list]:
    own = tracer.spans
    spans = own + tracer.collect_children()
    traced = [rd for rd in rounds if rd.traced]
    n_states = workload.states_per_round * len(traced)
    wall = sum(rd.seconds for rd in traced)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    m = {}
    for name, group in by_name.items():
        total = sum(s.duration for s in group)
        m[f"{name}.us_per_call"] = 1e6 * total / len(group)
        m[f"{name}.calls_per_state"] = len(group) / n_states
        m[f"{name}.self_us_per_state"] = 1e6 * sum(s.self_time for s in group) / n_states

    ttu = by_name["tangles.three_tangle_upper"]
    if ttu:
        m["tangles.three_tangle_upper.p99_us"] = 1e6 * _p([s.duration for s in ttu], 99)
    for method in ("exact-pure", "simplex-zero", "pi-coincidence", "rdl-line"):
        m[f"tangles.three_tangle_upper.method.{method}"] = sum(s.tag == method for s in ttu) / n_states
    m["tangles.wclass_roots.roots_at_infinity"] = (
        sum(s.tag or 0 for s in by_name["tangles.wclass_roots"]) / n_states
    )
    members = len(by_name["tangles.simplex_member"])
    m["tangles.simplex_member.nnls_ratio"] = len(by_name["tangles.nnls"]) / members if members else 0.0
    sm = by_name["monogamy.sm_report_all_foci"]
    if sm:
        m["monogamy.sm_report_all_foci.p50_us"] = 1e6 * _p([s.duration for s in sm], 50)
        m["monogamy.sm_report_all_foci.p99_us"] = 1e6 * _p([s.duration for s in sm], 99)
        m["monogamy.sm_report_all_foci.self_us"] = 1e6 * statistics.fmean(s.self_time for s in sm)

    # Entry spans split each process's time between the layers without overlap.
    layer_self = defaultdict(float)
    for s in spans:
        if s.entry:
            layer_self[tracing.layer_of(s.name)] += s.self_time
    all_self = sum(layer_self.values())
    for layer in set(tracing.LAYER_OF.values()):
        m[f"{layer}.self_frac"] = layer_self[layer] / all_self

    # A round's wall time less the work the harness hands to other layers,
    # shared out over the processes that did that work.
    handed = defaultdict(list)
    for s in spans:
        if s.parent and tracing.layer_of(s.parent) == "harness" and tracing.layer_of(s.name) != "harness":
            handed[s.request].append(s)
    busy = sum(sum(s.duration for s in g) / len({s.pid for s in g}) for g in handed.values())
    m["harness.self_s"] = (wall - busy) / len(traced)
    csv_bytes = sum(p.stat().st_size for p in out.glob("r*.csv"))
    m["harness.csv_bytes_per_state"] = csv_bytes / (workload.states_per_round * len(rounds))

    m["trace.overhead_frac"] = 1.0 - _rate(workload, rounds, True) / _rate(workload, rounds, False)
    for kind, flag in (("untraced", False), ("traced", True)):
        chosen = [rd for rd in rounds if rd.traced == flag]
        m[f"trace.{kind}_states_per_s"] = workload.states_per_round * len(chosen) / sum(rd.seconds for rd in chosen)
    m["trace.self_coverage"] = sum(s.self_time for s in own if s.entry) / wall
    problems = []
    uncovered = 1.0 - m["trace.self_coverage"]
    if uncovered > max(m["trace.overhead_frac"], MIN_TRACE_SLACK):
        problems.append(
            f"layer self times leave {uncovered:.3f} of the traced wall time unexplained,"
            f" more than the tracing overhead {m['trace.overhead_frac']:.3f}"
        )
    return m, problems


def measure(workload, seed: int, seconds: float, trace: bool, out: Path, setup_s=None) -> dict:
    """One run in ``out``: rounds, checks, and every metric of the mode."""
    tracer = tracing.Tracer(out) if trace else None
    rounds = run_rounds(workload, seed, seconds, tracer, out)
    problems = []
    if trace:
        metrics, problems = layer_metrics(workload, rounds, tracer, out)
    else:
        metrics = {
            "states_per_ref": _rate(workload, rounds, False),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    attempted, failed, check_problems = check_rounds(workload, seed, rounds, out)
    problems += check_problems
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def select(declared: list, computed: dict) -> dict:
    """The declared metrics, in declaration order; a function never called reads 0."""
    out = {}
    for d in declared:
        name = d["name"]
        if name in computed:
            value = computed[name]
        elif name.endswith(FUNCTION_METRICS):
            value = 0.0
        else:
            raise KeyError(f"benchmark computes no metric {name!r}")
        out[name] = {"value": value, "unit": d["unit"]}
    return out


# -- entry point ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        probe(args.workload, args.seed, args.out)
        return 0

    import_program()
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(json.dumps({"env": environment()}))

    out = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out.mkdir(parents=True)
    try:
        setup_s = None if args.trace else setup_seconds(args.workload, args.seed, out)
        workload = workloads.make(args.workload)
        result = measure(workload, args.seed, args.seconds, bool(args.trace), out, setup_s)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    result["metrics"] = select(spec["per_layer" if args.trace else "end_to_end"], result["metrics"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
