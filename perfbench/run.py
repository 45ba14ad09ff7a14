"""smtlab benchmark: one workload, one fresh process, one closed-loop client.

    python3 perfbench/run.py --workload weights-ladder --seed 1 \
        --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``.
The seed generates the workload's scenario files (``workloads.py``) into
``.bench_work/``. A single thread then calls ``smtlab.cli.main`` in-process
on them, one report after another, repeating the workload's fixed batch
of reports until ``--seconds`` have passed (at least three passes, or
two with ``--trace 1``). Each report is checked against its oracle
(``oracles.py``) outside the timed interval. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end metrics (``--trace 0``):

* ``setup_s``: a fresh process importing ``smtlab.cli`` and loading every
  scenario file of the workload; median of SETUP_PROBES processes.
* ``batch_s``: wall time of one pass over the batch: the sum over its
  reports of each report's median wall time across passes, which keeps a
  few seconds of machine noise from moving the whole figure.
* ``op_p50_s``: median wall time of one report.
* ``op_tail_s``: wall time at the highest percentile that still has at
  least ten samples beyond it in three passes, over all passes; the
  percentile and sample count are printed on a line of their own before
  the result.
* ``cpu_s``: process user+sys CPU of one pass, summed the same way.
* ``failed_frac``: reports that failed (unexpected exit code, exception
  escaping ``cli.main``, or output outside its oracle) over attempted.
* ``peak_rss_mb``: peak resident memory of the process.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics (``tracing.py``): self time and work counts per pass for
each wrapped function, and ``trace.overhead_frac``, the traced pass time
over the untraced one, minus one. The spans are written to
``.bench_work/spans-<workload>-seed<seed>.jsonl.gz`` at exit.
``--trace 1`` prints the per-layer metrics only.

``correct`` is false when any report outside the known-defect slice
fails. Known-defect reports count in ``failed`` either way.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"     # np.roots calls LAPACK; keep one client thread

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles      # noqa: E402
import tracing      # noqa: E402
import workloads    # noqa: E402

SETUP_PROBES = 7
WORK_DIR = ".bench_work"
TAIL_MIN_BEYOND = 10
TAIL_PASSES = 3        # untraced runs make at least this many passes


def _src_dir() -> str:
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "smtlab", "cli.py")):
        raise SystemExit(f"error: no smtlab sources under {src}; run from "
                         "the repository root")
    return src


def _setup_probe(directory: str) -> None:
    """Child process: time the import and the scenario loads."""
    t0 = time.perf_counter()
    from smtlab import cli  # noqa: F401
    from smtlab.scenario import load_scenario
    for name in sorted(os.listdir(directory)):
        load_scenario(os.path.join(directory, name))
    print(repr(time.perf_counter() - t0))


def _measure_setup(directory: str) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--setup-probe", directory],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def tail(samples, batch: int):
    """(value, percentile, count): the highest percentile that leaves at
    least TAIL_MIN_BEYOND samples beyond it in TAIL_PASSES passes of a
    batch. The percentile depends on the batch only, so one more pass in
    the time limit does not move the figure to a higher percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    beyond = TAIL_MIN_BEYOND * n // (TAIL_PASSES * batch)
    idx = max(0, n - 1 - beyond)
    return ordered[idx], 100.0 * (idx + 1) / n, n


class Client:
    """Runs reports through ``cli.main`` and checks each one."""

    def __init__(self, work: workloads.Workload, paths) -> None:
        from smtlab import cli
        self.cli = cli
        self.work = work
        self.argv = [[job.command, "--scenario", paths[job.scenario],
                      *job.args] for job in work.jobs]
        self.verdicts = {}
        self.failures = {}

    def run_one(self, k: int):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                code = self.cli.main(self.argv[k])
            except Exception as exc:       # the report failed; keep going
                code = exc
            t1, c1 = time.perf_counter(), time.process_time()
        return t1 - t0, c1 - c0, code, out.getvalue(), err.getvalue()

    def check(self, k: int, code, stdout: str, stderr: str) -> bool:
        job = self.work.jobs[k]
        key = (k, repr(code), stdout)
        if key not in self.verdicts:
            why = oracles.check(job.command, job.expect, code, stdout)
            if why is not None and stderr.strip():
                why += f" [{stderr.strip().splitlines()[-1]}]"
            self.verdicts[key] = why
        why = self.verdicts[key]
        if why is not None:
            self.failures.setdefault(job.label, (job.known_defect, why))
        return why is None

    def batch(self, tracer=None):
        """One pass: per-report wall and CPU times, and failures."""
        walls, cpus, failed = [], [], 0
        for k in range(len(self.argv)):
            if tracer is not None:
                tracer.report += 1
            wall, cpu, code, stdout, stderr = self.run_one(k)
            walls.append(wall)
            cpus.append(cpu)
            if not self.check(k, code, stdout, stderr):
                failed += 1
        return walls, cpus, failed


def _layer_metrics(tracer, start: int, walls) -> dict:
    """Per-layer figures of one traced pass (spans from index start)."""
    spans = tracer.spans[start:]
    selfs = tracing.self_times(tracer.spans, start)
    time_by, calls, sums = {}, {}, {}
    keys = set()
    for span, own in zip(spans, selfs):
        time_by[span.name] = time_by.get(span.name, 0.0) + own
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.counts.items():
            if key == "key":
                keys.add(value)
            else:
                sums[(span.name, key)] = sums.get((span.name, key), 0) + value
    m = {}
    for _, _, name, _ in tracing.TARGETS:
        m["cli.self_s" if name == "cli" else name + "_s"] = \
            time_by.get(name, 0.0)

    def c(name):
        return calls.get(name, 0)

    def total(name, key):
        return sums.get((name, key), 0)

    m.update({
        "groebner.normal_forms": c("groebner.normal_form"),
        "groebner.bases": c("groebner.basis"),
        "groebner.basis_polys": total("groebner.basis", "polys"),
        "groebner.intersections": c("groebner.intersection_dim"),
        "groebner.dim_degree_calls": c("groebner.dim_degree"),
        "groebner.hilbert_values": c("groebner.hilbert"),
        "weights.hilbert_weights": c("weights.hilbert_weight"),
        "weights.ladder_rungs": total("weights.chow", "rungs"),
        "position_geometry.subsets_scanned":
            total("position_geometry.distributive", "subsets"),
        "analytic.zero_isolations": c("analytic.zeros"),
        "analytic.zeros_found": total("analytic.zeros", "points"),
        "analytic.winding_nodes": total("analytic.winding", "nodes"),
        "nevanlinna.quad_nodes": total("nevanlinna.circle_average", "nodes"),
        "nevanlinna.characteristic_calls": c("nevanlinna.characteristic"),
        "nevanlinna.proximity_calls": c("nevanlinna.proximity"),
        "hypersurfaces.compose_calls": c("hypersurfaces.compose"),
        "smt_verifier.constants_calls": c("smt_verifier.constants"),
        "scenario.loads": c("scenario.load"),
    })
    scanned = m["position_geometry.subsets_scanned"]
    m["position_geometry.dim_drop_frac"] = (
        total("position_geometry.distributive", "drops") / scanned
        if scanned else 0.0)
    chars = m["nevanlinna.characteristic_calls"]
    m["nevanlinna.characteristic_reuse"] = len(keys) / chars if chars else 0.0
    m["trace.accounted_frac"] = sum(selfs) / sum(walls)
    m["trace.report_s"] = sum(walls)
    return m


def _write_spans(tracer, name: str, seed: int) -> None:
    path = os.path.join(WORK_DIR, f"spans-{name}-seed{seed}.jsonl.gz")
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.report,
                                 {k: v for k, v in s.counts.items()
                                  if k != "key"}]) + "\n")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    sys.path.insert(0, _src_dir())
    if args.setup_probe:
        _setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    work = workloads.build(args.workload, args.seed)
    directory = os.path.join(WORK_DIR,
                             f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        paths = work.write(directory)
        setup_s = None if args.trace else _measure_setup(directory)
        client = Client(work, paths)
        _warm_up(client)
        result = _measure(client, args)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    metrics, attempted, failed, tracer = result
    if tracer is not None:
        _write_spans(tracer, args.workload, args.seed)
    else:
        metrics["setup_s"] = _metric(setup_s, "s")

    unexpected = {label: why for label, (defect, why)
                  in client.failures.items() if not defect}
    for label, (defect, why) in sorted(client.failures.items()):
        kind = "known defect" if defect else "UNEXPECTED"
        print(f"failed ({kind}) {label}: {why}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _warm_up(client: Client) -> None:
    """One untimed report per subcommand, so lazy imports inside the
    program (interval arithmetic, LAPACK) are not charged to pass one."""
    seen = set()
    for k, job in enumerate(client.work.jobs):
        if job.command not in seen and not job.known_defect:
            seen.add(job.command)
            client.run_one(k)


def _measure(client: Client, args):
    tracer = tracing.Tracer() if args.trace else None
    passes = []          # (traced, walls, cpus, layer metrics)
    attempted = failed = 0
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        layer = None
        if traced:
            start = len(tracer.spans)
            tracer.install()
            try:
                walls, cpus, bad = client.batch(tracer)
            finally:
                tracer.uninstall()
            layer = _layer_metrics(tracer, start, walls)
        else:
            walls, cpus, bad = client.batch()
        passes.append((traced, walls, cpus, layer))
        attempted += len(walls)
        failed += bad
        done = time.perf_counter() - t_start >= args.seconds
        if done and len(passes) >= (2 if tracer else TAIL_PASSES):
            break

    plain = [p for p in passes if not p[0]]
    batch_s = _pass_total([p[1] for p in plain])
    if tracer is not None:
        layers = [p[3] for p in passes if p[0]]
        metrics = {key: _metric(statistics.median(l[key] for l in layers),
                                _unit(key))
                   for key in layers[0]}
        traced_s = _pass_total([p[1] for p in passes if p[0]])
        metrics["trace.overhead_frac"] = _metric(traced_s / batch_s - 1,
                                                 "frac")
        return metrics, attempted, failed, tracer

    ops = [w for p in plain for w in p[1]]
    tail_s, pct, count = tail(ops, len(client.argv))
    print(f"op_tail_s is the {pct:.1f}th percentile of {count} reports; "
          f"{len(plain)} passes of {len(client.argv)} reports")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "batch_s": _metric(batch_s, "s"),
        "op_p50_s": _metric(statistics.median(ops), "s"),
        "op_tail_s": _metric(tail_s, "s"),
        "cpu_s": _metric(_pass_total([p[2] for p in plain]), "s"),
        "failed_frac": _metric(failed / attempted, "frac"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    return metrics, attempted, failed, None


def _pass_total(passes) -> float:
    """Sum over reports of each report's median across passes."""
    return sum(statistics.median(times) for times in zip(*passes))


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_frac") or key.endswith("_reuse"):
        return "frac"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
