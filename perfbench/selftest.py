"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Run from the repository root; takes a few seconds. Checks that one seed
gives byte-identical scenario files, that every oracle flags a planted
wrong value, that self time is right on a synthetic span tree, and that
wrapped functions return exactly what the unwrapped ones do.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run          # noqa: E402
import oracles      # noqa: E402
import tracing      # noqa: E402
import workloads    # noqa: E402

sys.path.insert(0, run._src_dir())

SCRATCH = os.path.join(run.WORK_DIR, f"selftest-{os.getpid()}")

# one cheap scenario per workload, run through every subcommand it has
PROBES = {
    "weights-ladder": ("rnc2a",),
    "subset-scan": ("lines_p2a",),
    "nevanlinna-chain": ("poly_p1_fixeda", "poly_p1_movinga"),
}


def _client(name: str, seed: int = 3):
    work = workloads.build(name, seed)
    paths = work.write(os.path.join(SCRATCH, f"{name}-{seed}"))
    return run.Client(work, paths)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _probe_jobs(client):
    return [k for k, job in enumerate(client.work.jobs)
            if job.scenario in PROBES[client.work.name]]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for name in workloads.WORKLOADS:
            files = []
            for tag, seed in (("a", 5), ("b", 5), ("c", 6)):
                d = os.path.join(SCRATCH, f"gen-{name}-{tag}")
                paths = workloads.build(name, seed).write(d)
                files.append({k: _read(p) for k, p in paths.items()})
            self.assertEqual(files[0], files[1], name)
            self.assertNotEqual(files[0], files[2], name)


class OracleTest(unittest.TestCase):
    """Real reports pass; each planted wrong value is flagged."""

    plants = {
        "weights": [("degree", lambda r: r.update(degree=r["degree"] + 1)),
                    ("estimate",
                     lambda r: r.update(estimate=r["estimate"] + 1))],
        "distributive": [("value", lambda r: r.update(value="3/2")),
                         ("table",
                          lambda r: r["table"][0].update(dim=-1)),
                         ("no table", lambda r: r.pop("table"))],
        "constants": [("u", lambda r: r["constants"].update(
                          u=r["constants"]["u"] + 1)),
                      ("log10_L", lambda r: r["constants"].update(
                          log10_L=r["constants"]["log10_L"] + 1e-3))],
        "nevanlinna": [("residual", lambda r: r["rows"][1].__setitem__(
                           5, r["rows"][1][5] + 1e-5)),
                       ("T", lambda r: r["rows"][-1].__setitem__(1, 0.0))],
        "fmt-check": [("residual", lambda r: r["rows"][1].__setitem__(
                          1, r["rows"][1][1] + 1e-5))],
        "verify": [("falsified", lambda r: r.update(falsified=True)),
                   ("n", lambda r: r["constants"].update(n=5))],
        "defects": [("holds", lambda r: r.update(holds=False))],
    }

    def test_planted_values_are_flagged(self):
        seen = set()
        for name in workloads.WORKLOADS:
            client = _client(name)
            for k in _probe_jobs(client):
                job = client.work.jobs[k]
                _, _, code, out, _ = client.run_one(k)
                self.assertIsNone(
                    oracles.check(job.command, job.expect, code, out),
                    job.label)
                rep = json.loads(out)
                for what, plant in self.plants[job.command]:
                    bad = copy.deepcopy(rep)
                    plant(bad)
                    self.assertIsNotNone(
                        oracles.check(job.command, job.expect, code,
                                      json.dumps(bad)),
                        f"{job.label}: planted {what} not flagged")
                self.assertIsNotNone(
                    oracles.check(job.command, job.expect, 1, out))
                self.assertIsNotNone(oracles.check(
                    job.command, job.expect, RuntimeError("boom"), ""))
                seen.add(job.command)
        self.assertEqual(seen, set(self.plants))


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        S = tracing.Span
        spans = [
            S("pad", 0.0, 1.0, -1, 0),        # before `first`: ignored
            S("root", 0.0, 10.0, -1, 1),
            S("a", 1.0, 4.0, 1, 1),
            S("a.child", 2.0, 3.0, 2, 1),
            S("b", 5.0, 9.0, 1, 1),
            S("c", 8.0, 9.5, 1, 1),           # overlaps b: counted once
        ]
        got = tracing.self_times(spans, first=1)
        for value, want in zip(got, [2.5, 2.0, 1.0, 4.0, 1.5]):
            self.assertAlmostEqual(value, want)


class WrapTest(unittest.TestCase):
    def test_wrapped_reports_match_unwrapped(self):
        from smtlab import groebner, nevanlinna, smt_verifier, weights
        originals = (nevanlinna.characteristic, smt_verifier.characteristic,
                     weights.normal_form, groebner.Variety.hilbert_function)
        tracer = tracing.Tracer()
        for name in workloads.WORKLOADS:
            client = _client(name)
            for k in _probe_jobs(client):
                _, _, code0, out0, err0 = client.run_one(k)
                tracer.install()
                try:
                    self.assertIsNot(nevanlinna.characteristic, originals[0])
                    self.assertIs(smt_verifier.characteristic,
                                  nevanlinna.characteristic)
                    _, _, code1, out1, err1 = client.run_one(k)
                finally:
                    tracer.uninstall()
                self.assertEqual((code0, out0, err0), (code1, out1, err1))
        self.assertTrue(tracer.spans)
        self.assertEqual((nevanlinna.characteristic,
                          smt_verifier.characteristic, weights.normal_form,
                          groebner.Variety.hilbert_function), originals)


def tearDownModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
