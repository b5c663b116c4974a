"""Self-test of the served benchmark.

Run from the root of a checkout (it boots a few short-lived servers and
takes about a minute)::

    python3 perfbench/selftest.py

It checks that a short run of every workload passes and reports exactly
the metrics ``BENCHMARK.json`` declares; that the reference check fails,
naming the request, when one verdict, one witness text, one
classification string or one ``/migrate`` count of a real server
response is corrupted; and that the request sequence is a pure function
of the seed.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, seconds: float = 2) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    if out.returncode:
        raise AssertionError(
            f"{workload} exited {out.returncode}:\n"
            f"{out.stdout[-3000:]}\n{out.stderr[-3000:]}"
        )
    return json.loads(out.stdout.splitlines()[-1])


class ShortRuns(unittest.TestCase):
    def test_every_workload_passes_with_the_declared_metrics(self):
        self.assertEqual(
            [entry["name"] for entry in SPEC["workloads"]],
            list(workloads.WORKLOADS),
        )
        declared = {entry["name"]: entry["unit"]
                    for entry in SPEC["end_to_end"]}
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                result = _run(name, trace=0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(
                    {key: value["unit"]
                     for key, value in result["metrics"].items()},
                    declared,
                )
                self.assertTrue(all(
                    value["value"] > 0 for value in result["metrics"].values()
                ))

    def test_traced_run_passes_with_the_declared_metrics(self):
        result = _run("evolve-lifecycle", trace=1, seconds=3)
        self.assertTrue(result["correct"])
        declared = [(entry["name"], entry["unit"], entry["better"])
                    for entry in SPEC["per_layer"]]
        self.assertEqual(declared, list(layers.PER_LAYER))
        self.assertEqual(
            [(key, value["unit"]) for key, value in result["metrics"].items()],
            [(name, unit) for name, unit, _ in declared],
        )
        self.assertGreater(result["metrics"]["engine.evolve_ms"]["value"], 0)


def _served(name: str) -> tuple:
    """A short real phase of workload *name*: the workload and its
    finished ``(unit, responses)`` pairs."""
    workload = workloads.make(name, 5)
    setup = workload.setup_units()
    streams = [workload.units(connection, 1.5)
               for connection in range(workload.connections)]
    server = harness.ServerProcess(workload.server_args)
    try:
        harness.run_phase(server, [setup])
        phase = harness.run_phase(server, streams, 1.5)
    finally:
        problems = server.stop()
    if problems:
        raise AssertionError(problems)
    return workload, phase.finished


class CorruptedResponses(unittest.TestCase):
    """One corrupted field of a real response must fail the check and
    name the request it came from."""

    @classmethod
    def setUpClass(cls):
        cls.served = {name: _served(name)[1] for name in workloads.WORKLOADS}

    def _corrupt(self, workload: str, kind: str, mutate, path: str):
        for unit, responses in self.served[workload]:
            for index, call in enumerate(unit.calls):
                status, body = responses[index]
                if call.kind != kind or status != 200:
                    continue
                document = json.loads(body)
                if not mutate(document):
                    continue
                self.assertEqual(unit.verify(responses), [])
                corrupted = list(responses)
                corrupted[index] = (status, json.dumps(document).encode())
                errors = unit.verify(corrupted)
                self.assertTrue(errors)
                self.assertTrue(
                    all(f"POST {path}" in error for error in errors), errors
                )
                self.assertTrue(harness.verify([(unit, corrupted)]))
                return
        self.fail(f"no {kind} response to corrupt")

    def test_verdict(self):
        def flip(document):
            document["consistent"] = not document["consistent"]
            return True

        self._corrupt("check-hot", "check", flip, "/check")

    def test_witness_text(self):
        def edit(document):
            document["witness"] += " "
            return True

        self._corrupt("check-hot", "check_witness", edit, "/check")

    def test_classification_string(self):
        def swap(document):
            if not document["impacts"]:
                return False
            impact = document["impacts"][0]
            text = impact["classification"]
            impact["classification"] = (
                text.replace("invariant", "variant")
                if "invariant" in text
                else text.replace("variant", "invariant")
            )
            return True

        self._corrupt("evolve-lifecycle", "evolve", swap, "/evolve")

    def test_migrate_count(self):
        def bump(document):
            counts = document["counts"]
            first = sorted(counts)[0]
            counts[first] += 1
            return True

        self._corrupt("fanout", "migrate", bump, "/migrate")


def _wire(workload, units: int = 40) -> bytes:
    parts = [call.wire for unit in workload.setup_units() for call in unit.calls]
    for connection in range(workload.connections):
        for unit in itertools.islice(workload.units(connection, 2), units):
            parts.extend(call.wire for call in unit.calls)
    return b"".join(parts)


class Determinism(unittest.TestCase):
    def test_request_sequence_is_a_function_of_the_seed(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first = _wire(workloads.make(name, 7))
                self.assertEqual(first, _wire(workloads.make(name, 7)))
                self.assertNotEqual(first, _wire(workloads.make(name, 8)))


if __name__ == "__main__":
    unittest.main()
