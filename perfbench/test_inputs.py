#!/usr/bin/env python3
"""Seed test of the pipeline benchmark: one seed gives byte-identical
inputs, two seeds give identical structural counts (and different inputs).

    python3 perfbench/test_inputs.py

Builds the benchmark like run.py does, then compares the serialized inputs
of every workload across processes, and the model sizes one traced pass
of each workload reports for two seeds (about 15 s once built).
"""

import json
import subprocess
import unittest

import run


class SeedTest(unittest.TestCase):
    binary = None

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def inputs(self, workload, seed):
        out = subprocess.run(
            [self.binary, "--workload", workload, "--seed", str(seed), "--inputs", "--dump",
             "--root", run.ROOT],
            stdout=subprocess.PIPE, check=True, timeout=120).stdout
        end = out.rstrip(b"\n")
        cut = end.rfind(b"\n") + 1  # the inputs line follows the dumped bytes
        return out[:cut], json.loads(end[cut:])["inputs"]

    def test_one_seed_gives_identical_bytes(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first, described = self.inputs(workload, 7)
                second, _ = self.inputs(workload, 7)
                self.assertGreater(len(first), 0)
                self.assertEqual(first, second)
                self.assertEqual(described["bytes"], len(first))

    def test_two_seeds_give_identical_structural_counts(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                _, a = self.inputs(workload, 7)
                _, b = self.inputs(workload, 8)
                self.assertEqual(a["counts"], b["counts"])
                self.assertNotEqual(a["content_hash"], b["content_hash"])

    def test_two_seeds_build_models_of_identical_size(self):
        structural = ("ftwc.uimc_states", "core.ctmdp_states", "core.ctmdp_transitions",
                      "core.words_deduplicated", "lang.product_states", "dft.product_states",
                      "bisim.states_out")
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                sizes = []
                for seed in (7, 8):
                    out = subprocess.run(
                        [self.binary, "--workload", workload, "--seed", str(seed),
                         "--seconds", "0.001", "--trace", "1", "--root", run.ROOT],
                        stdout=subprocess.PIPE, check=True, timeout=170, text=True).stdout
                    result = json.loads(out.rstrip("\n").split("\n")[-1])
                    self.assertTrue(result["correct"])
                    sizes.append({k: result["metrics"][k]["value"] for k in structural})
                self.assertEqual(sizes[0], sizes[1])


if __name__ == "__main__":
    unittest.main()
