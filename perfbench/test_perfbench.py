"""Self-test of the benchmark itself, at tiny sizes.

    python3 perfbench/test_perfbench.py

It checks the tracer's self-time arithmetic on a hand-built span tree, the
scaling to reference speed on hand-built reference ticks, that
tracing changes no computed value, that every workload generator is bitwise
deterministic for a seed and changes with the seed, and that BENCHMARK.json
lists exactly the metrics run.py prints.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import calib  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import lahn.autodiff as lad  # noqa: E402
import lahn.data as ldata  # noqa: E402
import lahn.trainer as ltrainer  # noqa: E402


class SelfTimeArithmetic(unittest.TestCase):
    # index: 0 root [0, 100]; 1 A [10, 40] and 2 B [30, 60] overlap under the
    # root; 3 C [20, 25] under A; 4 D [50, 70] under B outlives B.
    STARTS = [0, 10, 30, 20, 50]
    ENDS = [100, 40, 60, 25, 70]
    PARENTS = [-1, 0, 0, 1, 2]

    def test_self_time_subtracts_union_of_children(self):
        got = tracer.self_times(self.STARTS, self.ENDS, self.PARENTS)
        # root: children cover [10, 60] once although A and B overlap
        # A: 30 - 5; B: 30 - 10, because D is clipped at 60; leaves keep all
        self.assertEqual(got, [50, 25, 20, 5, 20])

    def test_self_times_of_sequential_tree_sum_to_root(self):
        starts = [0, 5, 7, 30, 31, 60]
        ends = [100, 20, 9, 50, 49, 61]
        parents = [-1, 0, 1, 0, 3, 0]
        self.assertEqual(sum(tracer.self_times(starts, ends, parents)), 100)

    def test_subtree_of_maps_descendants_to_their_root(self):
        self.assertEqual(tracer.subtree_of(self.PARENTS, [1]), [-1, 1, -1, 1, -1])
        self.assertEqual(tracer.subtree_of(self.PARENTS, [0]), [0, 0, 0, 0, 0])


class TracingIsTransparent(unittest.TestCase):
    def test_traced_training_matches_untraced_and_patches_are_undone(self):
        train, val, _ = ldata.generate_confound_corpus(12, 1.0, 3)
        cfg = dict(objective="lahn", q=32, k=4, epochs=2, seed=5, batch_size=4)
        plain = ltrainer.run_training(ltrainer.TrainConfig(**cfg), train, val)
        originals = (ltrainer.forward, ltrainer.train_step, lad.Tape.backward, lad.matmul)
        rec = tracer.Recorder("trainer.train_step")
        with rec.installed():
            traced = ltrainer.run_training(ltrainer.TrainConfig(**cfg), train, val)
        self.assertEqual(
            workloads.canonical(plain.records), workloads.canonical(traced.records)
        )
        self.assertEqual(originals, (ltrainer.forward, ltrainer.train_step, lad.Tape.backward, lad.matmul))
        steps = [i for i, n in enumerate(rec.names) if n == "trainer.train_step"]
        self.assertEqual(len(steps), sum(1 for r in plain.records if "step" in r))
        self_ns = tracer.self_times(rec.starts, rec.ends, rec.parents)
        dur = [e - s for s, e in zip(rec.starts, rec.ends)]
        breakdown = run.train_step_breakdown(rec, steps, self_ns, dur)
        self.assertTrue(breakdown["sums_to_span"])
        self.assertGreater(rec.sampler_anchors, 0)
        self.assertEqual(len(rec.tape_entries), len(steps))
        self.assertGreater(rec.op_calls["total"], 0)

    def test_step_timer_counts_every_step(self):
        train, val, _ = ldata.generate_confound_corpus(8, 1.0, 0)
        timer = tracer.StepTimer()
        with timer.installed():
            result = ltrainer.run_training(ltrainer.TrainConfig(objective="ce", epochs=1), train, val)
        self.assertEqual(len(timer.steps), sum(1 for r in result.records if "step" in r))
        self.assertTrue(all(end > start for start, end, _ in timer.steps))


class ReferenceSpeed(unittest.TestCase):
    def reference(self, starts, durations):
        ref = calib.Reference()
        ref.starts, ref.durations = list(starts), list(durations)
        return ref

    def test_interval_is_divided_by_the_median_of_the_nearest_ticks(self):
        n = 2 * calib.WINDOW
        # slow ticks (2x) early, fast ticks (1x) late; 100 ns apart, 10 ns long
        durations = [2 * calib.REF_NS] * n + [calib.REF_NS] * n
        ref = self.reference(range(0, 200 * n, 100), durations)
        self.assertEqual(ref.speed(0), 2.0)
        self.assertEqual(ref.speed(200 * n), 1.0)
        self.assertEqual(ref.scaled_ns(10, 90), 40.0)
        self.assertEqual(ref.scaled_ns(200 * n - 90, 200 * n - 10), 80.0)

    def test_busy_time_leaves_out_ticks_and_scales_each_stretch(self):
        # two ticks with both in every window: the slowdown is their median
        self.assertEqual(self.reference([100, 200], [calib.REF_NS, 2 * calib.REF_NS]).speed(0), 1.5)
        # [50, 250] minus the ticks' [100, 110) and [200, 210): 180 ns of work
        ref = self.reference([100, 200], [10, 10])
        self.assertEqual(ref.busy_ns(50, 250, scaled=False), 180.0)
        self.assertEqual(ref.busy_ns(120, 150, scaled=False), 30.0)
        self.assertAlmostEqual(ref.busy_ns(50, 250), 180.0 * calib.REF_NS / 10)

    def test_tick_records_a_positive_duration_in_time_order(self):
        ref = calib.Reference()
        ref.tick_window()
        self.assertEqual(len(ref.durations), calib.WINDOW)
        self.assertTrue(all(d > 0 for d in ref.durations))
        self.assertEqual(ref.starts, sorted(ref.starts))


class GeneratorsAreSeeded(unittest.TestCase):
    def assert_seeded(self, make):
        a, b, c = make(7), make(7), make(8)
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)

    def test_wide_corpus(self):
        def make(seed):
            splits = workloads.generate_wide_corpus(seed, 20, 4, 4, n_types=500, lengths=(5, 12))
            return [[(e.text, e.label) for e in s] for s in splits]

        self.assert_seeded(make)

    def test_confound_corpus(self):
        def make(seed):
            return [[(e.text, e.label) for e in s] for s in ldata.generate_confound_corpus(8, 1.0, seed)]

        self.assert_seeded(make)

    def test_probe_split_and_request_schedule(self):
        self.assert_seeded(lambda seed: [(e.text, e.label) for e in workloads.probe_split(seed, 8)])
        self.assert_seeded(lambda seed: workloads.request_schedule(seed, 4096, 64))

    def test_confound_training_seeds(self):
        self.assert_seeded(lambda seed: workloads.ConfoundLahn(seed, ROOT).train_seeds)

    def test_wide_corpus_reaches_the_vocabulary_cap_with_a_balanced_label(self):
        train, _, _ = workloads.generate_wide_corpus(0)
        cfg = ltrainer.TrainConfig()
        vocab = ldata.build_vocab((e.text for e in train), cfg.min_freq, cfg.max_vocab)
        self.assertEqual(len(vocab), cfg.max_vocab)
        self.assertEqual(sum(e.label for e in train), len(train) // 2)


class MetricNames(unittest.TestCase):
    def test_benchmark_json_lists_what_run_prints(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            run.per_layer_units(tracer.SPAN_KINDS, tracer.AUTODIFF_OPS),
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOAD_NAMES))
        self.assertEqual(sorted(run.WORKLOAD_NAMES), sorted(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
