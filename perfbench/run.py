#!/usr/bin/env python3
"""Run one lahn benchmark workload and print its metrics.

    python3 perfbench/run.py --workload confound-lahn --seed 0 --seconds 30 --trace 0

Run it from anywhere; it imports lahn from ``src/`` next to this directory
and writes scratch files only under ``.perfbench_work/`` there, which it
deletes on exit. The last line of standard output is the result object
(``correct``, ``attempted``, ``failed``, ``metrics``): the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it is a report with the environment, the loss digest, the
checks and every metric under the names perfbench/README.md lists.
"""

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median, quantiles

# main() pins BLAS and OpenMP to one thread before numpy is imported: with
# default threading, identical runs on two cores differ by up to half in
# step time.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("confound-lahn", "wide-vocab-scl", "eval-probe")

# Set-up runs SETUP_MIN_REPS times before the first unit, then again between
# units whenever another 1/SETUP_SPREAD of --seconds has passed; setup_s is
# the median rep at reference speed (see Run.end_to_end).
SETUP_MIN_REPS, SETUP_SPREAD = 3, 12
# No unit starts after this many seconds of measuring, whatever --seconds
# says, so a run ends well inside three minutes.
HARD_STOP_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "examples_per_s": "1/s",
    "test_macro_f1": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units(span_kinds, autodiff_ops) -> dict[str, str]:
    """Name -> unit of every per-layer metric on the result line.

    Only counts and ratios go there, so a layer that does not run on a
    workload honestly reads 0; per-call times, which have no value for an
    absent layer, are in the report line.
    """
    units = {}
    for kind in span_kinds:
        units[kind + ".calls_per_op"] = "count"
        units[kind + ".self_share"] = "ratio"
    units["data.vocab_size"] = "count"
    units["autodiff.tape_entries_per_step"] = "count"
    for op in (*autodiff_ops, "total"):
        units["autodiff.calls_per_step." + op] = "count"
    units["sampler.candidates_per_anchor"] = "count"
    units["sampler.selected_per_anchor"] = "count"
    units["sampler.selected_over_candidates"] = "ratio"
    units["sampler.empty_anchor_frac"] = "ratio"
    units["trainer.warmup_steps"] = "count"
    units["fileio.bytes_per_op"] = "B"
    units["trace_overhead_frac"] = "ratio"
    return units


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def percentile(values, q: float) -> float:
    return quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(np),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        **git_state(),
    }


def blas_threads(np):
    """Thread count reported by numpy's bundled OpenBLAS, if it has one."""
    import ctypes

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def git_state() -> dict:
    """HEAD and dirty flag of the checkout, or nulls outside a git checkout."""
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": None, "git_dirty": None}
    if sha.returncode or status.returncode:
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha.stdout.strip(), "git_dirty": bool(status.stdout.strip())}


def digest(obj, canonical) -> str:
    return hashlib.sha256(canonical(obj)).hexdigest()


class Run:
    """One workload run: set-up reps, the closed loop of units, the checks."""

    def __init__(self, wl, tracer, canonical, seconds: float, reference=None):
        """``reference`` (a calib.Reference) makes the untraced run that
        measures end-to-end times; without it the run is the traced one."""
        self.wl = wl
        self.canonical = canonical
        self.seconds = seconds
        self.ref = reference
        self.traced = reference is None
        # training ticks the reference before each step, eval-probe before each request
        tick = reference.tick if reference is not None and wl.kind == "train" else None
        self.timer = tracer.StepTimer(before=tick)
        self.rec = tracer.Recorder(wl.op_kind) if self.traced else None
        self.setup_spans: list[tuple[int, int]] = []  # (start_ns, end_ns) of each set-up rep
        self.units: list[dict | None] = []  # per unit i, None when it failed
        self.checks: dict[str, bool] = {}
        self.problems: list[str] = []
        self.failed_units = 0

    @contextlib.contextmanager
    def _recording(self, root: str):
        with self.rec.installed(), self.rec.span(root):
            yield

    def _call_span(self):
        return self.rec.span("bench.call") if self.rec is not None else contextlib.nullcontext()

    def do_setup(self) -> None:
        for _ in range(SETUP_MIN_REPS):
            self.setup_rep()
        self.check("after_setup", self.wl.after_setup())

    def setup_rep(self) -> None:
        # every rep starts from the same heap: the last rep's state freed, garbage collected
        self.wl.release()
        gc.collect()
        if self.ref is not None:
            self.ref.tick_window()
        with self._recording("bench.setup") if self.traced else contextlib.nullcontext():
            t0 = time.perf_counter_ns()
            self.wl.setup()
            self.setup_spans.append((t0, time.perf_counter_ns()))
        if self.ref is not None:
            self.ref.tick_window()

    def check(self, name: str, problems: list[str]) -> None:
        self.checks[name] = not problems
        self.problems += [f"{name}: {p}" for p in problems]

    def _one_unit(self, i: int, traced: bool):
        if self.ref is not None and self.wl.kind == "eval":
            self.ref.tick()
        n0 = len(self.timer.steps)
        t0 = time.perf_counter_ns()
        if traced:
            with self._recording("bench.unit"):
                res = self.wl.unit(i, self._call_span)
        else:
            with self.timer.installed():
                res = self.wl.unit(i, contextlib.nullcontext)
        return res, time.perf_counter_ns() - t0, self.timer.steps[n0:]

    def loop(self) -> None:
        began = time.perf_counter()
        refs: dict[int, bytes] = {}
        setup_period = self.seconds / SETUP_SPREAD
        next_setup = began + setup_period
        i = 0
        while True:
            elapsed = time.perf_counter() - began
            if elapsed >= HARD_STOP_S or (i >= self.wl.min_units and elapsed >= self.seconds):
                break
            if time.perf_counter() >= next_setup:
                self.setup_rep()
                next_setup += setup_period
            try:
                res, unit_ns, steps = self._one_unit(i, traced=False)
                unit = {"res": res, "steps": steps, "unit_ns": unit_ns}
                problems = list(res.problems)
                if self.traced:
                    res_t, unit_ns_t, _ = self._one_unit(i, traced=True)
                    unit["traced_unit_ns"] = unit_ns_t
                    problems += res_t.problems
                    if self.canonical(res_t.outputs) != self.canonical(res.outputs):
                        problems.append("traced outputs differ from untraced outputs")
                if self.wl.period:
                    key = self.canonical(res.outputs["records"])
                    ref = refs.setdefault(i % self.wl.period, key)
                    if key != ref:
                        problems.append(f"unit {i} does not repeat unit {i % self.wl.period} bit for bit")
            except Exception:
                traceback.print_exc(file=sys.stderr)
                problems, unit = ["raised; traceback on stderr"], None
            if problems:
                self.failed_units += 1
                self.problems += [f"unit {i}: {p}" for p in problems]
            self.units.append(unit if not problems else None)
            i += 1
        if i < self.wl.min_units:
            self.check("min_units", [f"only {i} of {self.wl.min_units} units ran before the hard stop"])

    def finish(self) -> dict:
        needed = self.units[: self.wl.min_units]
        if len(needed) < self.wl.min_units or None in needed:
            self.check("finish", ["a unit that the quality metrics and digests need failed"])
            return {}
        outputs = [u["res"].outputs for u in self.ok_units]
        try:
            fin = self.wl.finish(outputs)
        except (IndexError, KeyError, ValueError) as e:
            self.check("finish", [f"{type(e).__name__}: {e}"])
            return {}
        fin["loss_digest"] = digest(fin.pop("loss_records"), self.canonical)
        if "output_records" in fin:
            fin["output_digest"] = digest(fin.pop("output_records"), self.canonical)
        return fin

    @property
    def ok_units(self) -> list[dict]:
        return [u for u in self.units if u is not None]

    def op_spans(self) -> list[tuple[int, int, int]]:
        """(start_ns, end_ns, examples) of every op of the successful units:
        each train_step on the training workloads, each request on eval-probe."""
        if self.wl.kind == "train":
            return [step for u in self.ok_units for step in u["steps"]]
        return [(u["res"].call_start_ns, u["res"].call_end_ns, u["res"].examples) for u in self.ok_units]

    def end_to_end(self, fin: dict) -> tuple[dict, dict]:
        """(result-line metrics, the report's section with the long metric names).

        Every time is taken over the whole run and put at reference speed
        (calib.py): the machine this was built on runs the same code at
        speeds up to 2x apart, switching within seconds with other
        tenants' load, so raw whole-run medians followed the share of slow
        seconds (quartile spread over ten seeds up to 0.42). The raw figures
        are in the report under ``raw``.
        """
        ref = self.ref
        ops = self.op_spans()
        if self.wl.kind == "train":
            # run_training's wall time less its own set-up, which ends where the first step starts
            busy = [(u["steps"][0][0], u["res"].call_end_ns) for u in self.ok_units]
        else:
            busy = [(s, e) for s, e, _ in ops]
        examples = sum(n for _, _, n in ops)

        def figures(op_ns, busy_ns, setup_ns):
            op_ms = [x / 1e6 for x in op_ns]
            return {
                "setup_s": median(setup_ns) / 1e9,
                "op_ms_p50": median(op_ms),
                "op_ms_p90": percentile(op_ms, 90),
                "examples_per_s": examples / (busy_ns / 1e9),
            }

        metrics = figures(
            [ref.scaled_ns(s, e) for s, e, _ in ops],
            sum(ref.busy_ns(a, b) for a, b in busy),
            [ref.scaled_ns(a, b) for a, b in self.setup_spans],
        )
        raw = figures(
            [e - s for s, e, _ in ops],
            sum(ref.busy_ns(a, b, scaled=False) for a, b in busy),
            [b - a for a, b in self.setup_spans],
        )
        metrics["test_macro_f1"] = fin["test_macro_f1"]
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        named_ops = (
            ("step_ms_p50", "step_ms_p90", "train_examples_per_s")
            if self.wl.kind == "train"
            else ("eval_request_ms_p50", "eval_request_ms_p90", "eval_examples_per_s")
        )
        named = {
            "setup_s": (metrics["setup_s"], "s"),
            named_ops[0]: (metrics["op_ms_p50"], "ms"),
            named_ops[1]: (metrics["op_ms_p90"], "ms"),
            named_ops[2]: (metrics["examples_per_s"], "1/s"),
            "test_macro_f1": (metrics["test_macro_f1"], "ratio"),
            "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
        }
        if "identity_fpr" in fin:
            named["identity_fpr"] = (fin["identity_fpr"], "ratio")
        samples = {
            "ops": len(ops),
            "units": len(self.ok_units),
            "setup_reps": len(self.setup_spans),
            "reference_ticks": len(ref.durations),
        }
        # set-up alone runs 2 * 8 ticks per rep, so there are always enough for quartiles
        slow = ref.slowdowns()
        machine = {"slowdown_min": min(slow), "slowdown_quartiles": quantiles(slow, n=4), "slowdown_max": max(slow)}
        return metrics, {"named": named, "samples": samples, "raw": raw, "machine": machine}


def layer_report(run: Run, tracer) -> tuple[dict, dict]:
    """(result-line per-layer metrics, the report's per-layer section)."""
    rec = run.rec
    n = len(rec.names)
    self_ns = tracer.self_times(rec.starts, rec.ends, rec.parents)
    dur = [rec.ends[i] - rec.starts[i] for i in range(n)]
    units = [i for i in range(n) if rec.names[i] == "bench.unit"]
    in_unit = [o >= 0 for o in tracer.subtree_of(rec.parents, units)]
    op_spans = [i for i in range(n) if rec.names[i] == run.wl.op_kind and in_unit[i]]
    ops = len(op_spans)
    unit_ns = sum(dur[i] for i in units)
    by_kind: dict[str, list[int]] = {}
    for i in range(n):
        by_kind.setdefault(rec.names[i], []).append(i)

    metrics, named, absent = {}, {}, []
    for kind in tracer.SPAN_KINDS:
        spans = by_kind.get(kind, [])
        mine = [i for i in spans if in_unit[i]]
        metrics[kind + ".calls_per_op"] = len(mine) / ops
        metrics[kind + ".self_share"] = sum(self_ns[i] for i in mine) / unit_ns
        if not spans:
            absent.append(kind)
        named[kind + "_ms"] = (median(dur[i] for i in spans) / 1e6 if spans else None, "ms")
        named[kind + ".calls_per_op"] = (len(mine) / ops, "count")
        named[kind + ".self_ms_per_op"] = (sum(self_ns[i] for i in mine) / ops / 1e6, "ms")

    steps = by_kind.get("trainer.train_step", [])
    named["trainer.train_step_self_ms"] = (median(self_ns[i] for i in steps) / 1e6 if steps else None, "ms")
    runs = by_kind.get("trainer.run_training", [])
    epochs = run.wl.config(0).epochs if run.wl.kind == "train" else None
    named["trainer.run_training_self_ms"] = (
        median(self_ns[i] / epochs for i in runs) / 1e6 if runs else None,
        "ms per epoch",
    )
    sampled_steps = {rec.parents[i] for i in by_kind.get("sampler.sample_for_batch", [])}
    warmups = []
    for r in runs:
        mine = [i for i in steps if rec.parents[i] == r]
        first = next((k for k, i in enumerate(mine) if i in sampled_steps), 0)
        warmups.append(first)
    metrics["trainer.warmup_steps"] = median(warmups) if warmups else 0
    metrics["data.vocab_size"] = max(rec.vocab_sizes, default=0)
    tape = rec.tape_entries
    metrics["autodiff.tape_entries_per_step"] = sum(tape) / len(tape) if tape else 0
    for op in (*tracer.AUTODIFF_OPS, "total"):
        metrics["autodiff.calls_per_step." + op] = rec.op_calls.get(op, 0) / ops
    anchors, cand = rec.sampler_anchors, rec.sampler_candidates
    metrics["sampler.candidates_per_anchor"] = cand / anchors if anchors else 0
    metrics["sampler.selected_per_anchor"] = rec.sampler_selected / anchors if anchors else 0
    metrics["sampler.selected_over_candidates"] = rec.sampler_selected / cand if cand else 0
    metrics["sampler.empty_anchor_frac"] = rec.sampler_empty / anchors if anchors else 0
    metrics["fileio.bytes_per_op"] = rec.bytes_written / ops
    traced_ns = sum(u["traced_unit_ns"] for u in run.ok_units)
    untraced_ns = sum(u["unit_ns"] for u in run.ok_units)
    metrics["trace_overhead_frac"] = traced_ns / untraced_ns - 1.0

    units_of = per_layer_units(tracer.SPAN_KINDS, tracer.AUTODIFF_OPS)
    for name in units_of:
        if not name.endswith((".calls_per_op", ".self_share")):
            named[name] = (metrics[name], units_of[name])
    named["fileio.bytes_written"] = named.pop("fileio.bytes_per_op")
    named["fileio.calls"] = named["fileio.atomic_write.calls_per_op"]
    section = {
        "layers": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "absent": absent,
        "ops": ops,
        "train_step_breakdown": train_step_breakdown(rec, steps, self_ns, dur),
    }
    return metrics, section


def train_step_breakdown(rec, steps, self_ns, dur) -> dict | None:
    """Mean self ms per step of every span kind under trainer.train_step.

    The self times of a step's subtree add up to the step's duration
    exactly (integer nanoseconds); ``sums_to_span`` records that.
    """
    if not steps:
        return None
    owner = {i: i for i in steps}
    totals: dict[str, int] = {}
    for i in range(min(steps), len(rec.names)):
        o = owner.get(rec.parents[i]) if i not in owner else i
        if o is None:
            continue
        owner[i] = o
        totals[rec.names[i]] = totals.get(rec.names[i], 0) + self_ns[i]
    span_ns = sum(dur[i] for i in steps)
    return {
        "self_ms_per_step": {k: v / len(steps) / 1e6 for k, v in sorted(totals.items())},
        "train_step_ms_mean": span_ns / len(steps) / 1e6,
        "sums_to_span": sum(totals.values()) == span_ns,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if "numpy" in sys.modules:
        print("error: numpy was imported before its thread count could be pinned", file=sys.stderr)
        return 2
    os.environ.update({var: "1" for var in THREAD_VARS})
    if not (SRC / "lahn" / "__init__.py").is_file():
        print(f"error: lahn sources not found at {SRC / 'lahn'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import calib
    import tracer
    import workloads

    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        reference = None if args.trace else calib.Reference()
        run = Run(wl, tracer, workloads.canonical, args.seconds, reference)
        run.do_setup()
        run.loop()
        fin = run.finish()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".perfbench_work").rmdir()
    if not run.ok_units or not fin:
        print("error: no unit of work succeeded; nothing to report", file=sys.stderr)
        for p in run.problems:
            print("  " + p, file=sys.stderr)
        return 1

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(np),
        **{k: v for k, v in fin.items() if k.endswith("_digest") or k == "vocab_size"},
    }
    if args.trace:
        metrics, section = layer_report(run, tracer)
        breakdown = section["train_step_breakdown"]
        if breakdown is not None:
            run.check("train_step_self_times_sum_to_span", [] if breakdown["sums_to_span"] else ["mismatch"])
        units = per_layer_units(tracer.SPAN_KINDS, tracer.AUTODIFF_OPS)
        report.update(section)
    else:
        metrics, section = run.end_to_end(fin)
        units = END_TO_END_UNITS
        report.update(section)
    attempted = len(run.units) + len(run.checks)
    failed = run.failed_units + sum(not ok for ok in run.checks.values())
    report["failed_frac"] = failed / attempted
    report["checks"] = run.checks
    report["problems"] = run.problems
    print(json.dumps({"report": report}, default=float))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
