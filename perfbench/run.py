"""Benchmark for mclie: time to verdict on four seeded CLI workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each op is one ``mclie`` command, run
in this process through ``mclie.cli.main(argv)`` with stdout captured;
there are no extra threads or processes.  Every op is checked: exit code
0, no traceback, hand-derived answers where the mathematics gives one,
and the SHA-256 of the text report and of the ``--json`` payload against
``expected.json``.

``--trace 0`` repeats the workload's list of ops (a round) for about S
seconds and reports the end-to-end metrics: setup_s (median over rounds
of importing mclie and generating the inputs), batch_s (mean round
time), op_p50_s (median op time) and peak_rss_mb.  The three times are
in seconds at a reference host speed (see hostspeed.py); the raw wall
times are printed on ``#`` lines.  ``--trace 1`` runs one round untraced,
one with spans around the public mclie functions and one that counts the
calls of the hottest ones (see tracer.py), and reports the per-layer
metrics of BENCHMARK.json, including the tracing overhead; spans go to
perfbench/_work/spans-WORKLOAD.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
WORK_ROOT = "perfbench/_work"

import hostspeed  # noqa: E402  (lives next to this file)
import workloads  # noqa: E402
from workloads import JSON_OUT, WORK, Op  # noqa: E402


class SetupError(Exception):
    pass


def import_mclie():
    """Import mclie.cli from this checkout's src/, dropping any copy
    already imported, and return its main()."""
    if not os.path.isfile(os.path.join(SRC, "mclie", "cli.py")):
        raise SetupError("no mclie sources under %s" % SRC)
    for name in [n for n in sys.modules if n == "mclie" or n.startswith("mclie.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    cli = importlib.import_module("mclie.cli")
    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != SRC:
        raise SetupError("imported mclie from %s, not from %s" % (cli.__file__, SRC))
    return cli.main


@contextlib.contextmanager
def work_dir(label: str):
    """A work directory of this process's own, relative to ROOT, removed
    on exit; ops find it where their command lines say WORK."""
    path = "%s/%s-%d" % (WORK_ROOT, label, os.getpid())
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def setup(workload: str, seed: int, work: str):
    """Import mclie and generate the seeded inputs; returns (main, ops)."""
    return import_mclie(), workloads.make_ops(workload, seed, work)


def plain_mark() -> tuple[float, float]:
    """A clock mark as hostspeed.Sampler.mark gives it, with no probes."""
    return time.perf_counter(), 0.0


def raw_seconds(start, end) -> float:
    return (end[0] - start[0]) - (end[1] - start[1])


def digest(data: str, op: Op, work: str) -> str:
    """SHA-256 of a report, with the work directory and the op's seeded
    inputs masked."""
    data = data.replace(work, WORK)
    for old, new in op.masks.items():
        data = data.replace(old, new)
    return hashlib.sha256(data.encode()).hexdigest()


def execute(main, op: Op, work: str, tracer=None, op_id=0, mark=plain_mark):
    """Run one op; returns ((start, end) clock marks, exit code, stdout,
    stderr, json text).  With a tracer, the op is one root span."""
    json_out = JSON_OUT.replace(WORK, work)
    if os.path.exists(json_out):
        os.remove(json_out)
    argv = [a.replace(WORK, work) for a in op.argv]
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.begin_op(op_id)
    start = mark()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception:
            traceback.print_exc()
            rc = None
    end = mark()
    if tracer is not None:
        tracer.end_op()
    payload = None
    if os.path.exists(json_out):
        with open(json_out) as f:
            payload = f.read()
    return (start, end), rc, out.getvalue(), err.getvalue(), payload


def failure(op: Op, work: str, rc, text: str, err: str, payload, expected: dict):
    """Why the op failed, or None when every check passes."""
    if rc == 3:
        return "resource cap (exit 3): %s" % err.strip()
    if rc != 0:
        return "exit code %r: %s" % (rc, err.strip()[-500:])
    if "Traceback" in err:
        return "traceback on stderr"
    reason = op.check(text)
    if reason:
        return reason
    want = expected.get(op.key)
    if want is None:
        return "no expected digest for %r" % op.key
    if payload is None:
        return "no --json payload written"
    got = {"text": digest(text, op, work), "json": digest(payload, op, work)}
    if got != want:
        return "report digest differs from expected.json"
    return None


@dataclass
class Round:
    op_marks: list[tuple]  # (start, end) clock marks of each op
    failures: list[str]

    @property
    def seconds(self) -> float:
        """Raw time of the ops, without the checks between them."""
        return sum(raw_seconds(a, b) for a, b in self.op_marks)


def run_round(main, ops, work, expected, tracer=None, mark=plain_mark) -> Round:
    op_marks, failures = [], []
    for i, op in enumerate(ops):
        marks, rc, text, err, payload = execute(main, op, work, tracer, i, mark)
        op_marks.append(marks)
        why = failure(op, work, rc, text, err, payload, expected)
        if why:
            failures.append("%s: %s" % (" ".join(op.argv), why))
    return Round(op_marks, failures)


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(workload, seed, seconds, work, expected):
    """Run rounds for about `seconds`, setting up again before each round,
    with the host's speed sampled throughout.

    setup_s is the median of the set-ups, one per round; batch_s the mean
    round time; op_p50_s the median of all op times.  Each is scaled to the
    reference speed by the probes taken during it (hostspeed.py): the
    host's speed changes by 2x and more in phases from under a second to
    minutes, and raw times of whole runs spread 8-33% between runs.
    """
    setup_marks, rounds = [], []
    start = time.perf_counter()
    with hostspeed.Sampler() as sampler:
        while True:
            before = sampler.mark()
            main, ops = setup(workload, seed, work)
            setup_marks.append((before, sampler.mark()))
            rounds.append(run_round(main, ops, work, expected, mark=sampler.mark))
            typical = statistics.median(r.seconds for r in rounds)
            if time.perf_counter() - start + typical > seconds:
                break

    def scaled(marks):
        return [sampler.scaled(a, b)[0] for a, b in marks]

    op_scaled = [scaled(r.op_marks) for r in rounds]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": metric(statistics.median(scaled(setup_marks)), "s"),
        "batch_s": metric(statistics.fmean(sum(times) for times in op_scaled), "s"),
        "op_p50_s": metric(statistics.median(t for times in op_scaled for t in times), "s"),
        "peak_rss_mb": metric(peak_kib / 1024.0, "MiB"),
    }
    raw_ops = [raw_seconds(a, b) for r in rounds for a, b in r.op_marks]
    notes = ["%d rounds of %d ops (%d op samples), %d set-ups" % (
        len(rounds), len(ops), len(raw_ops), len(setup_marks)),
        "raw wall time: setup %.4f s, batch %.4f s, op p50 %.4f s" % (
            statistics.median(raw_seconds(a, b) for a, b in setup_marks),
            statistics.fmean(r.seconds for r in rounds), statistics.median(raw_ops)),
        "%d host-speed probes, mean %.3f ms (reference %.3f ms)" % (
            len(sampler.durations), 1e3 * statistics.fmean(sampler.durations),
            1e3 * hostspeed.NOMINAL)]
    return rounds, metrics, notes


def per_layer_names():
    with open(BENCHMARK) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)["per_layer"]]


def layer_value(name: str, tracer):
    """A per-layer metric of BENCHMARK.json, computed from its name:
    layer.<module>.self_s from the module totals, <function>.calls and
    <function>.self_s from the wrappers' stats, and any other name from
    the tracer's hooks."""
    function, field = name.rsplit(".", 1)
    if name.startswith("layer.") and field == "self_s":
        return tracer.layer_self_s()[function[len("layer."):]]
    if field in ("calls", "self_s") and function in tracer.stats:
        return tracer.calls(function) if field == "calls" else tracer.self_s(function)
    if name in tracer.extra:
        return tracer.extra[name]
    raise SetupError("per-layer metric %s names nothing the tracer measures" % name)


def traced(workload, seed, work, expected):
    """Three rounds of the same ops: untraced, traced with spans, and one
    that only counts the calls of the HOT functions (see tracer.py).  The
    first two sample the host's speed, and their times and the self times
    are scaled to the reference speed."""
    from tracer import Tracer

    names = per_layer_names()
    main, ops = setup(workload, seed, work)
    with hostspeed.Sampler() as sampler:
        base = run_round(main, ops, work, expected, mark=sampler.mark)
    tracer = Tracer()
    tracer.install()
    try:
        with hostspeed.Sampler(on_probe=tracer.exclude) as traced_sampler:
            run = run_round(main, ops, work, expected, tracer, traced_sampler.mark)
    finally:
        tracer.uninstall()
    tracer.install(hot=True)
    try:
        counted = run_round(main, ops, work, expected)
    finally:
        tracer.uninstall()
    base_s = sum(sampler.scaled(a, b)[0] for a, b in base.op_marks)
    run_s = sum(traced_sampler.scaled(a, b)[0] for a, b in run.op_marks)
    tracer.time_scale = run_s / run.seconds
    direct = {"trace.batch_s": run_s, "trace.overhead_s": run_s - base_s,
              "trace.spans": len(tracer.spans)}
    metrics = {name: metric(direct[name] if name in direct else layer_value(name, tracer), unit)
               for name, unit in names}
    spans_path = "%s/spans-%s.json" % (WORK_ROOT, workload)
    tracer.write_spans(spans_path)
    self_total = sum(tracer.layer_self_s().values())
    notes = ["untraced batch %.3f s, traced batch %.3f s (raw %.3f s, %.3f s)" % (
        base_s, run_s, base.seconds, run.seconds),
        "self times add up to %.3f s, %+.1f%% of the untraced batch" % (
            self_total, 100.0 * (self_total / base_s - 1.0)),
        "wrapper cost %.0f ns inside, %.0f ns outside" % tuple(1e9 * c for c in tracer.cost),
        "%d spans in %s" % (len(tracer.spans), spans_path)]
    return [base, run, counted], metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    try:
        with open(EXPECTED) as f:
            expected = json.load(f)
        with work_dir(args.workload) as work:
            if args.trace:
                rounds, metrics, notes = traced(args.workload, args.seed, work, expected)
            else:
                rounds, metrics, notes = untraced(args.workload, args.seed, args.seconds,
                                                  work, expected)
    except (SetupError, ImportError, OSError) as e:
        print("benchmark set-up failed: %s" % e, file=sys.stderr)
        return 2

    attempted = sum(len(r.op_marks) for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    for f in failures[:20]:
        print("FAILED %s" % f, file=sys.stderr)
    print("# %s seed=%d trace=%d: %s" % (args.workload, args.seed, args.trace, "; ".join(notes)))
    print("# fail_ratio = %d/%d" % (len(failures), attempted))
    for name, m in metrics.items():
        print("# %-48s %14.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
