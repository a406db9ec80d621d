"""Layered verdict benchmark for fourfold.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
`src`.  `--workload all` runs the four workloads in turn.  Workloads
(inputs in workloads.py, metrics in BENCHMARK.json):

  thmA-search  certify over criteria 1 and 4: the Theorem A class search
  thmB-family  certify over criteria 2, 3 and the undisputed criterion-5
               negatives: charpoly families and the scenario rejections
  spinc-list   in-process `cli.main(["spinc", ...])`: every class printed
  cli-cold     one `python -m fourfold.cli` child at a time

Every workload is a closed loop with one client.  The seed makes the
inputs; the package sees only the generated expressions.  The timed phase
runs whole blocks of the seeded cycle until --seconds have passed and every
input has run at least once.  Each output is checked against a known
answer (oracle.py), and every repeat of an input must give the same bytes.

Times are scaled to reference speed.  On a small shared machine the speed
of a core changes by up to 2x from one second to the next, so raw wall
times of two runs of the same code differ by far more than any bound
worth setting.  Just before each timed operation the run moves to the
CPU that runs a fixed pure-Python loop fastest at that moment, and the
operation's time is multiplied by REF_MS over the loop's time there.  The
unscaled times are printed too.

--trace 0 prints the end-to-end metrics.  Set-up (import, input generation,
and the warm-up that fills the per-atom candidate tables on the library
workloads) is repeated SETUPS times and its median reported; the last set-up
is the one measured.  For cli-cold, set-up writes the class-data files and
runs one child that imports the package, so bytecode exists before timing.

--trace 1 prints the per-layer metrics: it runs whole cycles with every
public function of the package wrapped by a span recorder (spans.py) for
half of --seconds, then the same blocks untraced, and reports per-input
layer figures plus the overhead, traced minus untraced.  On cli-cold both
sides run the command through tracechild.py, with and without recording.
Spans, and the cost-versus-size series by input tags, go to perfbench/out/.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import spans as spanlib
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUPS = 9
PROBES = 5
CHILD_TIMEOUT = 60
SPAN_CAP = 500_000
# reference_ms() on an idle core of the 2-vCPU Intel Xeon VM the benchmark
# was tuned on; scaled times read as ms on that core
REF_MS = 0.32
# CPUs a timed operation may move to (see speed_scale)
CPUS = sorted(os.sched_getaffinity(0))[:4] \
    if hasattr(os, "sched_getaffinity") else []


# ------------------------------------------------------- reference speed

def _loop_ms():
    t0 = time.perf_counter_ns()
    acc = {}
    for i in range(1500):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + len(str(i))
    return (time.perf_counter_ns() - t0) / 1e6


def reference_ms():
    """Best of three runs of a fixed pure-Python loop, with the GC off.

    Taking the best run keeps a preemption or a collection that lands in
    one run from passing for a slow CPU.
    """
    gc.disable()
    try:
        return min(_loop_ms() for _ in range(3))
    finally:
        gc.enable()


def speed_scale():
    """Move to the fastest of CPUS now; REF_MS over its reference time there.

    Each CPU of a small shared machine flips between full and about half
    speed every second or so, on its own.  Taking the faster CPU before
    every timed operation keeps most operations at full speed, where the
    scaling is most exact; children inherit the CPU.
    """
    if len(CPUS) < 2:
        return REF_MS / reference_ms()
    times = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        times[cpu] = reference_ms()
    best = min(times, key=times.get)
    os.sched_setaffinity(0, {best})
    return REF_MS / times[best]


def timed(fn):
    """Run fn(): (result, unscaled seconds, scale).

    The scale averages speed_scale() just before the call and the same
    CPU's REF_MS over reference time just after it: a call of a few
    hundred ms can see its CPU change speed, and the mean of both ends
    tracks that better than either end alone.
    """
    before = speed_scale()
    t0 = time.perf_counter()
    result = fn()
    took = time.perf_counter() - t0
    return result, took, (before + REF_MS / reference_ms()) / 2


# ---------------------------------------------------------------- timing

class Phase:
    """Latencies and outputs of one closed-loop phase."""

    def __init__(self):
        self.latencies_ns = []  # unscaled
        self.scales = []        # scale of each input, as timed() gives it
        self.runs = []          # case id of each timed input, in order
        self.outputs = {}       # case id -> first (exit code, output bytes)
        self.mismatched = []    # runs whose output differs from the first
        self.elapsed = 0.0
        self.blocks = 0

    def scaled_ms(self):
        return [ns * s / 1e6 for ns, s in zip(self.latencies_ns, self.scales)]


def run_phase(cases, op, block, until, recorder=None):
    """Closed loop over whole blocks of the cycle `cases`.

    Stops after the first block at which `until(phase, elapsed seconds)`
    holds.  With a recorder, each input's spans carry its run index.
    """
    phase = Phase()
    gc.collect()
    start = time.perf_counter()
    while True:
        base = phase.blocks * block % len(cases)
        for case in cases[base:base + block]:
            if recorder is not None:
                recorder.input_id = len(phase.runs)

            def one():
                try:
                    return op(case)
                except Exception as exc:  # a raised input is a failed input
                    return None, f"raised {exc!r}".encode()

            result, took, scale = timed(one)
            phase.latencies_ns.append(took * 1e9)
            phase.scales.append(scale)
            first = phase.outputs.setdefault(case.id, result)
            if result != first:
                phase.mismatched.append(len(phase.runs))
            phase.runs.append(case.id)
        phase.blocks += 1
        if until(phase, time.perf_counter() - start):
            break
    phase.elapsed = time.perf_counter() - start
    return phase


def failed_runs(cases, phase):
    """Run indices that raised, exited wrongly or missed their known answer."""
    reasons = {cid: oracle.check(cases[cid], *out)
               for cid, out in phase.outputs.items()}
    for cid, reason in sorted(reasons.items()):
        if reason:
            print(f"FAIL case {cid} {cases[cid].text!r}: {reason}",
                  file=sys.stderr)
    bad = {i for i, cid in enumerate(phase.runs) if reasons[cid]}
    return bad | set(phase.mismatched)


def digest(cases, phase):
    """sha256 over every input of the cycle, its exit code and its output."""
    h = hashlib.sha256()
    for case in cases:
        code, out = phase.outputs[case.id]
        h.update(f"{case.id}\t{case.text}\t{code}\n".encode())
        h.update(out)
        h.update(b"\n")
    return h.hexdigest()


# ------------------------------------------------------ library workloads

def load_package():
    """Import fourfold afresh, as a new process would."""
    for name in [n for n in sys.modules
                 if n == "fourfold" or n.startswith("fourfold.")]:
        del sys.modules[name]
    return importlib.import_module("fourfold")


def library_setup(workload, seed, recorder=None):
    """Import, input generation and warm-up: (package, cases)."""
    pkg = load_package()
    if recorder is not None:
        recorder.install(pkg)
        recorder.input_id = "warmup"
    cases = workloads.generate(workload, seed)
    expr, bounds = workloads.WARMUP[workload]
    ls = pkg.cover.build_standard_cover(pkg.cli.parse(expr))
    for bound in bounds:
        pkg.cover.enumerate_characteristics(ls, bound)
    if recorder is not None:
        recorder.uninstall()
    return pkg, cases


def library_op(pkg, workload):
    """The timed operation: from `cli.parse` to the final output bytes."""
    cli, obstruct = pkg.cli, pkg.obstruct
    not_met = pkg.errors.HypothesesNotMet

    if workload == "spinc-list":
        def op(case):
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(["spinc", case.text, "--bound",
                                     str(case.bound)])
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
            return code, buf.getvalue().encode()
        return op

    def op(case):
        try:
            cert = obstruct.certify(cli.parse(case.text), bound=case.bound)
        except not_met as exc:
            return 3, f"HypothesesNotMet: {exc}".encode()
        code = 0 if cert.verdict == obstruct.NONSMOOTHABLE else 3
        return code, cli.emit_json(cert).encode()
    return op


# ---------------------------------------------------------- cli workload

def child_env():
    paths = [str(SRC)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def child(args, env):
    """Run one interpreter child to completion: (exit code, stdout).

    Only the exit code and stdout are judged; stderr carries the known
    runpy RuntimeWarning of `python -m fourfold.cli`.
    """
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, timeout=CHILD_TIMEOUT)
    return proc.returncode, proc.stdout


def cli_setup(seed, env):
    """Input generation, class-data files and a bytecode-compiling child."""
    OUT.mkdir(exist_ok=True)
    cases = workloads.generate("cli-cold", seed)
    for case in cases:
        if case.family == "constraints":
            path, text = workloads.data_file(case.params)
            (ROOT / path).write_text(text, encoding="utf-8")
    code, _ = child(("-c", "import fourfold.cli"), env)
    if code != 0:
        raise RuntimeError("the package does not import in a child")
    return cases


def probe_ms(args, env):
    """Median scaled wall time of PROBES children run with `args`."""
    times = []
    for _ in range(PROBES):
        _, took, scale = timed(lambda: child(args, env))
        times.append(took * 1e3 * scale)
    return statistics.median(times)


# ---------------------------------------------------------------- runs

def quantiles(lat_ms):
    return statistics.median(lat_ms), statistics.quantiles(lat_ms, n=10)[8]


def series(cases, phase):
    """Median scaled latency per input tag set: cost versus size."""
    by_tags = {}
    for cid, ms in zip(phase.runs, phase.scaled_ms()):
        case = cases[cid]
        by_tags.setdefault((case.family, *case.tags.values()), []).append(ms)
    return [dict(family=key[0], **dict(zip(cases[0].tags, key[1:])),
                 median_ms=statistics.median(v), runs=len(v))
            for key, v in sorted(by_tags.items())]


def run_untraced(workload, seed, seconds):
    env = child_env()
    setups = []
    for _ in range(SETUPS):
        if workload == "cli-cold":
            cases, took, scale = timed(lambda: cli_setup(seed, env))
        else:
            (pkg, cases), took, scale = timed(
                lambda: library_setup(workload, seed))
        setups.append(took * scale)
    if workload == "cli-cold":
        op = lambda case: child(("-m", "fourfold.cli", *case.argv), env)
    else:
        op = library_op(pkg, workload)
    block = len(workloads.PLANS[workload][0])
    phase = run_phase(cases, op, block, lambda p, elapsed: (
        elapsed >= seconds and p.blocks * block >= len(cases)))

    lat = phase.scaled_ms()
    p50, p90 = quantiles(lat)
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" \
        else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "throughput_inputs_per_s": len(lat) / (sum(lat) / 1e3),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    raw = [ns / 1e6 for ns in phase.latencies_ns]
    raw50, raw90 = quantiles(raw)
    print(f"unscaled: latency p50 {raw50:.3f} ms, p90 {raw90:.3f} ms, "
          f"{len(raw) / (sum(raw) / 1e3):.3f} inputs/s busy, "
          f"{len(raw) / phase.elapsed:.3f} inputs/s wall; "
          f"scale median {statistics.median(phase.scales):.3f} "
          f"(min {min(phase.scales):.3f}, max {max(phase.scales):.3f})")
    return cases, [phase], metrics


def run_traced(workload, seed, seconds):
    """Traced then untraced over the same blocks; per-layer metrics.

    The traced phase runs whole cycles for half of --seconds, or fewer if
    another cycle would take the span log past SPAN_CAP.
    """
    OUT.mkdir(exist_ok=True)
    env = child_env()
    recorder = spanlib.Spans()
    block = len(workloads.PLANS[workload][0])
    cycle = workloads.BLOCKS

    def enough(phase, elapsed):
        if phase.blocks % cycle:
            return False
        per_cycle = len(recorder.spans) / (phase.blocks // cycle)
        return (elapsed >= seconds / 2
                or len(recorder.spans) + per_cycle > SPAN_CAP)

    if workload == "cli-cold":
        cases = cli_setup(seed, env)
        paths = []

        def traced_op(case):
            path = OUT / f"child-{os.getpid()}-{len(paths)}.json"
            paths.append(path)
            return child((str(HERE / "tracechild.py"), str(path),
                          *case.argv), env)

        traced = run_phase(cases, traced_op, block, enough)
        plain = run_phase(
            cases,
            lambda case: child((str(HERE / "tracechild.py"), "-", *case.argv),
                               env),
            block, lambda p, _: p.blocks >= traced.blocks)
        per_process = []
        for run, path in enumerate(paths):
            with open(path, encoding="utf-8") as fh:
                per_process.append([(s[0], s[1], s[2], s[3], run, s[5])
                                    for s in json.load(fh)])
            path.unlink()
        recorder.spans = spanlib.merge(per_process)
        first_scales = traced.scales
    else:
        (pkg, cases), _, setup_scale = timed(
            lambda: library_setup(workload, seed, recorder))
        per_process = [list(recorder.spans)]
        first_scales = [setup_scale]
        op = library_op(pkg, workload)
        recorder.install(pkg)
        try:
            traced = run_phase(cases, op, block, enough, recorder)
        finally:
            recorder.uninstall()
        plain = run_phase(cases, op, block,
                          lambda p, _: p.blocks >= traced.blocks)

    spinc_runs = {i for i, cid in enumerate(traced.runs)
                  if cases[cid].family == "spinc"}
    metrics = spanlib.layer_metrics(recorder.spans, traced.scales, spinc_runs)
    firsts = [ms * first_scales[i]
              for i, ms in spanlib.first_calls(per_process)]
    metrics["cover.first_call_ms"] = statistics.mean(firsts) if firsts else 0.0
    interpreter = probe_ms(("-c", "pass"), env)
    metrics["cli.interpreter_ms"] = interpreter
    metrics["cli.import_ms"] = probe_ms(
        ("-c", "import fourfold.cli"), env) - interpreter
    metrics["trace.overhead_ms"] = (
        (sum(traced.scaled_ms()) - sum(plain.scaled_ms())) / len(traced.runs))

    stem = OUT / f"trace-{workload}-{seed}"
    recorder.write(f"{stem}.spans.jsonl.gz")
    rows = series(cases, plain)
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "metrics": metrics,
                   "inputs": len(traced.runs), "spans": len(recorder.spans),
                   "series": rows}, fh, indent=1)
    for row in rows:
        print("series " + " ".join(f"{k}={v}" for k, v in row.items()
                                   if k not in ("median_ms", "runs"))
              + f": {row['median_ms']:.3f} ms over {row['runs']} runs")
    print(f"spans: {len(recorder.spans)} in {stem}.spans.jsonl.gz")
    return cases, [traced, plain], metrics


# ---------------------------------------------------------------- main

def run_all(args):
    """Every workload in turn, each in its own process."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.PLANS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            totals["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(totals))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.PLANS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "fourfold" / "__init__.py").is_file():
        print(f"no fourfold package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    run = run_traced if args.trace else run_untraced
    cases, phases, values = run(args.workload, args.seed, args.seconds)
    attempted = sum(len(p.runs) for p in phases)
    failed = sum(len(failed_runs(cases, p)) for p in phases)
    for cid, out in phases[-1].outputs.items():
        if out != phases[0].outputs[cid]:
            failed += 1
            print(f"FAIL case {cid}: traced and untraced outputs differ",
                  file=sys.stderr)
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in names}

    timed = phases[0]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: "
          f"{len(timed.runs)} inputs in {timed.blocks} blocks of "
          f"{len(workloads.PLANS[args.workload][0])}, {timed.elapsed:.2f} s, "
          "closed loop, one client")
    for name, metric in metrics.items():
        print(f"  {name:48s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_ratio':48s} {failed / attempted:.6g} "
          f"({failed} of {attempted})")
    print(f"digest sha256:{digest(cases, phases[0])}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
