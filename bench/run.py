"""The scattree benchmark.

    python3 bench/run.py --workload analyze --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 28 --record bench/baseline.json

A run builds the workload's operation list from the seed (workloads.py)
and replays it in passes, closed loop from this one client process, until
the next pass would end after `--seconds`.  Each pass runs in a fresh
worker child (worker.py) under a 256 MiB address-space cap and a
per-operation deadline; an operation expected to exhaust memory or the
stack gets a child of its own, so its failure cannot poison the next one.
The `cli` workload starts one `python3 -m scattree.cli` process per
operation instead (through cli_child.py).  Every verdict is checked
(checks.py); a wrong verdict is a failed operation, never a harness error.

Every time reported is scaled to a reference host speed (speed.py): each
measuring process runs fixed reference work in turn with its own, and an
operation's time is multiplied by the reference work's nominal time over
its median time around that operation.  On a shared host raw times swing
by a factor of two within a minute; scaled, both engine work and process
start-up stay within about 5% over windows of ten seconds.
A pass's wall time is the
sum of its operations' scaled times, without the harness's messaging in
between.  The raw medians are kept in the run's record under `raw`.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: `attempted` counts the distinct operations of the
list and `failed` those that failed in any pass, so both depend on the seed
alone; `metrics` are the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1`.  A traced run
alternates untraced and traced passes; end-to-end numbers come from the
untraced ones, and the difference in wall time is the tracing overhead.
The lines before it print every metric by name and unit.  Details (the
first pass operation by operation, the verdict digest, the spans) go to
bench/out/.  Exit status: 0 with a result, 1 on a harness error, 2 on bad
arguments.

`correct` is false when a verdict contradicts a fixed known answer, or
when one operation gets different verdicts in two passes.  A `yes` that an
exact finite cut refutes is counted in `failed` and in wrong_verdicts but
leaves `correct` true: the random differential exists to count those, and
the ROADMAP records them as an open defect.

`--workload all` runs every workload, plain and traced, each in its own
process; repeats the first pass of each under PYTHONHASHSEED=1 and checks
that the verdict digest is unchanged; checks the ROADMAP's seed-state
facts; and with `--record` writes all of it to a JSON file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

import checks
import speed
import tracing
import workloads
from tracing import peak_rss_kb

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKER = os.path.join(BENCH, "worker.py")
CLI_CHILD = os.path.join(BENCH, "cli_child.py")

MEMORY_CAP = 256 << 20  # RLIMIT_AS of every child, bytes; eight times the usual peak
# A run must end within 180 s whatever the program does: operations not
# started within RUN_LIMIT_S fail by deadline, the one running may take its
# deadline, and the exact-cut checker gets CHECK_LIMIT_S after that.
DEADLINE_S = {"cli": 30.0}  # per operation; other workloads use the default
DEFAULT_DEADLINE_S = 20.0
RUN_LIMIT_S = 110.0
CHECK_LIMIT_S = 30.0
NOT_STARTED = "not started: run time limit"
START_TIMEOUT_S = 60.0
HASH_SEED = "0"
SETUP_SPAWNS = 3  # before the passes; every pass adds more samples

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "decided_share": "share",
    "ok_share": "share",
}
# Printed on the text lines only: they are 0 when nothing fails, and the
# JSON metrics must never be 0.  ok_share = 1 - failed_share carries them.
REPORTED = {"failed_share": "share", "wrong_verdicts": "count"}

CLI_COMMANDS = ("examples", "rank", "analyze", "twins", "truncate")
FAIL_KINDS = ("memory", "recursion", "deadline", "wrong_verdict", "other")


def per_layer_units():
    """Every per-layer metric and its unit."""
    units = {}
    for layer in tracing.LAYERS:
        units[f"{layer}_s"] = "s"
        units[f"{layer}_self_s"] = "s"
        units[f"{layer}_calls"] = "count"
    units["terms.embeds_unknown"] = "count"
    units["terms.expand_finite_max_vertices"] = "count"
    units["terms.truncate_max_vertices"] = "count"
    units["twins.verified_members"] = "count"
    for which in workloads.ORACLES:
        units[f"oracle.{which}_s"] = "s"
    units["cli.startup_s"] = "s"
    for command in CLI_COMMANDS:
        units[f"cli.{command}_s"] = "s"
    units.update({"check.s": "s", "check.refuted_yes": "count", "check.suspect_no": "count"})
    for kind in FAIL_KINDS:
        units[f"fail.{kind}"] = "count"
    units["trace.overhead_s"] = "s"
    units["trace.spans"] = "count"
    return units


class HarnessError(Exception):
    pass


# -- child processes ------------------------------------------------------------

def child_env(hash_seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = hash_seed
    return env


def spawn(argv, hash_seed, extra_env=None, **kwargs):
    """Start a capped child.  The cap is set from outside right after the
    start, not in a pre-exec hook, which would force a plain fork."""
    proc = subprocess.Popen(argv, cwd=ROOT, env={**child_env(hash_seed), **(extra_env or {})}, **kwargs)
    resource.prlimit(proc.pid, resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    return proc


class Lines:
    """Line reader on a pipe with a timeout; None on timeout, "" at EOF."""

    def __init__(self, fd):
        self.fd = fd
        self.buffer = bytearray()

    def readline(self, timeout):
        until = time.perf_counter() + timeout
        scanned = 0
        while (end := self.buffer.find(b"\n", scanned)) < 0:
            scanned = len(self.buffer)
            left = until - time.perf_counter()
            if left <= 0 or not select.select([self.fd], [], [], left)[0]:
                return None
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                return ""
            self.buffer += chunk
        line = self.buffer[:end].decode()
        del self.buffer[: end + 1]
        return line


class Worker:
    """One worker.py child; `setup_s` is the time until it has imported
    scattree and said it is ready, less the time of the host-speed samples
    it took meanwhile, which are in `samples`."""

    def __init__(self, hash_seed):
        self.start = time.perf_counter()
        self.proc = spawn([sys.executable, WORKER], hash_seed, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.lines = Lines(self.proc.stdout.fileno())
        line = self.lines.readline(START_TIMEOUT_S)
        self.end = time.perf_counter()
        ready = json.loads(line) if line else {}
        if not ready.get("ready"):
            self.close()
            raise HarnessError("the worker did not start; is scattree importable from src/?")
        self.samples = ready["cal"]
        self.setup_s = self.end - self.start - ready["spent"]

    def send(self, request):
        self.proc.stdin.write((json.dumps(request) + "\n").encode())
        self.proc.stdin.flush()

    def close(self):
        """Stop the child and wait for it; returns its exit status."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=5)
            except (BrokenPipeError, subprocess.TimeoutExpired):
                self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode


def failed_result(status, ms, t0, t1, error=None):
    return {"status": status, "ms": ms, "t0": t0, "t1": t1, "verdict": None, "error": error}


class Run:
    """The state one run shares across its passes: the operations, the
    deadlines, the start-up samples (raw seconds, the child's host-speed
    samples) and the host-speed samples of every child."""

    def __init__(self, workload, seed, size, hash_seed):
        self.workload = workload
        self.seed = seed
        self.hash_seed = hash_seed
        self.ops = workloads.operations(workload, seed, size)
        self.deadline = DEADLINE_S.get(workload, DEFAULT_DEADLINE_S)
        self.stop_at = time.perf_counter() + RUN_LIMIT_S
        self.setup = []
        self.samples = []

    def worker(self):
        """A fresh worker; its start-up is a setup sample."""
        worker = Worker(self.hash_seed)
        self.samples += worker.samples
        self.setup.append((worker.setup_s, worker.samples))
        return worker

    def start_up(self):
        """Time one child start: interpreter plus `import scattree` for a
        worker, a no-op `scattree --help` for the CLI."""
        if self.workload != "cli":
            self.worker().close()
            return
        result = self.cli_call(["--help"])
        if result["status"] != "ok":
            raise HarnessError(f"`scattree --help` failed: {result['error']}")
        self.setup.append((result["ms"] / 1000.0, result["samples"]))

    def batch(self, ops, indices, traced=False, spans_path=None):
        """Run ops[i] for i in indices in as few workers as failures allow.
        Returns ({index: result}, per-layer summaries, peak RSS in KiB)."""
        results, summaries, rss_kb = {}, [], 0
        todo = list(indices)
        while todo:
            if time.perf_counter() > self.stop_at:
                now = time.perf_counter()
                results.update((i, failed_result("deadline", 0.0, now, now, NOT_STARTED)) for i in todo)
                break
            worker = self.worker()
            try:
                worker.send({"ops": [ops[i] for i in todo], "trace": traced, "spans_path": spans_path})
                last = time.perf_counter()
                done, out_of_memory = 0, False
                while True:
                    line = worker.lines.readline(self.deadline)
                    if line is None:
                        rss_kb = max(rss_kb, peak_rss_kb(worker.proc.pid))
                        worker.proc.kill()
                        now = time.perf_counter()
                        results[todo[done]] = failed_result("deadline", self.deadline * 1000.0, last, now)
                        last = now
                        todo = todo[done + 1 :]
                        break
                    if line == "":
                        if not out_of_memory:
                            status = worker.close()
                            kind = "memory" if status == -signal.SIGKILL else "other"
                            now = time.perf_counter()
                            results[todo[done]] = failed_result(kind, (now - last) * 1000.0, last, now, f"worker exit {status}")
                            last = now
                            done += 1
                        todo = todo[done:]
                        break
                    message = json.loads(line)
                    self.samples += message.pop("cal")
                    if message.get("done"):
                        rss_kb = max(rss_kb, message["rss_kb"])
                        summaries.append(message["trace"])
                        todo = todo[done:]
                        break
                    results[todo[message["i"]]] = message
                    last = time.perf_counter()
                    done = message["i"] + 1
                    out_of_memory = message["status"] == "memory"
            finally:
                worker.close()
        return results, summaries, rss_kb

    def worker_pass(self, traced):
        """One pass over the list; an isolated operation gets its own
        worker.  A traced pass writes the spans of its k-th worker to
        bench/out/spans-<workload>-seed<seed>-<k>.bin."""
        segments, current = [], []
        for i, op in enumerate(self.ops):
            if op.get("isolate"):
                segments += [current, [i]] if current else [[i]]
                current = []
            else:
                current.append(i)
        if current:
            segments.append(current)
        results, layers, rss_kb = {}, Counter(), 0
        for k, segment in enumerate(segments):
            spans_path = os.path.join(OUT, f"spans-{self.workload}-seed{self.seed}-{k}.bin") if traced else None
            got, summaries, peak = self.batch(self.ops, segment, traced, spans_path)
            results.update(got)
            rss_kb = max(rss_kb, peak)
            for summary in filter(None, summaries):
                for key, value in summary.items():
                    layers[key] = max(layers[key], value) if key.endswith("_max_vertices") else layers[key] + value
        return [results[i] for i in range(len(self.ops))], dict(layers), rss_kb

    def cli_call(self, argv):
        """One `scattree` invocation through cli_child.py, timed from the
        outside to the end of its output (Popen.wait with a timeout polls
        with sleeps of up to 50 ms, which would quantise the result), less
        the time its host-speed samples took.  Returns its result; the
        verdict is the parsed report, None for `--help`."""
        speed_file = os.path.join(OUT, f"speed-{os.getpid()}.json")
        start = time.perf_counter()
        proc = spawn(
            [sys.executable, CLI_CHILD, *argv],
            self.hash_seed,
            {"BENCH_SPEED_FILE": speed_file},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            out, err = proc.communicate(timeout=self.deadline)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return failed_result("deadline", self.deadline * 1000.0, start, time.perf_counter())
        end = time.perf_counter()
        ms = (end - start) * 1000.0
        samples = []
        if os.path.exists(speed_file):
            with open(speed_file) as fh:
                child = json.load(fh)
            os.remove(speed_file)
            samples = child["samples"]
            self.samples += samples
            ms -= child["spent"] * 1000.0
        err = err.decode(errors="replace").strip()
        if proc.returncode == 2:
            return {"status": "term_error", "ms": ms, "t0": start, "t1": end, "verdict": None, "error": err}
        if proc.returncode != 0:
            kind = "memory" if "MemoryError" in err else "recursion" if "RecursionError" in err else "other"
            return failed_result(kind, ms, start, end, err.splitlines()[-1] if err else f"exit {proc.returncode}")
        try:
            verdict = None if argv == ["--help"] else checks.cli_verdict(argv, out)
        except (ValueError, KeyError, TypeError) as e:
            return failed_result("other", ms, start, end, f"unreadable report: {e!r}")
        return {"status": "ok", "ms": ms, "t0": start, "t1": end, "verdict": verdict, "error": None, "samples": samples}

    def cli_pass(self, traced):
        """Every operation is its own process, timed from the outside; a
        no-op invocation after every fourth samples start-up across the
        pass.  A traced pass keeps one span per invocation."""
        results, layers, spans = [], Counter(), []
        for k, op in enumerate(self.ops):
            if k % 4 == 3:
                self.start_up()
            if time.perf_counter() > self.stop_at:
                now = time.perf_counter()
                results.append(failed_result("deadline", 0.0, now, now, NOT_STARTED))
                continue
            start = time.perf_counter()
            results.append(self.cli_call(op["argv"]))
            command = op["argv"][0]
            name = f"oracle.{op['argv'][1]}" if command == "oracle" else f"cli.{command}"
            layers[f"{name}_s"] += results[-1]["ms"] / 1000.0
            spans.append([name, start, time.perf_counter()])
        if traced:
            with open(os.path.join(OUT, f"spans-cli-seed{self.seed}.json"), "w") as fh:
                json.dump(spans, fh)
        # A CLI child cannot report its own high-water mark, so it comes
        # from getrusage: the largest child so far.  That also counts this
        # process's pages from before each exec, far below an oracle's peak.
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return results, dict(layers) if traced else {}, rss_kb

    def cut_checks(self, first_pass):
        """Exact-cut oracle on every decided omega-free embedding verdict of
        the first pass, in its own worker after the timed passes.  Returns
        ({op index: check verdict}, checker seconds)."""
        todo = [
            i
            for i, (op, r) in enumerate(zip(self.ops, first_pass))
            if op.get("cut") and r["status"] == "ok" and r["verdict"]["embeds"] in ("yes", "no")
        ]
        check_ops = [{"kind": "cutcheck", "t": self.ops[i]["t"], "s": self.ops[i]["s"]} for i in todo]
        self.stop_at = time.perf_counter() + CHECK_LIMIT_S
        got, _summaries, _rss = self.batch(check_ops, range(len(check_ops)))
        out = {}
        for k, i in enumerate(todo):
            if got[k]["status"] != "ok":
                raise HarnessError(f"the exact-cut oracle failed on operation {i}: {got[k]}")
            out[i] = got[k]["verdict"]
        return out, sum(r["ms"] for r in got.values()) / 1000.0


# -- evaluation -----------------------------------------------------------------

def judge(op, result, cut):
    """(failure kind or None, known-answer errors, refuted by a cut,
    suspect) for one operation's result."""
    status = result["status"]
    if status == "term_error":
        return None, [], False, False
    if status != "ok":
        return status, [], False, False
    errors = checks.expectation_errors(op, result["verdict"])
    refuted = suspect = False
    if cut is not None:
        embeds = result["verdict"]["embeds"]
        refuted = embeds == "yes" and not cut["all_cuts_embed"]
        suspect = embeds == "no" and cut["all_cuts_embed"]
    return ("wrong_verdict" if errors or refuted else None), errors, refuted, suspect


def verdict_digest(results):
    canon = [[r["status"], r["verdict"]] for r in results]
    return hashlib.sha256(json.dumps(canon, sort_keys=True).encode()).hexdigest()


def tail(samples, passes):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it in every pass, read from all passes' samples.  Fixing
    the percentile by one pass keeps it on the same operations whatever
    the number of passes, and reading it from the pooled samples averages
    the noise of single operations."""
    ordered = sorted(samples)
    beyond = 10 * passes
    if len(ordered) <= beyond:
        return ordered[-1], 100.0
    return ordered[-beyond - 1], 100.0 * (1 - beyond / len(ordered))


def median(values):
    return statistics.median(values) if values else 0.0


def pass_stats(ops, traced, results, layers, rss_kb, cuts, known_errors, host):
    """Failures, verdict counts and timings of one pass.  An operation's
    time is scaled to the reference speed by the host-speed samples around
    it; the pass's wall time is the sum of its operations' times.  Layer
    times, which come from spans without the samples beside them, are
    scaled by the pass's overall factor."""
    fails, failed_ops, asked, decided, refuted, suspect, members = Counter(), set(), 0, 0, 0, 0, 0
    for i, (op, result) in enumerate(zip(ops, results)):
        kind, errors, ref, sus = judge(op, result, cuts.get(i))
        if errors:
            known_errors[i] = errors
        if kind:
            fails[kind] += 1
            failed_ops.add(i)
        asked += op["asked"]
        if kind is None and result["verdict"] is not None:
            decided += checks.decided(op, result["verdict"])
            members += checks.verified_members(op, result["verdict"])
        refuted += ref
        suspect += sus
    timed = [r for r in results if r["error"] != NOT_STARTED]
    ms = [host.scale(r["ms"], r["t0"], r["t1"]) for r in timed]
    wall = sum(ms) / 1000.0
    raw_wall = sum(r["ms"] for r in timed) / 1000.0
    factor = wall / raw_wall if raw_wall > 0 else 1.0
    layers = {key: value * factor if key.endswith("_s") else value for key, value in layers.items()}
    return {
        "traced": traced,
        "wall": wall,
        "raw_wall": raw_wall,
        "failed_ops": failed_ops,
        "fails": fails,
        "asked": asked,
        "decided": decided,
        "refuted": refuted,
        "suspect": suspect,
        "members": members,
        "ok_rate": (len(ops) - len(failed_ops)) / wall if wall > 0 else 0.0,
        "layers": layers,
        "rss_mb": rss_kb / 1024.0,
        "ms": ms,
        "raw_ms": [r["ms"] for r in timed],
    }


def run_workload(workload, seed, seconds, trace, size, hash_seed):
    run_start = time.perf_counter()
    os.makedirs(OUT, exist_ok=True)
    run = Run(workload, seed, size, hash_seed)
    ops = run.ops
    run_pass = run.cli_pass if workload == "cli" else run.worker_pass
    for _ in range(SETUP_SPAWNS):
        run.start_up()

    passes = []  # (traced, results, layers, peak RSS in KiB)
    loop_start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        pass_start = time.perf_counter()
        passes.append((traced, *run_pass(traced)))
        run.start_up()  # spread start-up samples over the run
        now = time.perf_counter()
        enough = len(passes) >= (2 if trace else 1)
        if now > run.stop_at or enough and (now - loop_start) + (now - pass_start) > seconds:
            break

    first = passes[0][1]
    cuts, check_s = run.cut_checks(first) if workload == "embed" else ({}, 0.0)
    nondeterministic = sorted(
        {
            i
            for _, results, *_ in passes[1:]
            for i, (a, b) in enumerate(zip(first, results))
            if "deadline" not in (a["status"], b["status"]) and (a["status"], a["verdict"]) != (b["status"], b["verdict"])
        }
    )
    # CLI invocations are mostly start-up; see speed.py
    host = speed.Speed(run.samples, speed.STARTUP if workload == "cli" else speed.ENGINE)
    known_errors = {}
    stats = [pass_stats(ops, *p, cuts, known_errors, host) for p in passes]
    failed_ops = set().union(*(p["failed_ops"] for p in stats))
    setup = [speed.scale_startup(seconds, samples) for seconds, samples in run.setup]

    plain = [p for p in stats if not p["traced"]]
    samples = [ms for p in plain for ms in p["ms"]]
    tail_ms, tail_pct = tail(samples, len(plain))
    raw_samples = [ms for p in plain for ms in p["raw_ms"]]
    failed_share = len(failed_ops) / len(ops)
    e2e = {
        "setup_s": median(setup),
        "wall_s": median([p["wall"] for p in plain]),
        "ops_per_s": median([p["ok_rate"] for p in plain]),
        "op_p50_ms": median(samples),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": max(p["rss_mb"] for p in plain),
        "decided_share": sum(p["decided"] for p in plain) / sum(p["asked"] for p in plain),
        "ok_share": 1.0 - failed_share,
        "failed_share": failed_share,
        "wrong_verdicts": stats[0]["fails"]["wrong_verdict"],
    }

    layers = {}
    if trace:
        traced = [p for p in stats if p["traced"]]
        for key in set().union(*(p["layers"] for p in traced)):
            layers[key] = median([p["layers"].get(key, 0) for p in traced])
        layers["twins.verified_members"] = median([p["members"] for p in traced])
        if workload == "cli":
            layers["cli.startup_s"] = e2e["setup_s"]
        layers["check.s"] = check_s
        layers["check.refuted_yes"] = stats[0]["refuted"]
        layers["check.suspect_no"] = stats[0]["suspect"]
        for kind in FAIL_KINDS:
            layers[f"fail.{kind}"] = median([p["fails"][kind] for p in stats])
        layers["trace.overhead_s"] = median([p["wall"] for p in traced]) - e2e["wall_s"]
        layers = {key: layers.get(key, 0) for key in per_layer_units()}

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "size": size,
        "hash_seed": hash_seed,
        "memory_cap_mb": MEMORY_CAP >> 20,
        "deadline_s": run.deadline,
        "operations": len(ops),
        "passes": len(passes),
        "traced_passes": len(passes) - len(plain),
        "setup_samples_s": [seconds for seconds, _ in run.setup],
        "host_speed_samples": len(run.samples),
        "raw": {
            "setup_s": median([seconds for seconds, _ in run.setup]),
            "wall_s": median([p["raw_wall"] for p in plain]),
            "op_p50_ms": median(raw_samples),
            "op_tail_ms": tail(raw_samples, len(plain))[0],
        },
        "tail_percentile": tail_pct,
        "tail_samples": len(samples),
        "verdict_digest": verdict_digest(first),
        "nondeterministic_ops": nondeterministic,
        "known_answer_errors": {str(i): e for i, e in known_errors.items()},
        "failures": dict(sum((p["fails"] for p in stats), Counter())),
        "metrics": e2e,
        "layers": layers,
        "first_pass": [
            {"op": op, "status": r["status"], "ms": r["ms"], "verdict": r["verdict"], "error": r["error"], "cut": cuts.get(i)}
            for i, (op, r) in enumerate(zip(ops, first))
        ],
        "run_s": time.perf_counter() - run_start,
    }
    correct = not known_errors and not nondeterministic
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record, correct, len(ops), len(failed_ops)


def print_report(record, correct, attempted, failed, trace):
    e2e = record["metrics"]
    print(
        f"workload {record['workload']}: seed {record['seed']}, {record['operations']} operations "
        f"per pass, {record['passes']} passes ({record['traced_passes']} traced), "
        f"PYTHONHASHSEED={record['hash_seed']}, cap {record['memory_cap_mb']} MiB, "
        f"deadline {record['deadline_s']:g} s"
    )
    for name, unit in {**END_TO_END, **REPORTED}.items():
        note = ""
        if name == "ops_per_s":
            note = f"  (input size: {record['operations']} operations per pass)"
        elif name == "op_tail_ms":
            note = f"  (p{record['tail_percentile']:.2f} of {record['tail_samples']} samples)"
        print(f"  {name:<16} {e2e[name]:>14.6g} {unit}{note}")
    units = per_layer_units()
    for name, value in sorted(record["layers"].items()):
        print(f"  {name:<42} {value:>14.6g} {units[name]}")
    raw = ", ".join(f"{name} {value:.6g}" for name, value in record["raw"].items())
    print(f"  raw, not scaled to the reference speed: {raw}")
    print(f"  verdict digest   {record['verdict_digest']}")
    print(f"  failures         {record['failures'] or 'none'}")
    if not correct:
        print(f"  INCORRECT: known-answer errors {record['known_answer_errors']}, nondeterministic ops {record['nondeterministic_ops']}")
    values, units = (record["layers"], units) if trace else (e2e, END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


# -- all workloads ----------------------------------------------------------------

def roadmap_facts(records):
    """The seed-state facts the ROADMAP records, read off the first pass."""

    def first(workload, pred):
        return [row for row in records[workload]["first_pass"] if pred(row["op"])]

    facts = {}
    rows = first("twins", lambda op: op.get("term") == "ex2")
    facts["ex2 twins fail under the memory cap"] = [r["status"] for r in rows]
    for name, n in (("ex1", 11), ("ex4", 9)):
        base, context, _ = workloads.CHAINS[name]
        pair = (workloads.stage_text(base, context, n), workloads.stage_text(base, context, n + 1))
        rows = first("embed", lambda op: (op["t"], op["s"]) == pair)
        facts[f"{name} stage {n}->{n + 1} embeds"] = [r["verdict"]["embeds"] for r in rows]
    cut = [r for r in first("embed", lambda op: op["group"] == "random") if r["cut"]]
    facts["random differential: pairs cut-checked"] = len(cut)
    facts["random differential: refuted yes"] = sum(r["verdict"]["embeds"] == "yes" and not r["cut"]["all_cuts_embed"] for r in cut)
    facts["random differential: suspect no"] = sum(r["verdict"]["embeds"] == "no" and r["cut"]["all_cuts_embed"] for r in cut)
    rows = first("analyze", lambda op: op.get("text", "").startswith("succ(" * 1500))
    facts["succ^1500 analyze"] = [r["status"] for r in rows]
    return facts


def run_all(args):
    records, correct, attempted, failed, metrics = {}, True, 0, 0, {}
    for workload in workloads.NAMES:
        for trace in (0, 1):
            result = sub_run(workload, args.seed, args.seconds, trace, args.size, HASH_SEED, echo=True)
            records.setdefault(workload, {})[f"trace{trace}"] = result["record"]
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                metrics[f"{workload}.{name}"] = m
        other = sub_run(workload, args.seed, 1, 0, args.size, "1", echo=False)["record"]
        same = other["verdict_digest"] == records[workload]["trace0"]["verdict_digest"]
        records[workload]["hash_seed_check"] = {"hash_seeds": [HASH_SEED, "1"], "same_digest": same}
        print(f"workload {workload}: verdict digest under PYTHONHASHSEED=1 {'matches' if same else 'DIFFERS'}")
        correct &= same
    facts = roadmap_facts({w: r["trace0"] for w, r in records.items()})
    for fact, value in facts.items():
        print(f"seed-state fact: {fact}: {value}")
    if args.record:
        baseline = {
            "seed": args.seed,
            "seconds": args.seconds,
            "hash_seed": HASH_SEED,
            "memory_cap_mb": MEMORY_CAP >> 20,
            "roadmap_facts": facts,
            "workloads": {
                w: {
                    "verdict_digest": r["trace0"]["verdict_digest"],
                    "hash_seed_check": r["hash_seed_check"],
                    "operations": r["trace0"]["operations"],
                    "passes": r["trace0"]["passes"],
                    "tail_percentile": r["trace0"]["tail_percentile"],
                    "tail_samples": r["trace0"]["tail_samples"],
                    "failures": r["trace0"]["failures"],
                    "end_to_end": r["trace0"]["metrics"],
                    "per_layer": r["trace1"]["layers"],
                }
                for w, r in records.items()
            },
        }
        with open(args.record, "w") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def sub_run(workload, seed, seconds, trace, size, hash_seed, echo):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace), "--size", str(size), "--hash-seed", hash_seed]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{workload} run failed with exit status {proc.returncode}")
    if echo:
        print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        result["record"] = json.load(fh)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=float, default=1.0, help="scale of the seeded inputs; below 1 for the smoke test")
    parser.add_argument("--hash-seed", default=HASH_SEED, help="PYTHONHASHSEED of the children")
    parser.add_argument("--record", help="with --workload all: write the baseline JSON here")
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "scattree", "__init__.py")):
        print("error: src/scattree not found; run from a checkout of the repository", file=sys.stderr)
        return 1
    try:
        if args.workload == "all":
            run_all(args)
        else:
            record, correct, attempted, failed = run_workload(
                args.workload, args.seed, args.seconds, bool(args.trace), args.size, args.hash_seed
            )
            print_report(record, correct, attempted, failed, bool(args.trace))
    except HarnessError as e:
        print(f"harness error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
