"""Benchmark of the ohtlab CLI pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  Each repetition starts a fresh Python process that imports the
program (one set-up sample) and then runs the workload's CLI commands in
order, each in a child forked from that freshly imported interpreter, so
no command sees what an earlier one left in memory.  One process runs at a
time.  Repetitions continue until the next one would end after `--seconds`
(at least two, so artifact digests can be compared).  An operation, one
command of one repetition, fails on a nonzero exit, an output that misses
its closed-form check, or artifacts whose sha256 differ from the first
repetition's.

Before each command and after the last one the same server runs a fixed
reference computation (`reference.py`).  The speed of a shared host drifts by tens
of percent over minutes, and both the program and the reference follow
it, so end-to-end times are given at the reference's nominal speed: a
repetition's seconds are scaled by REF_NOMINAL_S over the mean reference
time measured in that repetition.  The raw medians are printed as well.

With `--trace 0` every command runs untraced and the end-to-end metrics
are printed.  With `--trace 1` untraced and traced repetitions alternate;
the traced ones wrap the public functions of each module and give the
per-layer metrics, and the two kinds together give the tracing overhead.
The last line of standard output is one JSON object; a run record with
the environment, exact counts and spans is written under `.perfbench_work/`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD = Path(__file__).resolve().parent / "child.py"

MIN_REPS = 2
#: every run, its repetitions and child processes, ends by then
HARD_LIMIT_S = 170.0
#: seconds a server gets to reap a child killed at the hard limit
GRACE_S = 5.0
TIMED_OUT = "timed out at the run's hard limit"
#: the reference computation's time on the 2-core host the sizes were set on
REF_NOMINAL_S = 0.3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    """The server's environment: one BLAS thread, so a command uses one of
    the machine's few cores and is not timed against its own spinning
    BLAS threads."""
    return {**os.environ, **{k: "1" for k in BLAS_ENV}}


class Server:
    """One `child.py` process: a fresh import of the program (one set-up
    sample), then one forked child per request.  Every request ends by
    `deadline`: a child still running then is killed, and a server that
    does not answer is killed with its whole process group."""

    def __init__(self, work: Path, deadline: float, src: Path = SRC):
        self.deadline = deadline
        self.src = src
        self.log_path = work / "server.stderr"
        self.log = open(self.log_path, "ab")
        self._buf = b""
        self.proc = subprocess.Popen([sys.executable, str(CHILD), str(src)], cwd=work,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.log, env=child_env(), start_new_session=True)
        self.hello = self._answer(0, deadline)
        if self.hello is None:
            self.kill()
            self.hello = {"error": TIMED_OUT}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _log_since(self, mark: int) -> str:
        self.log.flush()
        with open(self.log_path, "rb") as f:
            f.seek(mark)
            return f.read().decode(errors="replace").strip()[-2000:]

    def _answer(self, mark: int, deadline: float) -> dict | None:
        """The server's next JSON line; None at `deadline`; a record with
        `error` set when the server has exited."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            timeout = deadline - time.perf_counter()
            if timeout <= 0:
                return None
            if not select.select([fd], [], [], timeout)[0]:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                return {"error": f"server exited: {self._log_since(mark)}"}
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def request(self, cwd: Path, result: Path, argv: list[str] | None, traced: bool) -> dict:
        """Run one command (`argv`) or the reference (None); its result record.

        A crash, a timeout or a missing result gives a record with `error` set.
        A child still running at the deadline is killed; its server reaps it.
        """
        if "error" in self.hello:
            return {"error": f"cannot import ohtlab from {self.src}: {self.hello['error']}"}
        result.unlink(missing_ok=True)
        mark = self.log_path.stat().st_size
        req = {"argv": argv, "cwd": str(cwd), "result": str(result), "traced": int(traced)}
        try:
            self.proc.stdin.write(json.dumps(req).encode() + b"\n")
            self.proc.stdin.flush()
        except OSError as exc:
            return {"error": f"server gone: {exc!r}: {self._log_since(mark)}"}
        started = self._answer(mark, self.deadline)
        if started is None:
            self.kill()
            return {"error": TIMED_OUT}
        if "error" in started:
            return started
        answer = self._answer(mark, self.deadline)
        if answer is None:
            os.kill(started["pid"], signal.SIGKILL)   # not reaped yet, so the pid is still its
            if self._answer(mark, time.perf_counter() + GRACE_S) is None:
                self.kill()
            return {"error": TIMED_OUT}
        if "error" in answer:
            return answer
        if not result.exists():
            return {"error": f"exit {answer['status']}, no result: {self._log_since(mark)}"}
        rec = json.loads(result.read_text())
        if answer["status"] != 0:
            rec["error"] = f"exit {answer['status']}: {self._log_since(mark)}"
        return rec

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()

    def close(self) -> None:
        """Stop the server at once: between requests it holds no work, and
        an interpreter with numpy and scipy loaded takes a while to exit."""
        self.kill()
        for f in (self.proc.stdin, self.proc.stdout, self.log):
            with contextlib.suppress(OSError):   # a dead server's stdin cannot flush
                f.close()


def assess(step: workloads.Step, rep_dir: Path, op_id: str, traced: bool, child: dict,
           first_facts: dict | None) -> dict:
    """Op record from a command's result; `failed` is set when the command
    did not exit 0, its output misses the step's check, its artifacts differ
    from `first_facts` (the first repetition's), or its spans do not account
    for its time."""
    op = {"op": op_id, "command": step.command, "traced": traced, "samples": step.samples,
          "bytes_read": sum((rep_dir / p).stat().st_size for p in step.reads
                            if (rep_dir / p).exists()),
          "misses": []}
    if "error" in child:
        op["misses"].append(child["error"])
    if "rc" in child:
        op.update(cmd_s=child["cmd_end"] - child["cmd_start"], cpu_s=child["cpu_s"],
                  maxrss_kb=child["maxrss_kb"],
                  missing_spans=child["missing_spans"])
    out = rep_dir / step.out
    facts = workloads.file_facts(out) if out.is_dir() else {}
    op["artifacts"] = facts
    op["bytes_written"] = sum(f["bytes"] for f in facts.values())
    if "error" not in child:
        try:
            op["misses"] += step.check(out, facts)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            op["misses"].append(f"output unreadable: {exc!r}")
        if first_facts is not None and facts != first_facts:
            changed = sorted(set(facts) ^ set(first_facts)
                             | {k for k in facts.keys() & first_facts.keys()
                                if facts[k] != first_facts[k]})
            op["misses"].append(f"artifacts differ from the first repetition: {changed}")
    if traced and "rc" in child:
        for span in child["spans"]:
            span["op"] = op_id
        op["spans"] = child["spans"]
        try:
            op["trace"] = tracing.summarize(child["spans"], child["cmd_start"], child["cmd_end"])
        except ValueError as exc:
            op["misses"].append(f"trace does not account for the command: {exc}")
    op["failed"] = bool(op["misses"])
    return op


def run_rep(wl: workloads.Workload, work: Path, name: str, traced: bool,
            first_facts: dict[str, dict], hard_deadline: float) -> dict:
    """One repetition: a fresh server, then the reference before each
    command and once after the last."""
    rep_dir = work / name
    rep_dir.mkdir()
    ref_result = rep_dir / "reference.result.json"
    with Server(work, hard_deadline) as server:
        refs, ops = [], []
        for i, step in enumerate(wl.steps):
            refs.append(server.request(rep_dir, ref_result, None, False))
            child = server.request(rep_dir, rep_dir / f"{step.out}.result.json", step.argv,
                                   traced)
            op = assess(step, rep_dir, f"{name}/step{i + 1}", traced, child,
                        first_facts.get(step.out))
            if not op["failed"]:
                first_facts.setdefault(step.out, op["artifacts"])
            ops.append(op)
        refs.append(server.request(rep_dir, ref_result, None, False))
        import_s = server.hello.get("import_s")
    errors = [f"reference computation: {r['error']}" for r in refs if "error" in r]
    if errors:
        ops[-1]["misses"] += errors
        ops[-1]["failed"] = True
    if not any(op["failed"] for op in ops):
        shutil.rmtree(rep_dir)   # keep the artifacts of a failed repetition only
    return {"traced": traced, "import_s": import_s,
            "reference_s": [r["reference_s"] for r in refs if "error" not in r], "ops": ops}


def run_reps(wl: workloads.Workload, work: Path, seconds: float, trace: bool,
             hard_deadline: float) -> list[dict]:
    deadline = time.perf_counter() + seconds
    reps: list[dict] = []
    first_facts: dict[str, dict] = {}
    while True:
        t0 = time.perf_counter()
        reps.append(run_rep(wl, work, f"rep{len(reps)}", trace and len(reps) % 2 == 1,
                            first_facts, hard_deadline))
        now = time.perf_counter()
        rep_s = now - t0
        if now + rep_s > hard_deadline:
            break
        if len(reps) >= MIN_REPS and now + rep_s > deadline:
            break
    return reps


def median(xs):
    return statistics.median(xs) if xs else 0.0


def describe(xs: list[float]) -> str:
    """Median in seconds with its sample count, plus the percentile that has
    ten samples beyond it when there are enough samples."""
    text = f"median {median(xs):.4f} s (n={len(xs)})"
    if len(xs) >= 20:
        k = len(xs) - 11
        text += f", p{100 * (k + 1) // len(xs)} {sorted(xs)[k]:.4f} s"
    return text


def speed_factor(rep: dict) -> float | None:
    """REF_NOMINAL_S over the repetition's mean reference time."""
    refs = rep["reference_s"]
    return REF_NOMINAL_S / statistics.fmean(refs) if refs else None


def series(reps: list[dict], scaled: bool) -> dict[str, list[float]]:
    """Per-repetition samples of set-up, untraced pipeline and each command,
    at the reference's nominal speed (`scaled`) or as measured."""
    out: dict[str, list[float]] = {"setup_s": [], "pipeline_s": []}
    for rep in reps:
        f = speed_factor(rep) if scaled else 1.0
        if f is None:
            continue
        if rep["import_s"] is not None:
            out["setup_s"].append(rep["import_s"] * f)
        if not rep["traced"] and all("cmd_s" in op for op in rep["ops"]):
            out["pipeline_s"].append(sum(op["cmd_s"] for op in rep["ops"]) * f)
        for op in rep["ops"]:
            if "cmd_s" in op:
                out.setdefault(f"{op['command']}_s", []).append(op["cmd_s"] * f)
    return out


def traced_pipeline(reps: list[dict]) -> list[float]:
    return [sum(op["cmd_s"] for op in r["ops"]) * speed_factor(r) for r in reps
            if r["traced"] and speed_factor(r) and all("cmd_s" in op for op in r["ops"])]


def end_to_end(reps: list[dict]) -> tuple[dict, list[str]]:
    """setup_s, pipeline_s and peak_rss_mb, plus printed per-command medians.

    Single commands vary too much between runs on a shared 2-core machine
    to be gated on their own; their sum over a repetition is the gated
    time, and each command's median is printed for diagnosis.
    """
    scaled, raw = series(reps, True), series(reps, False)
    metrics = {name: {"value": median(scaled[name]), "unit": "s"}
               for name in ("setup_s", "pipeline_s")}
    lines = [f"{name}: {describe(xs)}; as measured {describe(raw[name])}"
             for name, xs in scaled.items()]
    refs = [x for r in reps for x in r["reference_s"]]
    lines.append(f"reference: {describe(refs)}, nominal {REF_NOMINAL_S} s")
    ops = [op for r in reps for op in r["ops"]]
    rss = max((op["maxrss_kb"] for op in ops if "maxrss_kb" in op), default=0) / 1024.0
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    lines.append(f"peak_rss_mb: max {rss:.1f} MB over {len(ops)} command processes")
    return metrics, lines


def per_layer(reps: list[dict]) -> tuple[dict, list[str]]:
    traced = [r["ops"] for r in reps if r["traced"] and all("trace" in op for op in r["ops"])]

    def per_rep(fn):
        return median([fn(r) for r in traced])

    def total(r, name, key):
        return sum(op["trace"]["layers"][name][key] for op in r)

    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.self_s"] = {"value": per_rep(lambda r: total(r, name, "self_s")),
                                     "unit": "s"}
        metrics[f"{name}.calls"] = {"value": per_rep(lambda r: total(r, name, "calls")),
                                    "unit": "count"}
    metrics["cli.other_s"] = {"value": per_rep(lambda r: sum(op["trace"]["other_s"] for op in r)),
                              "unit": "s"}
    for name in ("formats.write_quadrature_dataset", "formats.read_quadrature_dataset"):
        def rate(r, name=name):
            s = total(r, name, "self_s")
            return total(r, name, "bytes") / 1e6 / s if s > 0 else 0.0
        metrics[f"{name}.MB_per_s"] = {"value": per_rep(rate), "unit": "MB/s"}

    def per_replicate(r):
        n = total(r, "radon.bootstrap_backprojection", "n_boot")
        return total(r, "radon.bootstrap_backprojection", "total_s") / n if n else 0.0
    metrics["radon.bootstrap_backprojection.per_replicate_s"] = {
        "value": per_rep(per_replicate), "unit": "s"}
    plain, wrapped = median(series(reps, True)["pipeline_s"]), median(traced_pipeline(reps))
    metrics["trace.overhead_frac"] = {"value": (wrapped - plain) / plain if plain else 0.0,
                                      "unit": "ratio"}
    lines = [f"traced repetitions: {len(traced)}; pipeline at nominal speed untraced "
             f"{plain:.4f} s, traced {wrapped:.4f} s"]
    lines += [f"{k}: {v['value']:.6g} {v['unit']}" for k, v in metrics.items()
              if v["value"] and k.endswith(("self_s", "other_s", "MB_per_s", "per_replicate_s"))]
    return metrics, lines


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(versions: dict) -> dict:
    env = child_env()
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            **versions, "blas_env": {k: env.get(k) for k in BLAS_ENV},
            "git_commit": git_commit()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run unwinds, so every server it started is stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    hard_deadline = time.perf_counter() + HARD_LIMIT_S

    wl = workloads.WORKLOADS[args.workload](args.seed)
    work = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    for name, cfg in wl.configs.items():
        (work / "configs" / name).write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n")

    # the first import in a fresh checkout compiles bytecode; users pay that once
    with Server(work, hard_deadline) as warm:
        if "error" in warm.hello:
            print(f"benchmark cannot run: cannot import ohtlab from {SRC}: "
                  f"{warm.hello['error']}", file=sys.stderr)
            return 2
        versions = warm.hello["versions"]

    reps = run_reps(wl, work, args.seconds, bool(args.trace), hard_deadline)
    ops = [op for r in reps for op in r["ops"]]
    failed = sum(op["failed"] for op in ops)
    metrics, lines = per_layer(reps) if args.trace else end_to_end(reps)

    for op in ops:
        status = "FAILED " + "; ".join(op["misses"]) if op["failed"] else "ok"
        print(f"{op['op']} {op['command']}{' traced' if op['traced'] else ''}: "
              f"{op.get('cmd_s', float('nan')):.3f} s, samples {op['samples']}, "
              f"read {op['bytes_read']} B, wrote {op['bytes_written']} B: {status}")
        if op.get("missing_spans"):
            print(f"  functions no longer present, not traced: {op['missing_spans']}")
    print(f"{wl.name}: {len(reps)} repetitions, {len(ops)} ops, {failed} failed "
          f"(failed_frac {failed / len(ops):.4f})")
    for line in lines:
        print(line)
    env = environment(versions)
    print("environment: " + json.dumps(env, sort_keys=True))
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "configs": wl.configs,
              "reps": reps, "metrics": metrics}
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
