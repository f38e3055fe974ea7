"""Tests of the benchmark itself: span arithmetic, failure accounting,
speed scaling, the command server and seeded inputs.  Run with
`python3 -m pytest perfbench`; none of them starts the program (the server
tests run a stand-in `ohtlab` package)."""

import json
import sys
import types

import pytest

import run
import tracing
import workloads


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


def test_self_time_of_nested_calls():
    clock = FakeClock(10.0)
    tracer = tracing.Tracer(clock)

    def leaf():
        clock.t += 2.0

    def mid():
        clock.t += 1.0
        leaf_w()
        clock.t += 0.5
        leaf_w()

    leaf_w = tracer.wrap("m.leaf", leaf)
    mid_w = tracer.wrap("m.mid", mid)
    mid_w()
    clock.t += 3.0
    summary = tracing.summarize(tracer.spans, 9.0, clock.t)

    assert [s["parent"] for s in tracer.spans] == [None, 0, 0]
    assert summary["layers"]["m.mid"] == pytest.approx(
        {"self_s": 1.5, "calls": 1, "total_s": 5.5, "bytes": 0, "n_boot": 0})
    assert summary["layers"]["m.leaf"]["self_s"] == pytest.approx(4.0)
    assert summary["layers"]["m.leaf"]["calls"] == 2
    # 9.0 .. 18.5 minus the 5.5 s the top-level span covers
    assert summary["other_s"] == pytest.approx(4.0)


def test_spans_outside_the_command_window_are_refused():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    tracer.wrap("m.f", lambda: setattr(clock, "t", clock.t + 1.0))()
    with pytest.raises(ValueError):
        tracing.summarize(tracer.spans, 0.0, 0.5)


def test_install_rebinds_every_module_that_imported_a_function(monkeypatch):
    pkg = "fakeohtlab"
    mods = {name: types.ModuleType(f"{pkg}.{name}") for name in tracing.LAYERS}

    def hermite_psi_all(n_max, q_axis):
        return n_max

    mods["states"].hermite_psi_all = hermite_psi_all
    mods["detection"].hermite_psi_all = hermite_psi_all   # from .states import ...
    monkeypatch.setitem(sys.modules, pkg, types.ModuleType(pkg))
    for name, mod in mods.items():
        monkeypatch.setitem(sys.modules, f"{pkg}.{name}", mod)

    tracer = tracing.Tracer()
    missing = tracing.install(tracer, pkg)

    assert "states.hermite_psi_all" not in missing
    assert len(missing) == len(tracing.SPAN_NAMES) - 1
    assert mods["detection"].hermite_psi_all is mods["states"].hermite_psi_all
    assert mods["detection"].hermite_psi_all(3, None) == 3
    assert [s["name"] for s in tracer.spans] == ["states.hermite_psi_all"]


def _moments_step():
    return next(s for s in workloads.random_record(0).steps if s.command == "moments")


def _write_moments(rep_dir, mean_n):
    out = rep_dir / "mom"
    out.mkdir(exist_ok=True)
    doc = {"mean_n": mean_n, "mean_n_stderr": 0.006, "g2": 1.13, "g2_stderr": 0.002}
    (out / "moments.json").write_text(json.dumps(doc))


CHILD_OK = {"rc": 0, "cmd_start": 0.0, "cmd_end": 2.0, "cpu_s": 1.9, "maxrss_kb": 1024,
            "missing_spans": [], "spans": []}


def test_output_on_its_oracle_passes(tmp_path):
    _write_moments(tmp_path, 2.69)
    op = run.assess(_moments_step(), tmp_path, "rep0/step2", False, CHILD_OK, None)
    assert not op["failed"], op["misses"]
    assert op["cmd_s"] == 2.0


def test_output_that_misses_its_oracle_fails(tmp_path):
    _write_moments(tmp_path, 2.8)   # 19 standard errors from 2.6875
    op = run.assess(_moments_step(), tmp_path, "rep0/step2", False, CHILD_OK, None)
    assert op["failed"]
    assert "mean_n" in op["misses"][0]


def test_nonzero_exit_fails(tmp_path):
    _write_moments(tmp_path, 2.6875)
    child = dict(CHILD_OK, rc=3, error="exit 3: data error")
    op = run.assess(_moments_step(), tmp_path, "rep0/step2", False, child, None)
    assert op["failed"]


def test_tampered_artifact_fails(tmp_path):
    step = _moments_step()
    _write_moments(tmp_path, 2.6875)
    first = run.assess(step, tmp_path, "rep0/step2", False, CHILD_OK, None)
    assert not run.assess(step, tmp_path, "rep1/step2", False, CHILD_OK,
                          first["artifacts"])["failed"]
    path = tmp_path / "mom" / "moments.json"
    path.write_text(path.read_text().replace("1.13", "1.14"))
    op = run.assess(step, tmp_path, "rep2/step2", False, CHILD_OK, first["artifacts"])
    assert op["failed"]
    assert "moments.json" in op["misses"][0]


def test_record_closed_form():
    assert workloads.record_mean_n() == pytest.approx(2.6875)
    assert workloads.electronic_sigma(200.0, 0.8, 1e6) == pytest.approx(0.25)


def _rep(traced, import_s, cmd_s, ref_s):
    return {"traced": traced, "import_s": import_s, "reference_s": [ref_s, ref_s],
            "ops": [{"command": "simulate", "cmd_s": cmd_s, "maxrss_kb": 2048}]}


def test_times_are_scaled_to_the_nominal_reference_speed():
    nominal = run.REF_NOMINAL_S
    # the second repetition ran on a host half as fast: both times doubled
    reps = [_rep(False, 1.0, 3.0, nominal), _rep(False, 2.0, 6.0, 2 * nominal),
            _rep(False, 1.0, 3.0, nominal)]
    metrics, _ = run.end_to_end(reps)
    assert metrics["setup_s"]["value"] == pytest.approx(1.0)
    assert metrics["pipeline_s"]["value"] == pytest.approx(3.0)
    assert metrics["peak_rss_mb"]["value"] == pytest.approx(2.0)
    assert run.series(reps, scaled=False)["pipeline_s"] == [3.0, 6.0, 3.0]


def test_traced_repetitions_stay_out_of_pipeline_s():
    reps = [_rep(False, 1.0, 3.0, run.REF_NOMINAL_S), _rep(True, 1.0, 9.0, run.REF_NOMINAL_S)]
    assert run.series(reps, scaled=True)["pipeline_s"] == [pytest.approx(3.0)]
    assert run.traced_pipeline(reps) == [pytest.approx(9.0)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_inputs(name):
    make = workloads.WORKLOADS[name]
    assert make(7).configs == make(7).configs
    assert make(7).configs != make(8).configs
    # only the program's seeds move; the checks' targets stay exact
    strip = [{k: v for k, v in cfg.items() if k != "seed"} for cfg in make(8).configs.values()]
    assert strip == [{k: v for k, v in cfg.items() if k != "seed"}
                     for cfg in make(7).configs.values()]


FAKE_CLI = '''
import sys, time
from pathlib import Path

def main(argv):
    if argv[0] == "ok":
        Path("out.txt").write_text("done")
        print("printed output stays off the protocol")
        return 0
    if argv[0] == "rc":
        return 4
    if argv[0] == "crash":
        raise RuntimeError("boom")
    time.sleep(600)
'''


def _fake_server(tmp_path, seconds):
    src = tmp_path / "src"
    (src / "ohtlab").mkdir(parents=True)
    (src / "ohtlab" / "__init__.py").write_text("")
    (src / "ohtlab" / "cli.py").write_text(FAKE_CLI)
    return run.Server(tmp_path, run.time.perf_counter() + seconds, src)


def test_server_runs_commands_and_the_reference_in_forked_children(tmp_path):
    with _fake_server(tmp_path, 60) as server:
        assert server.hello["import_s"] > 0
        ok = server.request(tmp_path, tmp_path / "ok.json", ["ok"], False)
        assert "error" not in ok and ok["rc"] == 0
        assert (tmp_path / "out.txt").read_text() == "done"
        ref = server.request(tmp_path, tmp_path / "ref.json", None, False)
        assert ref["reference_s"] > 0
        assert "exit 4" in server.request(tmp_path, tmp_path / "rc.json", ["rc"], False)["error"]
        crash = server.request(tmp_path, tmp_path / "crash.json", ["crash"], False)
        assert "boom" in crash["error"]
        # the server outlives its children's failures
        assert server.request(tmp_path, tmp_path / "ok.json", ["ok"], False)["rc"] == 0
    assert server.proc.returncode is not None


def test_server_is_killed_at_the_deadline(tmp_path):
    with _fake_server(tmp_path, 10) as server:
        hang = server.request(tmp_path, tmp_path / "hang.json", ["hang"], False)
    assert "timed out" in hang["error"]
    assert server.proc.returncode is not None
    with pytest.raises(ProcessLookupError):
        run.os.killpg(server.proc.pid, 0)   # no process of its group is left


def test_missing_program_gives_an_error_not_a_result(tmp_path):
    with run.Server(tmp_path, run.time.perf_counter() + 60, tmp_path / "nosrc") as server:
        assert "error" in server.hello
        assert "error" in server.request(tmp_path, tmp_path / "x.json", ["ok"], False)
