"""`import ohtlab.cli` loads no scipy or JSON-schema module at all, and the
pipeline commands load neither those nor `numpy.ma`.

The pipelines' special functions (Hermite, Laguerre, factorials, Fock
amplitudes) are numpy recurrences and the bootstrap's shared-phase
back-projection is a numpy gather, so no command needs scipy loaded at
start-up; a scipy submodule is imported only inside a function that no
pipeline command calls.  Configs are checked by the package's own
dataclass reader, so no `jsonschema` (nor its `referencing`, `rpds` and
`jsonschema_specifications`) is loaded.  Distinct values are counted by
`detection.distinct`, because a plain `np.unique` imports `numpy.ma`.
Run as a script,

    python tests/test_import_hygiene.py

checks the `ohtlab` the interpreter imports, e.g. an installed package:
it exits 1 if the import loads any scipy or JSON-schema module, or if
`simulate`, `reconstruct --bootstrap 2` and `moments` on a small grid
record load `numpy.ma` or such a module.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: what the pipeline commands need loaded, none of it UNWANTED
BASELINE = "import numpy"
#: top-level packages no pipeline command loads
UNWANTED = ("scipy", "jsonschema", "referencing", "rpds", "jsonschema_specifications")
#: submodules no pipeline command calls, named in the report if one loads
DEFERRED = ("scipy.stats", "scipy.signal", "scipy.interpolate", "scipy.special",
            "scipy.sparse", "scipy.linalg")
#: a small grid record: 16 phases fold onto the 8 that `--dim 4` and the
#: moments' fourth-order phase averages need
GRID_RECORD = {"state": {"kind": "fock", "n": 1}, "schedule": {"kind": "grid", "d": 16},
               "n_samples": 4000, "seed": 1}
#: run in a fresh interpreter: the CLI commands given as JSON, their exit
#: codes, then the numpy.ma and UNWANTED modules loaded
_RUN_COMMANDS = """
import contextlib, io, json, sys
from ohtlab import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps(codes))
print('\\n'.join(m for m in sys.modules
                 if m == 'numpy.ma' or m.split('.')[0] in %r))
""" % (UNWANTED,)


def unwanted_modules(statement: str, env=None) -> set[str]:
    """The UNWANTED modules loaded in a fresh interpreter after `statement`."""
    code = (f"{statement}\nimport sys\n"
            f"print('\\n'.join(m for m in sys.modules if m.split('.')[0] in {UNWANTED!r}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    return set(out.split())


def import_problems(env=None) -> list[str]:
    loaded = unwanted_modules("import ohtlab.cli", env)
    problems = [f"loaded beyond the baseline: {m}"
                for m in sorted(loaded - unwanted_modules(BASELINE, env))]
    problems += [f"loaded a deferred submodule: {m}" for m in DEFERRED if m in loaded]
    return problems


def command_problems(workdir, env=None) -> list[str]:
    """What `simulate`, `reconstruct --bootstrap 2` and `moments` on
    GRID_RECORD, run in one fresh interpreter with artifacts under workdir,
    do wrong: a nonzero exit, or numpy.ma or an UNWANTED module loaded."""
    workdir = Path(workdir)
    (workdir / "sim.json").write_text(json.dumps(GRID_RECORD))
    record = str(workdir / "sim" / "dataset.jsonl")
    commands = [
        ["simulate", "--config", str(workdir / "sim.json"), "--out", str(workdir / "sim")],
        ["reconstruct", "--input", record, "--dim", "4", "--bootstrap", "2",
         "--out", str(workdir / "rec")],
        ["moments", "--input", record, "--out", str(workdir / "mom")],
    ]
    out = subprocess.run([sys.executable, "-c", _RUN_COMMANDS, json.dumps(commands)],
                         capture_output=True, text=True, check=True, env=env).stdout
    codes, _, loaded = out.partition("\n")
    problems = [f"{argv[0]} exited {code}"
                for argv, code in zip(commands, json.loads(codes)) if code]
    return problems + [f"a command loaded {m}" for m in sorted(loaded.split())]


def _source_env() -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def test_cli_import_loads_only_what_the_pipelines_call():
    assert import_problems(_source_env()) == []


def test_commands_load_no_numpy_ma_or_scipy(tmp_path):
    assert command_problems(tmp_path, _source_env()) == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        problems = import_problems() + command_problems(workdir)
    print("\n".join(problems)
          or "ohtlab.cli and its pipelines load no scipy or JSON-schema module, nor numpy.ma")
    sys.exit(1 if problems else 0)
