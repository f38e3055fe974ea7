"""The package runs on numpy alone: no file under `ohtlab` imports scipy,
`import ohtlab.cli` loads no JSON-schema module, and every CLI command
exits 0 in an interpreter where `import scipy` fails, loading neither
`numpy.ma` nor a JSON-schema module.

The special functions (Hermite, Laguerre, factorials, Fock amplitudes)
are numpy recurrences and the bootstrap's shared-phase back-projection is
a numpy gather.  Configs are checked by the package's own dataclass
reader, so no `jsonschema` (nor its `referencing`, `rpds` and
`jsonschema_specifications`) is loaded.  Distinct values are counted by
`detection.distinct`, because a plain `np.unique` imports `numpy.ma`.
The scipy-backed references the tests use live in `tests/oracles.py`.
This file imports only the standard library, so on a bare install

    python -m pip install .
    python tests/test_import_hygiene.py

checks the `ohtlab` the interpreter imports and exits 1 on any problem.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: what the pipeline commands need loaded, none of it UNWANTED
BASELINE = "import numpy"
#: top-level packages no command loads
UNWANTED = ("scipy", "jsonschema", "referencing", "rpds", "jsonschema_specifications")
#: one small config per command that takes one; 16 grid phases fold onto
#: the 8 that `--dim 4` and the moments' fourth-order phase averages need
CONFIGS = {
    "simulate": {"state": {"kind": "fock", "n": 1}, "schedule": {"kind": "grid", "d": 16},
                 "n_samples": 4000, "seed": 1},
    "twomode": {"source": {"kind": "hbt_split", "nbar": 1.0}, "n_samples": 500, "seed": 1},
    "array": {"n_pixels": 8, "n_pulses": 300, "seed": 1},
    "calibrate": {"lo_levels": [1e5, 3e5, 6e5], "pulses_per_level": 200, "seed": 1},
    "sample": {"signal": {"nu": 6.0, "bandwidth": 4.0, "span": 80.0, "points": 2048}},
}
#: run in a fresh interpreter where `import scipy` fails (a None entry in
#: sys.modules): the CLI commands given as JSON, their exit codes (or the
#: exception that ended one), then the numpy.ma and UNWANTED modules loaded
_RUN_COMMANDS = """
import contextlib, io, json, sys
sys.modules['scipy'] = None
from ohtlab import cli
def run(argv):
    try:
        return cli.main(argv)
    except Exception as exc:
        return repr(exc)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [run(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps(codes))
print('\\n'.join(m for m, mod in sys.modules.items() if mod is not None
                 and (m == 'numpy.ma' or m.split('.')[0] in %r)))
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
    return [f"loaded beyond the baseline: {m}"
            for m in sorted(loaded - unwanted_modules(BASELINE, env))]


def scipy_imports(package_dir) -> list[str]:
    """Every import of a scipy module in the .py files under package_dir."""
    found = []
    for path in sorted(Path(package_dir).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} imports {n}"
                      for n in names if n.split(".")[0] == "scipy"]
    return found


def command_problems(workdir, env=None) -> list[str]:
    """What every command, run on CONFIGS in one fresh interpreter where
    scipy cannot be imported, with artifacts under workdir, does wrong: a
    nonzero exit, or numpy.ma or an UNWANTED module loaded."""
    workdir = Path(workdir)
    for name, doc in CONFIGS.items():
        (workdir / f"{name}.json").write_text(json.dumps(doc))
    record = str(workdir / "simulate" / "dataset.jsonl")
    commands = [[name, "--config", str(workdir / f"{name}.json"), "--out", str(workdir / name)]
                for name in CONFIGS]
    commands += [
        ["reconstruct", "--input", record, "--dim", "4", "--bootstrap", "3",
         "--out", str(workdir / "rec")],
        ["moments", "--input", record, "--format", "csv", "--out", str(workdir / "mom")],
        ["validate", "--input", str(workdir / "array" / "frames.jsonl")],
        ["validate", "--input", str(workdir / "simulate" / "manifest.json")],
        ["validate", "--input", str(workdir / "rec" / "rho.json")],
    ]
    out = subprocess.run([sys.executable, "-c", _RUN_COMMANDS, json.dumps(commands)],
                         capture_output=True, text=True, check=True, env=env).stdout
    codes, _, loaded = out.partition("\n")
    problems = [f"{' '.join(argv[:3])} exited {code}"
                for argv, code in zip(commands, json.loads(codes)) if code]
    return problems + [f"a command loaded {m}" for m in sorted(loaded.split())]


def _source_env() -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def test_no_source_file_imports_scipy():
    assert scipy_imports(Path(__file__).resolve().parent.parent / "src" / "ohtlab") == []


def test_cli_import_loads_only_what_the_pipelines_call():
    assert import_problems(_source_env()) == []


def test_commands_load_no_numpy_ma_or_scipy(tmp_path):
    assert command_problems(tmp_path, _source_env()) == []


if __name__ == "__main__":
    package_dir = Path(importlib.util.find_spec("ohtlab").origin).parent
    with tempfile.TemporaryDirectory() as workdir:
        problems = (scipy_imports(package_dir) + import_problems()
                    + command_problems(workdir))
    print("\n".join(problems)
          or "ohtlab imports no scipy module, and every command runs without scipy, "
             "JSON-schema modules or numpy.ma")
    sys.exit(1 if problems else 0)
