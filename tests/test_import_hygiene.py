"""`import ohtlab.cli` loads no scipy module at all.

The pipelines' special functions (Hermite, Laguerre, factorials, Fock
amplitudes) are numpy recurrences and the bootstrap's shared-phase
back-projection is a numpy gather, so no command needs scipy loaded at
start-up; a scipy submodule is imported only inside a function that no
pipeline command calls.  Run as a script,

    python tests/test_import_hygiene.py

checks the `ohtlab` the interpreter imports, e.g. an installed package,
and exits 1 if the import loads any scipy module.
"""

import os
import subprocess
import sys
from pathlib import Path

#: what the pipeline commands need loaded, none of it scipy
BASELINE = "import numpy, jsonschema"
#: submodules no pipeline command calls, named in the report if one loads
DEFERRED = ("scipy.stats", "scipy.signal", "scipy.interpolate", "scipy.special",
            "scipy.sparse", "scipy.linalg")


def scipy_modules(statement: str, env=None) -> set[str]:
    """The scipy modules loaded in a fresh interpreter after `statement`."""
    code = (f"{statement}\nimport sys\n"
            "print('\\n'.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    return set(out.split())


def import_problems(env=None) -> list[str]:
    loaded = scipy_modules("import ohtlab.cli", env)
    problems = [f"loaded beyond the baseline: {m}"
                for m in sorted(loaded - scipy_modules(BASELINE, env))]
    problems += [f"loaded a deferred submodule: {m}" for m in DEFERRED if m in loaded]
    return problems


def test_cli_import_loads_only_what_the_pipelines_call():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    assert import_problems({**os.environ, "PYTHONPATH": path}) == []


if __name__ == "__main__":
    problems = import_problems()
    print("\n".join(problems) or "ohtlab.cli loads no scipy module")
    sys.exit(1 if problems else 0)
