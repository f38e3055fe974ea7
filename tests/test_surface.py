"""Every public top-level function and class of `ohtlab` has a caller
outside `tests/`, or a stated reason to stay without one.

A name counts as called when package code other than its own definition,
a file under `scripts/` or a file under `perfbench/` refers to it: as a
name, an attribute, an imported name, or an identifier string (the
benchmark's tracer looks its layers up by name).  Public API that only
tests reach is either given a use or deleted; the allowlist below holds
the exceptions.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: public names that only tests call, each with why it stays
TEST_ONLY = {
    "moments.n_min": "the acceptance gate's measurement-count formula",
    "detection.gain_balancing_sim": "the acceptance gate's gain-balancing run",
    "states.wavefunction_from_rho": "the acceptance gate's pure-state wave function",
    "arrays.unbalanced_spectral_sim": "the acceptance gate's unbalanced array run",
    "states.wigner_from_rho": "closed-form Wigner function, the tests' ground truth",
    "states.wigner_kernel_fourier": "second Wigner kernel that checks the Laguerre one",
    "states.q_function": "closed-form Q function, the tests' ground truth",
    "states.quadrature_moments": "closed-form quadrature moments, the tests' ground truth",
    "states.quadrature_pdf": "closed-form quadrature marginal that pdf_table is checked on",
    "states.apply_loss": "closed-form lossy state that lossy records are checked on",
    "states.rho_from_wigner": "rebuilds ρ from a Wigner grid, the inverse of wigner_from_rho",
}


def _references(tree) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            found.add(node.value)
    return found


def uncalled_public_names(root=ROOT) -> set[str]:
    """module.name of each public top-level function or class of the package
    that nothing outside tests/ and its own definition refers to."""
    package = sorted((root / "src" / "ohtlab").glob("*.py"))
    trees = {p: ast.parse(p.read_text(), str(p)) for p in package}
    outside = set()
    for path in sorted((root / "scripts").glob("*.py")) + sorted((root / "perfbench").glob("*.py")):
        outside |= _references(ast.parse(path.read_text(), str(path)))
    uncalled = set()
    for path, tree in trees.items():
        others = outside.union(*(_references(t) for p, t in trees.items() if p != path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in others):
                rest = ast.Module(body=[n for n in tree.body if n is not node], type_ignores=[])
                if node.name not in _references(rest):
                    uncalled.add(f"{path.stem}.{node.name}")
    return uncalled


def test_public_names_have_callers_outside_tests():
    assert uncalled_public_names() == set(TEST_ONLY)
