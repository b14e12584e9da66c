import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import torus_action

# The public surface: what the CLI, the README quick start, the acceptance
# suite and perfbench/worker.py call, the result types those calls return,
# and the error dense_solve raises: 37 names.  Helpers that only the unit
# tests call are imported from their modules.
PUBLIC_NAMES = {
    # grid
    "Field",
    "TorusGrid",
    "build_grid",
    "integrate",
    # potentials
    "Potential",
    "TrigPath",
    "TrigTerm",
    "make_linear_drift",
    "make_log_sum_exp",
    "make_manufactured",
    "make_quadratic_form",
    "make_quadratic_shift",
    "potential_from_dict",
    # operators
    "DiffOperator",
    "Scheme",
    "action_gradient",
    "action_value",
    "l2_inner",
    "laplacian",
    # minimize
    "SolveResult",
    "SolveStatus",
    "SolverOptions",
    "default_init",
    "newton_krylov_refine",
    "solve",
    # certify
    "Coercivity",
    "SolvabilityCertificate",
    "Verdict",
    "build_mean_potential",
    "certify",
    "coercivity_probe",
    "find_stationary_mean",
    "fluctuation_ratio",
    "wirtinger_constant",
    # oracle
    "NotPositiveDefiniteError",
    "assemble_quadratic_system",
    "dense_solve",
}


def test_public_names_are_pinned():
    exported = {
        name
        for name in dir(torus_action)
        if not name.startswith("_") and not inspect.ismodule(getattr(torus_action, name))
    }
    assert exported == PUBLIC_NAMES


def test_all_is_the_pinned_names_and_holds_no_module():
    assert isinstance(torus_action.__all__, tuple)
    assert len(torus_action.__all__) == len(set(torus_action.__all__))
    assert set(torus_action.__all__) == PUBLIC_NAMES
    assert not [name for name in torus_action.__all__
                if inspect.ismodule(getattr(torus_action, name))]


def test_every_dataclass_the_package_defines_is_frozen():
    # a frozen value is changed by dataclasses.replace alone, never in place
    frozen = {}
    for info in pkgutil.iter_modules(torus_action.__path__):
        module = importlib.import_module(f"torus_action.{info.name}")
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                frozen[f"{info.name}.{name}"] = obj.__dataclass_params__.frozen
    assert len(frozen) == 9, sorted(frozen)
    assert [name for name, is_frozen in frozen.items() if not is_frozen] == []


def test_readme_python_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    status, verdict = capsys.readouterr().out.splitlines()
    assert status.startswith("SolveStatus.CONVERGED ")
    assert verdict.startswith("Verdict.SOLVABLE Coercivity.COERCIVE ")
