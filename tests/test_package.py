import ast
import os
import subprocess
import sys
from pathlib import Path

import logsense_ks

# package module -> the package modules it may import from
LAYERS = {
    "grid": set(),
    "params": set(),
    "simulator": {"grid", "params"},
    "diagnostics": {"grid", "params"},
    "oracles": {"grid", "params"},
}


def test_every_exported_name_resolves():
    exported = logsense_ks.__all__
    assert len(exported) == len(set(exported)), "a name is listed twice"
    missing = [name for name in exported if not hasattr(logsense_ks, name)]
    assert not missing, f"__all__ names what the package lacks: {missing}"


def test_import_leaves_numpy_random_unloaded():
    # numpy loads np.random on first use; a mode that draws nothing, such as
    # simulate from gaussian data, would otherwise pay about 6 MiB for it
    probe = "import sys, logsense_ks.cli; print('numpy.random' in sys.modules)"
    src = str(Path(logsense_ks.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def _package_imports(path):
    """The package modules a module's relative `from` imports name."""
    return {node.module or alias.name
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names}


def test_modules_import_only_lower_layers():
    package = Path(logsense_ks.__file__).parent
    for module, allowed in LAYERS.items():
        imported = _package_imports(package / f"{module}.py")
        assert imported <= allowed, f"{module} imports {imported - allowed}"


def _calls(function):
    """Names of the plain functions `function` calls."""
    return {node.func.id for node in ast.walk(function)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def test_mode_runners_build_no_config_object():
    # validation builds every object a mode runs, so a ConfigError can only
    # come out of validate_config: no runner reaches a config builder,
    # directly or through another function of the module
    tree = ast.parse((Path(logsense_ks.__file__).parent / "cli.py").read_text())
    calls = {node.name: _calls(node) for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    building = {"_build_grid", "_build_params", "_initial_state", "_ensemble",
                "_mapped", "_power_grids"}
    while True:
        reaching = {name for name, called in calls.items() if called & building}
        if reaching <= building:
            break
        building |= reaching
    runners = [name for name in calls if name.startswith("_mode_")]
    assert len(runners) == 6
    assert not building & set(runners), sorted(building & set(runners))
