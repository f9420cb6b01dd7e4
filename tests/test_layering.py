"""Architectural layering guard, now a thin wrapper over ``repro lint``.

The dependency DAG between ``repro`` packages is declared in exactly one
place — :data:`repro.analysis.rules.layer_dag.LAYER_DEPS` — and enforced
by the **layer-dag** rule (which catches absolute *and* relative import
spellings; it subsumed both the ruff TID251 banned-api config and this
file's original bespoke AST walk).  This test runs that rule over the
source tree per module, checks the declaration itself is acyclic, and
keeps self-check fixtures proving the rule still catches every spelling
the old guard existed to forbid.

The last class looks at the *loaded* import set in a fresh interpreter:
what a serving process pays for at start-up, and that the numpy-only
install ``pyproject.toml`` declares can build a fleet and serve.
"""

import os
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

from repro.analysis import SourceFile
from repro.analysis.rules.layer_dag import LAYER_DEPS, LayerDagRule

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _modules():
    return sorted(p for p in SRC.rglob("*.py") if "__pycache__" not in p.parts)


@pytest.mark.parametrize("path", _modules(),
                         ids=lambda p: str(p.relative_to(SRC)))
def test_declared_layer_dag_holds(path):
    source = SourceFile.load(path)
    findings = [f for f in LayerDagRule().check(source)
                if not source.is_suppressed(f)]
    assert not findings, (
        f"{path.relative_to(SRC)} violates the declared layer DAG "
        f"(repro.analysis.rules.layer_dag.LAYER_DEPS): "
        f"{[f.message for f in findings]}")


def test_layer_deps_is_acyclic():
    try:
        order = list(TopologicalSorter(
            {pkg: set(deps) for pkg, deps in LAYER_DEPS.items()}
        ).static_order())
    except CycleError as exc:
        pytest.fail(f"LAYER_DEPS declares an import cycle: {exc.args[1]}")
    assert set(order) >= set(LAYER_DEPS)


def test_every_source_package_is_declared():
    packages = {p.name for p in SRC.iterdir() if (p / "__init__.py").exists()}
    packages |= {p.stem for p in SRC.glob("*.py") if p.stem != "__init__"}
    undeclared = packages - set(LAYER_DEPS)
    assert not undeclared, (
        f"packages missing from LAYER_DEPS: {sorted(undeclared)}")


def _findings(text: str, module: str, filename: str = "fixture.py"):
    source = SourceFile(filename, text, module=module)
    return list(LayerDagRule().check(source))


class TestGuardSelf:
    """The guard must catch every spelling it exists to forbid."""

    def test_absolute_from_import(self):
        assert _findings("from repro.gateway.server import GatewayServer\n",
                         module="repro.serving.fleet")

    def test_absolute_import(self):
        assert _findings("import repro.gateway.protocol\n",
                         module="repro.serving.fleet")

    def test_relative_import(self):
        # The exact PR 4 inversion: a serving module reaching over.
        assert _findings("from ..gateway.protocol import MAX_FRAME_BYTES\n",
                         module="repro.serving.fleet")

    def test_relative_import_from_package_init(self):
        # __init__ relative imports anchor at the package itself.
        assert _findings("from .protocol import MAX_FRAME_BYTES\n",
                         module="repro.serving",
                         filename="serving/__init__.py") == []
        assert _findings("from ..gateway import protocol\n",
                         module="repro.serving",
                         filename="serving/__init__.py")

    def test_undeclared_package_is_flagged(self):
        assert _findings("import os\n", module="repro.brand_new_pkg")

    def test_legitimate_imports_pass(self):
        assert not _findings(
            "from ..metrics import percentile\n"
            "from ..runtime import ServingEngine\n"
            "import numpy as np\n", module="repro.serving.fleet")

    def test_suppression_comment_is_honored(self):
        text = ("# repro: allow[layer-dag] deliberate lazy back-edge\n"
                "from ..serving.batcher import ScoreRequest\n")
        source = SourceFile("fixture.py", text,
                            module="repro.runtime.backends")
        findings = [f for f in LayerDagRule().check(source)
                    if not source.is_suppressed(f)]
        assert findings == []


_SERVE = """
import repro.cli, repro.gateway, repro.serving, repro.wal, repro.api
from repro.api import Pipeline
from repro.serving import build_fleet
pipe = Pipeline.from_config(None, overrides=[
    "experiment.train_steps=5", "experiment.dataset_scale=0.1",
    "experiment.frames_per_video=24"])
fleet = build_fleet(pipe, ["Stealing"], streams=2)
events = fleet.step()
assert [e.scores.shape for e in events] == [(2,), (2,)], events
"""


def _fresh_interpreter(script: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestServingImportSet:
    def test_serving_never_loads_networkx(self):
        """285 modules and 14 MB per process when ``repro.kg`` imported it
        at module level (the cold-import rule is the static half of this
        check)."""
        out = _fresh_interpreter(
            "import sys\n" + _SERVE + "print('networkx' in sys.modules)\n")
        assert out.strip() == "False"

    def test_numpy_only_install_serves_and_names_the_extra(self):
        """``sys.modules[name] = None`` makes ``import name`` raise
        ImportError: the install ``pip install -e .`` produces."""
        out = _fresh_interpreter(
            "import sys\nsys.modules['networkx'] = None\n" + _SERVE + """
from repro.errors import MissingExtraError
from repro.kg import kg_statistics, to_networkx
for needs_extra in (kg_statistics, to_networkx):
    try:
        needs_extra(pipe.generate_kg("Stealing"))
    except MissingExtraError as exc:
        assert isinstance(exc, ImportError)
        print(exc)
""")
        assert out.count("repro[analysis]") == 2
