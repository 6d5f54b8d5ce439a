import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import configuration

from adjoint_cauchy import AnnulusSpec, FemBackend, generate_mesh

# The property tests run with database=None, but hypothesis' pytest plugin
# still caches the constants it reads from the tested modules, at collection;
# keep that cache out of the checkout.
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "adjoint-cauchy-hypothesis")

R_INNER = 1.0
R_OUTER = 3.0


@pytest.fixture(scope="session")
def default_mesh():
    """The default experiment resolution; shared because assembly is the slow part."""
    return generate_mesh(AnnulusSpec(R_INNER, R_OUTER, 27, 160))


@pytest.fixture(scope="session")
def fem_default(default_mesh):
    return FemBackend(default_mesh)


@pytest.fixture(scope="session")
def src_env():
    """Environment for a subprocess that imports the package from this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)

