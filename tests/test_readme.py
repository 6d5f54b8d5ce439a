"""The README's library sketch runs, and names only the public API."""

import re
from pathlib import Path

import adjoint_cauchy

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs_on_the_public_api(capsys):
    (sketch,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace = {}
    exec(compile(sketch, str(README), "exec"), namespace)
    result = namespace["result"]
    assert result.converged and result.history[-1].j_value < 1e-5
    assert capsys.readouterr().out.startswith("True ")

    imported = re.search(r"from adjoint_cauchy import \((.*?)\)", sketch, re.S).group(1)
    public = adjoint_cauchy.__all__
    assert set(re.findall(r"\w+", imported)) <= set(public)
    assert len(public) == len(set(public))
    for name in public:
        assert getattr(adjoint_cauchy, name) is not None
