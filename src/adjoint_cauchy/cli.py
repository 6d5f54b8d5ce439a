"""Command-line harness for annulus Cauchy-problem experiments.

Four subcommands work off a single JSON config file:

* ``run``          one descent run; writes history.csv, omega_final.csv,
                   summary.json into the output directory
* ``compare``      the same run for several strategies; adds compare.csv
                   with one functional-value column per strategy
* ``oracle-check`` per-mode finite element responses against the spectral
                   maps, with an optional refinement pass
* ``mesh-info``    mesh statistics, optionally dumping node/triangle CSVs

Every output file is written here, and ``_write`` opens each one: one
format and one line ending for the whole run directory.

Exit codes: 0 success (including a run that merely hit its iteration cap),
1 usage or config error, 2 numerical failure (divergence or overflow of the
iterates, Armijo step underflow, a step band whose mode factors underflow
to an infinite step), 3 oracle tolerance breach. Exit 1 also covers Cauchy
data without a finite square norm, a config that is not UTF-8, JSON
nested too deeply, an output file name taken by a directory (the files
written before it stay) and a closed stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import inspect
import itertools
import json
import math
import os
import sys
import time
import typing
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .boundary import BoundaryFunction, check_annulus, is_count
from .fem import FemBackend, SolverError
from .iteration import DivergenceError, IterationRecord, RunResult, StopRule, run
from .mesh import AnnulusMesh, AnnulusSpec, generate_mesh, triangle_areas
from .problems import HarmonicTerm, builtin_terms, cauchy_data, exact_inner_trace
from .spectral import SpectralBackend
from .steps import (
    Armijo,
    Constant,
    ExplicitSchedule,
    ModeSweep,
    OptimalTwoMode,
    StepStrategy,
    StepUnderflowError,
)

__all__ = ["ConfigError", "main", "oracle_check"]

EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_ORACLE = 3

# The direct solve is exact to rounding, so coarse-grid errors below this
# are rounding, not discretisation error (P1 reproduces mode 0 exactly),
# and a refinement ratio of them is meaningless noise.
RATIO_FLOOR = 1e-10


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@contextlib.contextmanager
def _context(name: str):
    """Report a ``ValueError`` or ``OSError`` of the block as a config error
    that names ``name``, an ``OSError`` by its ``strerror`` alone."""
    try:
        yield
    except ConfigError:
        raise
    except OSError as exc:
        raise ConfigError(f"{name}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _number(value: Any, context: str) -> float:
    """Accept JSON numbers or exact-fraction strings like ``"1681/486"``."""
    if isinstance(value, bool):
        raise ConfigError(f"{context}: expected a number, got {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(Fraction(value))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ConfigError(f"{context}: cannot parse {value!r} as a number") from exc
    raise ConfigError(f"{context}: expected a number, got {value!r}")


def _count(value: Any, context: str) -> int:
    """Accept a JSON whole number; booleans, fractions and strings are errors."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ConfigError(f"{context}: expected a whole number, got {value!r}")
    return int(value)


def _flag(value: Any, context: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{context}: expected true or false, got {value!r}")
    return value


def _text(value: Any, context: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{context}: expected a string, got {value!r}")
    return value


# the reader of each parameter type that a config value can take
_READERS = {int: _count, float: _number, bool: _flag, str: _text}

# the keys a config may hold at its top level
CONFIG_KEYS = {
    "radii", "mesh", "backend", "data", "strategy", "strategies", "stop", "oracle", "output_dir"
}


def _only_keys(obj: dict, allowed: set[str], context: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise ConfigError(f"{context}: unknown fields {sorted(extra)}")


def _read(hint: Any, value: Any, context: str) -> Any:
    """Read one config value as the annotated type ``hint``: a scalar, ``X |
    None``, a non-empty list for ``tuple[X, ...]``, or an object for a
    dataclass."""
    args = typing.get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        (hint,) = [arg for arg in args if arg is not type(None)]
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{context} must be a non-empty list")
        item = typing.get_args(hint)[0]
        return tuple(_read(item, entry, f"{context}[{i}]") for i, entry in enumerate(value))
    if dataclasses.is_dataclass(hint):
        return _build(hint, value, context)
    return _READERS[hint](value, context)


def _build(target: Callable, obj: Any, context: str, **given: Any) -> Any:
    """Call ``target`` with the config object ``obj`` as keyword arguments.

    The keys are the parameters of ``target`` that are not ``given``. Each
    value is read as its parameter's annotated type, and a parameter
    without a default is a required key. A ``ValueError`` that ``target``
    raises becomes a ``ConfigError`` that names ``context``.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be an object, got {obj!r}")
    params = inspect.signature(target).parameters
    _only_keys(obj, set(params) - set(given), context)
    hints = typing.get_type_hints(target)
    kwargs = dict(given)
    for name, param in params.items():
        if name in obj:
            kwargs[name] = _read(hints[name], obj[name], f"{context}.{name}")
        elif name not in given and param.default is param.empty:
            raise ConfigError(f"{context} needs {name!r}")
    with _context(context):
        return target(**kwargs)


def _finite(text: str) -> float:
    """JSON number hook: ``json`` reads Infinity, NaN and overflowing
    literals such as 1e999 as floats; no config field accepts them."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"the non-finite number {text}")
    return value


def _json(text: str, source: str) -> Any:
    """Read user JSON; a ``ValueError`` or too deep nesting names ``source``."""
    with _context(f"{source}: cannot read JSON"):
        try:
            return json.loads(text, parse_float=_finite, parse_constant=_finite)
        except RecursionError as exc:
            raise ValueError("nested too deeply") from exc


def load_config(path: str) -> dict:
    with _context(f"config {path}"):
        cfg = _json(Path(path).read_text(encoding="utf-8"), f"config {path}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    _only_keys(cfg, CONFIG_KEYS, "config")
    return cfg


def _radii(inner: float, outer: float) -> tuple[float, float]:
    """The ``radii`` section: the two radii of the annulus."""
    check_annulus(inner, outer)
    return inner, outer


def _mesh_spec(cfg: dict) -> AnnulusSpec:
    r_inner, r_outer = _build(_radii, cfg.get("radii"), "radii")
    return _build(AnnulusSpec, cfg.get("mesh"), "mesh", r_inner=r_inner, r_outer=r_outer)


def _data(
    name: str | None = None, terms: tuple[HarmonicTerm, ...] | None = None
) -> tuple[HarmonicTerm, ...]:
    """The ``data`` section: a built-in example's name or a list of terms."""
    if (name is None) == (terms is None):
        raise ValueError("needs exactly one of a built-in 'name' and an explicit 'terms' list")
    return terms or builtin_terms(name)


STRATEGY_KINDS = {
    "constant": Constant,
    "armijo": Armijo,
    "optimal": OptimalTwoMode,
    "sweep": ModeSweep,
    "schedule": ExplicitSchedule,
}


def _strategy(obj: Any, context: str = "strategy") -> StepStrategy:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{context} must be an object with a 'kind' field")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in STRATEGY_KINDS:
        raise ConfigError(f"{context}: unknown strategy kind {kind!r}")
    fields = {key: value for key, value in obj.items() if key != "kind"}
    return _build(STRATEGY_KINDS[kind], fields, context)


def _backend(cfg: dict):
    name = cfg.get("backend", "fem")
    if name not in ("fem", "spectral"):
        raise ConfigError(f"unknown backend {name!r}; expected 'fem' or 'spectral'")
    spec = _mesh_spec(cfg)
    # numpy raises ``ValueError`` for an array size it refuses, such as 8x1e300
    with _context("mesh"):
        if name == "fem":
            return FemBackend(generate_mesh(spec))
        return SpectralBackend(spec.r_inner, spec.r_outer, n_angular=spec.n_angular)


def _prepare(cfg: dict, out_override: str | None) -> tuple:
    """Read the data, the stop rule and the output path, build the backend
    and the Cauchy data, and only then create the output directory: a bad
    config leaves nothing behind."""
    terms = _build(_data, cfg.get("data"), "data")
    stop = _build(StopRule, cfg.get("stop", {}), "stop")
    path = out_override if out_override is not None else cfg.get("output_dir", "out")
    if not isinstance(path, str) or not path:
        raise ConfigError("output_dir must be a non-empty string")
    backend = _backend(cfg)
    with _context("data"):
        data = cauchy_data(terms, backend.outer_ring)
    return backend, terms, data, stop, _output_dir(path)


def _output_dir(path: str | Path) -> Path:
    """Create the output directory ``path``; a file in the way is a config error."""
    with _context(f"output_dir: cannot create {path}"):
        Path(path).mkdir(parents=True, exist_ok=True)
    return Path(path)


def _write(path: Path, lines: Iterable[str]) -> None:
    """Write one output file, every line ended by ``\\n``."""
    with _context(f"output_dir: cannot write {path}"):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(line + "\n" for line in lines)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """Write one CSV file: a float cell with 17 significant digits and any
    other cell with ``str``."""
    cells = ((f"{c:.17g}" if isinstance(c, float) else str(c) for c in row) for row in rows)
    _write(path, map(",".join, itertools.chain([header], cells)))


# the fields of ``IterationRecord`` in order, one column each
HISTORY_HEADER = (
    "k", "J", "grad_norm", "rho", "primary_solves", "adjoint_solves", "line_search_solves"
)


def _write_history(path: Path, history: list[IterationRecord]) -> None:
    _write_csv(path, HISTORY_HEADER, map(dataclasses.astuple, history))


def _dump_mesh(mesh: AnnulusMesh, directory: str | Path) -> tuple[Path, Path]:
    """Write ``nodes.csv`` (id, x, y, ring) and ``tris.csv`` (id, n0, n1,
    n2) into ``directory``, which is created; a node's ring tag is its
    level's: inner, outer or empty."""
    directory = _output_dir(directory)
    n_radial, n_angular = mesh.spec.n_radial, mesh.spec.n_angular
    tags = ["inner"] + [""] * (n_radial - 1) + ["outer"]
    nodes_path, tris_path = directory / "nodes.csv", directory / "tris.csv"
    nodes = ((i, x, y, tags[i // n_angular]) for i, (x, y) in enumerate(mesh.nodes))
    _write_csv(nodes_path, ("id", "x", "y", "ring"), nodes)
    tris = ((i, *corners) for i, corners in enumerate(mesh.triangles))
    _write_csv(tris_path, ("id", "n0", "n1", "n2"), tris)
    return nodes_path, tris_path


def _summary_payload(result: RunResult, wall_time: float, cfg: dict) -> dict:
    counters = result.counters
    return {
        "converged": result.converged,
        "stop_reason": result.reason,
        "iterations": result.iterations,
        "final_j": result.final_j,
        "primary_solves": counters.primary,
        "adjoint_solves": counters.adjoint,
        "line_search_solves": counters.line_search,
        "total_direct_solves": counters.total,
        "wall_time_s": wall_time,
        "backend": cfg.get("backend", "fem"),
    }


def cmd_run(cfg: dict, out_override: str | None) -> int:
    strategy = _strategy(cfg.get("strategy"))
    backend, terms, data, stop, out = _prepare(cfg, out_override)
    start = time.perf_counter()
    result = run(backend, data, strategy, stop)
    wall = time.perf_counter() - start

    _write_history(out / "history.csv", result.history)
    omega = result.omega.values
    exact = exact_inner_trace(terms, result.omega.ring).values
    _write_csv(
        out / "omega_final.csv",
        ("theta", "omega", "omega_exact", "error"),
        zip(result.omega.ring.angles, omega, exact, omega - exact),
    )
    summary = _summary_payload(result, wall, cfg)
    summary["strategy"] = cfg.get("strategy")
    _write(out / "summary.json", [json.dumps(summary, indent=2)])

    status = "converged" if result.converged else f"stopped ({result.reason})"
    print(
        f"{status}: {result.iterations} iterations, J = {result.final_j:.6e}, "
        f"{summary['total_direct_solves']} direct solves -> {out}"
    )
    return 0


def cmd_compare(cfg: dict, out_override: str | None) -> int:
    specs = cfg.get("strategies")
    if not isinstance(specs, list) or len(specs) < 2:
        raise ConfigError("compare needs a 'strategies' list with at least two entries")
    strategies = [_strategy(obj, f"strategies[{i}]") for i, obj in enumerate(specs)]
    backend, _, data, stop, out = _prepare(cfg, out_override)

    labels = [f"{i:02d}_{obj['kind']}" for i, obj in enumerate(specs)]
    results = []
    for label, strategy in zip(labels, strategies):
        result = run(backend, data, strategy, stop)
        _write_history(out / f"history_{label}.csv", result.history)
        results.append(result)
        print(
            f"{label}: {'converged' if result.converged else result.reason}, "
            f"{result.iterations} iterations, J = {result.final_j:.6e}, "
            f"{result.counters.total} direct solves"
        )

    # one J column per strategy, aligned on k; exhausted runs leave blanks
    depth = max(len(result.history) for result in results)
    columns = [[record.j_value for record in result.history] for result in results]
    rows = ([k, *(col[k] if k < len(col) else "" for col in columns)] for k in range(depth))
    _write_csv(out / "compare.csv", ("k", *(f"J_{label}" for label in labels)), rows)
    print(f"wrote {out / 'compare.csv'}")
    return 0


def oracle_check(
    spec: AnnulusSpec,
    modes: tuple[int, ...] = (0, 1, 2, 3),
    tolerance: float = 0.01,
    refine: bool = False,
    min_ratio: float = 3.0,
) -> list[dict]:
    """Per-mode finite element responses against the spectral backend's maps.

    Both maps are diagonal in angle, so one impulse solve each gives every
    mode's response: ``Td``, the ``rfft`` of the outer trace of a unit inner
    impulse, and ``Gn``, that of the gradient of a unit outer impulse. Mode
    j's trace error is ``|Td_j - T_j| / T_j`` and its flux error
    ``|Gn_j / ((R/r)*T_j) - 1|``, against a ``SpectralBackend``'s two maps;
    as C_j = 2*(R/r)*T_j^2, the latter is the gradient's error against C_j.
    Each map is judged against its own closed form, so the two checks do
    not pollute one another.

    With ``refine`` the mesh is doubled in both directions and each error
    must shrink by ``min_ratio``, except errors already at rounding level.
    Returns one result dict per mode; ``passed`` reflects all checks against
    the ``tolerance`` the entry records.
    """
    if not modes:
        raise ValueError("oracle check needs at least one mode")
    if not tolerance > 0.0:
        raise ValueError("tolerance must be positive")
    if not min_ratio >= 1.0:
        raise ValueError("min_ratio must be at least 1")
    nyquist = (spec.n_angular - 1) // 2
    for mode in modes:
        if not (is_count(mode) and 0 <= mode <= nyquist):
            raise ValueError(f"mode {mode!r} is not a whole number in the resolvable 0..{nyquist}")

    def errors_on(mesh_spec: AnnulusSpec) -> np.ndarray:
        """The trace and the flux errors of every requested mode, a row each."""
        backend = FemBackend(generate_mesh(mesh_spec))
        exact = SpectralBackend(mesh_spec.r_inner, mesh_spec.r_outer, mesh_spec.n_angular)
        inner, outer = backend.inner_ring, backend.outer_ring
        impulse = np.zeros(mesh_spec.n_angular)
        impulse[0] = 1.0
        from_inner = backend.solve_primary(
            BoundaryFunction(inner, impulse), BoundaryFunction.zeros(outer)
        )
        picked = list(modes)
        td = np.fft.rfft(from_inner.values)[picked]
        gn = np.fft.rfft(backend.solve_adjoint(BoundaryFunction(outer, impulse)).values)[picked]
        t_factor = exact.dirichlet_trace[picked]
        flux_err = np.abs(gn / exact.neumann_gradient[picked] - 1.0)
        return np.array([np.abs(td - t_factor) / t_factor, flux_err])

    coarse = errors_on(spec)
    fine = None
    if refine:
        doubled = dataclasses.replace(spec, n_radial=2 * spec.n_radial, n_angular=2 * spec.n_angular)
        fine = errors_on(doubled)

    results = []
    for i, mode in enumerate(modes):
        entry: dict[str, Any] = {"mode": mode, "tolerance": tolerance}
        ok = True
        for row, kind in enumerate(("trace", "flux")):
            error = entry[f"{kind}_error"] = float(coarse[row, i])
            entry[f"{kind}_ratio"] = None
            ok = ok and error <= tolerance
            if fine is not None and error > RATIO_FLOOR:
                ratio = entry[f"{kind}_ratio"] = error / float(fine[row, i])
                ok = ok and ratio >= min_ratio
        entry["passed"] = ok
        results.append(entry)
    return results


def cmd_oracle_check(cfg: dict) -> int:
    if cfg.get("backend", "fem") != "fem":
        raise ConfigError("oracle check requires the fem backend")
    results = _build(oracle_check, cfg.get("oracle", {}), "oracle", spec=_mesh_spec(cfg))
    modes = [entry["mode"] for entry in results]
    tolerance = results[0]["tolerance"]
    failing = []
    for entry in results:
        parts = [
            f"mode {entry['mode']}:",
            f"trace {entry['trace_error']:.3e}",
            f"flux {entry['flux_error']:.3e}",
        ]
        for key in ("trace_ratio", "flux_ratio"):
            if entry[key] is not None:
                parts.append(f"{key.split('_')[0]} shrink x{entry[key]:.2f}")
        parts.append("ok" if entry["passed"] else "FAIL")
        print(" ".join(parts))
        if not entry["passed"]:
            failing.append(entry["mode"])
    if failing:
        print(f"oracle check failed for modes {failing} (tolerance {tolerance:g})")
        return EXIT_ORACLE
    print(f"oracle check passed for modes {list(modes)} (tolerance {tolerance:g})")
    return 0


def cmd_mesh_info(cfg: dict, dump: str | None) -> int:
    spec = _mesh_spec(cfg)
    with _context("mesh"):
        mesh = generate_mesh(spec)
        areas = triangle_areas(mesh)
    annulus_area = np.pi * (spec.r_outer**2 - spec.r_inner**2)
    print(f"annulus {spec.r_inner:g} < r < {spec.r_outer:g}")
    print(f"resolution {spec.n_radial} radial x {spec.n_angular} angular")
    print(f"{mesh.n_nodes} nodes, {mesh.n_triangles} triangles")
    print(f"triangle area min {areas.min():.6e} max {areas.max():.6e}")
    print(f"mesh area {areas.sum():.17g} (annulus {annulus_area:.17g})")
    if dump is not None:
        nodes_path, tris_path = _dump_mesh(mesh, dump)
        print(f"wrote {nodes_path} and {tris_path}")
    return 0


def _override(cfg: dict, section: str, **values: Any) -> None:
    target = cfg.setdefault(section, {})
    if not isinstance(target, dict):
        raise ConfigError(f"{section} must be an object")
    target.update(values)


def _apply_overrides(cfg: dict, args: argparse.Namespace) -> None:
    """Write each override into ``cfg`` as the config file would hold it, so
    that the readers give it the file's checks."""
    if getattr(args, "backend", None) is not None:
        cfg["backend"] = args.backend
    if getattr(args, "mesh", None) is not None:
        with _context("--mesh expects RADIALxANGULAR, e.g. 27x160"):
            n_radial, n_angular = (_json(part, "--mesh") for part in args.mesh.lower().split("x"))
        _override(cfg, "mesh", n_radial=n_radial, n_angular=n_angular)
    if getattr(args, "j_tol", None) is not None:
        _override(cfg, "stop", j_tol=args.j_tol)
    if getattr(args, "strategy", None) is not None:
        cfg["strategy"] = _json(args.strategy, "--strategy")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adjoint-cauchy",
        description="Steepest-descent reconstruction of an inner boundary trace "
        "from outer Cauchy data on an annulus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("config", help="JSON experiment config")
        p.add_argument("--backend", choices=["fem", "spectral"], help="override backend")
        p.add_argument("--mesh", help="override resolution as RADIALxANGULAR, e.g. 27x160")
        p.add_argument("--j-tol", dest="j_tol", help="override stop tolerance on J")
        p.add_argument("--out", help="override output directory")

    p_run = sub.add_parser("run", help="single descent run")
    add_common(p_run)
    p_run.add_argument("--strategy", help="override strategy as a JSON object")

    p_cmp = sub.add_parser("compare", help="run several strategies on the same problem")
    add_common(p_cmp)

    p_oracle = sub.add_parser("oracle-check", help="per-mode FEM responses vs oracle factors")
    p_oracle.add_argument("config", help="JSON experiment config")
    p_oracle.add_argument("--mesh", help="override resolution as RADIALxANGULAR")

    p_info = sub.add_parser("mesh-info", help="print mesh statistics")
    p_info.add_argument("config", help="JSON experiment config")
    p_info.add_argument("--mesh", help="override resolution as RADIALxANGULAR")
    p_info.add_argument("--dump", help="directory for nodes.csv and tris.csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()  # a closed stdout fails here, not in the exit flush
    except BrokenPipeError as exc:
        # the Python docs' pattern: what is left to flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: stdout: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    return code


def _main(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; keep 2 reserved for numerical failures
        return 0 if exc.code == 0 else EXIT_USAGE
    try:
        cfg = load_config(args.config)
        _apply_overrides(cfg, args)
        if args.command == "run":
            return cmd_run(cfg, args.out)
        if args.command == "compare":
            return cmd_compare(cfg, args.out)
        if args.command == "oracle-check":
            return cmd_oracle_check(cfg)
        return cmd_mesh_info(cfg, args.dump)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SolverError, DivergenceError, StepUnderflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
