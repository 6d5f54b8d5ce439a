"""Command-line harness for annulus Cauchy-problem experiments.

Four subcommands work off a single JSON config file:

* ``run``          one descent run; writes history.csv, omega_final.csv,
                   summary.json into the output directory
* ``compare``      the same run for several strategies; adds compare.csv
                   with one functional-value column per strategy
* ``oracle-check`` single-mode finite element solves against the
                   semi-analytic factors, with an optional refinement pass
* ``mesh-info``    mesh statistics, optionally dumping node/triangle CSVs

Exit codes: 0 success (including a run that merely hit its iteration cap),
1 usage or config error, 2 numerical failure (divergence, a non-finite
solve, step underflow), 3 oracle tolerance breach.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any

import numpy as np

from .boundary import BoundaryFunction, boundary_norm
from .fem import SolverError
from .iteration import (
    DivergenceError,
    FemBackend,
    RunResult,
    SpectralBackend,
    StopRule,
    run,
    write_history_csv,
)
from .mesh import AnnulusSpec, dump_mesh_csv, generate_mesh, triangle_areas
from .problems import HarmonicTerm, builtin_terms, cauchy_data, exact_inner_trace
from .spectral import gradient_factor, trace_factor
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


def _fmt(x: float) -> str:
    return f"{x:.17g}"


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


def _only_keys(obj: dict, allowed: set[str], context: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise ConfigError(f"{context}: unknown fields {sorted(extra)}")


def _section(cfg: dict, key: str) -> dict:
    value = cfg.get(key)
    if not isinstance(value, dict):
        raise ConfigError(f"config needs a {key!r} object")
    return value


def _finite(text: str) -> float:
    """JSON number hook: ``json`` reads Infinity, NaN and overflowing
    literals such as 1e999 as floats; no config field accepts them."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config holds the non-finite number {text}")
    return value


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            cfg = json.load(handle, parse_float=_finite, parse_constant=_finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg


def _radii(cfg: dict) -> tuple[float, float]:
    radii = _section(cfg, "radii")
    try:
        inner = _number(radii["inner"], "radii.inner")
        outer = _number(radii["outer"], "radii.outer")
    except KeyError as exc:
        raise ConfigError(f"radii needs {exc.args[0]!r}") from exc
    if not 0.0 < inner < outer:
        raise ConfigError("radii must satisfy 0 < inner < outer")
    return inner, outer


def _mesh_spec(cfg: dict) -> AnnulusSpec:
    inner, outer = _radii(cfg)
    mesh = _section(cfg, "mesh")
    _only_keys(mesh, {"n_radial", "n_angular"}, "mesh")
    try:
        n_radial = _count(mesh["n_radial"], "mesh.n_radial")
        n_angular = _count(mesh["n_angular"], "mesh.n_angular")
    except KeyError as exc:
        raise ConfigError(f"mesh needs {exc.args[0]!r}") from exc
    try:
        return AnnulusSpec(inner, outer, n_radial, n_angular)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _data_terms(cfg: dict) -> tuple[HarmonicTerm, ...]:
    data = _section(cfg, "data")
    if "name" in data:
        try:
            return builtin_terms(data["name"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if "terms" in data:
        if not isinstance(data["terms"], list) or not data["terms"]:
            raise ConfigError("data.terms must be a non-empty list")
        terms = []
        for i, raw in enumerate(data["terms"]):
            if not isinstance(raw, dict):
                raise ConfigError(f"data.terms[{i}] must be an object")
            _only_keys(raw, {"amplitude", "mode", "kind"}, f"data.terms[{i}]")
            try:
                terms.append(
                    HarmonicTerm(
                        amplitude=_number(raw["amplitude"], f"data.terms[{i}].amplitude"),
                        mode=_count(raw["mode"], f"data.terms[{i}].mode"),
                        kind=raw["kind"],
                    )
                )
            except KeyError as exc:
                raise ConfigError(f"data.terms[{i}] needs {exc.args[0]!r}") from exc
            except ConfigError:
                raise
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"data.terms[{i}]: {exc}") from exc
        return tuple(terms)
    raise ConfigError("data needs either a built-in 'name' or an explicit 'terms' list")


def _strategy(obj: Any, context: str = "strategy") -> StepStrategy:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{context} must be an object with a 'kind' field")
    kind = obj["kind"]
    where = f"{context} of kind {kind!r}"
    try:
        if kind == "constant":
            _only_keys(obj, {"kind", "rho"}, where)
            return Constant(rho=_number(obj["rho"], f"{context}.rho"))
        if kind == "armijo":
            _only_keys(obj, {"kind", "xi", "tau"}, where)
            return Armijo(
                xi=_number(obj.get("xi", 1.0 / 3.0), f"{context}.xi"),
                tau=_number(obj.get("tau", 0.5), f"{context}.tau"),
            )
        if kind == "optimal":
            _only_keys(obj, {"kind", "mode_min", "mode_max"}, where)
            return OptimalTwoMode(
                mode_min=_count(obj["mode_min"], f"{context}.mode_min"),
                mode_max=_count(obj["mode_max"], f"{context}.mode_max"),
            )
        if kind == "sweep":
            _only_keys(obj, {"kind", "mode_min", "mode_max", "direction", "tail_rho"}, where)
            tail = obj.get("tail_rho")
            return ModeSweep(
                mode_min=_count(obj["mode_min"], f"{context}.mode_min"),
                mode_max=_count(obj["mode_max"], f"{context}.mode_max"),
                direction=obj.get("direction", "descending"),
                tail_rho=None if tail is None else _number(tail, f"{context}.tail_rho"),
            )
        if kind == "schedule":
            _only_keys(obj, {"kind", "rhos", "tail_rho"}, where)
            rhos = obj["rhos"]
            if not isinstance(rhos, list) or not rhos:
                raise ConfigError(f"{context}.rhos must be a non-empty list")
            tail = obj.get("tail_rho")
            return ExplicitSchedule(
                rhos=tuple(_number(r, f"{context}.rhos[{i}]") for i, r in enumerate(rhos)),
                tail_rho=None if tail is None else _number(tail, f"{context}.tail_rho"),
            )
    except KeyError as exc:
        raise ConfigError(f"{context} of kind {kind!r} needs {exc.args[0]!r}") from exc
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc
    raise ConfigError(f"{context}: unknown strategy kind {kind!r}")


def _stop_rule(cfg: dict) -> StopRule:
    stop = cfg.get("stop", {})
    if not isinstance(stop, dict):
        raise ConfigError("stop must be an object")
    _only_keys(stop, {"j_tol", "grad_eps", "max_iters"}, "stop")
    defaults = StopRule()
    try:
        return StopRule(
            j_tol=_number(stop.get("j_tol", defaults.j_tol), "stop.j_tol"),
            grad_eps=_number(stop.get("grad_eps", defaults.grad_eps), "stop.grad_eps"),
            max_iters=_count(stop.get("max_iters", defaults.max_iters), "stop.max_iters"),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"stop: {exc}") from exc


def _backend(cfg: dict):
    name = cfg.get("backend", "fem")
    if name == "fem":
        return FemBackend(generate_mesh(_mesh_spec(cfg)))
    if name == "spectral":
        spec = _mesh_spec(cfg)
        return SpectralBackend(spec.r_inner, spec.r_outer, n_angular=spec.n_angular)
    raise ConfigError(f"unknown backend {name!r}; expected 'fem' or 'spectral'")


def _output_dir(cfg: dict, override: str | None) -> Path:
    out = override if override is not None else cfg.get("output_dir", "out")
    if not isinstance(out, str) or not out:
        raise ConfigError("output_dir must be a non-empty string")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_omega_csv(
    path: Path, omega: BoundaryFunction, exact: BoundaryFunction | None
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if exact is None:
            handle.write("theta,omega\n")
            for theta, value in zip(omega.ring.angles, omega.values):
                handle.write(f"{_fmt(theta)},{_fmt(value)}\n")
        else:
            handle.write("theta,omega,omega_exact,error\n")
            rows = zip(omega.ring.angles, omega.values, exact.values)
            for theta, value, ref in rows:
                handle.write(f"{_fmt(theta)},{_fmt(value)},{_fmt(ref)},{_fmt(value - ref)}\n")


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


def _execute(cfg: dict, backend, strategy: StepStrategy) -> tuple[RunResult, float]:
    data = cauchy_data(_data_terms(cfg), backend.outer_ring)
    start = time.perf_counter()
    result = run(backend, data, strategy, _stop_rule(cfg))
    return result, time.perf_counter() - start


def cmd_run(cfg: dict, out_override: str | None) -> int:
    strategy = _strategy(cfg.get("strategy"))
    out = _output_dir(cfg, out_override)
    result, wall = _execute(cfg, _backend(cfg), strategy)

    write_history_csv(result.history, out / "history.csv")
    exact = exact_inner_trace(_data_terms(cfg), result.omega.ring)
    _write_omega_csv(out / "omega_final.csv", result.omega, exact)
    summary = _summary_payload(result, wall, cfg)
    summary["strategy"] = cfg.get("strategy")
    with open(out / "summary.json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")

    status = "converged" if result.converged else f"stopped ({result.reason})"
    print(
        f"{status}: {result.iterations} iterations, J = {result.final_j:.6e}, "
        f"{summary['total_direct_solves']} direct solves -> {out}"
    )
    return 0


def _strategy_label(index: int, obj: Any) -> str:
    kind = obj["kind"] if isinstance(obj, dict) and "kind" in obj else "strategy"
    return f"{index:02d}_{kind}"


def cmd_compare(cfg: dict, out_override: str | None) -> int:
    specs = cfg.get("strategies")
    if not isinstance(specs, list) or len(specs) < 2:
        raise ConfigError("compare needs a 'strategies' list with at least two entries")
    strategies = [_strategy(obj, f"strategies[{i}]") for i, obj in enumerate(specs)]
    out = _output_dir(cfg, out_override)
    backend = _backend(cfg)

    labels, results = [], []
    for i, (obj, strategy) in enumerate(zip(specs, strategies)):
        label = _strategy_label(i, obj)
        result, wall = _execute(cfg, backend, strategy)
        write_history_csv(result.history, out / f"history_{label}.csv")
        labels.append(label)
        results.append(result)
        print(
            f"{label}: {'converged' if result.converged else result.reason}, "
            f"{result.iterations} iterations, J = {result.final_j:.6e}, "
            f"{result.counters.total} direct solves"
        )

    # one J column per strategy, aligned on k; exhausted runs leave blanks
    depth = max(len(result.history) for result in results)
    with open(out / "compare.csv", "w", encoding="utf-8", newline="") as handle:
        handle.write("k," + ",".join(f"J_{label}" for label in labels) + "\n")
        for k in range(depth):
            cells = [str(k)]
            for result in results:
                cells.append(_fmt(result.history[k].j_value) if k < len(result.history) else "")
            handle.write(",".join(cells) + "\n")
    print(f"wrote {out / 'compare.csv'}")
    return 0


def oracle_check(
    spec: AnnulusSpec,
    modes: tuple[int, ...] = (0, 1, 2, 3),
    tolerance: float = 0.01,
    refine: bool = False,
    min_ratio: float = 3.0,
) -> list[dict]:
    """Single-mode finite element solves against the semi-analytic factors.

    For each mode j, the primary solve carries the inner trace cos(j theta)
    to the outer circle, where the exact trace is trace_factor * cos(j theta);
    the adjoint solve is driven by the exact misfit data 2 * trace_factor *
    cos(j theta), and its recovered inner flux must be -c_factor * cos(j theta).
    Each solve is judged against its own closed-form solution so the two
    checks do not pollute one another.

    With ``refine`` the mesh is doubled in both directions and each error
    must shrink by ``min_ratio``, except errors already at rounding level.
    Returns one result dict per mode; ``passed`` reflects all checks.
    """
    if not modes:
        raise ConfigError("oracle check needs at least one mode")
    nyquist = (spec.n_angular - 1) // 2
    for mode in modes:
        if not 0 <= mode <= nyquist:
            raise ConfigError(
                f"mode {mode} is not resolvable on a ring of {spec.n_angular} nodes"
            )

    def errors_on(mesh_spec: AnnulusSpec) -> list[tuple[float, float]]:
        backend = FemBackend(generate_mesh(mesh_spec))
        inner, outer = backend.inner_ring, backend.outer_ring
        zero_outer = BoundaryFunction.zeros(outer)
        pairs = []
        for mode in modes:
            t_factor = trace_factor(mode, mesh_spec.r_inner, mesh_spec.r_outer)
            c_factor = gradient_factor(mode, mesh_spec.r_inner, mesh_spec.r_outer)
            shape_in = np.cos(mode * inner.angles)
            shape_out = np.cos(mode * outer.angles)

            got_trace = backend.solve_primary(BoundaryFunction(inner, shape_in), zero_outer)
            want_trace = BoundaryFunction(outer, t_factor * shape_out)
            trace_err = boundary_norm(got_trace - want_trace) / boundary_norm(want_trace)

            # the adjoint solve returns minus the recovered inner flux
            driver = BoundaryFunction(outer, 2.0 * t_factor * shape_out)
            got_grad = backend.solve_adjoint(driver)
            want_grad = BoundaryFunction(inner, c_factor * shape_in)
            flux_err = boundary_norm(got_grad - want_grad) / boundary_norm(want_grad)
            pairs.append((float(trace_err), float(flux_err)))
        return pairs

    coarse = errors_on(spec)
    fine = None
    if refine:
        doubled = AnnulusSpec(
            spec.r_inner, spec.r_outer, 2 * spec.n_radial, 2 * spec.n_angular
        )
        fine = errors_on(doubled)

    results = []
    for i, mode in enumerate(modes):
        trace_err, flux_err = coarse[i]
        entry: dict[str, Any] = {
            "mode": mode,
            "trace_error": trace_err,
            "flux_error": flux_err,
            "trace_ratio": None,
            "flux_ratio": None,
        }
        ok = trace_err <= tolerance and flux_err <= tolerance
        if fine is not None:
            fine_trace, fine_flux = fine[i]
            if trace_err > RATIO_FLOOR:
                entry["trace_ratio"] = trace_err / fine_trace
                ok = ok and entry["trace_ratio"] >= min_ratio
            if flux_err > RATIO_FLOOR:
                entry["flux_ratio"] = flux_err / fine_flux
                ok = ok and entry["flux_ratio"] >= min_ratio
        entry["passed"] = ok
        results.append(entry)
    return results


def cmd_oracle_check(cfg: dict) -> int:
    if cfg.get("backend", "fem") != "fem":
        raise ConfigError("oracle check requires the fem backend")
    spec = _mesh_spec(cfg)
    oracle = cfg.get("oracle", {})
    if not isinstance(oracle, dict):
        raise ConfigError("oracle must be an object")
    _only_keys(oracle, {"modes", "tolerance", "refine", "min_ratio"}, "oracle")
    modes = oracle.get("modes", [0, 1, 2, 3])
    if not isinstance(modes, list):
        raise ConfigError("oracle.modes must be a list of whole numbers")
    modes = [_count(m, f"oracle.modes[{i}]") for i, m in enumerate(modes)]
    tolerance = _number(oracle.get("tolerance", 0.01), "oracle.tolerance")
    refine = _flag(oracle.get("refine", False), "oracle.refine")
    min_ratio = _number(oracle.get("min_ratio", 3.0), "oracle.min_ratio")

    results = oracle_check(spec, tuple(modes), tolerance, refine, min_ratio)
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
    mesh = generate_mesh(spec)
    areas = triangle_areas(mesh)
    annulus_area = np.pi * (spec.r_outer**2 - spec.r_inner**2)
    print(f"annulus {spec.r_inner:g} < r < {spec.r_outer:g}")
    print(f"resolution {spec.n_radial} radial x {spec.n_angular} angular")
    print(f"{mesh.n_nodes} nodes, {mesh.n_triangles} triangles")
    print(f"triangle area min {areas.min():.6e} max {areas.max():.6e}")
    print(f"mesh area {areas.sum():.17g} (annulus {annulus_area:.17g})")
    if dump is not None:
        nodes_path, tris_path = dump_mesh_csv(mesh, dump)
        print(f"wrote {nodes_path} and {tris_path}")
    return 0


def _apply_overrides(cfg: dict, args: argparse.Namespace) -> None:
    if getattr(args, "backend", None) is not None:
        cfg["backend"] = args.backend
    if getattr(args, "mesh", None) is not None:
        parts = args.mesh.lower().split("x")
        if len(parts) != 2:
            raise ConfigError("--mesh expects RADIALxANGULAR, e.g. 27x160")
        try:
            n_radial, n_angular = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ConfigError("--mesh expects RADIALxANGULAR, e.g. 27x160") from exc
        cfg.setdefault("mesh", {})
        cfg["mesh"]["n_radial"] = n_radial
        cfg["mesh"]["n_angular"] = n_angular
    if getattr(args, "j_tol", None) is not None:
        cfg.setdefault("stop", {})
        cfg["stop"]["j_tol"] = args.j_tol
    if getattr(args, "strategy", None) is not None:
        try:
            cfg["strategy"] = json.loads(args.strategy, parse_float=_finite, parse_constant=_finite)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--strategy is not valid JSON: {exc}") from exc


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
        p.add_argument("--j-tol", type=float, dest="j_tol", help="override stop tolerance on J")
        p.add_argument("--out", help="override output directory")

    p_run = sub.add_parser("run", help="single descent run")
    add_common(p_run)
    p_run.add_argument("--strategy", help="override strategy as a JSON object")

    p_cmp = sub.add_parser("compare", help="run several strategies on the same problem")
    add_common(p_cmp)

    p_oracle = sub.add_parser("oracle-check", help="single-mode FEM vs oracle factors")
    p_oracle.add_argument("config", help="JSON experiment config")
    p_oracle.add_argument("--mesh", help="override resolution as RADIALxANGULAR")

    p_info = sub.add_parser("mesh-info", help="print mesh statistics")
    p_info.add_argument("config", help="JSON experiment config")
    p_info.add_argument("--mesh", help="override resolution as RADIALxANGULAR")
    p_info.add_argument("--dump", help="directory for nodes.csv and tris.csv")
    return parser


def main(argv: list[str] | None = None) -> int:
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
