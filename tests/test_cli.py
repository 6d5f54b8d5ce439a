"""Experiment front end: configs, outputs, exit codes."""

import ast
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from adjoint_cauchy import (
    AnnulusSpec,
    Armijo,
    Constant,
    ExplicitSchedule,
    HarmonicTerm,
    ModeSweep,
    OptimalTwoMode,
    StopRule,
    cli,
    generate_mesh,
    gradient_factor,
)
from adjoint_cauchy.cli import ConfigError, _count, _number, main, oracle_check
from adjoint_cauchy.iteration import IterationRecord

BASE = {
    "radii": {"inner": 1.0, "outer": 3.0},
    "mesh": {"n_radial": 6, "n_angular": 32},
    "backend": "spectral",
    "data": {"name": "example1"},
    "strategy": {"kind": "schedule", "rhos": ["1681/486"], "tail_rho": "1/3"},
    "stop": {"j_tol": 1e-5, "grad_eps": 1e-12, "max_iters": 50},
}


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# a 5001-digit whole number, longer than ``int`` reads from text; ``json``
# cannot write it, so a config holds ``LONG_MARK`` where it goes
LONG = "1" + "0" * 5000
LONG_MARK = "<5001 digits>"
LONG_SWEEP = f'{{"kind": "sweep", "mode_min": 0, "mode_max": {LONG}}}'

# JSON nested deeper than the recursion limit
DEEP = "[" * 3000 + "]" * 3000


def write_config(tmp_path, cfg, name="config.json"):
    """Write ``cfg`` as JSON, or as it is if it is ``bytes``."""
    path = tmp_path / name
    if not isinstance(cfg, bytes):
        cfg = json.dumps(cfg).replace(json.dumps(LONG_MARK), LONG).encode()
    path.write_bytes(cfg)
    return str(path)


def test_run_spectral_one_step(tmp_path):
    cfg = dict(BASE, output_dir=str(tmp_path / "out"))
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["stop_reason"] == "j_tol"
    assert summary["iterations"] == 1
    assert summary["line_search_solves"] == 0
    assert summary["total_direct_solves"] == (
        summary["primary_solves"] + summary["adjoint_solves"] + summary["line_search_solves"]
    )
    assert summary["total_direct_solves"] == 3  # both iterates' primary solves and one adjoint
    assert summary["backend"] == "spectral"

    history = (tmp_path / "out" / "history.csv").read_text().splitlines()
    assert history[0] == "k,J,grad_norm,rho,primary_solves,adjoint_solves,line_search_solves"
    assert len(history) == 3  # header, k = 0, terminal k = 1

    omega = (tmp_path / "out" / "omega_final.csv").read_text().splitlines()
    assert omega[0] == "theta,omega,omega_exact,error"
    worst = max(abs(float(line.split(",")[3])) for line in omega[1:])
    assert worst < 1e-12


def test_number_parses_fractions_exactly():
    assert _number("1681/486", "x") == 1681.0 / 486.0
    assert _number("1/3", "x") == 1.0 / 3.0
    assert _number(0.25, "x") == 0.25
    assert _number(2, "x") == 2.0
    with pytest.raises(ConfigError):
        _number("abc", "x")
    with pytest.raises(ConfigError):
        _number(True, "x")
    with pytest.raises(ConfigError):
        _number("1/0", "x")
    with pytest.raises(ConfigError):
        _number("1e999", "x")  # a Fraction too large for a float


def test_run_outputs_are_deterministic(tmp_path):
    cfg1 = dict(BASE, backend="fem", output_dir=str(tmp_path / "a"))
    cfg2 = dict(BASE, backend="fem", output_dir=str(tmp_path / "b"))
    assert main(["run", write_config(tmp_path, cfg1, "a.json")]) == 0
    assert main(["run", write_config(tmp_path, cfg2, "b.json")]) == 0
    assert (tmp_path / "a" / "history.csv").read_bytes() == (tmp_path / "b" / "history.csv").read_bytes()
    assert (tmp_path / "a" / "omega_final.csv").read_bytes() == (tmp_path / "b" / "omega_final.csv").read_bytes()


def test_nonconvergence_still_exits_zero(tmp_path):
    cfg = dict(
        BASE,
        strategy={"kind": "constant", "rho": 0.05},
        stop={"j_tol": 1e-12, "max_iters": 3},
        output_dir=str(tmp_path / "out"),
    )
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["converged"] is False
    assert summary["stop_reason"] == "max_iters"
    assert summary["iterations"] == 3


def test_divergence_exits_two(tmp_path, capsys):
    cfg = dict(BASE, strategy={"kind": "constant", "rho": 30.0}, output_dir=str(tmp_path / "out"))
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert "increas" in capsys.readouterr().err.lower()


def test_sweep_steps_as_a_schedule_exit_zero(tmp_path, capsys):
    """ModeSweep(0, 8)'s nine steps 1/C_8 .. 1/C_0 written as a schedule
    raise J for six steps and then converge, as the sweep does: a
    schedule's listed steps are planned rises, not divergence."""
    cfg = dict(
        BASE,
        radii={"inner": 1.0, "outer": 1.5},
        mesh={"n_radial": 27, "n_angular": 256},
        data={"terms": [{"amplitude": 1.0, "mode": mode, "kind": "cos"} for mode in range(9)]},
        strategy={
            "kind": "schedule",
            "rhos": [1.0 / gradient_factor(mode, 1.0, 1.5) for mode in range(8, -1, -1)],
        },
        stop={"j_tol": 1e-12, "max_iters": 9},
        output_dir=str(tmp_path / "out"),
    )
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    assert capsys.readouterr().out.startswith("converged: 9 iterations")


def test_overflow_exits_two_without_traceback(tmp_path, capsys):
    """At 1e200 the first iterate's square norm overflows; at 1e308 on
    ``example1`` the iterate is finite, but its square norm and the sums of
    its next solve are not. C_400 underflows to 0, so a sweep or an optimal
    step of a band that ends at mode 400 is infinite. None warns."""
    strategies = [
        *({"kind": "constant", "rho": rho} for rho in (1e200, 1e308)),
        {"kind": "sweep", "mode_min": 0, "mode_max": 400},
        {"kind": "optimal", "mode_min": 400, "mode_max": 400},
    ]
    for backend in ("spectral", "fem"):
        for strategy in strategies:
            cfg = dict(BASE, backend=backend, strategy=strategy)
            path = write_config(tmp_path, dict(cfg, output_dir=str(tmp_path / "out")))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert main(["run", path]) == 2
            err = capsys.readouterr().err
            assert "not finite" in err
            assert "Traceback" not in err


def test_overflow_stderr_holds_no_runtime_warning(tmp_path, src_env):
    for rho in (1e200, 1e308):
        cfg = dict(BASE, strategy={"kind": "constant", "rho": rho}, output_dir=str(tmp_path / "out"))
        done = subprocess.run(
            [sys.executable, "-m", "adjoint_cauchy.cli", "run", write_config(tmp_path, cfg)],
            env=src_env,
            capture_output=True,
            text=True,
        )
        assert done.returncode == 2
        assert "not finite" in done.stderr
        assert "RuntimeWarning" not in done.stderr


def test_config_errors_exit_one(tmp_path, capsys):
    missing_strategy = {k: v for k, v in BASE.items() if k != "strategy"}
    assert main(["run", write_config(tmp_path, missing_strategy, "m.json")]) == 1
    assert main(["run", str(tmp_path / "nonexistent.json")]) == 1
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["run", str(garbled)]) == 1
    assert main(["run", write_config(tmp_path, dict(BASE, backend="galerkin"), "b.json")]) == 1
    assert main(["run", write_config(tmp_path, dict(BASE, strategy={"kind": "wolfe"}), "k.json")]) == 1
    extra = dict(BASE, strategy={"kind": "constant", "rho": 1.0, "mode": 2})
    assert main(["run", write_config(tmp_path, extra, "e.json")]) == 1
    base = write_config(tmp_path, BASE, "base.json")
    assert main(["run", base, "--strategy", '{"kind": "constant", "rho": Infinity}']) == 1
    capsys.readouterr()


@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN", "1e999"])
@pytest.mark.parametrize("field", ["radii.outer", "amplitude", "max_iters", "strategy.rho"])
def test_non_finite_config_numbers_exit_one(tmp_path, capsys, field, literal):
    # json reads each literal as a float; every one is a config error
    cfg = dict(
        BASE,
        radii={"inner": 1.0, "outer": "X" if field == "radii.outer" else 3.0},
        data={"terms": [{"amplitude": "X" if field == "amplitude" else 1.0, "mode": 2, "kind": "cos"}]},
        strategy={"kind": "constant", "rho": "X" if field == "strategy.rho" else 0.3},
        stop={"max_iters": "X" if field == "max_iters" else 5},
        output_dir=str(tmp_path / "out"),
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg).replace('"X"', literal))
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


ORACLE = {
    "radii": {"inner": 1.0, "outer": 3.0},
    "mesh": {"n_radial": 6, "n_angular": 32},
    "oracle": {"modes": [0, 1], "tolerance": 0.05},
}


# a 401-digit whole number: no float can hold it
HUGE = 10**400


def one_term(**fields):
    return {"terms": [{"amplitude": 1.0, "mode": 2, "kind": "cos", **fields}]}


# a ``strategies`` list for ``compare``
TWO_RULES = [BASE["strategy"], {"kind": "constant", "rho": "1/3"}]


def oracle_with(**fields):
    return dict(ORACLE, oracle=dict(ORACLE["oracle"], **fields))


@pytest.mark.parametrize(
    "command, cfg",
    [
        pytest.param("run", dict(BASE, mesh={"n_radial": 6.9, "n_angular": 32}), id="n_radial-6.9"),
        pytest.param("run", dict(BASE, mesh={"n_radial": 6, "n_angular": "32"}), id="n_angular-str"),
        pytest.param("run", dict(BASE, stop={"max_iters": 2.7}), id="max_iters-2.7"),
        pytest.param("run", dict(BASE, stop={"max_iters": True}), id="max_iters-true"),
        pytest.param("run", dict(BASE, stop={"max_iter": 5}), id="stop-unknown-key"),
        pytest.param("run", dict(BASE, data=one_term(mode=2.5)), id="term-mode-2.5"),
        pytest.param("run", dict(BASE, data=one_term(phase=0.5)), id="term-unknown-key"),
        pytest.param(
            "run",
            dict(BASE, strategy={"kind": "sweep", "mode_min": 0, "mode_max": 2.9}),
            id="sweep-mode_max-2.9",
        ),
        pytest.param(
            "run",
            dict(BASE, strategy={"kind": "optimal", "mode_min": False, "mode_max": 2}),
            id="optimal-mode_min-false",
        ),
        # whole numbers no float can hold, and a term whose r^mode overflows
        pytest.param(
            "run",
            dict(BASE, strategy={"kind": "optimal", "mode_min": 0, "mode_max": HUGE}),
            id="optimal-mode_max-huge",
        ),
        pytest.param(
            "run",
            dict(BASE, strategy={"kind": "sweep", "mode_min": 0, "mode_max": HUGE}),
            id="sweep-mode_max-huge",
        ),
        pytest.param("run", dict(BASE, data=one_term(mode=HUGE)), id="term-mode-huge"),
        pytest.param("run", dict(BASE, data=one_term(mode=1000)), id="term-mode-1000"),
        # whole numbers too long to read, in the file and in an override
        pytest.param("run", dict(BASE, stop={"max_iters": LONG_MARK}), id="max_iters-5001-digits"),
        pytest.param(["run", "--strategy", LONG_SWEEP], BASE, id="strategy-override-5001-digits"),
        pytest.param("oracle-check", dict(ORACLE, oracle={"modes": [True]}), id="oracle-mode-true"),
        pytest.param("oracle-check", dict(ORACLE, oracle={"modes": [1.5]}), id="oracle-mode-1.5"),
        pytest.param("oracle-check", dict(ORACLE, oracle={"refine": "no"}), id="refine-str"),
        pytest.param("oracle-check", dict(ORACLE, oracle={"refine": 1}), id="refine-1"),
        pytest.param("oracle-check", dict(ORACLE, oracle={"refin": True}), id="oracle-unknown-key"),
        pytest.param(
            "run", dict(BASE, radii={"inner": 1, "outer": 3, "outr": 5}), id="radii-unknown-key"
        ),
        pytest.param(
            "run", dict(BASE, data={"name": "example1", "term": []}), id="data-unknown-key"
        ),
        pytest.param(
            "run", dict(BASE, data={"name": "example1", **one_term()}), id="data-name-and-terms"
        ),
        pytest.param("run", dict(BASE, data={"name": ["example1"]}), id="data-name-list"),
        pytest.param("run", dict(BASE, strategys=[]), id="top-level-unknown-key"),
        pytest.param("oracle-check", oracle_with(tolerance=0), id="oracle-tolerance-0"),
        pytest.param("oracle-check", oracle_with(tolerance=-1), id="oracle-tolerance-neg"),
        pytest.param("oracle-check", oracle_with(min_ratio=0.5), id="oracle-min_ratio-0.5"),
        pytest.param("run", [BASE], id="config-list"),
        pytest.param("run", b'{"radii": \xff}', id="config-not-utf-8"),
        pytest.param("run", DEEP.encode(), id="config-nested-3000"),
        pytest.param("run", dict(BASE, stop=5), id="stop-5"),
        pytest.param("run", dict(BASE, strategy={"kind": "constant"}), id="constant-no-rho"),
        pytest.param("run", dict(BASE, radii={"inner": 3, "outer": 1}), id="radii-inverted"),
        pytest.param("run", dict(BASE, output_dir=""), id="output_dir-empty"),
        # finite amplitudes whose data have no finite square norm
        *(
            pytest.param(
                command,
                dict(BASE, backend=backend, data=one_term(amplitude=amplitude), **extra),
                id=f"{command}-{backend}-amplitude-{amplitude:g}",
            )
            for command, extra in (("run", {}), ("compare", {"strategies": TWO_RULES}))
            for backend in ("fem", "spectral")
            for amplitude in (1e307, 1e300, 1e160)
        ),
    ],
)
def test_strict_config_values_exit_one(tmp_path, capsys, monkeypatch, command, cfg):
    """A bad value is a config error, and leaves no output directory;
    ``output_dir`` defaults to ``out`` under ``tmp_path``. A ``command`` list
    carries overrides after the config."""
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, cfg)
    command, *overrides = [command] if isinstance(command, str) else command
    assert main([command, path, *overrides]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    # each context is named once, not again by the caller that passes it on
    context, _, rest = err.removeprefix("error: ").partition(": ")
    assert not rest.startswith(context), err


def test_count_accepts_whole_numbers_only():
    assert _count(6, "x") == 6
    assert _count(6.0, "x") == 6  # how JSON may spell a whole number
    for bad in (6.5, True, "6", None, [6]):
        with pytest.raises(ConfigError, match="whole number"):
            _count(bad, "x")


def test_command_line_overrides(tmp_path):
    cfg = dict(BASE, output_dir=str(tmp_path / "o1"))
    path = write_config(tmp_path, cfg)
    code = main(
        [
            "run",
            path,
            "--backend",
            "fem",
            "--mesh",
            "4x24",
            "--j-tol",
            "1e-3",
            "--strategy",
            '{"kind": "constant", "rho": 0.3}',
            "--out",
            str(tmp_path / "o2"),
        ]
    )
    assert code == 0
    summary = json.loads((tmp_path / "o2" / "summary.json").read_text())
    assert summary["backend"] == "fem"
    assert summary["strategy"]["kind"] == "constant"
    assert main(["run", path, "--mesh", "nope"]) == 1
    not_an_object = write_config(tmp_path, dict(BASE, stop=5), "s.json")
    assert main(["run", not_an_object, "--j-tol", "1e-3"]) == 1


@pytest.mark.parametrize(
    "override",
    [
        ["--j-tol", "inf"],
        ["--j-tol", "nan"],
        ["--j-tol", "1e999"],
        ["--mesh", "2_7x1_60"],
        ["--mesh", "6x32.5"],
        ["--mesh", "8x1e300"],
        ["--strategy", "{bad"],
        pytest.param(["--strategy", DEEP], id="--strategy nested-3000"),
    ],
    ids=lambda override: " ".join(override),
)
def test_overrides_pass_the_config_checks(tmp_path, capsys, override):
    path = write_config(tmp_path, dict(BASE, output_dir=str(tmp_path / "out")))
    assert main(["run", path, *override]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_bad_config_leaves_no_output_directory(tmp_path, capsys, command):
    huge_band = {"kind": "sweep", "mode_min": 0, "mode_max": HUGE}
    for bad, context in (
        ({"stop": {"max_iters": 0}}, "stop"),
        # run names the section "strategy", compare "strategies[1]"
        ({"strategy": huge_band, "strategies": [BASE["strategy"], huge_band]}, "strateg"),
        ({"data": one_term(mode=HUGE)}, "data"),
        # a whole number too long to read fails on reading the file
        ({"stop": {"max_iters": LONG_MARK}}, "config"),
    ):
        cfg = {
            **BASE,
            "strategies": [BASE["strategy"], {"kind": "constant", "rho": "1/3"}],
            "output_dir": str(tmp_path / "out"),
            **bad,
        }
        assert main([command, write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {context}")
        assert not (tmp_path / "out").exists()
    if command == "run":  # compare takes no strategy override
        good = write_config(tmp_path, dict(BASE, output_dir=str(tmp_path / "out")))
        assert main(["run", good, "--strategy", LONG_SWEEP]) == 1
        assert capsys.readouterr().err.startswith("error: --strategy")
        assert not (tmp_path / "out").exists()


# output files of each command, the first and the last that it writes
OUTPUT_FILES = {
    "run": ["history.csv", "summary.json"],
    "compare": ["compare.csv"],
    "mesh-info": ["nodes.csv"],
}


@pytest.mark.parametrize("command", ["run", "compare", "mesh-info"])
def test_unusable_output_path_exits_one(tmp_path, capsys, command):
    """An output directory that is a file, or lies under one, is a config
    error: exit 1 and no traceback, and the file is left as it was. So is an
    output file whose name a directory takes."""
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    path = write_config(tmp_path, dict(BASE, strategies=TWO_RULES))
    flag = "--dump" if command == "mesh-info" else "--out"
    cases = [(blocker, "create"), (blocker / "sub", "create")]
    for name in OUTPUT_FILES[command]:
        (tmp_path / name / name).mkdir(parents=True)
        cases.append((tmp_path / name, f"write {tmp_path / name / name}: Is a directory"))
    for out, failure in cases:
        assert main([command, path, flag, str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: output_dir: cannot {failure}")
        assert "Traceback" not in err
    assert blocker.read_text() == "kept"


def test_closed_stdout_exits_one(src_env):
    """Printing into a pipe whose reader has gone is exit 1 with one error
    line, whether stdout is buffered or not."""
    config = str(CONFIGS / "example1_schedule.json")
    for buffering in ("", "1"):
        read_end, write_end = os.pipe()
        os.close(read_end)
        done = subprocess.run(
            [sys.executable, "-m", "adjoint_cauchy.cli", "mesh-info", config],
            env=dict(src_env, PYTHONUNBUFFERED=buffering),
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
        os.close(write_end)
        assert done.returncode == 1
        # no traceback, and no "Exception ignored" from the exit flush
        assert done.stderr == "error: stdout: Broken pipe\n"


def assert_not_defaults(obj):
    """Every field with a default holds another value, so that a reader that
    drops the field cannot pass by the default alone."""
    for field in dataclasses.fields(obj):
        assert getattr(obj, field.name) != field.default, field.name


def as_config(obj, **extra):
    return json.loads(json.dumps({**extra, **dataclasses.asdict(obj)}))


def test_every_field_is_a_config_key():
    rules = [
        Constant(rho=0.25),
        Armijo(xi=0.25, tau=0.75),
        OptimalTwoMode(mode_min=1, mode_max=3),
        ModeSweep(mode_min=1, mode_max=4, direction="ascending", tail_rho=0.25),
        ExplicitSchedule(rhos=(0.5, 0.25), tail_rho=0.125),
    ]
    assert [type(rule) for rule in rules] == list(cli.STRATEGY_KINDS.values())
    for kind, rule in zip(cli.STRATEGY_KINDS, rules):
        assert_not_defaults(rule)
        assert cli._strategy(as_config(rule, kind=kind)) == rule
    # JSON null is the default tail step
    untailed = {"kind": "sweep", "mode_min": 1, "mode_max": 4, "tail_rho": None}
    assert cli._strategy(untailed) == ModeSweep(mode_min=1, mode_max=4)
    for obj in (StopRule(j_tol=1e-7, grad_eps=1e-9, max_iters=7), HarmonicTerm(0.5, 3, "sin")):
        assert_not_defaults(obj)
        assert cli._build(type(obj), as_config(obj), "x") == obj


def test_compare_outputs(tmp_path, capsys):
    cfg = dict(
        BASE,
        data={"name": "example2"},
        strategies=[
            {"kind": "sweep", "mode_min": 0, "mode_max": 2},
            {"kind": "constant", "rho": "1/3"},
            {"kind": "constant", "rho": "1/3"},
        ],
        output_dir=str(tmp_path / "cmp"),
    )
    del cfg["strategy"]
    assert main(["compare", write_config(tmp_path, cfg)]) == 0
    sweep_line = capsys.readouterr().out.splitlines()[0]
    # 2 iterations: 3 primary and 2 adjoint solves
    assert sweep_line.startswith("00_sweep: converged, 2 iterations")
    assert sweep_line.endswith(", 5 direct solves")
    lines = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()
    assert lines[0] == "k,J_00_sweep,J_01_constant,J_02_constant"
    for line in lines[1:]:
        cells = line.split(",")
        # duplicate strategies produce identical columns
        assert cells[2] == cells[3]
    assert (tmp_path / "cmp" / "history_00_sweep.csv").exists()
    assert (tmp_path / "cmp" / "history_01_constant.csv").exists()


def test_fem_compare_builds_one_backend(tmp_path, monkeypatch):
    built = []
    fem_backend = cli.FemBackend

    def counting_backend(mesh):
        built.append(mesh)
        return fem_backend(mesh)

    monkeypatch.setattr(cli, "FemBackend", counting_backend)
    cfg = dict(
        BASE,
        backend="fem",
        strategies=[
            {"kind": "constant", "rho": "1/3"},
            {"kind": "sweep", "mode_min": 0, "mode_max": 2},
        ],
        output_dir=str(tmp_path / "cmp"),
    )
    del cfg["strategy"]
    assert main(["compare", write_config(tmp_path, cfg)]) == 0
    assert len(built) == 1


def test_compare_requires_two_strategies(tmp_path):
    cfg = dict(BASE, strategies=[{"kind": "constant", "rho": 0.3}], output_dir=str(tmp_path / "x"))
    del cfg["strategy"]
    assert main(["compare", write_config(tmp_path, cfg)]) == 1


# (trace error, flux error, trace ratio, flux ratio) of modes 1-3 at 27x160
# with refinement, against the paper's factors T_j and C_j
ORACLE_27X160 = {
    1: (9.169729563461109e-04, 6.597493856140301e-04, 3.996360554071303, 3.9940249316026506),
    2: (3.716774529815325e-03, 2.685399915704172e-03, 3.9949289927396836, 3.989327004512854),
    3: (9.143684205544386e-03, 6.812043243633169e-03, 3.9952049273269816, 3.985488666209047),
}


def test_oracle_check_function():
    spec = AnnulusSpec(1.0, 3.0, 6, 32)
    results = oracle_check(spec, modes=(0, 1), tolerance=0.05)
    assert all(r["passed"] for r in results)
    for modes in ((True,), (0, 1.5)):
        with pytest.raises(ValueError, match="whole number"):
            oracle_check(spec, modes=modes)
    # the constant mode is reproduced exactly by the discrete operator
    assert results[0]["trace_error"] < 1e-10

    results = oracle_check(AnnulusSpec(1.0, 3.0, 27, 160), modes=(0, 1, 2, 3), refine=True)
    assert [r["mode"] for r in results] == [0, 1, 2, 3]
    assert results[0]["trace_error"] < 1e-12 and results[0]["flux_error"] < 1e-12
    assert results[0]["trace_ratio"] is None and results[0]["flux_ratio"] is None
    for entry in results[1:]:
        got = [entry[key] for key in ("trace_error", "flux_error", "trace_ratio", "flux_ratio")]
        assert got == pytest.approx(ORACLE_27X160[entry["mode"]], rel=1e-9)


def test_oracle_check_cli(tmp_path):
    cfg = {
        "radii": {"inner": 1.0, "outer": 3.0},
        "mesh": {"n_radial": 6, "n_angular": 32},
        "oracle": {"modes": [0, 1], "tolerance": 0.05},
    }
    assert main(["oracle-check", write_config(tmp_path, cfg)]) == 0
    tight = dict(cfg, oracle={"modes": [3], "tolerance": 1e-6})
    assert main(["oracle-check", write_config(tmp_path, tight, "t.json")]) == 3
    nyquist = dict(cfg, oracle={"modes": [60]})
    assert main(["oracle-check", write_config(tmp_path, nyquist, "n.json")]) == 1
    spectral = dict(cfg, backend="spectral")
    assert main(["oracle-check", write_config(tmp_path, spectral, "s.json")]) == 1


def test_mesh_info(tmp_path, capsys):
    cfg = {"radii": {"inner": 1.0, "outer": 3.0}, "mesh": {"n_radial": 2, "n_angular": 8}}
    path = write_config(tmp_path, cfg)
    assert main(["mesh-info", path, "--dump", str(tmp_path / "m")]) == 0
    out = capsys.readouterr().out
    assert "24" in out and "32" in out
    assert (tmp_path / "m" / "nodes.csv").exists()
    assert (tmp_path / "m" / "tris.csv").exists()
    # numpy refuses this size at once: a config error, not a traceback
    assert main(["mesh-info", path, "--mesh", "8x1e300", "--dump", str(tmp_path / "big")]) == 1
    assert capsys.readouterr().err.startswith("error: mesh:")
    assert not (tmp_path / "big").exists()


def test_write_history_csv(tmp_path):
    history = [
        IterationRecord(0, 0.5, 0.25, 1.5, 1, 1, 0),
        IterationRecord(1, 1e-7, float("nan"), float("nan"), 2, 1, 0),
    ]
    path = tmp_path / "history.csv"
    cli._write_history(path, history)
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["k"] for r in rows] == ["0", "1"]
    assert float(rows[0]["J"]) == 0.5
    assert float(rows[0]["rho"]) == 1.5
    assert math.isnan(float(rows[1]["rho"]))


def test_dump_csv(tmp_path):
    mesh = generate_mesh(AnnulusSpec(1.0, 3.0, 1, 4))
    nodes_path, tris_path = cli._dump_mesh(mesh, tmp_path)
    nodes = nodes_path.read_text().strip().splitlines()
    tris = tris_path.read_text().strip().splitlines()
    assert nodes_path.name == "nodes.csv"
    assert tris_path.name == "tris.csv"
    assert nodes[0] == "id,x,y,ring"
    assert tris[0] == "id,n0,n1,n2"
    assert len(nodes) == 1 + mesh.n_nodes
    assert len(tris) == 1 + mesh.n_triangles
    assert [line.split(",")[3] for line in nodes[1:]] == ["inner"] * 4 + ["outer"] * 4
    # a ring tag is its level's; levels between the rings carry none
    nodes_path, _ = cli._dump_mesh(generate_mesh(AnnulusSpec(1.0, 3.0, 2, 4)), tmp_path / "two")
    tags = [line.split(",")[3] for line in nodes_path.read_text().strip().splitlines()[1:]]
    assert tags == ["inner"] * 4 + [""] * 4 + ["outer"] * 4


def test_write_csv_formats_every_cell_one_way(tmp_path):
    path = tmp_path / "t.csv"
    cli._write_csv(path, ("a", "b", "c"), [(1, 0.1, "x"), (2, float("nan"), "")])
    assert path.read_bytes() == b"a,b,c\n1,0.10000000000000001,x\n2,nan,\n"


def test_only_cli_writes_files():
    """No package module but ``cli`` imports ``csv`` or ``pathlib`` or calls
    ``open``: output files are the front end's alone."""
    package = Path(cli.__file__).parent
    modules = sorted(path for path in package.glob("*.py") if path.name != "cli.py")
    assert len(modules) >= 8
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = {node.module.split(".")[0]}
            else:
                imported = set()
            assert not imported & {"csv", "pathlib"}, f"{path.name} imports {imported}"
            if isinstance(node, ast.Call):
                called = getattr(node.func, "id", getattr(node.func, "attr", None))
                assert called != "open", f"{path.name} calls open"


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")), ids=lambda path: path.stem)
def test_shipped_config_runs(config, tmp_path, capsys):
    """Each shipped config runs as the CI workflow's step runs it, by the
    command its name selects, and dumps its mesh; every output goes under
    ``tmp_path``."""
    out = tmp_path / config.stem
    if config.stem == "oracle_check":
        assert main(["oracle-check", str(config)]) == 0
        assert "oracle check passed" in capsys.readouterr().out
        return
    if config.stem.endswith("_compare"):
        assert main(["compare", str(config), "--out", str(out)]) == 0
        strategies = json.loads(config.read_text())["strategies"]
        labels = [f"{i:02d}_{spec['kind']}" for i, spec in enumerate(strategies)]
        want = {"compare.csv", *(f"history_{label}.csv" for label in labels)}
    else:
        assert main(["run", str(config), "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["converged"] is True
        want = {"history.csv", "omega_final.csv", "summary.json"}
    assert {path.name for path in out.iterdir()} == want
    assert main(["mesh-info", str(config), "--dump", str(tmp_path / "mesh")]) == 0
    assert {path.name for path in (tmp_path / "mesh").iterdir()} == {"nodes.csv", "tris.csv"}
    # one line ending for every file of a run
    for path in [*out.iterdir(), *(tmp_path / "mesh").iterdir()]:
        assert b"\r" not in path.read_bytes(), path.name


def test_usage_errors_exit_one(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    assert main(["--help"]) == 0
    capsys.readouterr()
