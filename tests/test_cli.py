"""Command-line interface: config handling, outputs, exit codes."""

import importlib
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import embedfar
import embedfar.cli as cli
from embedfar.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    ConfigError,
    ExperimentConfig,
    _canonical_count,
    _fmt,
    _normalize_strategy,
    load_config,
    main,
    parse_config_file,
    write_csv,
)
from embedfar.coefficients import MAX_CANONICAL_COUNT, NoConvergence
from embedfar.embedding import StabilizedEvaluator, cluster_threshold_range
from embedfar.geometry import MAX_ANGLE_DENOMINATOR, PRESET_NAMES, preset_shape
from helpers import BRANCH_LABELS


def test_fmt_formats_cells():
    assert _fmt(None) == ""
    assert _fmt("text") == "text"
    assert _fmt(3) == "3"
    assert _fmt(np.int64(4)) == "4"
    assert _fmt(float("inf")) == "inf"
    assert _fmt(float("-inf")) == "-inf"
    assert _fmt(float("nan")) == "nan"
    assert _fmt(0.5) == "0.5"
    assert _fmt(-1.25e-08) == "-1.25e-08"


def _fmt_by_the_ladder(value):
    # the cell rule before floats took the first branch
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    number = float(value)
    if math.isnan(number):
        return "nan"
    if math.isinf(number):
        return "inf" if number > 0 else "-inf"
    return repr(number)


def test_fmt_keeps_the_ladders_cells():
    # CSVs stay byte-identical: every float kind, including np.float32,
    # which is no Python float, and every other cell type read as before
    floats = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1e300]
    with np.errstate(over="ignore", under="ignore"):  # 1e300 and 5e-324
        singles = list(np.array(floats).astype(np.float32))
    cells = (
        floats
        + [np.float64(x) for x in floats]
        + singles
        + [0, -7, np.int64(12), True, False, None, "alpha=0.5"]
    )
    for cell in cells:
        assert _fmt(cell) == _fmt_by_the_ladder(cell), repr(cell)


def test_normalize_strategy():
    assert _normalize_strategy("1") == "one"
    assert _normalize_strategy("2") == "two"
    assert _normalize_strategy(" TWO ") == "two"
    with pytest.raises(ValueError):
        _normalize_strategy("three")


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# experiment setup\n"
        "k = 7.5   # inline comment\n"
        "shape = screen\n"
        "strategy = 1\n"
        "bem.elements_per_wavelength = 10\n"
        "embedding.big_h = 0.2\n"
        "mtilde = 4\n"
        "\n"
    )
    values = parse_config_file(path)
    assert values == {
        "k": 7.5,
        "shape": "screen",
        "strategy": "one",
        "elements_per_wavelength": 10.0,
        "big_h": 0.2,
        "mtilde": 4,
    }


def test_parse_config_file_errors(tmp_path):
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("nope = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_file(unknown)

    shapeless = tmp_path / "noequals.cfg"
    shapeless.write_text("just words\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_file(shapeless)

    badvalue = tmp_path / "bad.cfg"
    badvalue.write_text("k = fast\n")
    with pytest.raises(ConfigError):
        parse_config_file(badvalue)

    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file(tmp_path / "missing.cfg")


def test_load_config_precedence(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("k = 7.5\nn_theta = 123\n")
    args = SimpleNamespace(config=str(cfg), k=9.0)
    config = load_config(args, command_defaults={"n_theta": 50, "n_alpha": 77})
    assert config.k == 9.0  # flag beats config file
    assert config.n_theta == 123  # config file beats command default
    assert config.n_alpha == 77  # command default beats dataclass default
    assert config.shape == "square"


def test_validate_rejects_bad_configs():
    bad = [
        {"shape": "blob"},
        {"k": -1.0},
        {"k": 100.0},
        {"strategy": "three"},
        {"delta": -1e-3},
        {"strategy": "one", "delta": 0.0},
        {"mtilde": 0},
        {"big_h": 0.01, "small_h": 0.15},
        {"contour_order": 1},
        {"contour_order": 201},
        {"n_theta": 0},
        {"seed": -1},
        {"elements_per_wavelength": 1.0},
        {"grading": 1.5},
        {"grading_layers": -1},
        {"grading_layers": 0},
        {"alpha": float("nan")},
        {"alpha": float("inf")},
        {"delta": float("nan")},
        {"delta": float("inf")},
        {"k": float("nan")},
        {"big_h": float("inf")},
        {"small_h": float("nan")},
        {"grading": float("nan")},
        {"elements_per_wavelength": float("nan")},
        {"elements_per_wavelength": float("inf")},
    ]
    for overrides in bad:
        with pytest.raises(ConfigError):
            ExperimentConfig(**overrides).validate()
    assert ExperimentConfig().validate().strategy == "two"


def test_output_errors_propagate_nan(square_k5):
    # one NaN from the evaluator must surface in the error, not vanish in a max
    class NanEvaluator:
        def evaluate_sweep(self, thetas, alpha):
            values = square_k5.solve_far_fields([alpha])[0].value(thetas)
            values[3] = np.nan
            return values, np.full(len(thetas), "naive", dtype=object)

    pipeline = SimpleNamespace(evaluator=NanEvaluator())
    assert math.isnan(cli.output_error(pipeline, square_k5, [0.4, 2.0], n=50))
    alphas = np.linspace(0.0, 2.0 * math.pi, 4, endpoint=False)
    assert math.isnan(cli.output_error(pipeline, square_k5, alphas, n=20, axis=None))


def test_write_csv_deterministic_and_metadata(tmp_path):
    config = ExperimentConfig().validate()
    rows = [
        [0.5, float("inf"), None, 3],
        [float("nan"), -1.25e-08, "x", np.int64(2)],
    ]
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        write_csv(path, "sweep", config, ["a", "b", "c", "d"], rows, {"note": "v"})
    assert paths[0].read_bytes() == paths[1].read_bytes()
    text = paths[0].read_text()
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0].startswith("# generator = embedfar")
    assert "# command = sweep" in lines
    assert "# note = v" in lines
    assert "# config.k = 5.0" in lines
    data = [line for line in lines if not line.startswith("#")]
    assert data[0] == "a,b,c,d"
    assert data[1] == "0.5,inf,,3"
    assert data[2] == "nan,-1.25e-08,x,2"


def test_sweep_csv_is_deterministic(tmp_path):
    out = tmp_path / "sweep.csv"
    outputs = []
    for _ in range(2):
        rc = main(
            [
                "sweep",
                "--shape",
                "screen",
                "--k",
                "5",
                "--alpha",
                "1.0",
                "--n-theta",
                "64",
                "--out",
                str(out),
            ]
        )
        assert rc == EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    lines = outputs[0].decode().splitlines()
    meta = [line for line in lines if line.startswith("#")]
    data = [line for line in lines if not line.startswith("#")]
    assert any(line.startswith("# command = sweep") for line in meta)
    assert any(line.startswith("# config.k = 5.0") for line in meta)
    assert any(line.startswith("# alpha = ") for line in meta)
    assert data[0] == "theta,naive_rel_error,stabilized_rel_error,branch"
    assert len(data) == 1 + 64
    branches = {row.split(",")[3] for row in data[1:]}
    assert branches <= BRANCH_LABELS


def test_grid_writes_values_and_spot_checks(tmp_path):
    out = tmp_path / "grid.csv"
    rc = main(
        [
            "grid",
            "--shape",
            "screen",
            "--k",
            "5",
            "--n-theta",
            "40",
            "--n-alpha",
            "12",
            "--out",
            str(out),
        ]
    )
    assert rc == EXIT_OK
    data = [
        line for line in out.read_text().splitlines() if not line.startswith("#")
    ]
    assert len(data) == 1 + 40
    cells = data[0].split(",")
    assert cells[0] == "theta"
    assert len(cells) == 1 + 12
    errors = tmp_path / "grid.errors.csv"
    assert errors.exists()
    err_data = [
        line
        for line in errors.read_text().splitlines()
        if not line.startswith("#")
    ]
    assert len(err_data) == 1 + 40
    assert err_data[0].split(",")[0] == "theta"
    # spot-check errors are small for this easy configuration
    worst = max(
        float(cell)
        for line in err_data[1:]
        for cell in line.split(",")[1:]
    )
    assert worst < 0.1


def test_unknown_shape_is_config_error(capsys):
    assert main(["sweep", "--shape", "blob"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_invalid_strategy_flag_is_rejected(capsys):
    # argparse enforces the choice list itself and exits with the same code
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--strategy", "3"])
    assert excinfo.value.code == EXIT_CONFIG
    assert "invalid choice" in capsys.readouterr().err
    # a config file takes the looser spelling path and must hit the validator
    assert main(["sweep", "--strategy", "one", "--delta", "-1"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.fixture
def no_solver(monkeypatch):
    """Fails a test whose config reaches the boundary-element solver."""

    def no_solve(*args, **kwargs):
        raise AssertionError("solver ran before the config was checked")

    monkeypatch.setattr(cli, "build_bem_system", no_solve)


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--strategy", "1", "--delta", "0"],
        ["study-oversampling", "--delta-list", "0"],
        ["table", "--k-list", "-1"],
        ["table", "--epw-list", "0"],
        ["table", "--shape-list", "nosuch"],
        ["table", "--epw-list", ""],
        ["table", "--k-list", "2", "--shape-list", "square,pentagon",
         "--epw-list", "4", "--mtilde", "10"],
    ],
)
def test_bad_experiment_lists_are_config_errors(argv, no_solver, capsys):
    assert main(argv) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["grid", "--shape", "square", "--k", "5", "--small-h", "5e-5"], "7.94e-05"),
        (["table", "--shape-list", "square", "--k-list", "5", "--small-h", "5e-5"],
         "7.94e-05"),
        (["grid", "--shape", "pentagon", "--small-h", "3e-5", "--n-theta", "61"],
         "4.31e-05"),
        (["table", "--shape-list", "square,screen", "--small-h", "1e-4"], "0.000126"),
    ],
)
def test_cluster_threshold_below_double_zero_clearance_is_config_error(
    argv, bound, no_solver, capsys
):
    # grid and table evaluate alpha = 0, where every zero is double: below
    # (2e-12 / p^2)^(1/3) a contour round one meets contour_eval's guard
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and bound in err


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_cluster_threshold_range_of_every_preset(name):
    # one step inside either bound passes the check, one step outside is a
    # config error; the greatest keeps a zero pi / p away at a clearance
    # from a rectangle that reaches 2 h past theta0
    shape = preset_shape(name)
    least, greatest = cluster_threshold_range(shape.p)
    assert greatest == math.pi / (3 * shape.p)
    steps = [
        (np.nextafter(least, math.inf), True),
        (np.nextafter(least, 0.0), False),
        (np.nextafter(greatest, 0.0), True),
        (np.nextafter(greatest, math.inf), False),
    ]
    for small_h, admissible in steps:
        config = ExperimentConfig(shape=name, big_h=2.0, small_h=float(small_h))
        config.validate()
        if admissible:
            cli._check_cluster_threshold(config, shape)
        else:
            with pytest.raises(ConfigError, match="admissible cluster"):
                cli._check_cluster_threshold(config, shape)


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--shape", "pentagon", "--k", "5", "--big-h", "1",
         "--small-h", "0.35"],
        ["grid", "--shape", "pentagon", "--big-h", "1", "--small-h", "0.35"],
        ["table", "--shape-list", "square,pentagon", "--big-h", "1",
         "--small-h", "0.35"],
        ["study-oversampling", "--big-h", "1", "--small-h", "0.5"],
        ["selftest", "--big-h", "2", "--small-h", "1.1"],
    ],
)
def test_cluster_threshold_above_range_exits_2_before_the_mesh(
    argv, no_solver, capsys
):
    # above pi / (3 p) a contour loses accuracy to the zero beside it: the
    # pentagon's sweep at small_h 0.35 read an output error 849 times its
    # input error, and exited 0.  The square takes 0.35 in table, the
    # screen 0.5 in the study; the pentagon and the equilateral triangle
    # stop them before the first solve
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "admissible cluster thresholds" in err


@pytest.mark.parametrize(
    "line", ["bem.layers = 0", "embedding.contour_order = 500"]
)
def test_config_file_limits_are_config_errors(line, tmp_path, no_solver, capsys):
    # the mesh and the contour quadrature would reject these only later
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n")
    argv = ["sweep", "--shape", "square", "--k", "5", "--config", str(path)]
    assert main(argv) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_out_in_missing_directory_is_config_error(tmp_path, no_solver, capsys):
    out = tmp_path / "missing" / "sweep.csv"
    assert main(["sweep", "--shape", "square", "--out", str(out)]) == EXIT_CONFIG
    assert "does not exist" in capsys.readouterr().err


def test_unwritable_out_is_config_error(tmp_path, capsys):
    # a directory passes the early check and fails only at the write
    argv = ["sweep", "--shape", "screen", "--k", "1", "--n-theta", "8",
            "--out", str(tmp_path)]
    assert main(argv) == EXIT_CONFIG
    assert "cannot write" in capsys.readouterr().err


def test_non_finite_flag_is_config_error(capsys):
    assert main(["sweep", "--alpha", "nan"]) == EXIT_CONFIG
    assert "alpha must be finite" in capsys.readouterr().err


def test_sweep_solves_for_its_coefficients_once(monkeypatch, tmp_path):
    # the naive curve and the reported norm share one coefficient solve;
    # the stabilized sweep reads b(alpha) in its own one read and makes none
    solved = []
    solve = StabilizedEvaluator.coefficients

    def counted(evaluator, alpha):
        solved.append(alpha)
        return solve(evaluator, alpha)

    monkeypatch.setattr(StabilizedEvaluator, "coefficients", counted)
    rc = main(["sweep", "--shape", "screen", "--k", "5", "--alpha", "1.0",
               "--n-theta", "64", "--out", str(tmp_path / "sweep.csv")])
    assert rc == EXIT_OK
    assert solved == [1.0]


def test_geometry_file_round_trip(tmp_path):
    geom = tmp_path / "screen.geom"
    geom.write_text("kind = screen\nvertex 0 0\nvertex 1 0\n")
    out = tmp_path / "sweep.csv"
    rc = main(
        [
            "sweep",
            "--geometry-file",
            str(geom),
            "--k",
            "5",
            "--n-theta",
            "32",
            "--out",
            str(out),
        ]
    )
    assert rc == EXIT_OK
    assert out.exists()


def test_missing_geometry_file_is_config_error(tmp_path, capsys):
    rc = main(["sweep", "--geometry-file", str(tmp_path / "nope.geom")])
    assert rc == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_non_rational_geometry_is_config_error(tmp_path, capsys):
    geom = tmp_path / "skew.geom"
    geom.write_text(
        "kind = polygon\nvertex 0 0\nvertex 1 0\nvertex 1.001 1\nvertex 0 1\n"
    )
    rc = main(["sweep", "--geometry-file", str(geom)])
    assert rc == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_nearly_straight_corner_is_config_error(tmp_path, no_solver, capsys):
    # the corner at (1, 0) turns by 1e-9 and rounds to a straight angle
    geom = tmp_path / "straight.geom"
    geom.write_text(
        "kind = polygon\nvertex 0 0\nvertex 1 0\nvertex 2 1e-9\n"
        "vertex 2 1\nvertex 0 1\n"
    )
    rc = main(["sweep", "--geometry-file", str(geom)])
    assert rc == EXIT_CONFIG
    assert "rounds to pi" in capsys.readouterr().err


@pytest.mark.parametrize(
    "denominator, code, message",
    [(61, EXIT_NUMERICAL, "numerical failure"), (67, EXIT_CONFIG, "config error")],
)
def test_triangle_near_the_angle_denominator_cap_exits_cleanly(
    denominator, code, message, tmp_path, capsys
):
    # apex angle pi/61 is rational under the cap, but at k = 1 its
    # oversampled canonical set cannot span the M coefficients; pi/67 lies
    # beyond the cap, so the angles do not count as rational
    assert 61 <= MAX_ANGLE_DENOMINATOR < 67
    apex = math.pi / denominator
    geom = tmp_path / "sliver.geom"
    geom.write_text(
        "kind = polygon\nvertex 0 0\nvertex 1 0\n"
        f"vertex {math.cos(apex)!r} {math.sin(apex)!r}\n"
    )
    rc = main(["sweep", "--geometry-file", str(geom), "--k", "1",
               "--n-theta", "16", "--out", str(tmp_path / "sweep.csv")])
    assert rc == code
    assert message in capsys.readouterr().err


def test_misordered_geometry_file_is_config_error(tmp_path, capsys):
    geom = tmp_path / "late.geom"
    geom.write_text("vertex 0 0\nkind = screen\nvertex 1 0\n")
    rc = main(["sweep", "--geometry-file", str(geom)])
    assert rc == EXIT_CONFIG
    assert "kind" in capsys.readouterr().err


@pytest.mark.parametrize("strategy", ["one", "two"])
def test_mtilde_below_coefficient_count_is_config_error(strategy, capsys):
    # the square has M = 8 coefficients, so 4 canonical angles cannot
    # determine them under either strategy
    rc = main(
        ["sweep", "--shape", "square", "--k", "5", "--mtilde", "4",
         "--strategy", strategy]
    )
    assert rc == EXIT_CONFIG
    assert "mtilde 4 is below the coefficient count M = 8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["sweep"], ["grid"], ["table", "--shape-list", "square,pentagon"]]
)
def test_mtilde_above_the_canonical_bound_exits_2_before_the_mesh(
    argv, no_solver, capsys
):
    # 100000 canonical angles used to run every solve and then fail to
    # allocate the 149 GiB canonical matrix
    assert main([*argv, "--mtilde", "100000"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert f"mtilde 100000 exceeds {MAX_CANONICAL_COUNT}" in err
    shape = preset_shape("square")
    config = ExperimentConfig(mtilde=MAX_CANONICAL_COUNT)
    assert _canonical_count(config, shape) == MAX_CANONICAL_COUNT


def test_oversampling_study_reports_rank_deficient_sets_as_inf(tmp_path):
    out = tmp_path / "study.csv"
    rc = main(
        ["study-oversampling", "--mtilde-list", "3", "--delta-list", "1e-8",
         "--out", str(out)]
    )
    assert rc == EXIT_OK
    lines = [line for line in out.read_text().splitlines() if line[:1] != "#"]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    screen = [row["cond"] for row in rows if row["part"] == "screen"]
    triangle = [float(row["cond"]) for row in rows if row["part"] == "triangle"]
    assert screen and set(screen) == {"inf"}
    assert triangle and all(1.0 <= cond < 1e6 for cond in triangle)


def test_numerical_failures_exit_3(monkeypatch, capsys):
    def boom(config):
        raise NoConvergence("stalled")

    monkeypatch.setattr(cli, "cmd_sweep", boom)
    rc = main(["sweep", "--shape", "screen"])
    assert rc == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def _run_module(*argv):
    """`python -m embedfar argv` in a child that finds the package where
    this process imported it from."""
    src = str(Path(embedfar.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "embedfar", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_clearance_below_rounding_exits_2_before_the_mesh(
    tmp_path, no_solver, capsys
):
    # a 1e-13 cluster threshold would split the square's double zero at
    # pi / 2 at alpha = pi/2 + 4e-13 into a pair 8e-13 apart and send it to
    # the residue formula; it lies below the least admissible threshold, so
    # every alpha stops before the mesh
    for alpha in ("1.5707963267952966", "0"):
        argv = [
            "sweep", "--shape", "square", "--k", "5", "--small-h", "1e-13",
            "--alpha", alpha, "--out", str(tmp_path / "sweep.csv"),
        ]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and "7.94e-05" in err


def test_every_package_exception_has_an_exit_code(monkeypatch):
    # each exception class the package defines exits 3 as a numerical
    # failure, or is a ValueError of the input that load_shape turns into
    # a config error (exit 2)
    inputs = []
    for info in pkgutil.iter_modules(embedfar.__path__):
        module = importlib.import_module(f"embedfar.{info.name}")
        for cls in vars(module).values():
            if not (
                isinstance(cls, type)
                and issubclass(cls, BaseException)
                and cls.__module__ == module.__name__
            ) or issubclass(cls, cli._NUMERICAL_FAILURES):
                continue
            assert issubclass(cls, ValueError), cls
            inputs.append(cls)
    assert ConfigError in inputs
    for cls in inputs:
        def fail(path, cls=cls):
            raise cls("bad input")

        monkeypatch.setattr(cli, "load_geometry_file", fail)
        with pytest.raises(ConfigError):
            cli.load_shape(ExperimentConfig(geometry_file="shape.txt"))


def test_selftest_passes(capsys):
    assert main(["selftest"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "selftest" in out
    assert "FAIL" not in out


def test_selftest_passes_at_a_user_big_h(capsys):
    # the screen check runs at the default thresholds: at big_h = 0.1 the
    # screen's error is 0.115, above the check's 0.1
    assert main(["selftest", "--big-h", "0.1"]) == EXIT_OK
    assert "FAIL" not in capsys.readouterr().out


def test_module_entry_point_shows_usage():
    proc = _run_module("--help")
    assert proc.returncode == 0
    assert "sweep" in proc.stdout
