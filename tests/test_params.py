from dataclasses import replace
from pathlib import Path

import pytest

from dwr_diffusion import params
from dwr_diffusion.params import (
    ParameterFileError,
    RunConfig,
    parse_parameter_file,
    parse_parameter_lines,
)

PARAMETER_FILE = Path(__file__).resolve().parents[1] / "input" / "rotating_cone_2d.prm"
SOURCE = "run.prm"


def parse(text):
    return parse_parameter_lines(text.splitlines(), source=SOURCE)


def error_of(text):
    with pytest.raises(ParameterFileError) as info:
        parse(text)
    return str(info.value)


def test_empty_file_gives_the_default_configuration():
    assert parse("") == RunConfig()


def test_shipped_file_gives_the_default_configuration():
    assert parse_parameter_file(PARAMETER_FILE) == RunConfig()


@pytest.mark.parametrize(
    "text,line,message",
    [
        ("subsection problem\nsubsection solver\nend\n", 2, "nested subsections"),
        ("# comment\nsubsection nope\nend\n", 2, "unknown subsection 'nope'"),
        ("subsection problem\nend\nend\n", 3, "'end' without subsection"),
        ("\nset rho = 0.8\n", 2, "'set' outside of a subsection"),
        ("subsection problem\n  set rho 0.8\nend\n", 2, "expected 'set key = value'"),
        ("subsection problem\n  set rhoo = 0.8\nend\n", 2, "unknown key 'rhoo'"),
        ("subsection problem\n  set rho = abc\nend\n", 2, "bad value for 'rho'"),
        ("subsection solver\n  set max_iterations = 1.5\nend\n", 2,
         "bad value for 'max_iterations'"),
        ("subsection adaptivity\n  set skip_zero_indicators = maybe\nend\n", 2,
         "bad value for 'skip_zero_indicators'"),
        ("subsection problem\n  rho = 0.8\nend\n", 2, "cannot parse line 'rho = 0.8'"),
        ("subsection problem\nend\nsubsection solver\n  set max_iterations = 9\n", 3,
         "unterminated subsection 'solver'"),
    ],
)
def test_syntax_errors_name_file_and_line(text, line, message):
    err = error_of(text)
    assert err.startswith(f"{SOURCE}:{line}: ")
    assert message in err


@pytest.mark.parametrize(
    "section,key,raw",
    [
        ("adaptivity", "tol", "nan"),
        ("adaptivity", "tol", "-inf"),
        ("problem", "rho", "nan"),
        ("problem", "a", "inf"),
        ("solver", "relative_tolerance", "nan"),
        ("control_volume", "r1", "nan"),
        ("discretization", "T", "inf"),
    ],
)
def test_non_finite_floats_are_rejected(section, key, raw):
    err = error_of(f"subsection {section}\n  set {key} = {raw}\nend\n")
    assert err == f"{SOURCE}:2: bad value for {key!r}: not a finite number: {raw!r}"


@pytest.mark.parametrize(
    "text,lines,message",
    [
        ("subsection adaptivity\n  set tol = 0\nend\n", "2", "tol must be positive"),
        # every key of the subsection feeds AdaptParams, so the tol line is named too
        ("subsection adaptivity\n  set theta_h1 = 0.1\n  set tol = 0.5\n"
         "  set theta_h2 = 0.2\nend\n", "2,3,4", "need 0 <= theta_h2 <= theta_h1 <= 1"),
        ("subsection problem\n  set a = 2\n  set epsilon = -1\nend\n", "3",
         "coefficients must be positive"),
        ("subsection problem\n  set rho = 1\n  set a = -2\nend\n", "3", "cone sharpness a"),
        ("subsection discretization\n  set n_slabs = 0\nend\n", "2", "n_slabs must be >= 1"),
        ("subsection solver\n  set absolute_tolerance = 0\nend\n", "2", "tolerances must be > 0"),
        ("subsection estimator\n  set time_restriction = left\nend\n", "2", "time_restriction"),
        ("subsection output\n  set vtk_every = -1\nend\n", "2", "vtk_every must be >= 0"),
        ("subsection control_volume\n  set r1 = 0.5\nend\n", "2", "leaves the domain bounds"),
        # the time window is checked against the interval, which two sections feed
        ("subsection control_volume\n  set t_end = 1.2\n  set x_min = -0.05\nend\n"
         "subsection discretization\n  set n_slabs = 3\n  set T = 1.1\nend\n",
         "2,7", "control-volume time window must lie inside (t0, T)"),
    ],
)
def test_range_errors_name_the_set_lines_that_feed_the_rejecting_object(text, lines, message):
    err = error_of(text)
    assert err.startswith(f"{SOURCE}:{lines}: ")
    assert message in err


# The parameter file is an external interface: a config field added, renamed
# or dropped changes this list.
FILE_KEYS = [
    ("problem", ["rho", "epsilon", "a", "s"]),
    ("discretization", ["t0", "T", "n_slabs", "primal_degree", "dual_degree", "load_quadrature"]),
    ("control_volume", ["x_min", "x_max", "y_min", "y_max", "r1", "omega", "t_start", "t_end"]),
    ("adaptivity", ["theta_tau", "theta_h1", "theta_h2", "tol_mode", "tol", "max_loops",
                    "skip_zero_indicators"]),
    ("solver", ["max_iterations", "relative_tolerance", "absolute_tolerance"]),
    ("estimator", ["time_restriction"]),
    ("output", ["vtk_every"]),
]


def test_file_keys_are_the_config_fields_in_order():
    assert [(section, list(keys)) for section, keys in params._SCHEMA.items()] == FILE_KEYS


def test_shipped_file_sets_every_key_in_order():
    sections, section = [], None
    for raw in PARAMETER_FILE.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("subsection "):
            section = (line.split()[1], [])
            sections.append(section)
        elif line.startswith("set "):
            section[1].append(line[4:].partition("=")[0].strip())
    assert sections == FILE_KEYS


def test_one_key_per_subsection_replaces_exactly_its_field():
    config = parse(
        "subsection problem\n  set epsilon = 2.5\nend\n"
        "subsection discretization\n  set n_slabs = 7\nend\n"
        "subsection control_volume\n  set y_max = 0.05\nend\n"
        "subsection adaptivity\n  set skip_zero_indicators = off\nend\n"
        "subsection solver\n  set relative_tolerance = 1e-8\nend\n"
        "subsection estimator\n  set time_restriction = right\nend\n"
        "subsection output\n  set vtk_every = 3\nend\n"
    )
    default = RunConfig()
    assert config == replace(
        default,
        coefficients=replace(default.coefficients, epsilon=2.5),
        discretization=replace(default.discretization, n_slabs=7),
        control_volume=replace(default.control_volume, box=(-0.1, 0.1, -0.1, 0.05)),
        adapt=replace(default.adapt, skip_zero_indicators=False),
        solver=replace(default.solver, relative_tolerance=1e-8),
        estimator=replace(default.estimator, time_restriction="right"),
        output=replace(default.output, vtk_every=3),
    )
    assert type(config.discretization.n_slabs) is int
    assert config.adapt.skip_zero_indicators is False
