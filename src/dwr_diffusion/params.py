"""Text parameter files and the aggregated run configuration.

The file format is line oriented:

    # comment
    subsection problem
      set rho = 0.8
    end

Unknown sections or keys, malformed lines, type mismatches and non-finite
floats are rejected with the offending line number; values outside their
documented ranges with the ``set`` lines of the keys that feed the config
object rejecting them.  An empty file yields the default configuration,
which is the rotating-cone benchmark setup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .marking import AdaptParams
from .problem import Coefficients, ConeSolution, ControlVolume
from .sparse_la import SolverControl


class ParameterFileError(ValueError):
    """Malformed parameter file; message carries the line number."""


@dataclass(frozen=True)
class DiscretizationConfig:
    t0: float = 0.0
    T: float = 1.25
    n_slabs: int = 5
    primal_degree: int = 1
    dual_degree: int = 2
    load_quadrature: str = "gauss"  # or "right"

    def __post_init__(self):
        if not self.t0 < self.T:
            raise ValueError("need t0 < T")
        if self.n_slabs < 1:
            raise ValueError("n_slabs must be >= 1")
        if self.primal_degree not in (1, 2) or self.dual_degree not in (1, 2):
            raise ValueError("degrees must be 1 or 2")
        if self.load_quadrature not in ("gauss", "right"):
            raise ValueError("load_quadrature must be 'gauss' or 'right'")


@dataclass(frozen=True)
class EstimatorConfig:
    time_restriction: str = "mean"  # or "right"

    def __post_init__(self):
        if self.time_restriction not in ("mean", "right"):
            raise ValueError("time_restriction must be 'mean' or 'right'")


@dataclass(frozen=True)
class OutputConfig:
    vtk_every: int = 0  # 0: final loop only; k > 0: every k-th loop and the final one

    def __post_init__(self):
        if self.vtk_every < 0:
            raise ValueError("vtk_every must be >= 0")


@dataclass(frozen=True)
class RunConfig:
    coefficients: Coefficients = field(default_factory=Coefficients)
    solution: ConeSolution = field(default_factory=ConeSolution)
    control_volume: ControlVolume = field(default_factory=ControlVolume)
    discretization: DiscretizationConfig = field(default_factory=DiscretizationConfig)
    adapt: AdaptParams = field(default_factory=AdaptParams)
    solver: SolverControl = field(default_factory=SolverControl)
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def __post_init__(self):
        cv = self.control_volume
        d = self.discretization
        if cv.t_start < d.t0 or cv.t_end > d.T:
            raise ValueError("control-volume time window must lie inside (t0, T)")


def _parse_bool(raw):
    low = raw.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_float(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


# section -> key -> (type tag, default)
_SCHEMA = {
    "problem": {
        "rho": ("float", 0.8),
        "epsilon": ("float", 1.2),
        "a": ("float", 50.0),
        "s": ("float", -0.3333),
    },
    "discretization": {
        "t0": ("float", 0.0),
        "T": ("float", 1.25),
        "n_slabs": ("int", 5),
        "primal_degree": ("int", 1),
        "dual_degree": ("int", 2),
        "load_quadrature": ("str", "gauss"),
    },
    "control_volume": {
        "x_min": ("float", -0.1),
        "x_max": ("float", 0.1),
        "y_min": ("float", -0.1),
        "y_max": ("float", 0.1),
        "r1": ("float", 0.25),
        "omega": ("float", 2.0 * math.pi),
        "t_start": ("float", 0.25),
        "t_end": ("float", 1.0),
    },
    "adaptivity": {
        "theta_tau": ("float", 0.5),
        "theta_h1": ("float", 0.3),
        "theta_h2": ("float", 0.15),
        "tol_mode": ("str", "relative"),
        "tol": ("float", 1e-2),
        "max_loops": ("int", 25),
        "skip_zero_indicators": ("bool", True),
    },
    "solver": {
        "max_iterations": ("int", 5000),
        "relative_tolerance": ("float", 1e-10),
        "absolute_tolerance": ("float", 1e-14),
    },
    "estimator": {
        "time_restriction": ("str", "mean"),
    },
    "output": {
        "vtk_every": ("int", 0),
    },
}

_PARSERS = {"float": _parse_float, "int": int, "bool": _parse_bool, "str": str}


def parse_parameter_lines(lines, source="<string>"):
    def error(at, message):
        return ParameterFileError(f"{source}:{at}: {message}")

    values = {sec: {k: d for k, (_, d) in keys.items()} for sec, keys in _SCHEMA.items()}
    set_at = {}  # (section, key) -> line of its last 'set'
    section = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("subsection"):
            if section is not None:
                raise error(lineno, "nested subsections are not supported")
            name = line[len("subsection"):].strip()
            if name not in _SCHEMA:
                raise error(lineno, f"unknown subsection {name!r}")
            section, opened = name, lineno
            continue
        if line.lower() == "end":
            if section is None:
                raise error(lineno, "'end' without subsection")
            section = None
            continue
        if line.lower().startswith("set "):
            if section is None:
                raise error(lineno, "'set' outside of a subsection")
            body = line[4:]
            if "=" not in body:
                raise error(lineno, "expected 'set key = value'")
            key, _, raw_val = body.partition("=")
            key = key.strip()
            raw_val = raw_val.strip()
            if key not in _SCHEMA[section]:
                raise error(lineno, f"unknown key {key!r} in subsection {section!r}")
            type_tag, _ = _SCHEMA[section][key]
            try:
                values[section][key] = _PARSERS[type_tag](raw_val)
            except ValueError as err:
                raise error(lineno, f"bad value for {key!r}: {err}") from None
            set_at[section, key] = lineno
            continue
        raise error(lineno, f"cannot parse line {raw.strip()!r}")
    if section is not None:
        raise error(opened, f"unterminated subsection {section!r}")
    return _build_config(values, set_at, error)


def _build_config(values, set_at, error):
    """The :class:`RunConfig`, built one config object at a time.

    A value-range error names the ``set`` lines of the keys that feed the
    object that rejected it; the defaults are valid, so one of them is set.
    """

    def build(make, *feeds):
        try:
            return make()
        except ValueError as err:
            raise error(",".join(map(str, sorted(set_at[f] for f in feeds if f in set_at))),
                        err) from None

    def section(name, cls):
        return build(lambda: cls(**values[name]), *((name, key) for key in _SCHEMA[name]))

    p, cv = values["problem"], values["control_volume"]
    config = dict(
        coefficients=build(lambda: Coefficients(rho=p["rho"], epsilon=p["epsilon"]),
                           ("problem", "rho"), ("problem", "epsilon")),
        solution=build(lambda: ConeSolution(p["a"], p["s"]), ("problem", "a"), ("problem", "s")),
        control_volume=build(lambda: ControlVolume(
            box=(cv["x_min"], cv["x_max"], cv["y_min"], cv["y_max"]),
            r1=cv["r1"], omega=cv["omega"], t_start=cv["t_start"], t_end=cv["t_end"],
        ), *(("control_volume", key) for key in cv)),
        discretization=section("discretization", DiscretizationConfig),
        adapt=section("adaptivity", AdaptParams),
        solver=section("solver", SolverControl),
        estimator=section("estimator", EstimatorConfig),
        output=section("output", OutputConfig),
    )
    return build(lambda: RunConfig(**config), ("control_volume", "t_start"),
                 ("control_volume", "t_end"), ("discretization", "t0"), ("discretization", "T"))


def parse_parameter_file(path):
    """Parse a parameter file into a :class:`RunConfig`."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_parameter_lines(fh.readlines(), source=str(path))
