"""Text parameter files and the aggregated run configuration.

The file format is line oriented:

    # comment
    subsection problem
      set rho = 0.8
    end

The config dataclasses define every key: a key is named as the field it
sets and takes that field's type (float, int, bool or str) and default.
The four keys x_min, x_max, y_min and y_max set the control-volume box.
Unknown sections or keys, malformed lines, type mismatches and non-finite
floats are rejected with the offending line number; values outside their
documented ranges with the ``set`` lines of the keys that feed the config
object rejecting them.  An empty file yields the default configuration,
which is the rotating-cone benchmark setup.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field, fields

from .marking import AdaptParams
from .mesh import check_integers
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
        check_integers(self, "n_slabs", "primal_degree", "dual_degree")
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
        check_integers(self, "vtk_every")
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


_PARSERS = {float: _parse_float, int: int, bool: _parse_bool, str: str}

# subsection -> the RunConfig fields its keys set.  A range error names the
# set lines of the rejecting object's keys; RunConfig's cross-check lists its
# feeds by hand, as no dataclass says which fields its __post_init__ reads.
_SECTIONS = {"problem": ("coefficients", "solution"), "discretization": ("discretization",),
             "control_volume": ("control_volume",), "adaptivity": ("adapt",),
             "solver": ("solver",), "estimator": ("estimator",), "output": ("output",)}
_RUN_FEEDS = (("control_volume", "t_start"), ("control_volume", "t_end"),
              ("discretization", "t0"), ("discretization", "T"))
# tuple field -> the float keys setting its components; other tuple fields are no keys
_TUPLE_KEYS = {"box": ("x_min", "x_max", "y_min", "y_max")}


def _keys(cls):
    """(field, key, parser, default) of each key that sets a field of ``cls``, in field order."""
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        if f.name in _TUPLE_KEYS:
            for key, default in zip(_TUPLE_KEYS[f.name], f.default):
                yield f.name, key, _parse_float, default
        elif hints[f.name] is not tuple:
            yield f.name, f.name, _PARSERS[hints[f.name]], f.default


_CLASSES = {f.name: f.default_factory for f in fields(RunConfig)}
# RunConfig field -> (subsection, the _keys of its class)
_OBJECTS = {name: (section, list(_keys(_CLASSES[name])))
            for section, names in _SECTIONS.items() for name in names}
# subsection -> key -> (parser, default)
_SCHEMA = {section: {k: (parse, d) for name in names for _, k, parse, d in _OBJECTS[name][1]}
           for section, names in _SECTIONS.items()}


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
            parse, _ = _SCHEMA[section][key]
            try:
                values[section][key] = parse(raw_val)
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

    The defaults are valid, so a range error names at least one ``set`` line.
    """

    def build(make, feeds):
        try:
            return make()
        except ValueError as err:
            raise error(",".join(map(str, sorted(set_at[f] for f in feeds if f in set_at))),
                        err) from None

    def build_object(name):
        section, keys = _OBJECTS[name]
        kwargs, got = {}, values[section]
        for f, key, _, _ in keys:
            kwargs[f] = kwargs.get(f, ()) + (got[key],) if f in _TUPLE_KEYS else got[key]
        return build(lambda: _CLASSES[name](**kwargs), [(section, k) for _, k, _, _ in keys])

    config = {name: build_object(name) for name in _CLASSES}
    return build(lambda: RunConfig(**config), _RUN_FEEDS)


def parse_parameter_file(path):
    """Parse a parameter file into a :class:`RunConfig`."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_parameter_lines(fh.readlines(), source=str(path))
