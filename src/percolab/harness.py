"""Command line interface, configuration files, CSV output and manifests.

Configuration files are flat ``key = value`` text; unknown keys are
rejected. Command line flags override file values. Every experiment writes
result CSVs (schema-versioned, byte-reproducible for a fixed config and
seed, independent of worker count) plus a JSON manifest with a content hash
of the configuration and of every output file. It also records, unhashed
and unread by replay, the worker processes used and the package versions.

Every config key is defined once, in ``_KEYS``: its parser, range check and
help. A command lists only its required keys and the defaults it gives the
others. Every value from outside (config file, ``--set``, flag or replayed
manifest) is parsed and checked before anything is written. A replayed
manifest may name a key of ``_RETIRED`` only at the value listed there.

Exit codes: 0 ok, 1 usage, 2 configuration, 3 runtime failure. Every
estimator command gets its replicates from ``estimators._run_all``, so a
failed replicate exits 3 before any output is written.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
import scipy

from . import __version__
from .cutpoints import detect_cutpoints
from .errors import ConfigError, PercolabError, UsageError
from .estimators import (
    CODE_OUTCOMES,
    _e1,
    _event_grid,
    _run_all,
    _run_one_n,
    _scan,
    _upper_tail_box,
    estimate_J,
    estimate_mu,
    estimate_rate_surface,
    rate_estimates,
    upper_tail_vs_cutpoint_experiment,
)
from .lattice import (
    SUPPORTED_DIMENSIONS,
    BoxSpec,
    PercolationSample,
    sample_configuration,
)
from .metric import _INF32, grow_ball
from .parallel import run_parallel  # noqa: F401  (perfbench wraps harness.run_parallel)
from .parallel import workers_used
from .renorm import (
    MacroLattice,
    _interior_sites,
    classify_boxes,
    route_through_good,
    slab_experiment,
)

CSV_PREFIX = "# percolab-csv"


# ---------------------------------------------------------------------------
# typed configuration


_REQUIRED = object()


@dataclass(frozen=True)
class Field:
    """One config key: its parser and range check, its default (absent:
    the key is required) and its help."""

    parse: object
    default: object = _REQUIRED
    help: str = ""


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_ints(text: str):
    return tuple(int(tok) for tok in str(text).split(",") if tok.strip())


def _parse_float(text: str) -> float:
    """A finite float: nan and +-inf are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{value!r} is not finite")
    return value


def _parse_floats(text: str):
    return tuple(_parse_float(tok) for tok in str(text).split(",") if tok.strip())


def _checked(parse, ok, what: str):
    """``parse`` followed by a range check: values failing ``ok`` are a
    configuration error, wherever the value came from."""

    def check(text):
        value = parse(text)
        if not ok(value):
            raise ValueError(f"{value!r} is not {what}")
        return value

    return check


_DIMENSION = _checked(
    int, lambda d: d in SUPPORTED_DIMENSIONS, f"one of {SUPPORTED_DIMENSIONS}"
)
_PROBABILITY = _checked(_parse_float, lambda p: 0.0 < p < 1.0, "in (0, 1)")
_COUNT = _checked(int, lambda v: v >= 1, ">= 1")
_NONNEGATIVE_INT = _checked(int, lambda v: v >= 0, ">= 0")
_POSITIVE = _checked(_parse_float, lambda v: v > 0.0, "> 0")
_NONNEGATIVE = _checked(_parse_float, lambda v: v >= 0.0, ">= 0")
_FRACTION = _checked(_parse_float, lambda v: 0.0 < v <= 1.0, "in (0, 1]")
_SCALES = _checked(_parse_ints, lambda g: min(g, default=0) >= 1, "nonempty, each >= 1")
_GRID = _checked(_parse_floats, bool, "nonempty")
EVENT_KINDS = ("cutpoint", "free", "upper_tail")
_EVENT = _checked(str, lambda e: e in EVENT_KINDS, f"one of {EVENT_KINDS}")

LEMMA_ALIASES = {
    "projection": "projection",
    "proj": "projection",
    "distinct-subset": "distinct-subset",
    "subset": "distinct-subset",
    "separated-matching": "separated-matching",
    "dislines": "separated-matching",
    "disjoint-paths": "disjoint-paths",
    "disjpaths": "disjoint-paths",
    "axis-avoiding": "axis-avoiding",
    "case1": "axis-avoiding",
    "exterior-boundary": "exterior-boundary",
    "boundary": "exterior-boundary",
    "animals": "animals",
}
_LEMMA = _checked(
    str, lambda name: name in LEMMA_ALIASES, f"one of {sorted(LEMMA_ALIASES)}"
)


def _sites(text: str):
    """The macroscopic path 'i,j;k,l;...' as a list of integer sites."""
    return [tuple(int(c) for c in tok.split(",")) for tok in text.split(";")]


def _parse_sites(text: str) -> str:
    """A macroscopic path, checked and kept as text."""
    if len({len(site) for site in _sites(text)}) != 1:
        raise ValueError(f"the sites of {text!r} differ in dimension")
    return text


_KEYS = {
    "d": Field(_DIMENSION, help="lattice dimension"),
    "L": Field(_COUNT, help="box radius"),
    "p": Field(_PROBABILITY, help="edge probability"),
    "seed": Field(int, help="sample seed"),
    "sample": Field(str, help="sample file"),
    "out": Field(str, help="output sample file"),
    "csv": Field(str, help="output CSV name"),
    "source": Field(_parse_ints, help="source vertex, e.g. 0,0"),
    "t_max": Field(_NONNEGATIVE_INT, help="layer cap (0 = none)"),
    "t_min": Field(_COUNT, help="first cut-point time"),
    "N": Field(_COUNT, help="macroscopic block half-side"),
    "n": Field(_COUNT, help="scale n (slab: endpoint separation)"),
    "epsilon": Field(_FRACTION, help="block fraction epsilon"),
    "xi": Field(_parse_float, help="distance slack xi"),
    "mu1": Field(_POSITIVE, help="norm estimate for a unit step"),
    "rho": Field(_NONNEGATIVE_INT, help="slab dependency range (0 = derive from mu1)"),
    "sites": Field(_parse_sites, help="macro path, e.g. 0,0;1,0;1,1"),
    "lemma": Field(_LEMMA, help="which construction to verify"),
    "instances": Field(_COUNT, help="random instances"),
    "event": Field(_EVENT, help="cutpoint|free|upper_tail"),
    "s": Field(_GRID, help="time slack grid"),
    "x": Field(_parse_floats, help="direction"),
    "n_grid": Field(_SCALES, help="scales n"),
    "xi_grid": Field(_GRID, help="slacks xi of J"),
    "s_grid": Field(_GRID, help="time slacks s of the surface"),
    "y_max": Field(_NONNEGATIVE, help="half-width of the surface's y grid"),
    "y_step": Field(_POSITIVE, help="spacing of the surface's y grid"),
    "replicates": Field(_COUNT, help="replicates per scale"),
    "box_factor": Field(_POSITIVE, help="box radius per unit of n"),
    "workers": Field(_NONNEGATIVE_INT, help="0 = auto"),
    "emit_replicates": Field(_parse_bool, help="also write replicates.csv"),
    "manifest": Field(str, help="manifest to reproduce and compare"),
}


def _schema(required, defaults) -> dict:
    """A command's keys: the required ones, then the others with the
    command's defaults."""
    schema = {key: _KEYS[key] for key in required}
    for key, value in defaults.items():
        schema[key] = replace(_KEYS[key], default=value)
    return schema


def _parse_value(schema: dict, key: str, value: str, where: str = ""):
    """``value`` parsed and checked by the field of ``key``; every source of
    configuration goes through here."""
    if key not in schema:
        raise ConfigError(f"{where}unknown key {key!r}")
    try:
        return schema[key].parse(value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}bad value for {key!r}: {exc}")


def parse_config_text(text: str, schema: dict, source: str = "<config>") -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = _parse_value(schema, key, value, f"{source}:{lineno}: ")
    return out


def resolve_config(schema: dict, file_values: dict, overrides: dict) -> dict:
    merged = {}
    for key, fld in schema.items():
        if key in overrides:
            merged[key] = overrides[key]
        elif key in file_values:
            merged[key] = file_values[key]
        elif fld.default is not _REQUIRED:
            merged[key] = fld.default
        else:
            raise ConfigError(f"missing required key {key!r}")
    x = merged.get("x")
    if x and len(x) != merged["d"]:
        raise ConfigError(f"x = {_fmt(x)} has length {len(x)}, not d = {merged['d']}")
    # x = 0 puts the target floor(n x) at the origin, where D = 0: mu's ratio
    # is 0, the upper tail's threshold is never exceeded and J's constraint
    # admits every grid point; cut-point and free events take x = 0
    if x and not any(x) and merged.get("event", "upper_tail") == "upper_tail":
        raise ConfigError(f"x = {_fmt(x)} is zero; a target needs a nonzero direction")
    # classify and route cut blocks of side epsilon * N; slab's epsilon scales n
    if "epsilon" in schema and "N" in schema and "n" not in schema:
        eps, N = merged["epsilon"], merged["N"]
        if eps * N < 1:
            raise ConfigError(f"need epsilon * N >= 1, got {_fmt(eps)} * {N}")
    return merged


def canonical_config(command: str, cfg: dict) -> str:
    lines = [f"command = {command}"]
    for key in sorted(cfg):
        lines.append(f"{key} = {_fmt(cfg[key])}")
    return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# CSV and manifests


def write_csv(path, schema_name: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"{CSV_PREFIX} {schema_name} v1\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_cell(c) for c in row])


def _fmt_cell(c):
    if isinstance(c, (float, np.floating)):
        c = float(c)
        if math.isinf(c):
            return "inf"
        if math.isnan(c):
            return "nan"
        return repr(c + 0.0)  # + 0.0 turns -0.0 into 0.0
    return c


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, command: str, cfg: dict, outputs, started: float) -> str:
    config_text = canonical_config(command, cfg)
    record = {
        "experiment_id": hashlib.sha256(config_text.encode()).hexdigest()[:12],
        "command": command,
        "config": config_text,
        "input_hash": hashlib.sha256(config_text.encode()).hexdigest(),
        "started_at": started,
        "finished_at": time.time(),
        "outputs": [
            {"path": os.path.basename(p), "sha256": _sha256(p)} for p in outputs
        ],
        "workers": workers_used(cfg.get("workers", 1), cfg.get("replicates", 1)),
        "versions": {"percolab": __version__, "python": "%d.%d.%d" % sys.version_info[:3],
                     "numpy": np.__version__, "scipy": scipy.__version__},
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# command schemas


def _load_or_sample(cfg) -> PercolationSample:
    if cfg.get("sample"):
        return PercolationSample.load(cfg["sample"])
    box = BoxSpec(cfg["d"], cfg["L"])
    return sample_configuration(box, cfg["p"], cfg["seed"])


_SAMPLED = ("d", "L", "p", "seed")
_ESTIMATED = ("d", "p", "seed")

SCHEMAS: dict[str, dict[str, Field]] = {
    "sample": _schema(_SAMPLED + ("out",), {}),
    "ball": _schema(("sample", "source"), {"t_max": 0, "csv": "dist.csv"}),
    "cutpoint-scan": _schema(_SAMPLED, {"sample": "", "t_min": 1, "csv": "cutpoints.csv"}),
    "classify": _schema(
        _SAMPLED + ("N", "mu1"), {"sample": "", "epsilon": 0.5, "csv": "classify.csv"}
    ),
    "route": _schema(
        _SAMPLED + ("N", "mu1", "sites"),
        {"sample": "", "epsilon": 0.5, "csv": "route.csv"},
    ),
    "slab": _schema(
        _SAMPLED + ("n", "N"),
        {"epsilon": 0.1, "xi": 0.3, "mu1": 1.0, "rho": 0, "csv": "slab.csv"},
    ),
    "lemma-check": _schema(("lemma",), {"instances": 100, "seed": 1, "csv": "lemma.csv"}),
    "estimate-mu": _schema(_ESTIMATED, {
        "x": (), "n_grid": (20, 40), "replicates": 100, "box_factor": 1.6,
        "workers": 0, "csv": "mu.csv",
    }),
    "estimate-rate": _schema(_ESTIMATED, {
        "event": "cutpoint", "s": (0.25,), "x": (), "xi": 0.0, "mu1": 1.0,
        "n_grid": (8,), "replicates": 1000, "box_factor": 2.0, "workers": 0,
        "emit_replicates": False, "csv": "rates.csv",
    }),
    "estimate-j": _schema(_ESTIMATED, {
        "n": 8, "x": (), "xi_grid": (0.0, 0.25, 0.5), "mu1": 1.0,
        "s_grid": (0.0, 0.25, 0.5, 0.75, 1.0), "y_max": 1.0, "y_step": 0.5,
        "replicates": 2000, "box_factor": 2.0, "workers": 0, "csv": "j.csv",
    }),
    # one time slack s here, where estimate-rate takes a grid
    "upper-tail": _schema(_ESTIMATED, {
        "xi": 0.3, "mu1": 1.0, "n_grid": (12,), "replicates": 1000,
        "box_factor": 1.3, "workers": 0, "csv": "paired.csv",
    }) | {"s": Field(_parse_float, default=0.1, help="time slack")},
    "replay": _schema(("manifest",), {}),
}


# ---------------------------------------------------------------------------
# command handlers (each returns the list of written output paths)


def _cmd_sample(cfg, out_dir):
    box = BoxSpec(cfg["d"], cfg["L"])
    sample = sample_configuration(box, cfg["p"], cfg["seed"])
    path = cfg["out"]
    if not os.path.isabs(path):
        path = os.path.join(out_dir, path)
    sample.save(path)
    return [path]


def _require_in_sample(
    sample: PercolationSample, key: str, points, fits, what: str
) -> None:
    """Points named by ``key`` must have the sample's dimension, which may
    come from the sample file rather than from ``d``, and pass ``fits``,
    else they are reported as ``what`` the sample box."""
    d = sample.box.dimension
    for point in points:
        if len(point) != d:
            raise ConfigError(
                f"{key}: {_fmt(point)} has length {len(point)}, not d = {d}"
            )
        if not fits(point):
            raise ConfigError(f"{key}: {_fmt(point)} {what} the sample box")


def _cmd_ball(cfg, out_dir):
    sample = PercolationSample.load(cfg["sample"])
    _require_in_sample(
        sample, "source", [cfg["source"]], sample.box.contains, "is outside"
    )
    t_max = cfg["t_max"] or None
    ball = grow_ball(sample, tuple(cfg["source"]), t_max=t_max)
    box = sample.box
    coords = box.coords_of_flats(np.arange(box.n_vertices)).tolist()
    path = os.path.join(out_dir, cfg["csv"])
    write_csv(
        path, "dist",
        [f"x{k + 1}" for k in range(box.dimension)] + ["dist"],
        [
            coord + ["inf" if v == _INF32 else v]
            for coord, v in zip(coords, ball.dist.tolist())
        ],
    )
    return [path]


def _cmd_cutpoint_scan(cfg, out_dir):
    sample = _load_or_sample(cfg)
    d = sample.box.dimension
    ball = grow_ball(sample, (0,) * d, stop_at_boundary=True)
    records = detect_cutpoints(ball, cfg["t_min"])
    path = os.path.join(out_dir, cfg["csv"])
    write_csv(
        path, "cutpoints",
        ["t"] + [f"x{k + 1}" for k in range(d)],
        [[r.time, *r.location] for r in records],
    )
    return [path]


def _cmd_classify(cfg, out_dir):
    # imported here, before the sample is drawn: renorm.window_components
    # imports it in its body, so the timed classify_boxes phase would pay for
    # it, and no other command needs scipy.sparse
    import scipy.sparse.csgraph  # noqa: F401

    sample = _load_or_sample(cfg)
    cls = classify_boxes(sample, cfg["N"], cfg["epsilon"], cfg["mu1"])
    path = os.path.join(out_dir, cfg["csv"])
    with open(path, "w", newline="") as fh:
        cls.to_csv(fh)
    return [path]


def _cmd_route(cfg, out_dir):
    import scipy.sparse.csgraph  # noqa: F401  (as in _cmd_classify)

    sample = _load_or_sample(cfg)
    sites = _sites(cfg["sites"])
    box = sample.box
    # the sites that classify_boxes classifies
    interior = set(_interior_sites(box, MacroLattice(N=cfg["N"], dimension=box.dimension)))
    _require_in_sample(
        sample, "sites", sites, interior.__contains__, "has an enlarged block outside"
    )
    cls = classify_boxes(sample, cfg["N"], cfg["epsilon"], cfg["mu1"])
    x = box.vertex_coord(int(cls.cluster(sites[0])[0]))
    y = box.vertex_coord(int(cls.cluster(sites[-1])[0]))
    route = route_through_good(sample, cls, sites, x, y)
    path = os.path.join(out_dir, cfg["csv"])
    d = box.dimension
    write_csv(
        path, "route",
        ["step"] + [f"x{k + 1}" for k in range(d)],
        [[i, *v] for i, v in enumerate(route)],
    )
    return [path]


def _cmd_slab(cfg, out_dir):
    sample = _load_or_sample(cfg)
    outcomes = slab_experiment(
        sample, cfg["epsilon"], cfg["xi"], cfg["N"], cfg["n"], cfg["mu1"],
        rho=cfg["rho"] or None,
    )
    path = os.path.join(out_dir, cfg["csv"])
    write_csv(
        path, "slab", ["n", "slab_index", "offset", "distance", "event"],
        [
            [cfg["n"], i, ";".join(map(str, o.offset)),
             "inf" if math.isinf(o.distance) else int(o.distance), int(o.event)]
            for i, o in enumerate(outcomes)
        ],
    )
    return [path]


def _cmd_lemma_check(cfg, out_dir):
    # imported here: no other command needs the lemma library or scipy.optimize
    from .combinatorics import LEMMAS

    name = LEMMA_ALIASES[cfg["lemma"]]
    rng = np.random.default_rng(cfg["seed"])
    rows = []
    for inst in range(cfg["instances"]):
        bound, achieved, ok = LEMMAS[name](rng)
        rows.append([inst, name, bound, achieved, int(ok)])
    path = os.path.join(out_dir, cfg["csv"])
    write_csv(path, "lemma", ["instance", "lemma", "bound", "achieved", "pass"], rows)
    return [path]


def _cmd_estimate_mu(cfg, out_dir):
    points = estimate_mu(
        cfg["p"], cfg["d"], cfg["x"] or _e1(cfg["d"]), cfg["n_grid"], cfg["replicates"],
        cfg["seed"], box_factor=cfg["box_factor"],
        workers=cfg["workers"],
    )
    path = os.path.join(out_dir, cfg["csv"])
    write_csv(
        path, "mu",
        ["n", "replicates", "connected", "disconnected", "contaminated",
         "mean", "ci_lo", "ci_hi"],
        [
            [pt.n, pt.replicates, pt.connected, pt.disconnected,
             pt.contaminated, pt.mean, pt.ci[0], pt.ci[1]]
            for pt in points
        ],
    )
    return [path]


def _fmt_point(coords) -> str:
    return ";".join(repr(float(c)) for c in coords)


def _rate_rows(estimates):
    rows = []
    for est in estimates:
        lo_p, hi_p = est.ci
        lo_r, hi_r = est.rate_bounds
        rows.append([
            est.label, "" if est.s is None else est.s, _fmt_point(est.x), est.n,
            est.tally.replicates, est.tally.hits, est.tally.misses,
            est.tally.disconnected, est.tally.contaminated,
            est.p_hat, lo_p, hi_p,
            "" if est.rate is None else est.rate, lo_r, hi_r,
        ])
    return rows


_RATE_HEADER = [
    "event", "s", "x", "n", "replicates", "hits", "misses", "disconnected",
    "contaminated", "p_hat", "p_lo", "p_hi", "rate", "rate_lo", "rate_hi",
]


def _cmd_estimate_rate(cfg, out_dir):
    d, p, seed, kind = cfg["d"], cfg["p"], cfg["seed"], cfg["event"]
    replicates, workers = cfg["replicates"], cfg["workers"]
    x = cfg["x"] or (_e1(d) if kind == "upper_tail" else (0.0,) * d)
    estimates = []
    replicate_rows = []
    for n in cfg["n_grid"]:
        # (label, s, x) of each event, in outcome-code order
        if kind == "upper_tail":
            box, threshold = _upper_tail_box(d, x, n, cfg["xi"], cfg["mu1"], cfg["box_factor"])
            fn = partial(_run_one_n, p=p, box=box, n=n, x=x, threshold=threshold, seed=seed)
            events = [(f"upper_tail(xi={cfg['xi']})", None, x)]
            results = _run_all(fn, replicates, workers)
        else:
            grid = _event_grid(
                d, cfg["s"], [x], n, cfg["box_factor"], alpha=None, free=kind == "free"
            )
            events = [(f"{kind}(s={s})", s, x) for s, x in grid.events]
            results = _scan(grid, p, replicates, seed, workers)
        at_n = rate_estimates(events, n, results)
        for est in at_n:
            # no resolved replicate: p_hat would be nan, so refuse the run
            if not est.resolved:
                raise ConfigError(
                    f"{est.label} at n = {n}: all {replicates} replicates are "
                    f"contaminated; try a box_factor above {_fmt(cfg['box_factor'])}"
                )
        estimates.extend(at_n)
        if cfg["emit_replicates"]:
            for idx, codes in enumerate(results):
                for (label, s, point), code in zip(events, codes):
                    replicate_rows.append([
                        label, "" if s is None else s, _fmt_point(point),
                        int(n), idx, CODE_OUTCOMES[code].value,
                    ])

    path = os.path.join(out_dir, cfg["csv"])
    write_csv(path, "rates", _RATE_HEADER, _rate_rows(estimates))
    if not cfg["emit_replicates"]:
        return [path]
    rpath = os.path.join(out_dir, "replicates.csv")
    write_csv(
        rpath, "event-tally",
        ["event", "s", "x", "n", "replicate", "outcome"],
        replicate_rows,
    )
    return [path, rpath]


def _y_grid(d: int, y_max: float, y_step: float):
    """Every y of y_step Z^d with |y|_inf <= y_max, in row-major order; a
    rounding error of 1e-9 steps is forgiven."""
    steps = math.floor(y_max / y_step + 1e-9)
    axis = [k * y_step for k in range(-steps, steps + 1)]
    return list(itertools.product(axis, repeat=d))


def _cmd_estimate_j(cfg, out_dir):
    d = cfg["d"]
    x = cfg["x"] or _e1(d)
    surface = estimate_rate_surface(
        d, cfg["p"], cfg["s_grid"], _y_grid(d, cfg["y_max"], cfg["y_step"]),
        cfg["n"], cfg["replicates"], cfg["seed"], box_factor=cfg["box_factor"],
        workers=cfg["workers"],
    )
    rows = []
    for xi in cfg["xi_grid"]:
        j = estimate_J(x, xi, cfg["mu1"], surface)
        rows.append([
            xi, j.value, j.argmin[0], _fmt_point(j.argmin[1]),
            j.slack, j.R, int(j.covered),
        ])
    path = os.path.join(out_dir, cfg["csv"])
    write_csv(
        path, "jrate",
        ["xi", "J", "argmin_s", "argmin_y", "slack", "R", "covered"],
        rows,
    )
    return [path]


def _cmd_upper_tail(cfg, out_dir):
    tallies = upper_tail_vs_cutpoint_experiment(
        cfg["p"], cfg["d"], cfg["xi"], cfg["n_grid"], cfg["replicates"],
        cfg["seed"], s=cfg["s"], mu1=cfg["mu1"], box_factor=cfg["box_factor"],
        workers=cfg["workers"],
    )
    rows = []
    for tally in tallies:
        for (upper, cut), count in sorted(tally.counts.items()):
            rows.append([tally.n, upper, cut, count])
    path = os.path.join(out_dir, cfg["csv"])
    write_csv(path, "paired", ["n", "upper_tail", "late_cutpoint", "count"], rows)
    return [path]


# keys that older manifests store, with the one value the current code
# still reproduces: replay drops such a line and refuses any other value
_RETIRED = {"fail_at": "-1"}


def _cmd_replay(cfg, out_dir):
    with open(cfg["manifest"]) as fh:
        record = json.load(fh)
    command = record["command"]
    schema = SCHEMAS[command]
    kept = []
    for line in record["config"].splitlines():
        key, _, value = (part.strip() for part in line.partition("="))
        if key in _RETIRED:
            if value != _RETIRED[key]:
                raise ConfigError(
                    f"<manifest>: retired key {key!r} = {value} cannot be replayed"
                )
        elif key != "command":
            kept.append(line)
    file_values = parse_config_text("\n".join(kept), schema, source="<manifest>")
    merged = resolve_config(schema, file_values, {})
    with tempfile.TemporaryDirectory() as tmp:
        outputs = _HANDLERS[command](merged, tmp)
        mismatches = []
        for out in record["outputs"]:
            fresh = os.path.join(tmp, out["path"])
            if not os.path.exists(fresh) or _sha256(fresh) != out["sha256"]:
                mismatches.append(out["path"])
    if mismatches:
        raise PercolabError(f"replay mismatch for outputs: {mismatches}")
    print(f"replay ok: {len(record['outputs'])} outputs byte-identical")
    return []


_HANDLERS = {
    "sample": _cmd_sample,
    "ball": _cmd_ball,
    "cutpoint-scan": _cmd_cutpoint_scan,
    "classify": _cmd_classify,
    "route": _cmd_route,
    "slab": _cmd_slab,
    "lemma-check": _cmd_lemma_check,
    "estimate-mu": _cmd_estimate_mu,
    "estimate-rate": _cmd_estimate_rate,
    "estimate-j": _cmd_estimate_j,
    "upper-tail": _cmd_upper_tail,
    "replay": _cmd_replay,
}


# ---------------------------------------------------------------------------
# CLI plumbing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="percolab", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for command, schema in SCHEMAS.items():
        sp = sub.add_parser(command, add_help=True)
        sp.add_argument("--config", default=None, help="config file")
        sp.add_argument("--out-dir", default=".", help="output directory")
        sp.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override a config key",
        )
        for key, fld in schema.items():
            flag = "--" + key.replace("_", "-")
            sp.add_argument(flag, dest=f"opt_{key}", default=None, help=fld.help)
    return parser


def cli_dispatch(argv) -> int:
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("missing subcommand")
        schema = SCHEMAS[args.command]
        file_values = {}
        if args.config:
            try:
                with open(args.config) as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}")
            file_values = parse_config_text(text, schema, source=args.config)
        overrides = {}
        for item in args.set:
            if "=" not in item:
                raise UsageError(f"--set expects KEY=VALUE, got {item!r}")
            key, value = (part.strip() for part in item.split("=", 1))
            overrides[key] = _parse_value(schema, key, value)
        for key in schema:
            raw = getattr(args, f"opt_{key}", None)
            if raw is not None:
                overrides[key] = _parse_value(schema, key, raw)
        cfg = resolve_config(schema, file_values, overrides)
        if cfg.get("sample") and not os.path.isfile(cfg["sample"]):
            raise ConfigError(f"sample file {cfg['sample']!r} does not exist")
        os.makedirs(args.out_dir, exist_ok=True)
        started = time.time()
        outputs = _HANDLERS[args.command](cfg, args.out_dir)
        if outputs:
            write_manifest(args.out_dir, args.command, cfg, outputs, started)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PercolabError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))
