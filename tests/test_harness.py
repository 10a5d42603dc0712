import functools
import hashlib
import json
import os
import platform
import struct
import time

import numpy as np
import pytest
import scipy

import percolab
from percolab import combinatorics, estimators, harness, parallel
from percolab.harness import (
    LEMMA_ALIASES,
    SCHEMAS,
    _fmt_cell,
    canonical_config,
    cli_dispatch,
    parse_config_text,
    resolve_config,
    write_csv,
)
from percolab.lattice import BoxSpec, sample_configuration
from percolab.parallel import run_parallel
from percolab.renorm import MacroLattice

RATE = ["estimate-rate", "--set=d=2", "--set=p=0.6", "--set=seed=1"]

ESTIMATOR = {"d": "2", "p": "0.6", "seed": "1", "replicates": "3", "workers": "1"}
SITES = {"d": "2", "L": "20", "p": "0.75", "seed": "4", "N": "4", "mu1": "10"}

# command: (values set, sha256 of the canonical config they resolve to); every
# other key takes its default, so the pin also holds the defaults
CANONICAL = {
    "sample": (
        {"d": "2", "L": "8", "p": "0.7", "seed": "3", "out": "sample.bin"},
        "71e7287f3c50055357b71d3866dbb185f2cff9c6e6e04c794e00c9259fed6995",
    ),
    "ball": (
        {"sample": "sample.bin", "source": "0,0"},
        "ffe708bc0d4e08a8efea852ca4e4ef5a330401e3b13f1dfe8aa8acba6e80028f",
    ),
    "cutpoint-scan": (
        {"d": "2", "L": "10", "p": "0.7", "seed": "28"},
        "09d80c9726b7c5317aa85eb4ed7127687d547ba75e3999129ec0cc41365bcc5b",
    ),
    "classify": (
        SITES,
        "6d3a729f7ed2a5b5c0298b8aea36e650edcda0a802225d2e583774538484c719",
    ),
    "route": (
        {**SITES, "sites": "-1,-1;-1,0;0,0"},
        "43a4e4e75ab4a384bb6c293391761f982b3f05c0876727c76e1dbef3085ce2b4",
    ),
    "slab": (
        {"d": "3", "L": "9", "p": "0.5", "seed": "5", "N": "1", "n": "6", "rho": "1"},
        "ead02e8e15f0465d3129f2eb74c97251f4e8b4ab287c98adcf895887716d11df",
    ),
    "lemma-check": (
        {"lemma": "proj", "instances": "3"},
        "e6ceab9cba60f2dae93a8d433a5720d3c97ca5dfdda28956e5c4b5d5205cc30e",
    ),
    "estimate-mu": (
        ESTIMATOR,
        "040c698ca690a3b1a0d7146388da70639b1cb0e82ca539a3de0f9b04aab36122",
    ),
    "estimate-rate": (
        ESTIMATOR,
        "dded8d68db51d401a1ca476c01f95884865f57e6045ef087fce2aa298cae244e",
    ),
    "estimate-j": (
        ESTIMATOR,
        "638744d3d25945b9d5248c2fd8479cc4e84e47ed7dea411f8de69e1b7257c160",
    ),
    "upper-tail": (
        ESTIMATOR,
        "a5470c4aa523d39ec61302ed566d120145fe77dcc31fbbc86cdb92be76bbd26e",
    ),
    "replay": (
        {"manifest": "manifest.json"},
        "0eea2df403b51fe1806986296d622cae5ba06d9f27e80c8e250cf9f4639c6855",
    ),
}


@pytest.mark.parametrize(
    "bad",
    [
        ["--set=replicates=abc"],
        ["--set=n_grid=8,x"],
        ["--replicates", "abc"],
    ],
)
def test_unparsable_value_exits_2(tmp_path, capsys, bad):
    assert cli_dispatch(RATE + bad + ["--out-dir", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_set_key_exits_2(tmp_path):
    argv = RATE + ["--set=nope=1", "--out-dir", str(tmp_path)]
    assert cli_dispatch(argv) == 2


SAMPLED = ["sample", "cutpoint-scan", "classify", "route", "slab"]
ESTIMATORS = ["estimate-mu", "estimate-rate", "estimate-j", "upper-tail"]


@pytest.mark.parametrize("via", ["set", "flag", "config"])
@pytest.mark.parametrize(
    "command, key, value",
    [
        ("estimate-rate", "p", "1.5"),
        ("estimate-rate", "d", "7"),
        ("estimate-rate", "event", "bogus"),
        ("estimate-rate", "replicates", "-1"),
        ("upper-tail", "mu1", "0"),
        ("estimate-j", "mu1", "0"),
    ]
    + [(c, "p", "1.5") for c in SAMPLED + ESTIMATORS if c != "estimate-rate"]
    + [(c, "d", "7") for c in SAMPLED + ESTIMATORS if c != "estimate-rate"]
    + [(c, "mu1", "0") for c in ["classify", "route", "slab", "estimate-rate"]]
    + [
        ("route", "sites", "0,x;1,0"),
        ("route", "sites", "0,0;;1,0"),
        ("route", "sites", "0,0;1"),
        ("lemma-check", "lemma", "bogus"),
        # a direction whose length is not d
        ("estimate-rate", "x", "1"),
        ("estimate-j", "x", "1,0,0"),
        ("estimate-mu", "x", "1,0,0"),
        # sizes, scales, grid steps and fractions out of range
        ("sample", "L", "-3"),
        ("cutpoint-scan", "t_min", "0"),
        ("classify", "N", "0"),
        ("classify", "epsilon", "0"),
        ("classify", "epsilon", "7"),
        ("slab", "rho", "-1"),
        ("lemma-check", "instances", "-2"),
        ("estimate-rate", "n_grid", "0"),
        ("estimate-rate", "n_grid", ""),
        ("estimate-rate", "s", ""),
        ("estimate-j", "s_grid", ""),
        ("estimate-j", "xi_grid", ""),
        ("estimate-rate", "workers", "-1"),
        ("estimate-j", "n", "0"),
        ("estimate-j", "y_step", "0"),
        ("estimate-j", "y_max", "-1"),
        ("estimate-mu", "x", "0,0"),
        ("ball", "sample", "missing.bin"),
        ("ball", "t_max", "-1"),
        ("estimate-rate", "box_factor", "0"),
        ("estimate-mu", "box_factor", "-1"),
        ("estimate-j", "box_factor", "0"),
        ("upper-tail", "box_factor", "-0.5"),
        # classify and route cut blocks of side epsilon * N >= 1
        ("classify", "N", "1"),
        ("route", "N", "1"),
        ("classify", "epsilon", "0.2"),
        # no site's enlarged block fits the box (L = 20 < 3N = 21)
        ("classify", "N", "7"),
        # the endpoint box around n e1 (L = 3 or n = 12), or the slab
        # thickness (2 rho + 1) N = 12 (N = 4), reaches outside L = 9
        ("slab", "L", "3"),
        ("slab", "n", "12"),
        ("slab", "N", "4"),
        # slab runs in d >= 3 only
        ("slab", "d", "2"),
        # the threshold mu1 (1 + xi) n = 6 is below D's floor n = 12
        ("upper-tail", "xi", "-0.5"),
        # floats that are not finite
        ("estimate-rate", "s", "nan"),
        ("estimate-rate", "s", "0.25,inf"),
        ("estimate-rate", "x", "0,-inf"),
        ("estimate-rate", "box_factor", "inf"),
        ("upper-tail", "xi", "nan"),
        ("upper-tail", "s", "nan"),
        ("estimate-j", "mu1", "inf"),
        ("estimate-j", "y_max", "inf"),
        ("slab", "xi", "nan"),
    ],
)
def test_out_of_range_estimator_value_exits_2_before_writing(
    tmp_path, capsys, command, key, value, via
):
    out = tmp_path / "out"
    values, _ = CANONICAL[command]
    argv = [command, "--out-dir", str(out)] + [
        f"--set={k}={v}" for k, v in values.items() if k != key
    ]
    if via == "set":
        argv.append(f"--set={key}={value}")
    elif via == "flag":
        argv += ["--" + key.replace("_", "-"), value]
    else:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {value}\n")
        argv += ["--config", str(cfg)]
    assert cli_dispatch(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, values, message",
    [
        ("classify", {"L": "10", "N": "12"},
         "box radius 10 holds no site's enlarged block; "
         "the smallest radius that holds one is 36"),
        ("slab", {"L": "3"}, "L = 3 is too small for n = 6 and N = 1: the endpoint "
         "box and the slab thickness need L >= 6"),
        ("slab", {"N": "4"}, "L = 9 is too small for n = 6 and N = 4: the endpoint "
         "box and the slab thickness need L >= 12"),
    ],
)
def test_a_box_too_small_for_the_blocks_is_named(tmp_path, capsys, command, values, message):
    argv = [command, "--out-dir", str(tmp_path / "out")] + [
        f"--set={k}={v}" for k, v in {**CANONICAL[command][0], **values}.items()
    ]
    assert cli_dispatch(argv) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, values, message",
    [
        ("slab", {"d": "2"}, "slab needs d >= 3, got d = 2"),
        ("slab", {"mu1": "0.01", "rho": "0"}, "mu1 = 0.01 gives rho = floor(10 d mu1) = 0"),
        ("upper-tail", {"mu1": "0.5", "xi": "0.5"}, "the upper-tail threshold mu1 (1 + xi) "
         "n |x|_1 = 9.0 at n = 12 is below |floor(n x)|_1 = 12: every connected replicate hits"),
        ("estimate-rate", {"event": "upper_tail", "xi": "-0.5", "n_grid": "12"},
         "threshold mu1 (1 + xi) n |x|_1 = 6.0 at n = 12 is below |floor(n x)|_1 = 12"),
        # |floor(n x)|_1 is n - 1 at odd n and n at even n: 0.9 n clears it at
        # n = 7 only
        ("estimate-rate", {"event": "upper_tail", "x": "0.5,0.5", "xi": "-0.1",
                           "n_grid": "7,6"}, "= 5.4 at n = 6 is below |floor(n x)|_1 = 6"),
    ],
)
def test_a_slab_or_upper_tail_that_cannot_run_is_refused_before_writing(
    tmp_path, capsys, command, values, message
):
    argv = [command, "--out-dir", str(tmp_path / "out")] + [
        f"--set={k}={v}" for k, v in {**CANONICAL[command][0], **values}.items()
    ]
    assert cli_dispatch(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("N, offset", [(2, (0, 0)), (3, (3, 0)), (2, (1, -2))])
def test_classify_on_a_sample_file_without_a_site_names_the_least_radius(
    tmp_path, capsys, N, offset
):
    # the least radius whose box, at this offset, holds a site's enlarged block
    least = next(
        r for r in range(1, 40)
        if harness._interior_sites(BoxSpec(2, r, offset), MacroLattice(N, 2))
    )
    for radius, code in ((least - 1, 2), (least, 0)):
        path = tmp_path / f"{radius}.bin"
        sample_configuration(BoxSpec(2, radius, offset), 0.7, 1).save(path)
        argv = ["classify", "--out-dir", str(tmp_path / f"out{radius}"),
                f"--set=sample={path}"] + [
            f"--set={k}={v}" for k, v in {**SITES, "N": N, "epsilon": 1}.items()
        ]
        assert cli_dispatch(argv) == code
    assert (
        f"box radius {least - 1} holds no site's enlarged block; "
        f"the smallest radius that holds one is {least}"
    ) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ball", "cutpoint-scan"])
@pytest.mark.parametrize(
    "kind, reason",
    [
        ("missing", "No such file or directory"),
        ("wrong-magic", "bad magic"),
        ("truncated-header", "unpack_from requires a buffer"),
        ("truncated-edges", "open_edges length must equal box.n_edges"),
        ("unsupported-d", "dimension 9 outside supported range"),
    ],
)
def test_a_sample_file_that_cannot_be_loaded_exits_2(tmp_path, capsys, command, kind, reason):
    # d = 2, L = 5: a 44-byte header and 220 edge bits in 28 bytes
    blob = sample_configuration(BoxSpec(2, 5), 0.5, 1).to_bytes()
    assert len(blob) == 72
    contents = {
        "wrong-magic": b"not a sample file",
        "truncated-header": blob[:30],
        "truncated-edges": blob[:60],
        "unsupported-d": blob[:4] + struct.pack("<HHI", 1, 9, 5) + bytes(8 * 9 + 16),
    }
    path = tmp_path / "sample.bin"
    if kind in contents:
        path.write_bytes(contents[kind])
    values = {"sample": str(path), "source": "0,0"} if command == "ball" else {
        "d": "2", "L": "5", "p": "0.5", "seed": "1", "sample": str(path),
    }
    argv = [command, "--out-dir", str(tmp_path / "out")] + [
        f"--set={k}={v}" for k, v in values.items()
    ]
    assert cli_dispatch(argv) == 2
    err = capsys.readouterr().err
    assert f"config error: sample file {str(path)!r}: " in err and reason in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["ball", "--set=sample=sample.bin", "--set=source=9,0"], 2,
         "source: 9,0 is outside the sample box"),
        (["estimate-rate", "--set=d=2", "--set=p=0.6", "--set=seed=12", "--set=event=free",
          "--set=s=2.5", "--set=n_grid=8", "--set=replicates=5", "--set=workers=1"], 2,
         "all 5 replicates are contaminated"),
        # the sample file's box has radius 8, and N = 4 needs 12
        (["classify", "--set=sample=sample.bin"] + [f"--set={k}={v}" for k, v in SITES.items()],
         2, "box radius 8 holds no site's enlarged block"),
        (["estimate-mu", "--set=d=3", "--set=p=0.3", "--set=seed=2", "--set=x=1,1,0",
          "--set=n_grid=2,8", "--set=replicates=4", "--set=workers=1"], 2,
         "estimate-mu at n = 8: none of 4 replicates is connected and uncontaminated"),
        (["estimate-j", "--set=d=2", "--set=p=0.6", "--set=seed=1", "--set=replicates=2",
          "--set=workers=1", "--set=xi_grid=0", "--set=s_grid=1", "--set=y_max=0"], 3,
         "no feasible grid point with a defined rate"),
        # 112 of the 125 (s, y) points of this small box resolve no replicate
        (["estimate-j", "--set=d=2", "--set=p=0.8", "--set=seed=1", "--set=n=8",
          "--set=box_factor=0.5", "--set=replicates=40", "--set=workers=1"], 2,
         "cutpoint(s=0.0) at n = 8: all 40 replicates are contaminated at x = -1.0,-1.0; "
         "try a box_factor above 0.5"),
    ],
    ids=["ball-source", "free-contaminated", "classify-siteless", "mu-degenerate", "j-uncovered",
         "j-contaminated"],
)
def test_a_command_that_exits_non_zero_leaves_no_output_directory(
    tmp_path, monkeypatch, capsys, argv, code, message
):
    monkeypatch.chdir(tmp_path)
    sample, _ = CANONICAL["sample"]
    assert cli_dispatch(["sample", "--out-dir", "."]
                        + [f"--set={k}={v}" for k, v in sample.items()]) == 0
    assert cli_dispatch(argv + ["--out-dir", "run"]) == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_estimate_mu_refuses_an_n_without_a_connected_uncontaminated_replicate(
    tmp_path, capsys
):
    # at seed 1, n = 2 has 3 disconnected replicates and 1 contaminated
    argv = ["estimate-mu", "--set=d=3", "--set=p=0.3", "--set=seed=1", "--set=x=1,1,0",
            "--set=n_grid=2,8", "--set=replicates=4", "--set=workers=1",
            "--out-dir", str(tmp_path / "out")]
    assert cli_dispatch(argv) == 2
    assert (
        "config error: estimate-mu at n = 2: none of 4 replicates is connected and "
        "uncontaminated (3 disconnected, 1 contaminated)"
    ) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_every_float_field_refuses_values_that_are_not_finite():
    # a field that parses "0.5" to a float or a tuple of floats takes floats
    fields = [(key, fld) for key, fld in harness._KEYS.items()] + [
        (key, fld) for schema in SCHEMAS.values() for key, fld in schema.items()
    ]
    floats = set()
    for key, fld in fields:
        try:
            value = fld.parse("0.5")
        except (ValueError, TypeError):
            continue
        if value not in (0.5, (0.5,)):
            continue
        floats.add(key)
        for text in ("nan", "inf", "-inf", "0.5,nan"):
            with pytest.raises(ValueError):
                fld.parse(text)
    assert floats == {
        "p", "epsilon", "xi", "mu1", "s", "x", "xi_grid", "s_grid", "y_max",
        "y_step", "box_factor",
    }


@pytest.mark.parametrize(
    "command, values",
    [
        ("estimate-rate", {"event": "upper_tail", "x": "0,0"}),
        ("estimate-j", {"x": "0,0"}),
    ],
)
def test_zero_direction_of_the_upper_tail_exits_2_before_writing(
    tmp_path, capsys, command, values
):
    # the target floor(n x) is the origin, so D = 0 and the upper-tail
    # threshold (1 + xi) mu(x) n cannot be exceeded or is itself 0
    out = tmp_path / "out"
    argv = [command, "--out-dir", str(out)] + [
        f"--set={k}={v}" for k, v in {**ESTIMATOR, **values}.items()
    ]
    assert cli_dispatch(argv) == 2
    assert "nonzero direction" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_mu_without_a_direction_runs_along_e1_in_any_dimension(tmp_path):
    argv = ["estimate-mu", "--set=d=3", "--set=p=0.4", "--set=seed=1", "--set=n_grid=3",
            "--set=replicates=4", "--set=workers=1", "--out-dir", str(tmp_path)]
    assert cli_dispatch(argv) == 0
    assert "x = \n" in json.loads((tmp_path / "manifest.json").read_text())["config"]
    rows = (tmp_path / "mu.csv").read_text().splitlines()[2:]
    assert [row.split(",")[:2] for row in rows] == [["3", "4"]]


@pytest.mark.parametrize(
    "y_max, y_step, axis",
    [
        (1.0, 0.6, [-0.6, 0.0, 0.6]),  # rounding 1 / 0.6 up would reach 1.2
        (1.0, 0.5, [-1.0, -0.5, 0.0, 0.5, 1.0]),
        (0.3, 0.1, [k * 0.1 for k in range(-3, 4)]),  # 0.3 / 0.1 < 3 in floats
        (0.4, 1.0, [0.0]),
    ],
)
def test_the_y_grid_of_estimate_j_stays_within_y_max(y_max, y_step, axis):
    grid = harness._y_grid(2, y_max, y_step)
    assert grid == [(a, b) for a in axis for b in axis]
    assert len(harness._y_grid(3, y_max, y_step)) == len(axis) ** 3


@pytest.mark.parametrize("event", ["cutpoint", "free"])
def test_zero_direction_stays_legal_for_scanned_events(event):
    values = {**ESTIMATOR, "event": event, "x": "0,0"}
    schema = SCHEMAS["estimate-rate"]
    parsed = parse_config_text(
        "".join(f"{k} = {v}\n" for k, v in values.items()), schema
    )
    assert resolve_config(schema, parsed, {})["x"] == (0.0, 0.0)


@pytest.mark.parametrize(
    "command, values",
    [
        ("ball", {"sample": "sample.bin", "source": "0,0,0"}),
        ("route", {**SITES, "sites": "0,0,0;1,0,0"}),
        ("route", {**SITES, "sample": "sample.bin", "sites": "0,0,0;1,0,0"}),
        # a point outside the sample box, and a site whose enlarged block
        # leaves it: at L = 20 and N = 4 the sites run over {-1, 0, 1}^2, at
        # L = 8 there are none
        ("ball", {"sample": "sample.bin", "source": "9,0"}),
        ("route", {**SITES, "sites": "1,1;2,1"}),
        ("route", {**SITES, "sites": "9,9;9,10"}),
        ("route", {**SITES, "sample": "sample.bin", "sites": "0,0"}),
    ],
)
def test_point_of_another_dimension_than_the_sample_exits_2_writing_nothing(
    tmp_path, monkeypatch, capsys, command, values
):
    # the dimension comes from the sample, read after the configuration
    monkeypatch.chdir(tmp_path)
    sample, _ = CANONICAL["sample"]
    assert cli_dispatch(["sample", "--out-dir", "."]
                        + [f"--set={k}={v}" for k, v in sample.items()]) == 0
    argv = [command, "--out-dir", "run"] + [f"--set={k}={v}" for k, v in values.items()]
    assert cli_dispatch(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_negative_layer_cap_on_an_existing_sample_exits_2_before_writing(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    sample, _ = CANONICAL["sample"]
    assert cli_dispatch(["sample", "--out-dir", "."]
                        + [f"--set={k}={v}" for k, v in sample.items()]) == 0
    argv = ["ball", "--out-dir", "run", "--set=sample=sample.bin",
            "--set=source=0,0", "--set=t_max=-1"]
    assert cli_dispatch(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_route_through_an_unclassified_site_exits_3_with_a_routing_error(
    tmp_path, capsys
):
    # every site inside the box is classified, so the routing error comes
    # from a bad one: (0, 1) fails condition 1 on this sample
    argv = ["route", "--out-dir", str(tmp_path)] + [
        f"--set={k}={v}" for k, v in {**SITES, "sites": "0,0;0,1"}.items()
    ]
    assert cli_dispatch(argv) == 3
    assert "error: site (0, 1) has no dominant cluster" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize(
    "command, replicate",
    [
        ("estimate-mu", "_mu_replicate"),
        ("estimate-rate", "_surface_replicate"),
        ("estimate-rate", "_run_one_n"),
        ("estimate-j", "_surface_replicate"),
        ("upper-tail", "_paired_replicate"),
    ],
)
def test_a_failed_replicate_exits_3_writing_nothing(
    tmp_path, capsys, monkeypatch, command, replicate, workers
):
    original = getattr(estimators, replicate)

    @functools.wraps(original)  # a forked worker unpickles it by this name
    def failing(index, **kwargs):
        if index == 1:
            raise RuntimeError("injected failure")
        return original(index, **kwargs)

    # the estimate-rate handler reads _run_one_n from harness
    for module in (estimators, harness):
        if hasattr(module, replicate):
            monkeypatch.setattr(module, replicate, failing)
    values = {**CANONICAL[command][0], "workers": workers}
    # estimate-rate scans its cut-point events through _surface_replicate and
    # runs its upper tail through _run_one_n
    if replicate == "_run_one_n":
        values["event"] = "upper_tail"
    argv = [command, "--out-dir", str(tmp_path)] + [
        f"--set={k}={v}" for k, v in values.items()
    ]
    assert cli_dispatch(argv) == 3
    err = capsys.readouterr().err
    assert "error: replicate 1: RuntimeError: injected failure" in err
    assert list(tmp_path.iterdir()) == []


def test_an_event_without_a_resolved_replicate_exits_2_writing_nothing(
    tmp_path, capsys
):
    # the free-line window (radius 4 w = 24 at n = 8) nearly fills the
    # default box (radius 26), so every replicate of both events is
    # contaminated and p_hat would be nan
    values = {"d": "2", "p": "0.6", "seed": "12", "event": "free",
              "s": "2.5,3.5", "n_grid": "8", "replicates": "60", "workers": "1"}
    argv = ["estimate-rate", "--out-dir", str(tmp_path)] + [
        f"--set={k}={v}" for k, v in values.items()
    ]
    assert cli_dispatch(argv) == 2
    err = capsys.readouterr().err
    assert "config error: free(s=2.5) at n = 8: all 60 replicates are contaminated" in err
    assert "box_factor above 2.0" in err
    assert list(tmp_path.iterdir()) == []


def _marked_replicate(index, *, directory):
    """Leaves one marker file per evaluated index; index 1 fails."""
    (directory / str(index)).touch()
    if index == 1:
        raise RuntimeError("injected failure")
    time.sleep(0.02)
    return index


@pytest.mark.parametrize("block", [None, 3, 8])
@pytest.mark.parametrize("workers, most", [(1, 2), (2, 100)])
def test_a_failed_replicate_ends_the_run_early(tmp_path, workers, most, block):
    # at 2 workers the chunks are 12 replicates long (8 in blocks of 8);
    # evaluating all 200 takes about 2 s, and the run ends once the first
    # chunk comes back; in a block, index 1 fails after index 0 is done
    fn = functools.partial(_marked_replicate, directory=tmp_path)
    if block is not None:
        fn = functools.partial(map, fn)
    run = run_parallel(fn, 200, workers, block)
    assert run.partial and run.results == [0]
    assert run.error == "RuntimeError: injected failure"
    assert {"0", "1"} <= {p.name for p in tmp_path.iterdir()}
    assert len(list(tmp_path.iterdir())) <= most


def _cubes(indices):
    """The cubes of a block of indices, computed in one array operation."""
    yield from (np.arange(indices.start, indices.stop) ** 3).tolist()


def _cube(index):
    return index**3


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("block", [1, 3, 8])
def test_blocks_return_one_result_per_index_whatever_their_size(workers, block):
    # 29 is no multiple of 3 or 8, so the last block is short
    run = run_parallel(_cubes, 29, workers, block)
    assert not run.partial and run.error is None
    assert run.results == run_parallel(_cube, 29, workers).results == [i**3 for i in range(29)]


@pytest.mark.parametrize("workers", [1, 2])
def test_target_estimates_do_not_depend_on_the_block_size(monkeypatch, workers):
    # the budgets set B = 1; B = 9 at n = 6 and 3 at n = 12; and the
    # default, which puts all 31 replicates of either n in one block
    box, _ = estimators._upper_tail_box(2, (1.0, 0.0), 12, 0.3, 1.0, 1.3)
    results = []
    for budget in (1, 3 * box.n_vertices, estimators._BLOCK_VERTICES):
        monkeypatch.setattr(estimators, "_BLOCK_VERTICES", budget)
        paired = estimators.upper_tail_vs_cutpoint_experiment(
            0.6, 2, 0.3, (6, 12), 31, 5, s=0.1, mu1=1.0, box_factor=1.3, workers=workers
        )
        mu = estimators.estimate_mu(
            0.6, 2, (1.0, 0.0), (6, 12), 31, 5, box_factor=1.6, workers=workers
        )
        results.append(([t.counts for t in paired], mu))
    assert results[0] == results[1] == results[2]


def test_every_lemma_alias_names_a_lemma_and_every_lemma_has_one():
    assert set(LEMMA_ALIASES.values()) == set(combinatorics.LEMMAS)


def test_set_without_equals_exits_1(tmp_path):
    assert cli_dispatch(RATE + ["--set=replicates", "--out-dir", str(tmp_path)]) == 1


def test_fmt_cell_numpy_and_signed_zero():
    assert _fmt_cell(np.float64(1.0)) == "1.0"
    assert _fmt_cell(np.float32(0.5)) == "0.5"
    assert _fmt_cell(-0.0) == "0.0"
    assert _fmt_cell(np.float64(-0.0)) == "0.0"
    assert _fmt_cell(np.float64(np.nan)) == "nan"
    assert _fmt_cell(0.1) == "0.1"
    assert _fmt_cell(-2.5) == "-2.5"
    assert _fmt_cell(7) == 7
    assert _fmt_cell("x") == "x"


def test_write_csv_cells(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, "t", ["a", "b", "c"], [[np.float64(0.75), -0.0, np.int64(3)]])
    assert path.read_text().splitlines()[1:] == ["a,b,c", "0.75,0.0,3"]


def test_replay_reproduces_a_run_and_rejects_an_edited_hash(tmp_path, capsys):
    run_dir = tmp_path / "run"
    argv = RATE + ["--set=n_grid=6", "--set=replicates=10", "--set=workers=1",
                   "--set=emit_replicates=true", "--out-dir", str(run_dir)]
    assert cli_dispatch(argv) == 0
    manifest = run_dir / "manifest.json"
    assert cli_dispatch(["replay", f"--set=manifest={manifest}"]) == 0
    assert "replay ok: 2 outputs byte-identical" in capsys.readouterr().out

    record = json.loads(manifest.read_text())
    record["outputs"][1]["sha256"] = "0" * 64
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(record))
    assert cli_dispatch(["replay", f"--set=manifest={edited}"]) == 3
    assert "replay mismatch for outputs: ['replicates.csv']" in capsys.readouterr().err


def _pid(index):
    return os.getpid()


@pytest.mark.parametrize("workers, n_tasks", [(0, 8), (1, 8), (0, 1)])
def test_run_parallel_evaluates_in_the_workers_it_resolves(monkeypatch, workers, n_tasks):
    # 0 asks for one worker per CPU, two here; one task runs in this process
    monkeypatch.setattr(parallel.multiprocessing, "cpu_count", lambda: 2)
    used = parallel.workers_used(workers, n_tasks)
    assert used == (1 if workers == 1 or n_tasks == 1 else 2)
    pids = set(run_parallel(_pid, n_tasks, workers).results)
    assert (pids == {os.getpid()}) == (used == 1)
    assert len(pids) <= used


@pytest.mark.parametrize("workers, replicates, used", [(0, 10, 2), (1, 10, 1), (0, 1, 1)])
def test_manifest_records_the_workers_used_and_the_versions(
    tmp_path, monkeypatch, workers, replicates, used
):
    monkeypatch.setattr(parallel.multiprocessing, "cpu_count", lambda: 2)
    argv = RATE + ["--set=n_grid=6", f"--set=replicates={replicates}",
                   f"--set=workers={workers}", "--out-dir", str(tmp_path)]
    assert cli_dispatch(argv) == 0
    record = json.loads((tmp_path / "manifest.json").read_text())
    assert record["workers"] == used
    assert record["versions"] == {
        "percolab": percolab.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    # the configured value stays in the hashed config, the resolved one out
    assert f"workers = {workers}\n" in record["config"]
    assert "versions" not in record["config"]


@pytest.mark.parametrize("command, used", [("upper-tail", 1), ("estimate-j", 2)])
def test_manifest_records_the_processes_that_the_blocks_used(tmp_path, command, used):
    # upper-tail's 4 replicates fit in one block (B = 40 on its default
    # box), which runs in this process; estimate-j's run one per task
    values = {**ESTIMATOR, "replicates": "4", "workers": "2"}
    argv = [command, "--out-dir", str(tmp_path)] + [f"--set={k}={v}" for k, v in values.items()]
    assert cli_dispatch(argv) == 0
    assert json.loads((tmp_path / "manifest.json").read_text())["workers"] == used


@pytest.mark.parametrize("edit", ["drop", "change"])
def test_replay_ignores_the_workers_and_versions_of_a_manifest(tmp_path, capsys, edit):
    run_dir = tmp_path / "run"
    argv = RATE + ["--set=n_grid=6", "--set=replicates=10", "--set=workers=1",
                   "--out-dir", str(run_dir)]
    assert cli_dispatch(argv) == 0
    record = json.loads((run_dir / "manifest.json").read_text())
    if edit == "drop":  # as written before the manifest recorded them
        del record["workers"], record["versions"]
    else:
        record["workers"] = 64
        record["versions"] = {"percolab": "0.0.0", "numpy": "1.0"}
    old = tmp_path / "old.json"
    old.write_text(json.dumps(record))
    assert cli_dispatch(["replay", f"--set=manifest={old}"]) == 0
    assert "replay ok: 1 outputs byte-identical" in capsys.readouterr().out


@pytest.mark.parametrize("value, code", [("-1", 0), ("17", 2)])
def test_replay_drops_a_retired_key_only_at_its_reproducible_value(
    tmp_path, capsys, value, code
):
    run_dir = tmp_path / "run"
    argv = RATE + ["--set=n_grid=6", "--set=replicates=10", "--set=workers=1",
                   "--out-dir", str(run_dir)]
    assert cli_dispatch(argv) == 0
    record = json.loads((run_dir / "manifest.json").read_text())
    # manifests written before fail_at was retired store it among the keys
    head, *lines = record["config"].splitlines()
    record["config"] = "\n".join([head] + sorted(lines + [f"fail_at = {value}"])) + "\n"
    old = tmp_path / "old.json"
    old.write_text(json.dumps(record))
    replay_dir = tmp_path / "replay"
    argv = ["replay", f"--set=manifest={old}", "--out-dir", str(replay_dir)]
    assert cli_dispatch(argv) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert "replay ok: 1 outputs byte-identical" in out
    else:
        assert "config error: <manifest>: retired key 'fail_at' = 17" in err
    assert not replay_dir.exists()


@pytest.mark.parametrize(
    "content, reason",
    [
        (None, "No such file or directory"),
        ("not json", "Expecting value"),
        ('{"command": "nope", "config": "", "outputs": []}', "unknown command 'nope'"),
        ('{"command": "ball", "outputs": []}', "no 'config'"),
    ],
    ids=["missing", "not-json", "unknown-command", "no-config"],
)
def test_replay_refuses_an_unreadable_manifest_with_exit_2(tmp_path, capsys, content, reason):
    manifest = tmp_path / "manifest.json"
    if content is not None:
        manifest.write_text(content)
    argv = ["replay", f"--set=manifest={manifest}", "--out-dir", str(tmp_path / "out")]
    assert cli_dispatch(argv) == 2
    err = capsys.readouterr().err
    assert f"config error: manifest {str(manifest)!r}: " in err and reason in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", sorted(CANONICAL))
def test_canonical_config_is_pinned_and_its_manifest_replays(
    tmp_path, monkeypatch, command
):
    # replay and experiment ids read the canonical config of old manifests
    values, pin = CANONICAL[command]
    text = "".join(f"{key} = {value}\n" for key, value in values.items())
    schema = SCHEMAS[command]
    cfg = resolve_config(schema, parse_config_text(text, schema), {})
    assert hashlib.sha256(canonical_config(command, cfg).encode()).hexdigest() == pin
    if command == "replay":
        return
    monkeypatch.chdir(tmp_path)
    if command == "ball":
        sample, _ = CANONICAL["sample"]
        assert cli_dispatch(["sample", "--out-dir", "."]
                            + [f"--set={k}={v}" for k, v in sample.items()]) == 0
    (tmp_path / "fixed.cfg").write_text(text)
    assert cli_dispatch([command, "--config", "fixed.cfg", "--out-dir", "run"]) == 0
    record = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert record["input_hash"] == pin
    assert cli_dispatch(["replay", "--set=manifest=run/manifest.json"]) == 0
