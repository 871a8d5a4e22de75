import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relufem import cli, docio
from relufem.cli import main
from relufem.errors import VerifyError
from relufem.mesh import PolytopeMesh
from relufem.networks import TensorNet, load as load_net
from relufem.tensorfe import TensorFE, TensorMesh
from relufem.verify import convergence_experiment

from oracles import tnn_verify_report


@pytest.fixture
def workdir(tmp_path):
    rc = main(["freudenthal", "--n", "2", "--N", "2",
               "--output", str(tmp_path / "mesh.json")])
    assert rc == 0
    mesh = PolytopeMesh.load(tmp_path / "mesh.json")
    verts, _ = mesh.vertex_table()
    rng = np.random.default_rng(0)
    values = {str(i): float(v) for i, v in
              enumerate(rng.uniform(-1, 1, len(verts)))}
    docio.save({"kind": "nodal-linear", "nodal_values": values},
               tmp_path / "fn.json")
    return tmp_path


def test_build_verify_counts_eval_pipeline(workdir, capsys):
    net_path = workdir / "net.json"
    rc = main(["build", "--mesh", str(workdir / "mesh.json"),
               "--function", str(workdir / "fn.json"),
               "--epsilon", "0.01", "--output", str(net_path),
               "--samples", "100"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "h1=14 h2=9" in out
    assert "Hi=5 Hb=4 NT=8" in out

    rc = main(["verify", "--mesh", str(workdir / "mesh.json"),
               "--function", str(workdir / "fn.json"),
               "--network", str(net_path), "--epsilon", "0.01",
               "--samples", "150"])
    assert rc == 0
    assert "passed=True" in capsys.readouterr().out

    rc = main(["counts", "--mesh", str(workdir / "mesh.json"),
               "--network", str(net_path)])
    assert rc == 0

    docio.save({"points": [[0.31, 0.17], [5.0, 5.0]]}, workdir / "pts.json")
    rc = main(["eval", "--network", str(net_path),
               "--points", str(workdir / "pts.json")])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    # skip the counts text; the last two lines are the evaluations
    vals = [float(tok) for tok in lines[-2:]]
    net = load_net(net_path)
    assert vals[0] == net.forward([0.31, 0.17])
    assert vals[1] == net.forward([5.0, 5.0])


def test_build_is_byte_deterministic(workdir):
    args = ["build", "--mesh", str(workdir / "mesh.json"),
            "--function", str(workdir / "fn.json"),
            "--epsilon", "0.01", "--samples", "50"]
    assert main(args + ["--output", str(workdir / "a.json")]) == 0
    assert main(args + ["--output", str(workdir / "b.json")]) == 0
    assert (workdir / "a.json").read_bytes() == (workdir / "b.json").read_bytes()


def test_parser_is_built_once_per_process(workdir, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        outputs = []
        for name in ("a.json", "b.json"):
            assert main(["build", "--mesh", str(workdir / "mesh.json"),
                         "--function", str(workdir / "fn.json"),
                         "--epsilon", "0.01", "--output", str(workdir / name)]) == 0
            outputs.append((workdir / name).read_bytes())
        # a later call with other flags still gets its own values
        assert main(["freudenthal", "--n", "1", "--N", "3",
                     "--output", str(workdir / "line.json")]) == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]
    assert outputs[0] == outputs[1]
    assert PolytopeMesh.load(workdir / "line.json").n_cells == 3


def test_build_compact_support(workdir):
    rc = main(["build", "--mesh", str(workdir / "mesh.json"),
               "--function", str(workdir / "fn.json"),
               "--epsilon", "0.01", "--output", str(workdir / "c.json"),
               "--compact-support", "--samples", "80"])
    assert rc == 0
    net = load_net(workdir / "c.json")
    assert net.provenance["mode"] == "compact"
    assert net.forward([4.0, 4.0]) == 0.0


def test_build_output_bias(workdir):
    rc = main(["build", "--mesh", str(workdir / "mesh.json"),
               "--function", str(workdir / "fn.json"),
               "--epsilon", "0.01", "--output", str(workdir / "d.json"),
               "--output-bias", "--samples", "80"])
    assert rc == 0
    net = load_net(workdir / "d.json")
    assert net.h2 == 8
    assert net.output_bias is not None


def test_build_two_cell_interval_summary(tmp_path, capsys):
    docio.save({"dimension": 1,
                "cells": [{"vertices": [[0.0], [0.5]]},
                          {"vertices": [[0.5], [1.0]]}]},
               tmp_path / "m.json")
    docio.save({"kind": "constant",
                "pieces": [{"a": [0.0], "c": 0.75}, {"a": [0.0], "c": -0.5}]},
               tmp_path / "f.json")
    rc = main(["build", "--mesh", str(tmp_path / "m.json"),
               "--function", str(tmp_path / "f.json"),
               "--epsilon", "0.05", "--output", str(tmp_path / "n.json"),
               "--samples", "60"])
    assert rc == 0
    assert "h1=4 h2=3" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["build", "verify"])
@pytest.mark.parametrize("epsilon", ["0", "-1", "nan", "inf"])
def test_an_epsilon_not_finite_and_positive_exits_2(workdir, capsys, command,
                                                     epsilon):
    # refused by the parser, before build compiles (4) or verify samples (5)
    last = {"build": ["--output", str(workdir / "x.json")],
            "verify": ["--network", str(workdir / "net.json")]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, "--mesh", str(workdir / "mesh.json"),
              "--function", str(workdir / "fn.json"), "--epsilon", epsilon, *last])
    assert exc.value.code == 2
    assert (f"argument --epsilon: must satisfy 0 < epsilon < inf, got {epsilon!r}"
            in capsys.readouterr().err)
    assert not (workdir / "x.json").exists()


def test_an_epsilon_above_every_inradius_exits_4_in_build_and_5_in_verify(
        workdir, capsys):
    # the 2 x 2 Freudenthal mesh's inradius is 0.146
    common = ["--mesh", str(workdir / "mesh.json"),
              "--function", str(workdir / "fn.json"), "--samples", "50"]
    assert main(["build", *common, "--epsilon", "0.5",
                 "--output", str(workdir / "x.json")]) == 4
    assert "shrinks to empty: epsilon 0.5 too large" in capsys.readouterr().err
    assert not (workdir / "x.json").exists()
    assert main(["build", *common, "--epsilon", "0.01",
                 "--output", str(workdir / "net.json")]) == 0
    capsys.readouterr()
    assert main(["verify", *common, "--epsilon", "0.5",
                 "--network", str(workdir / "net.json")]) == 5
    assert capsys.readouterr().err == "error: no interior samples: epsilon too large\n"


def test_output_bias_with_compact_support_exits_4(workdir, capsys):
    assert main(["build", "--mesh", str(workdir / "mesh.json"),
                 "--function", str(workdir / "fn.json"), "--epsilon", "0.01",
                 "--output-bias", "--compact-support",
                 "--output", str(workdir / "x.json")]) == 4
    assert "--output-bias is not available with --compact-support" \
        in capsys.readouterr().err
    assert not (workdir / "x.json").exists()


def square_cells(boxes):
    """Mesh document cells for axis-aligned boxes (x0, x1, y0, y1)."""
    return [{"halfspaces": [{"w": [1.0, 0.0], "b": -x0}, {"w": [-1.0, 0.0], "b": x1},
                            {"w": [0.0, 1.0], "b": -y0}, {"w": [0.0, -1.0], "b": y1}]}
            for x0, x1, y0, y1 in boxes]


@pytest.mark.parametrize("boxes, hull, issues", [
    # two unit squares that overlap on half of each
    ([(0.0, 1.0, 0.0, 1.0), (0.5, 1.5, 0.0, 1.0)], None,
     ["validation: cell interiors overlap on ~",
      "validation: union volume "]),
    # two strips that leave the middle fifth of their hull uncovered
    ([(0.0, 0.4, 0.0, 1.0), (0.6, 1.0, 0.0, 1.0)], (0.0, 1.0, 0.0, 1.0),
     ["validation: domain hull not covered on ~",
      "validation: summed cell volumes 0.8 vs domain hull volume 1\n"]),
], ids=["overlap", "uncovered-hull"])
def test_a_mesh_with_validation_issues_exits_3(tmp_path, capsys, boxes, hull,
                                               issues):
    doc = {"dimension": 2, "cells": square_cells(boxes)}
    if hull is not None:
        doc["domain_hull"] = square_cells([hull])[0]
    docio.save(doc, tmp_path / "m.json")
    docio.save({"kind": "constant",
                "pieces": [{"a": [0.0, 0.0], "c": 1.0}] * len(boxes)},
               tmp_path / "f.json")
    assert main(["build", "--mesh", str(tmp_path / "m.json"),
                 "--function", str(tmp_path / "f.json"), "--epsilon", "0.01",
                 "--output", str(tmp_path / "x.json")]) == 3
    err = capsys.readouterr().err
    assert all(line.startswith("validation: ") for line in err.splitlines())
    for issue in issues:
        assert issue in err
    assert not (tmp_path / "x.json").exists()


def test_malformed_function_exits_2(workdir):
    (workdir / "bad.json").write_text("{broken")
    rc = main(["build", "--mesh", str(workdir / "mesh.json"),
               "--function", str(workdir / "bad.json"),
               "--epsilon", "0.01", "--output", str(workdir / "x.json")])
    assert rc == 2


def test_missing_function_field_exits_2(workdir):
    docio.save({"kind": "general"}, workdir / "nofield.json")
    rc = main(["build", "--mesh", str(workdir / "mesh.json"),
               "--function", str(workdir / "nofield.json"),
               "--epsilon", "0.01", "--output", str(workdir / "x.json")])
    assert rc == 2


def test_unbounded_mesh_exits_3(workdir):
    docio.save({"dimension": 1,
                "cells": [{"halfspaces": [{"w": [1.0], "b": 0.0}]}]},
               workdir / "halfline.json")
    docio.save({"kind": "constant", "pieces": [{"a": [0.0], "c": 1.0}]},
               workdir / "cfn.json")
    rc = main(["build", "--mesh", str(workdir / "halfline.json"),
               "--function", str(workdir / "cfn.json"),
               "--epsilon", "0.01", "--output", str(workdir / "x.json")])
    assert rc == 3


def test_flat_simplex_exits_3_naming_its_cell(workdir, capsys):
    docio.save({"dimension": 2, "cells": [
        {"vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]},
        {"vertices": [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]}]},
        workdir / "flat.json")
    docio.save({"kind": "constant", "pieces": [{"a": [0.0, 0.0], "c": 1.0}] * 2},
               workdir / "cfn.json")
    rc = main(["build", "--mesh", str(workdir / "flat.json"),
               "--function", str(workdir / "cfn.json"),
               "--epsilon", "0.01", "--output", str(workdir / "x.json")])
    assert rc == 3
    assert "cell 1: degenerate simplex" in capsys.readouterr().err


def test_verify_zero_network_exits_5(workdir):
    docio.save({"arch": "fnn2", "n": 2, "h1": 1, "h2": 1,
                "W1": [[0.0, 0.0]], "b1": [0.0], "W2": [], "b2": [0.0],
                "w3": [0.0], "output_bias": None, "provenance": {}},
               workdir / "zero.json")
    rc = main(["verify", "--mesh", str(workdir / "mesh.json"),
               "--function", str(workdir / "fn.json"),
               "--network", str(workdir / "zero.json"),
               "--epsilon", "0.01", "--samples", "50"])
    assert rc == 5


def test_counts_mismatch_exits_5(workdir):
    docio.save({"arch": "fnn2", "n": 2, "h1": 1, "h2": 1,
                "W1": [[0.0, 0.0]], "b1": [0.0], "W2": [], "b2": [0.0],
                "w3": [0.0], "output_bias": None, "provenance": {}},
               workdir / "zero.json")
    rc = main(["counts", "--mesh", str(workdir / "mesh.json"),
               "--network", str(workdir / "zero.json")])
    assert rc == 5


def test_convergence_writes_csv(tmp_path, capsys):
    rc = main(["convergence", "--n", "1", "--Ns", "1,2", "--p", "2",
               "--target", "quadratic", "--samples", "2000",
               "--output", str(tmp_path / "table.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "slope" in out
    lines = (tmp_path / "table.csv").read_text().splitlines()
    assert lines[0] == "N,h1,h2,error,stderr"
    assert len(lines) == 3


def test_convergence_refuses_ill_conditioned(capsys):
    rc = main(["convergence", "--n", "1", "--Ns", "2,4,8,16,32", "--p", "4",
               "--target", "quadratic", "--samples", "2000"])
    assert rc == 5
    captured = capsys.readouterr()
    assert "ill-conditioned" in captured.err
    assert "Traceback" not in captured.err
    assert "slope" not in captured.out


@pytest.mark.parametrize("Ns", ["a", ",", "2,x", "1.5", "4,2", "0,2"])
def test_convergence_malformed_resolutions_exit_2(capsys, Ns):
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--n", "1", "--Ns", Ns, "--samples", "100"])
    assert exc.value.code == 2
    assert "--Ns" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["freudenthal", "--n", "0", "--N", "2"],
    ["freudenthal", "--n", "2", "--N", "0"],
    ["freudenthal", "--n", "-1", "--N", "2"],
    ["freudenthal", "--n", "2", "--N", "1.5"],
    ["convergence", "--n", "0"],
], ids=["freudenthal n=0", "freudenthal N=0", "freudenthal n=-1",
        "freudenthal N=1.5", "convergence n=0"])
def test_malformed_mesh_sizes_exit_2(tmp_path, capsys, argv):
    # refused by the parser (exit 2), not by freudenthal_mesh (exit 3)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--output", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--n" in err or "--N" in err
    assert "freudenthal_mesh" not in err
    assert not out.exists()


@pytest.mark.parametrize("Ns", ["2", "2,2"])
def test_convergence_needs_two_resolutions(capsys, Ns):
    # a malformed argument to the CLI (exit 2), a VerifyError to the library
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--n", "1", "--Ns", Ns, "--samples", "100"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "at least two" in captured.err
    assert "slope" not in captured.out
    with pytest.raises(VerifyError, match="at least two"):
        convergence_experiment(lambda x: 0.0, 2.0, [int(N) for N in Ns.split(",")], 1)


@pytest.mark.parametrize("p", ["0.5", "inf", "nan"])
def test_convergence_malformed_exponent_exit_2(capsys, p):
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--n", "1", "--Ns", "1,2", "--p", p,
              "--samples", "100"])
    assert exc.value.code == 2
    assert "1 <= p < inf" in capsys.readouterr().err


def test_eval_missing_network_exits_2(tmp_path, capsys):
    docio.save({"points": [[0.5]]}, tmp_path / "pts.json")
    rc = main(["eval", "--network", str(tmp_path / "absent.json"),
               "--points", str(tmp_path / "pts.json")])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def test_tnn_build_and_verify(tmp_path, capsys):
    rng = np.random.default_rng(1)
    docio.save({
        "grids": [list(np.linspace(0, 1, 4)), list(np.linspace(0, 1, 5))],
        "shape": [4, 5],
        "coefficients": [float(x) for x in rng.standard_normal(20)],
    }, tmp_path / "u.json")
    rc = main(["tnn-build", "--function", str(tmp_path / "u.json"),
               "--output", str(tmp_path / "tnn.json")])
    assert rc == 0
    assert "rank=4 widths=4x5" in capsys.readouterr().out
    rc = main(["tnn-verify", "--function", str(tmp_path / "u.json"),
               "--network", str(tmp_path / "tnn.json"), "--samples", "2000"])
    assert rc == 0
    assert "passed=True" in capsys.readouterr().out


def test_tnn_build_refuses_hat_weights_beyond_the_float_range(tmp_path, capsys):
    """Nodes 5e-324 apart give slopes beyond the float range: exit 4 naming
    the axis, and no network file with Infinity in it."""
    docio.save({"grids": [[0.0, 5e-324, 1.0], [0.0, 0.5, 1.0]], "shape": [3, 3],
                "coefficients": [0, 0, 0, 1, 1, 1, 0, 0, 0]}, tmp_path / "u.json")
    rc = main(["tnn-build", "--function", str(tmp_path / "u.json"),
               "--output", str(tmp_path / "tnn.json")])
    assert rc == 4
    assert "axis 0: hat weights overflow the float range" in capsys.readouterr().err
    assert not (tmp_path / "tnn.json").exists()


@pytest.mark.parametrize("seed", [0, 5])
def test_tnn_verify_reports_the_grid_check(tmp_path, capsys, seed):
    rng = np.random.default_rng(seed)
    grids = [np.sort(np.r_[0.0, rng.uniform(0, 1, d - 2), 1.0]) for d in (2, 5, 10)]
    coefficients = rng.standard_normal((2, 5, 10))
    u_path, net_path = str(tmp_path / "u.json"), str(tmp_path / "tnn.json")
    TensorFE(TensorMesh(grids), coefficients).save(u_path)
    assert main(["tnn-build", "--function", u_path, "--output", net_path]) == 0
    capsys.readouterr()
    net = TensorNet.from_doc(docio.load(net_path))
    # the net of these coefficients passes; against changed ones it fails,
    # by 1e-3 at one grid node and by 0.5 everywhere. --samples and --seed
    # are accepted and ignored
    bump = np.zeros_like(coefficients)
    bump[1, 2, 3] = 1e-3
    for changed, code in ((coefficients, 0), (coefficients + bump, 5),
                          (coefficients + 0.5, 5)):
        TensorFE(TensorMesh(grids), changed).save(u_path)
        rc = main(["tnn-verify", "--function", u_path, "--network", net_path,
                   "--samples", "3000", "--seed", str(seed)])
        assert rc == code
        out = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
        assert list(out) == ["max_deviation", "rounding_bound", "tolerance", "passed"]
        dev, rho, tol = tnn_verify_report(TensorFE.load(u_path), net)
        assert out["max_deviation"] == repr(dev)
        assert out["tolerance"] == repr(tol)
        assert float(out["rounding_bound"]) == pytest.approx(rho, rel=1e-9, abs=0)
        assert float(out["rounding_bound"]) >= rho
        assert out["passed"] == str(code == 0)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("gap, code", [(4.1e-8, 5), (1e-3, 0)])
def test_tnn_verify_refuses_nodes_too_close_for_the_hat_weights(
        tmp_path, capsys, seed, gap, code):
    """Two nodes 4.1e-8 apart make the hat weights cancel beyond the
    tolerance: the rounding bound alone exceeds it, whatever the samples
    once drawn would have hit. Nodes 1e-3 apart pass."""
    rng = np.random.default_rng(seed)
    g = np.linspace(0.0, 1.0, 20)
    g[11] = g[10] + gap
    u_path, net_path = str(tmp_path / "u.json"), str(tmp_path / "tnn.json")
    TensorFE(TensorMesh([g, np.linspace(0.0, 1.0, 20)]),
             rng.standard_normal((20, 3)) @ rng.standard_normal((3, 20))).save(u_path)
    assert main(["tnn-build", "--function", u_path, "--output", net_path]) == 0
    capsys.readouterr()
    assert main(["tnn-verify", "--function", u_path, "--network", net_path]) == code
    out = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
    assert (float(out["rounding_bound"]) > float(out["tolerance"])) == (code == 5)
    _, rho, _ = tnn_verify_report(TensorFE.load(u_path),
                                  TensorNet.from_doc(docio.load(net_path)))
    assert float(out["rounding_bound"]) == pytest.approx(rho, rel=1e-9, abs=0)


def test_tnn_verify_refuses_a_net_of_another_dimension(tmp_path, capsys):
    docio.save({"grids": [[0.0, 1.0]] * 3, "shape": [2, 2, 2],
                "coefficients": [0, 1, 2, 3, 4, 5, 6, 7]}, tmp_path / "u.json")
    docio.save({"grids": [[0.0, 1.0]] * 2, "shape": [2, 2],
                "coefficients": [0, 1, 2, 3]}, tmp_path / "u2.json")
    assert main(["tnn-build", "--function", str(tmp_path / "u2.json"),
                 "--output", str(tmp_path / "tnn.json")]) == 0
    capsys.readouterr()
    rc = main(["tnn-verify", "--function", str(tmp_path / "u.json"),
               "--network", str(tmp_path / "tnn.json")])
    assert rc == 2
    assert "input dimension 3, expected 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["build", "verify", "convergence",
                                     "tnn-build", "tnn-verify"])
def test_a_negative_seed_exits_2(capsys, command):
    files = {"build": ["--mesh", "m", "--function", "f", "--epsilon", "0.01",
                       "--output", "o"],
             "verify": ["--mesh", "m", "--function", "f", "--epsilon", "0.01",
                        "--network", "n"],
             "convergence": [],
             "tnn-build": ["--function", "f", "--output", "o"],
             "tnn-verify": ["--function", "f", "--network", "n"]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *files, "--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err


def test_tnn_whole_space_rank_flag(tmp_path, capsys):
    docio.save({
        "grids": [[0.0, 1.0], [0.0, 0.5, 1.0]],
        "shape": [2, 3],
        "coefficients": [0.0, 0.0, 0.0, 1.0, 2.0, 3.0],
    }, tmp_path / "u.json")
    rc = main(["tnn-build", "--function", str(tmp_path / "u.json"),
               "--whole-space-rank",
               "--output", str(tmp_path / "tnn.json")])
    assert rc == 0
    assert "rank=2" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "-1", "-1e-300"])
def test_tnn_build_refuses_a_negative_or_non_finite_tol(tmp_path, capsys, tol):
    docio.save({"grids": [[0.0, 1.0], [0.0, 0.5, 1.0]], "shape": [2, 3],
                "coefficients": [0.0, 0.0, 0.0, 1.0, 2.0, 3.0]},
               tmp_path / "u.json")
    with pytest.raises(SystemExit) as exc:
        main(["tnn-build", "--function", str(tmp_path / "u.json"),
              f"--tol={tol}", "--output", str(tmp_path / "tnn.json")])
    assert exc.value.code == 2
    assert "0 <= tol < inf" in capsys.readouterr().err
    assert not (tmp_path / "tnn.json").exists()
    rc = main(["tnn-build", "--function", str(tmp_path / "u.json"),
               "--tol", "0", "--output", str(tmp_path / "tnn.json")])
    assert rc == 0
    assert "rank=1" in capsys.readouterr().out


def test_eval_requires_points_object(tmp_path):
    docio.save({"arch": "fnn2", "n": 1, "h1": 1, "h2": 1, "W1": [[1.0]],
                "b1": [0.0], "W2": [[0, 0, 1.0]], "b2": [0.0], "w3": [1.0],
                "output_bias": None, "provenance": {}}, tmp_path / "net.json")
    (tmp_path / "pts.json").write_text(json.dumps([[1.5], [-2.0]]))
    rc = main(["eval", "--network", str(tmp_path / "net.json"),
               "--points", str(tmp_path / "pts.json")])
    assert rc == 2


@pytest.mark.parametrize("triplet", [
    '["0", 0, 1.0]', '[true, 0, 1.0]', '[0.9, 0, 1.0]', '[0, 0.5, 1.0]',
    '[0, 0, "1.5"]', '[0, 0, %s]' % ("1" * 401), '[0, 0]'],
    ids=["row string", "row bool", "row fraction", "column fraction",
         "value string", "value huge int", "short triplet"])
def test_malformed_w2_triplet_exits_2(tmp_path, capsys, triplet):
    """A W2 row or column that is not an integer, or a value that is not a
    float, is refused with exit 2 naming W2, not read as a number."""
    (tmp_path / "net.json").write_text(
        '{"arch": "fnn2", "n": 1, "h1": 2, "h2": 2, "W1": [[1.0], [-1.0]], '
        '"b1": [0.0, 0.0], "W2": [[1, 1, 1.0], %s], "b2": [0.0, 0.0], '
        '"w3": [1.0, 1.0], "output_bias": null, "provenance": {}}' % triplet)
    docio.save({"points": [[0.5]]}, tmp_path / "pts.json")
    rc = main(["eval", "--network", str(tmp_path / "net.json"),
               "--points", str(tmp_path / "pts.json")])
    assert rc == 2
    assert "W2" in capsys.readouterr().err


@pytest.mark.parametrize("bias", ['"1.5"', "true", "1" * 401],
                         ids=["string", "bool", "huge-int"])
def test_malformed_output_bias_exits_2(tmp_path, capsys, bias):
    """An output bias that is not a float is refused with exit 2 naming
    output_bias, not read as a number; null stays no bias."""
    (tmp_path / "net.json").write_text(
        '{"arch": "fnn2", "n": 1, "h1": 2, "h2": 2, "W1": [[1.0], [-1.0]], '
        '"b1": [0.0, 0.0], "W2": [[0, 0, 1.0], [1, 1, 1.0]], '
        '"b2": [0.0, 0.0], "w3": [1.0, 1.0], "output_bias": %s, '
        '"provenance": {}}' % bias)
    docio.save({"points": [[0.5]]}, tmp_path / "pts.json")
    rc = main(["eval", "--network", str(tmp_path / "net.json"),
               "--points", str(tmp_path / "pts.json")])
    assert rc == 2
    assert "output_bias" in capsys.readouterr().err


# --- integer fields, provenance and nodal keys ---------------------------------

FNN_NET = {"arch": "fnn2", "n": 1, "h1": 1, "h2": 1, "W1": [[1.0]],
           "b1": [0.0], "W2": [[0, 0, 1.0]], "b2": [0.0], "w3": [1.0],
           "output_bias": None, "provenance": {}}
TNN_NET = {"arch": "tnn", "rank": 1, "n": 1, "provenance": {},
           "branch_1": {"W": [1.0], "b": [0.0], "weights": [[1.0]]}}


def integer_docs(tmp_path, field, value):
    """A command whose input has the JSON value `value` in integer field
    `field`, which is read as 1 (a 3-node axis for "shape") when valid."""
    if field == "dimension":
        docio.save({"dimension": value, "cells": [{"vertices": [[0.0], [1.0]]}]},
                   tmp_path / "m.json")
        docio.save({"kind": "constant", "pieces": [{"a": [0.0], "c": 1.0}]},
                   tmp_path / "f.json")
        return ["build", "--mesh", str(tmp_path / "m.json"), "--function",
                str(tmp_path / "f.json"), "--epsilon", "0.01", "--samples", "20",
                "--output", str(tmp_path / "n.json")]
    if field == "shape":
        docio.save({"grids": [[0.0, 0.5, 1.0]] * 2, "shape": [value, 3],
                    "coefficients": list(range(9))}, tmp_path / "u.json")
        return ["tnn-build", "--function", str(tmp_path / "u.json"),
                "--output", str(tmp_path / "t.json")]
    arch, name = field.split(".")
    docio.save({**(FNN_NET if arch == "fnn2" else TNN_NET), name: value},
               tmp_path / "net.json")
    docio.save({"points": [[0.5]]}, tmp_path / "pts.json")
    return ["eval", "--network", str(tmp_path / "net.json"),
            "--points", str(tmp_path / "pts.json")]


@pytest.mark.parametrize("field", ["dimension", "fnn2.n", "fnn2.h1", "fnn2.h2",
                                   "tnn.rank", "tnn.n", "shape"])
@pytest.mark.parametrize("value", [True, 1.0, 3.7, "x", None, [1]],
                         ids=["true", "1.0", "3.7", "string", "null", "list"])
def test_integer_fields_refuse_non_integers(tmp_path, capsys, field, value):
    """bool is an int to Python, and int() reads "3" or 3.7: every integer
    field takes JSON integers alone, exit 2 naming it."""
    name = field.split(".")[-1]
    assert main(integer_docs(tmp_path, field, value)) == 2
    assert f"'{name}'" in capsys.readouterr().err
    value = 3 if field == "shape" else 1
    assert main(integer_docs(tmp_path, field, value)) == 0


@pytest.mark.parametrize("field", ["dimension", "fnn2.n", "fnn2.h1", "fnn2.h2",
                                   "tnn.rank", "tnn.n", "shape"])
@pytest.mark.parametrize("value", [2 ** 64, -(2 ** 63) - 1])
def test_integer_fields_refuse_integers_beyond_64_bits(tmp_path, capsys, field,
                                                       value):
    """The document reader gives an integer literal outside [-2^63, 2^64)
    as a float, which an integer field refuses by name."""
    name = field.split(".")[-1]
    assert main(integer_docs(tmp_path, field, value)) == 2
    assert (f"field '{name}' must be an integer, not float"
            in capsys.readouterr().err)


def test_a_negative_shape_entry_exits_2(tmp_path, capsys):
    # reshape would read two negative sizes as unknowns and raise
    docio.save({"grids": [[0.0, 0.5, 1.0]] * 2, "shape": [-3, -3],
                "coefficients": list(range(9))}, tmp_path / "u.json")
    assert main(["tnn-build", "--function", str(tmp_path / "u.json"),
                 "--output", str(tmp_path / "t.json")]) == 2
    assert "'shape'" in capsys.readouterr().err


@pytest.mark.parametrize("arch", ["fnn2", "tnn"])
@pytest.mark.parametrize("provenance", ["x", ["x"], 0, False],
                         ids=["string", "list", "zero", "false"])
def test_provenance_must_be_an_object_or_null(tmp_path, capsys, arch, provenance):
    net = {**(FNN_NET if arch == "fnn2" else TNN_NET), "provenance": provenance}
    docio.save(net, tmp_path / "net.json")
    docio.save({"dimension": 1, "cells": [{"vertices": [[0.0], [1.0]]}]},
               tmp_path / "m.json")
    docio.save({"points": [[0.5]]}, tmp_path / "pts.json")
    argv = (["counts", "--mesh", str(tmp_path / "m.json")] if arch == "fnn2"
            else ["eval", "--points", str(tmp_path / "pts.json")])
    assert main(argv + ["--network", str(tmp_path / "net.json")]) == 2
    assert "'provenance'" in capsys.readouterr().err
    docio.save({**net, "provenance": None}, tmp_path / "net.json")
    assert main(argv + ["--network", str(tmp_path / "net.json")]) in (0, 5)


@pytest.mark.parametrize("key", ["02", " 2 ", "0_2", "+2"])
def test_nodal_keys_that_alias_a_vertex_exit_2(tmp_path, capsys, key):
    """int() reads each key as vertex 2, which "2" names already; the
    later of the two would silently win."""
    argv = slot_docs(tmp_path, "nodal", "0.5")
    (tmp_path / "f.json").write_text(
        '{"kind": "nodal-linear", "nodal_values": '
        '{"0": 0.25, "1": 0.5, "2": -0.25, "%s": 9.0}}' % key)
    assert main(argv) == 2
    assert f"bad vertex index '{key}'" in capsys.readouterr().err


# --- malformed numbers in the input documents ---------------------------------

HUGE_INT = "1" * 401
FIELD = {"c": "'c'", "b": "'b'", "nodal": "nodal_values[1]", "a": "'a'",
         "vertices": "'vertices'"}


def slot_docs(tmp_path, slot, text):
    """Build command over a two-cell interval mesh and a function, with raw
    JSON text in one slot: a scalar (a piece constant "c", the halfspace
    offset "b" of the second cell, the nodal value of vertex 1) or an array
    entry (the piece gradient "a", the first vertex of the first cell)."""
    fill = {"c": "0.5", "b": "1.0", "nodal": "0.5", "a": "0.0",
            "vertices": "0.0", slot: text}
    if slot == "nodal":
        second = '{"vertices": [[0.5], [1.0]]}'
        function = ('{"kind": "nodal-linear", "nodal_values": '
                    '{"0": 0.25, "1": %s, "2": -0.25}}' % fill["nodal"])
    else:
        second = ('{"halfspaces": [{"w": [1.0], "b": -0.5}, '
                  '{"w": [-1.0], "b": %s}]}' % fill["b"])
        function = ('{"kind": "general", "pieces": [{"a": [%s], "c": %s}, '
                    '{"a": [0.0], "c": 0.25}]}' % (fill["a"], fill["c"]))
    (tmp_path / "m.json").write_text(
        '{"dimension": 1, "cells": [{"vertices": [[%s], [0.5]]}, %s]}'
        % (fill["vertices"], second))
    (tmp_path / "f.json").write_text(function)
    return ["build", "--mesh", str(tmp_path / "m.json"),
            "--function", str(tmp_path / "f.json"), "--epsilon", "0.01",
            "--samples", "20", "--output", str(tmp_path / "n.json")]


@pytest.mark.parametrize("slot", sorted(FIELD))
@pytest.mark.parametrize("text", ["true", '"x"', HUGE_INT, "NaN", "-Infinity",
                                  "null", '"1.5"'])
def test_malformed_scalar_exits_2(tmp_path, capsys, slot, text):
    assert main(slot_docs(tmp_path, slot, text)) == 2
    assert FIELD[slot] in capsys.readouterr().err


def test_weight_overflow_exits_4(tmp_path, capsys):
    # R = 1e308 is a finite sup norm whose bump weights are not
    assert main(slot_docs(tmp_path, "c", "1e308")) == 4
    assert "R = sup|v| = 1.000e+308" in capsys.readouterr().err


@pytest.mark.parametrize("command, bad", [
    ("build", "mesh"), ("verify", "network"), ("counts", "network"),
    ("eval", "points"), ("tnn-build", "function"), ("tnn-verify", "network")])
def test_a_document_that_is_not_utf8_exits_2(workdir, capsys, command, bad):
    """Every subcommand that reads a document refuses bytes that are not
    UTF-8 as a malformed document, where a traceback would exit 1."""
    (workdir / "bad.json").write_bytes(b"\xff\xfe")
    docio.save({"grids": [[0.0, 1.0]] * 2, "shape": [2, 2],
                "coefficients": [0, 1, 2, 3]}, workdir / "u.json")
    docio.save({"points": [[0.5, 0.5]]}, workdir / "pts.json")
    docio.save({**FNN_NET, "n": 2, "W1": [[1.0, 0.0]]}, workdir / "net.json")
    files = {"mesh": "mesh.json", "function": "fn.json", "network": "net.json",
             "points": "pts.json"}
    if command.startswith("tnn"):
        files["function"] = "u.json"
    files[bad] = "bad.json"
    argv = {"build": ["mesh", "function"], "verify": ["mesh", "function", "network"],
            "counts": ["mesh", "network"], "eval": ["network", "points"],
            "tnn-build": ["function"], "tnn-verify": ["function", "network"]}
    args = [command]
    for flag in argv[command]:
        args += [f"--{flag}", str(workdir / files[flag])]
    if command in ("build", "verify"):
        args += ["--epsilon", "0.01"]
    if command in ("build", "tnn-build"):
        args += ["--output", str(workdir / "out.json")]
    assert main(args) == 2
    assert "not valid UTF-8" in capsys.readouterr().err
    assert not (workdir / "out.json").exists()


@pytest.mark.parametrize("command", ["build", "verify"])
def test_samples_below_one_exits_2(workdir, capsys, command):
    argv = [command, "--mesh", str(workdir / "mesh.json"),
            "--function", str(workdir / "fn.json"), "--epsilon", "0.01",
            "--samples", "0"]
    argv += (["--output", str(workdir / "x.json")] if command == "build"
             else ["--network", str(workdir / "x.json")])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err


MALFORMED = (st.none() | st.booleans() | st.text(max_size=5)
             | st.integers(min_value=10 ** 309)
             | st.sampled_from([math.inf, -math.inf, math.nan]))
IN_RANGE = {"c": st.floats(-4, 4) | st.integers(-4, 4),
            "b": st.floats(0.75, 4) | st.integers(1, 4),
            "nodal": st.floats(-4, 4) | st.integers(-4, 4),
            "a": st.floats(-4, 4) | st.integers(-4, 4),
            "vertices": st.floats(-4, 0.25) | st.integers(-4, 0)}
NUMBERS = st.integers() | st.floats(allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("slot", sorted(FIELD))
@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_json_scalar_in_a_slot_is_handled(tmp_path, slot, data):
    """Malformed values exit 2, in-range numbers build (exit 0), and any
    other finite number gets a documented exit code, never a traceback,
    in a scalar slot and in an array entry alike."""
    kind = data.draw(st.sampled_from(["malformed", "in range", "number"]))
    value = data.draw({"malformed": MALFORMED, "in range": IN_RANGE[slot],
                       "number": NUMBERS}[kind])
    argv = slot_docs(tmp_path, slot, json.dumps(value))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main(argv)
    if kind == "malformed":
        assert rc == 2
    elif kind == "in range":
        assert rc == 0
    else:
        assert rc in (0, 2, 3, 4, 5)
