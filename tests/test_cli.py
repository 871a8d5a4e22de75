import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relufem import docio
from relufem.cli import main
from relufem.mesh import PolytopeMesh
from relufem.networks import load as load_net


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


def test_epsilon_zero_exits_4(workdir):
    rc = main(["build", "--mesh", str(workdir / "mesh.json"),
               "--function", str(workdir / "fn.json"),
               "--epsilon", "0", "--output", str(workdir / "x.json")])
    assert rc == 4


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
