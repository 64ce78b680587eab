import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import ladder
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gaussbath import cli, collision, lindblad
from gaussbath.cli import _pairs_json, _report_json, main
from gaussbath.linalg import vectorize
from gaussbath.lindblad import SystemModel, gks_decompose, schrodinger_liouvillian
from gaussbath.noise import NoiseParams

SM = [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
SP = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
Z2 = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]


def from_pairs(obj):
    a = np.asarray(obj, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def to_pairs(a):
    """A complex array as nested lists of [re, im] pairs, for model files."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def write_json(path, tree):
    path.write_text(json.dumps(tree))
    return str(path)


def qubit_model_file(tmp_path, name="model.json", **extra):
    tree = {"dim": 2, "gamma": 1.0, "C": SM, "F": Z2}
    tree.update(extra)
    return write_json(tmp_path / name, tree)


def run_csv(capsys, argv):
    assert main(argv) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    return rows[0], rows[1:]


def test_convert_round_trip(tmp_path, capsys):
    f = [[[0.3, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.3, 0.0]]]
    e11 = [[[0.2, 0.0], [0.1, 0.05]], [[0.1, -0.05], [-0.4, 0.0]]]
    model = qubit_model_file(
        tmp_path, E={"c00": f, "c01": SP, "c10": SM, "c11": e11}, sigma=0.4
    )
    out1 = str(tmp_path / "normal.json")
    assert main(["convert", "--model", model, "--direction", "to-normal", "--out", out1]) == 0
    tree = json.loads(Path(out1).read_text())
    assert tree["report"]["direction"] == "to-normal"
    assert tree["report"]["unitarity_defect"] < 1e-11
    assert tree["report"]["hermitian_generator_input"] is True

    out2 = str(tmp_path / "time.json")
    assert main(["convert", "--model", out1, "--direction", "to-time", "--out", out2]) == 0
    back = json.loads(Path(out2).read_text())
    for key, want in (("c00", f), ("c01", SP), ("c10", SM), ("c11", e11)):
        got = from_pairs(back["E"][key])
        np.testing.assert_allclose(got, from_pairs(want), atol=1e-10)


def test_convert_frozen_coupling_block(tmp_path, capsys):
    model = qubit_model_file(tmp_path, E={"c00": Z2, "c01": SP, "c10": SM, "c11": Z2})
    assert main(["convert", "--model", model, "--direction", "to-normal"]) == 0
    tree = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(from_pairs(tree["L"]["c10"]), -1j * from_pairs(SM), atol=1e-14)
    np.testing.assert_allclose(
        from_pairs(tree["L"]["c00"]), [[-0.5, 0.0], [0.0, 0.0]], atol=1e-14
    )


def test_convert_hermitian_input_in_a_fast_time_unit(tmp_path, capsys, rng):
    # E00 = Q diag(1e8 k) Q+ is Hermitian; its rounding asymmetry exceeds 1e-9 only absolutely.
    q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    e00 = q @ np.diag(1e8 * np.arange(1.0, 5.0)) @ q.conj().T
    assert np.abs(e00 - e00.conj().T).max() > 1e-9
    zero, lower = np.zeros((4, 4)), np.diag(np.sqrt(np.arange(1.0, 4.0)), -1)
    model = write_json(tmp_path / "model.json", {
        "dim": 4, "gamma": 1.0, "C": to_pairs(lower), "F": to_pairs(zero),
        "E": {"c00": to_pairs(e00), "c01": to_pairs(lower.T), "c10": to_pairs(lower),
              "c11": to_pairs(zero)},
    })
    out = str(tmp_path / "normal.json")
    assert main(["convert", "--model", model, "--direction", "to-normal", "--out", out]) == 0
    assert json.loads(Path(out).read_text())["report"]["hermitian_generator_input"] is True


def test_convert_missing_block(tmp_path, capsys):
    model = qubit_model_file(tmp_path)
    assert main(["convert", "--model", model]) == 2
    assert "E" in capsys.readouterr().err


def test_generator_report(tmp_path, capsys):
    model = qubit_model_file(tmp_path, n=1.0)
    assert main(["generator", "--model", model]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["jump_basis"] == ["C", "C_dagger"]
    np.testing.assert_allclose(
        from_pairs(tree["kossakowski"]), [[2.0, 0.0], [0.0, 1.0]], atol=1e-14
    )
    assert tree["completely_positive"] is True
    assert tree["kossakowski_eigenvalues"] == pytest.approx([1.0, 2.0], abs=1e-12)
    expected = schrodinger_liouvillian(
        SystemModel(
            C=from_pairs(SM), F=from_pairs(Z2), noise=NoiseParams(gamma=1.0, n=1.0)
        )
    )
    np.testing.assert_allclose(from_pairs(tree["liouvillian"]), expected, atol=1e-12)


def test_generator_flags_unphysical_pair_correlation(tmp_path, capsys):
    model = qubit_model_file(tmp_path, n=1.0, m_re=1.5)
    assert main(["generator", "--model", model]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["completely_positive"] is False
    assert min(tree["kossakowski_eigenvalues"]) < 0


def boundary_models(tmp_path, gamma, excess, count):
    """Model files with |m|^2 = n(n+1) + excess at spread phases and occupations."""
    for k in range(count):
        n = 0.25 + 0.5 * k
        m = np.sqrt(n * (n + 1.0) + excess) * np.exp(2j * np.pi * k / count)
        yield qubit_model_file(tmp_path, f"b{k}.json", gamma=gamma, n=n,
                               m_re=float(m.real), m_im=float(m.imag))


def test_generator_cp_flag_does_not_depend_on_gamma(tmp_path, capsys):
    for model in boundary_models(tmp_path, gamma=1e9, excess=0.0, count=20):
        assert main(["generator", "--model", model]) == 0
        assert json.loads(capsys.readouterr().out)["completely_positive"] is True
    for model in boundary_models(tmp_path, gamma=1e-9, excess=0.5, count=20):
        assert main(["generator", "--model", model]) == 0
        assert json.loads(capsys.readouterr().out)["completely_positive"] is False


def test_evolve_csv_decay(tmp_path, capsys):
    model = qubit_model_file(tmp_path)
    rho0 = write_json(tmp_path / "rho0.json", {"rho": [[[1.0, 0.0], [0.0, 0.0]],
                                                       [[0.0, 0.0], [0.0, 0.0]]]})
    header, rows = run_csv(capsys, [
        "evolve", "--model", model, "--rho0", rho0, "--t-final", "2.0", "--points", "21",
    ])
    assert header[0] == "t"
    assert "pop_0" in header and "purity" in header
    assert len(rows) == 21
    t = np.array([float(r[header.index("t")]) for r in rows])
    pop = np.array([float(r[header.index("pop_0")]) for r in rows])
    np.testing.assert_allclose(pop, np.exp(-t), atol=1e-6)
    purity = np.array([float(r[header.index("purity")]) for r in rows])
    assert purity[0] == pytest.approx(1.0, abs=1e-9)


def test_evolve_rejects_bad_initial_state(tmp_path, capsys):
    model = qubit_model_file(tmp_path)
    rho0 = write_json(tmp_path / "rho0.json", {"rho": [[[0.9, 0.0], [0.0, 0.0]],
                                                       [[0.0, 0.0], [0.3, 0.0]]]})
    code = main(["evolve", "--model", model, "--rho0", rho0, "--t-final", "1.0"])
    assert code == 2
    assert "trace" in capsys.readouterr().err


def test_evolve_rejects_a_trajectory_it_cannot_store(tmp_path, capsys):
    rho0 = write_json(tmp_path / "rho0.json", {"rho": [[[1.0, 0.0], [0.0, 0.0]], Z2[0]]})
    code = main(["evolve", "--model", qubit_model_file(tmp_path), "--rho0", rho0,
                 "--t-final", "1", "--points", str(10**10)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--points 10000000000 at d = 2" in err and "4194304" in err


def test_rk4_rejects_a_dimension_beyond_the_dense_budget(tmp_path, capsys):
    d = 46  # d^2 = 2116 > MAX_DENSE_DIM
    zeros = np.zeros((d, d, 2))
    rho = zeros.copy()
    rho[0, 0, 0] = 1.0
    model = write_json(tmp_path / "m.json", {"dim": d, "gamma": 1.0, "C": zeros.tolist(),
                                             "F": zeros.tolist()})
    rho0 = write_json(tmp_path / "rho0.json", {"rho": rho.tolist()})
    code = main(["evolve", "--model", model, "--rho0", rho0, "--t-final", "1",
                 "--method", "rk4"])
    assert code == 2
    err = capsys.readouterr().err
    assert "d^2 = 2116" in err and "2048" in err and "--method expm" in err


def test_steady_report(tmp_path, capsys):
    model = qubit_model_file(tmp_path, n=1.0)
    assert main(["steady", "--model", model]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["populations"] == pytest.approx([1.0 / 3.0, 2.0 / 3.0], abs=1e-10)
    assert tree["trace"][0] == pytest.approx(1.0, abs=1e-12)
    assert tree["liouvillian_residual"] < 1e-10


def test_steady_residual_beyond_the_range_of_its_squares(tmp_path, capsys):
    # A thermal qubit with C = 1e140 |1><0|: a fine steady state, but the squares
    # of L' vec(rho), about 1e263 each, overflow an unscaled 2-norm.
    c = [[[0.0, 0.0], [0.0, 0.0]], [[1e140, 0.0], [0.0, 0.0]]]
    f = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    path = qubit_model_file(tmp_path, C=c, F=f, n=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["steady", "--model", path]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    tree = json.loads(out)
    assert tree["populations"] == pytest.approx([0.25, 0.75], abs=1e-12)
    model = cli.model_from_dict(cli.load_model_dict(path))
    residual = gks_decompose(model).schrodinger_sparse() @ vectorize(from_pairs(tree["rho"]))
    largest = np.abs(residual).max()
    expected = largest * np.linalg.norm(residual / largest)
    assert 1e263 < expected < np.inf
    assert tree["liouvillian_residual"] == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_steady_degenerate_kernel_exit_code(tmp_path, capsys):
    model = qubit_model_file(tmp_path, C=Z2)
    assert main(["steady", "--model", model]) == 3
    assert "kernel" in capsys.readouterr().err


def test_oracle_csv(tmp_path, capsys):
    model = qubit_model_file(tmp_path)
    header, rows = run_csv(capsys, [
        "oracle", "--model", model, "--t-final", "0.4",
        "--dt-list", "0.04,0.02", "--cutoff", "3",
    ])
    assert header == ["dt", "max_trace_distance", "order_vs_prev", "fitted_order", "monotone"]
    assert [r[0] for r in rows] == ["0.04", "0.02"]
    assert float(rows[1][1]) < float(rows[0][1])
    assert 0.8 < float(rows[1][3]) < 1.3
    assert rows[0][4] == "true"
    assert rows[0][2] == "" and rows[1][2] != ""


@pytest.mark.parametrize("c", [Z2, [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]],
                         ids=["C=0", "C=sigma_z"])
def test_oracle_with_zero_errors_leaves_order_cells_empty(tmp_path, capsys, c):
    model = qubit_model_file(tmp_path, C=c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, rows = run_csv(capsys, ["oracle", "--model", model, "--t-final", "0.5",
                                   "--dt-list", "0.1,0.05"])
    errors = [float(r[1]) for r in rows]
    assert errors[0] == 0.0
    assert all(r[2] == "" for r in rows)
    # Fewer than two positive errors leave nothing to fit.
    assert all(r[3] == "" for r in rows)


def test_oracle_error_rise_at_rounding_level_is_monotone(tmp_path, capsys):
    model = qubit_model_file(tmp_path, C=[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]])
    _, rows = run_csv(capsys, ["oracle", "--model", model, "--t-final", "0.5",
                               "--dt-list", "0.1,0.05"])
    errors = [float(r[1]) for r in rows]
    assert errors[0] == 0.0 and 0.0 < errors[1] < 1e-14
    assert all(r[4] == "true" for r in rows)


def test_oracle_reads_rho0(tmp_path, capsys):
    argv = ["oracle", "--model", qubit_model_file(tmp_path), "--t-final", "0.4",
            "--dt-list", "0.1,0.05", "--cutoff", "3"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    # The default initial state is I/d: given as a file it writes the same bytes.
    mixed = write_json(tmp_path / "mixed.json", {"rho": to_pairs(np.eye(2) / 2.0)})
    assert main(argv + ["--rho0", mixed]) == 0
    assert capsys.readouterr().out == default
    excited = write_json(tmp_path / "excited.json", {"rho": [[[1.0, 0.0], [0.0, 0.0]], Z2[0]]})
    assert main(argv + ["--rho0", excited]) == 0
    assert capsys.readouterr().out != default


def test_oracle_rejects_a_cutoff_beyond_the_step_budget(tmp_path, capsys):
    argv = ["oracle", "--model", qubit_model_file(tmp_path), "--t-final", "0.4",
            "--dt-list", "0.1,0.05", "--cutoff", "1000"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "cutoff 1000" in err and "d = 2" in err


@pytest.mark.parametrize("c", [SM, Z2], ids=["C=sigma_minus", "C=0"])
def test_oracle_csv_matches_csv_writer(tmp_path, capsys, monkeypatch, c):
    results = []

    def study(*args):
        results.append(collision.convergence_study(*args))
        return results[-1]

    monkeypatch.setattr(cli, "convergence_study", study)
    model = qubit_model_file(tmp_path, C=c)
    assert main(["oracle", "--model", model, "--t-final", "0.4",
                 "--dt-list", "0.1,0.05,0.04", "--cutoff", "3"]) == 0
    (result,) = results
    assert (result.fitted_order is None) == (c is Z2)

    # The csv.writer rows that the direct writer replaced.
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["dt", "max_trace_distance", "order_vs_prev", "fitted_order", "monotone"])
    fitted = "" if result.fitted_order is None else f"{result.fitted_order:.6g}"
    prev = None
    for dt, err in zip(result.dts, result.errors):
        if prev is None or err == 0 or prev[1] == 0:
            order = ""
        else:
            order = f"{np.log(prev[1] / err) / np.log(prev[0] / dt):.6g}"
        writer.writerow([f"{dt:.12g}", f"{err:.12g}", order, fitted, str(result.monotone).lower()])
        prev = (dt, err)
    assert capsys.readouterr().out == buf.getvalue()


@pytest.mark.parametrize("t_final, dt_list, names", [
    ("1e300", "1e-300,1e-301", ["t_final = 1e+300", "dt = 1e-300", "step count"]),
    ("0.5", "1e-300,0.1", ["5e+299 steps", "dt = 1e-300", "t_final = 0.5"]),
    ("0.4", "0.1,0.1", ["dt = 0.1 is repeated"]),
    ("0.4", "1,0.5", ["t_final = 0.4", "dt = 1.0", "rounds to 0 steps"]),
], ids=["ratio-overflows", "over-budget", "repeated-dt", "zero-steps"])
def test_oracle_rejects_a_step_count_it_cannot_store(tmp_path, capsys, t_final, dt_list, names):
    argv = ["oracle", "--model", qubit_model_file(tmp_path), "--t-final", t_final,
            "--dt-list", dt_list, "--cutoff", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid input" in err
    assert all(name in err for name in names), err


def test_rho0_object_without_rho_is_missing(tmp_path, capsys):
    rho0 = write_json(tmp_path / "rho0.json", {"rhoo": [[[1.0, 0.0], [0.0, 0.0]], Z2[0]]})
    argv = ["evolve", "--model", qubit_model_file(tmp_path), "--rho0", rho0, "--t-final", "1"]
    assert main(argv) == 2
    assert "field 'rho': missing" in capsys.readouterr().err


def test_rho0_may_be_a_bare_matrix(tmp_path, capsys):
    rho0 = write_json(tmp_path / "rho0.json", [[[1.0, 0.0], [0.0, 0.0]], Z2[0]])
    header, rows = run_csv(capsys, ["evolve", "--model", qubit_model_file(tmp_path),
                                    "--rho0", rho0, "--t-final", "1", "--points", "3"])
    assert len(rows) == 3 and rows[0][header.index("pop_0")] == "1"


def test_oracle_rejects_bad_dt_list(tmp_path, capsys):
    model = qubit_model_file(tmp_path)
    code = main(["oracle", "--model", model, "--t-final", "0.4", "--dt-list", "0.1,abc"])
    assert code == 2
    assert "dt-list" in capsys.readouterr().err


def test_split_report(capsys):
    assert main(["split", "--n", "3"]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["x"] == pytest.approx(2.0, abs=1e-14)
    assert tree["y"] == pytest.approx(np.sqrt(3.0), abs=1e-14)
    assert tree["z"] == [0.0, 0.0]
    assert max(tree["residuals"].values()) < 1e-12


def reject_constant(constant):
    raise ValueError(f"non-finite literal {constant}")


def test_reports_are_canonical_compact_json(tmp_path, capsys):
    e11 = [[[0.2, 0.0], [0.1, 0.05]], [[0.1, -0.05], [-0.4, 0.0]]]
    model = qubit_model_file(tmp_path, n=0.5, m_re=0.2, m_im=-0.1, sigma=0.3,
                             E={"c00": Z2, "c01": SP, "c10": SM, "c11": e11})
    normal = str(tmp_path / "normal.json")
    assert main(["convert", "--model", model, "--out", normal]) == 0
    runs = [
        ["generator", "--model", model],
        ["convert", "--model", model, "--direction", "to-normal"],
        ["convert", "--model", normal, "--direction", "to-time"],
        ["steady", "--model", model],
        ["split", "--n", "0.5", "--m-re", "0.1", "--m-im", "-0.2"],
        ["split", "--n", "0"],
    ]
    for argv in runs:
        assert main(argv) == 0
        out = capsys.readouterr().out
        tree = json.loads(out, parse_constant=reject_constant)
        assert out == json.dumps(tree, separators=(",", ":")) + "\n", argv


# gamma overflows G, sigma overflows H_eff, and gamma (n + 1) overflows K itself.
OVERFLOWING = {"gamma": {"gamma": 1e300}, "sigma": {"gamma": 1.0, "sigma": 1e300},
               "kossakowski": {"gamma": 1e300, "n": 1e10}}


@pytest.mark.parametrize("model", sorted(OVERFLOWING))
@pytest.mark.parametrize("command", ["generator", "steady", "evolve", "evolve-krylov"])
def test_overflowing_generator_is_numerical_exit_code(tmp_path, capsys, monkeypatch, command,
                                                      model):
    c = [[[0.0, 0.0], [0.0, 0.0]], [[1e10, 0.0], [0.0, 0.0]]]
    f = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    path = qubit_model_file(tmp_path, C=c, F=f, **OVERFLOWING[model])
    if command == "evolve-krylov":  # the sparse route of evolve --method expm
        monkeypatch.setattr(lindblad, "dense_exp_is_cheaper", lambda *args, **kwargs: False)
        command = "evolve"
    argv = [command, "--model", path]
    if command == "evolve":
        rho0 = write_json(tmp_path / "rho0.json", {"rho": [[[1.0, 0.0], [0.0, 0.0]], Z2[0]]})
        argv += ["--rho0", rho0, "--t-final", "1", "--points", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "generator overflow" in err and "not finite" in err


def test_krylov_step_count_beyond_the_double_range_is_numerical_exit_code(tmp_path, capsys):
    # L' has finite entries but tr(L') overflows, so the route rule takes the Krylov
    # route, where scipy's step count from the shifted norm is NaN.
    d = 20
    zeros = np.zeros((d, d))
    rho = zeros.copy()
    rho[0, 0] = 1.0
    path = write_json(tmp_path / "m.json", {"dim": d, "gamma": 1.0,
                                            "C": to_pairs(1e153 * ladder(d)), "F": to_pairs(zeros)})
    rho0 = write_json(tmp_path / "rho0.json", {"rho": to_pairs(rho)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", "--model", path, "--rho0", rho0, "--t-final", "1",
                     "--points", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "expm_multiply overflow: the trajectory is not finite" in err


def test_split_residuals_of_a_large_state_read_at_rounding_level(capsys):
    assert main(["split", "--n", "1e154", "--m-re", "5e153"]) == 0
    residuals = json.loads(capsys.readouterr().out)["residuals"]
    assert max(residuals.values()) <= 1e-12, residuals


# C = 1e160 |1><0| with gamma = 1e-100: C+C is beyond the double range, the generator
# (entries about 1e220) is not, and the state decays into |1><1|.
TINY_GAMMA = {"gamma": 1e-100, "C": [[[0.0, 0.0], [0.0, 0.0]], [[1e160, 0.0], [0.0, 0.0]]]}


def test_a_finite_generator_of_overflowing_products_is_reported(tmp_path, capsys):
    path = qubit_model_file(tmp_path, **TINY_GAMMA)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["generator", "--model", path]) == 0
        liouv = from_pairs(json.loads(capsys.readouterr().out)["liouvillian"])
        assert main(["steady", "--model", path]) == 0
        rho = from_pairs(json.loads(capsys.readouterr().out)["rho"])
    assert np.all(np.isfinite(liouv)) and np.abs(liouv).max() == pytest.approx(1e220)
    np.testing.assert_allclose(rho, np.diag([0.0, 1.0]), atol=1e-12)


def test_rk4_runs_a_finite_generator_of_overflowing_products(tmp_path, capsys):
    path = qubit_model_file(tmp_path, **TINY_GAMMA)
    rho0 = write_json(tmp_path / "rho0.json", {"rho": [[[1.0, 0.0], [0.0, 0.0]], Z2[0]]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["evolve", "--model", path, "--rho0", rho0, "--t-final", "1",
                     "--points", "3", "--method", "rk4"])
    out, err = capsys.readouterr()
    assert code == 0, err
    header, *rows = list(csv.reader(out.splitlines()))
    assert [float(row[header.index("pop_1")]) for row in rows] == pytest.approx([0.0, 1.0, 1.0])


def test_split_rejects_overcorrelated(capsys):
    assert main(["split", "--n", "1", "--m-re", "1.5"]) == 2
    assert "n(n+1)" in capsys.readouterr().err


def test_split_vacuum_rejects_any_pair_correlation(capsys):
    assert main(["split", "--n", "0", "--m-re", "1e-7"]) == 2
    assert "n(n+1)" in capsys.readouterr().err


def test_split_names_a_negative_n(capsys):
    assert main(["split", "--n", "-1"]) == 2
    err = capsys.readouterr().err
    assert "n must be nonnegative, got -1.0" in err and "violates" not in err


def test_split_rejects_nonfinite(capsys):
    assert main(["split", "--n", "nan"]) == 2
    assert "finite" in capsys.readouterr().err


def test_nonfinite_model_literal_is_rejected(tmp_path, capsys):
    model = tmp_path / "nan.json"
    model.write_text('{"dim": 2, "gamma": 1.0, "n": NaN, "C": %s, "F": %s}'
                     % (json.dumps(SM), json.dumps(Z2)))
    assert main(["steady", "--model", str(model)]) == 2
    assert "NaN" in capsys.readouterr().err
    rho0 = tmp_path / "rho0.json"
    rho0.write_text('{"rho": [[[1, 0], [0, 0]], [[0, 0], [-Infinity, 0]]]}')
    code = main(["evolve", "--model", qubit_model_file(tmp_path), "--rho0", str(rho0),
                 "--t-final", "1.0"])
    assert code == 2
    assert "-Infinity" in capsys.readouterr().err


def test_linalg_error_is_numerical_exit_code(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    # The positivity check of the steady state (linalg.psd_eigh) calls eigh.
    monkeypatch.setattr(np.linalg, "eigh", fail)
    assert main(["steady", "--model", qubit_model_file(tmp_path, n=1.0)]) == 3
    assert "numerical error" in capsys.readouterr().err


def test_report_commands_never_load_scipy(tmp_path):
    model = qubit_model_file(tmp_path, n=0.5)
    blocks = qubit_model_file(tmp_path, "blocks.json",
                              E={"c00": Z2, "c01": SP, "c10": SM, "c11": Z2})
    script = f"""
import sys
from gaussbath.cli import main
assert main(["generator", "--model", {model!r}, "--out", {str(tmp_path / "g.json")!r}]) == 0
assert main(["convert", "--model", {blocks!r}, "--direction", "to-normal",
             "--out", {str(tmp_path / "c.json")!r}]) == 0
assert main(["split", "--n", "0.5", "--m-re", "0.1", "--out", {str(tmp_path / "s.json")!r}]) == 0
assert "scipy" not in sys.modules, "generator, convert or split loaded scipy"
# The dense routes: evolve's exp(dt L') and oracle's step unitaries at a step space of 18.
assert main(["evolve", "--model", {model!r}, "--rho0", {str(tmp_path / "rho0.json")!r},
             "--t-final", "0.2", "--points", "3", "--out", {str(tmp_path / "e.csv")!r}]) == 0
assert main(["oracle", "--model", {model!r}, "--t-final", "0.2", "--dt-list", "0.1,0.05",
             "--cutoff", "3", "--out", {str(tmp_path / "o.csv")!r}]) == 0
assert "scipy" not in sys.modules, "a dense evolve or oracle loaded scipy"
assert main(["steady", "--model", {model!r}, "--out", {str(tmp_path / "st.json")!r}]) == 0
assert "scipy.sparse" in sys.modules
"""
    write_json(tmp_path / "rho0.json", {"rho": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]})
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv, name", [
    (["oracle", "--t-final", "inf", "--dt-list", "0.1,0.05"], "t_final must be finite"),
    (["oracle", "--t-final", "0.4", "--dt-list", "nan,0.05"], "dt must be finite"),
    (["evolve", "--t-final", "inf"], "--t-final"),
    (["evolve", "--t-final", "nan"], "--t-final"),
    (["evolve", "--t-final", "1", "--points", "1"], "--points must be at least 2"),
], ids=["oracle-t-final-inf", "oracle-dt-nan", "evolve-t-final-inf", "evolve-t-final-nan",
        "evolve-one-point"])
def test_nonfinite_time_input_is_invalid_input(tmp_path, capsys, argv, name):
    argv = argv + ["--model", qubit_model_file(tmp_path)]
    if argv[0] == "evolve":
        excited = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        argv += ["--rho0", write_json(tmp_path / "rho0.json", {"rho": excited})]
    assert main(argv) == 2
    assert name in capsys.readouterr().err


def test_memory_error_is_numerical_exit_code(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 14.6 TiB")

    monkeypatch.setattr(collision, "represent_annihilator", fail)
    argv = ["oracle", "--model", qubit_model_file(tmp_path), "--t-final", "0.4",
            "--dt-list", "0.1,0.05", "--cutoff", "3"]
    assert main(argv) == 3
    assert "Unable to allocate" in capsys.readouterr().err


def test_missing_model_file_exit_code(tmp_path, capsys):
    code = main(["steady", "--model", str(tmp_path / "absent.json")])
    assert code == 4
    assert "i/o" in capsys.readouterr().err


def test_malformed_json_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2,\n  "gamma": oops}')
    code = main(["steady", "--model", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_model_field_validation(tmp_path, capsys):
    model = write_json(tmp_path / "m.json", {"dim": 2, "gamma": 1.0, "C": SM})
    assert main(["steady", "--model", model]) == 2
    assert "F" in capsys.readouterr().err
    model = write_json(tmp_path / "m2.json", {"dim": 2, "gamma": "one", "C": SM, "F": Z2})
    assert main(["steady", "--model", model]) == 2
    model = write_json(tmp_path / "m3.json", {"dim": 3, "gamma": 1.0, "C": SM, "F": Z2})
    assert main(["steady", "--model", model]) == 2
    assert "rows" in capsys.readouterr().err
    model = write_json(tmp_path / "m4.json", [{"dim": 2, "gamma": 1.0, "C": SM, "F": Z2}])
    assert main(["steady", "--model", model]) == 2
    assert "top level must be a JSON object" in capsys.readouterr().err
    model = write_json(tmp_path / "m5.json", {"dim": 0, "gamma": 1.0, "C": [], "F": []})
    assert main(["steady", "--model", model]) == 2
    assert "field 'dim': must be a positive integer" in capsys.readouterr().err


def test_overflowing_block_entry_is_invalid_input(tmp_path, capsys):
    e11 = [[[0.2, 0.0], [0.0, 0.0]], [[0.0, 0.0], ["HUGE", 0.0]]]
    model = qubit_model_file(tmp_path, E={"c00": Z2, "c01": SP, "c10": SM, "c11": e11})
    Path(model).write_text(Path(model).read_text().replace('"HUGE"', "1e400"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["convert", "--model", model]) == 2
    err = capsys.readouterr().err
    assert "E.c11" in err and "finite" in err


def test_huge_integer_entries_are_invalid_input(tmp_path, capsys):
    huge_c = [[[0, 0], [0, 0]], [[10**400, 0], [0, 0]]]
    assert main(["steady", "--model", qubit_model_file(tmp_path, C=huge_c)]) == 2
    assert "field 'C'" in capsys.readouterr().err
    rho0 = write_json(tmp_path / "rho0.json", {"rho": [[[1, 0], [0, 0]], [[0, 0], [0, 10**400]]]})
    code = main(["evolve", "--model", qubit_model_file(tmp_path), "--rho0", rho0,
                 "--t-final", "1.0"])
    assert code == 2
    assert "field 'rho'" in capsys.readouterr().err


def test_ragged_matrix_is_invalid_input(tmp_path, capsys):
    ragged = [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]]
    assert main(["steady", "--model", qubit_model_file(tmp_path, C=ragged)]) == 2
    assert "rows" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["gamma", "n"])
def test_huge_integer_scalar_is_invalid_input(tmp_path, capsys, field):
    model = qubit_model_file(tmp_path, **{field: 10**400})
    assert main(["steady", "--model", model]) == 2
    assert f"field '{field}'" in capsys.readouterr().err


def test_bool_matrix_entry_is_invalid_input(tmp_path, capsys):
    c = [[[0, 0], [0, 0]], [[True, 0], [0, 0]]]
    assert main(["steady", "--model", qubit_model_file(tmp_path, C=c)]) == 2
    err = capsys.readouterr().err
    assert "field 'C'" in err and "finite numbers" in err


def test_tol_flag_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["steady", "--model", qubit_model_file(tmp_path), "--tol", "1e-9"])
    assert exc.value.code == 2


def dump_complex(z):
    """The per-entry [re, im] encoder that the direct writer replaced."""
    return [float(np.real(z)), float(np.imag(z))]


def per_entry(a):
    """Nested lists of dump_complex pairs, one call per entry."""
    a = np.asarray(a)
    return dump_complex(a[()]) if a.ndim == 0 else [per_entry(x) for x in a]


def compact(tree):
    return json.dumps(tree, separators=(",", ":"))


def test_pairs_matches_per_entry_encoding(rng):
    a = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
    a[0, 0] = complex(-0.0, -0.0)
    a[1, 2] = complex(0.0, -0.0)
    a[3, 4] = complex(-0.0, 2.5)
    a[0, 1] = complex(5e-324, -5e-324)
    a[2, 3] = complex(1e308, -1e308)
    a[3, 0] = complex(1e-308, -0.0)
    cube = rng.normal(size=(2, 3, 4)) + 1j * rng.normal(size=(2, 3, 4))
    cube[1, 2, 3] = complex(-0.0, 0.0)
    for arr in (a, np.array([[-0.0 + 1.25j]]), cube):
        assert _pairs_json(arr) == compact(per_entry(arr))
    for z in (a[0, 0], a[3, 4], a[0, 1], a[2, 3], complex(0.5, -0.0), np.complex128(-2.0 + 0.25j),
              -1.5):
        assert _pairs_json(z) == compact(dump_complex(z))


# Complex arrays of random shape (scalars included) from (re, im) float64 pairs.
complex_arrays = hnp.array_shapes(min_dims=0, max_dims=3, max_side=5).flatmap(
    lambda shape: hnp.arrays(
        np.float64, shape + (2,),
        elements=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0]),
    )
).map(lambda parts: parts.view(complex)[..., 0])


@settings(max_examples=200, deadline=None)
@given(complex_arrays)
def test_pairs_json_matches_per_entry_encoding_on_random_arrays(arr):
    assert _pairs_json(arr) == compact(per_entry(arr))


def test_report_writer_rejects_non_finite_values():
    with pytest.raises(OverflowError, match="'L.c00'"):
        _report_json({"L": {"c00": np.array([[1.0, np.inf * 1j]])}})
    with pytest.raises(OverflowError, match="'residuals.x'"):
        _report_json({"n": 1.0, "residuals": {"x": float("nan")}})
    with pytest.raises(OverflowError, match="'trace'"):
        _report_json({"trace": complex(np.nan, 0.0)})


def test_non_finite_report_value_is_numerical_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli, "split_residuals", lambda n, m, s: {"x": float("inf")})
    assert main(["split", "--n", "0.5"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "'residuals.x'" in err and "not finite" in err


@pytest.mark.parametrize("d", [3, 12])
def test_evolve_csv_matches_per_row_formatting(tmp_path, capsys, monkeypatch, rng, d):
    points, t_final = 9, 1.3
    states = rng.normal(size=(points, d, d)) + 1j * rng.normal(size=(points, d, d))
    states[2, 0, 1] = complex(-0.0, -0.0)
    # Exponent forms at the edges of the double range; the products in the
    # purity stay finite.
    states[3] = 0.0
    states[3, 0, 1] = complex(1e308, -1e308)
    states[3, 1, 0] = complex(5e-324, 1e-300)
    states[3, 2, 2] = 1e21
    monkeypatch.setattr(cli, "evolve", lambda model, rho0, grid, method: states)
    zeros = np.zeros((d, d, 2)).tolist()
    rho = np.zeros((d, d, 2))
    rho[0, 0, 0] = 1.0
    model = write_json(tmp_path / "m.json", {"dim": d, "gamma": 1.0, "C": zeros, "F": zeros})
    rho0 = write_json(tmp_path / "rho0.json", {"rho": rho.tolist()})
    assert main(["evolve", "--model", model, "--rho0", rho0,
                 "--t-final", str(t_final), "--points", str(points)]) == 0

    # The per-row formatting that the table replaced.
    buf = io.StringIO()
    writer = csv.writer(buf)
    header = ["t"]
    for j in range(d):
        for i in range(d):
            header += [f"rho_{i}_{j}_re", f"rho_{i}_{j}_im"]
    writer.writerow(header + [f"pop_{k}" for k in range(d)] + ["purity"])
    for t, rho in zip(np.linspace(0.0, t_final, points), states):
        row = [f"{t:.12g}"]
        for z in vectorize(rho):
            row += [f"{z.real:.12g}", f"{z.imag:.12g}"]
        row += [f"{rho[k, k].real:.12g}" for k in range(d)]
        row.append(f"{np.trace(rho @ rho).real:.12g}")
        writer.writerow(row)
    assert capsys.readouterr().out == buf.getvalue()


def run_installed_cli(*argv):
    """The CLI in a fresh interpreter, with Python's default warning filters."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "gaussbath.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=120)


@pytest.mark.parametrize("argv, message", [
    (["evolve", "--t-final", "1e10", "--points", "2"], "evolve overflow: dt L' is not finite"),
    (["evolve", "--t-final", "1e10", "--points", "2", "--method", "rk4"],
     "evolve overflow: the RK4 substep count is not finite"),
    (["oracle", "--t-final", "1e10", "--dt-list", "1e10,5e9", "--cutoff", "3"],
     "collision overflow: the step Hamiltonian is not finite"),
], ids=["evolve-expm", "evolve-rk4", "oracle"])
def test_a_step_beyond_the_double_range_names_the_overflow(tmp_path, argv, message):
    # gamma dt = 1e310 on a decaying qubit: no numpy warning may reach stderr first.
    model = qubit_model_file(tmp_path, gamma=1e300)
    rho0 = write_json(tmp_path / "rho0.json", {"rho": [[[1.0, 0.0], [0.0, 0.0]], Z2[0]]})
    extra = ["--rho0", rho0] if argv[0] == "evolve" else []
    proc = run_installed_cli(argv[0], "--model", model, *extra, *argv[1:])
    assert proc.returncode == 3 and proc.stdout == "", (proc.returncode, proc.stdout)
    assert proc.stderr == f"gaussbath: numerical error: {message}\n", proc.stderr


def test_split_where_m_squared_is_beyond_the_double_range(capsys):
    n, m = 1e155, 5e154
    assert main(["split", "--n", repr(n), "--m-re", repr(m)]) == 0
    tree = json.loads(capsys.readouterr().out)
    x, y, z = tree["x"], tree["y"], complex(*tree["z"])
    assert all(np.isfinite([x, y, z]))
    assert abs(x * x - y * y + abs(z) ** 2 - 1.0) <= 1e-12 * (n + 1.0)
    assert abs(x * x + abs(z) ** 2 - (n + 1.0)) <= 1e-12 * (n + 1.0)
    assert abs(y * z - m) <= 1e-12 * (n + 1.0)
    for n_text, m_text in (("1e155", "2e155"), ("1e200", "1e300")):
        assert main(["split", "--n", n_text, "--m-re", m_text]) == 2
        assert "violates |m|^2 <= n(n+1)" in capsys.readouterr().err
