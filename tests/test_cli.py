import csv
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from gaussbath import cli
from gaussbath.cli import _pairs, main
from gaussbath.linalg import vectorize
from gaussbath.lindblad import SystemModel, schrodinger_liouvillian
from gaussbath.noise import NoiseParams

SM = [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
SP = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
Z2 = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]


def from_pairs(obj):
    a = np.asarray(obj, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


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


def test_steady_report(tmp_path, capsys):
    model = qubit_model_file(tmp_path, n=1.0)
    assert main(["steady", "--model", model]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["populations"] == pytest.approx([1.0 / 3.0, 2.0 / 3.0], abs=1e-10)
    assert tree["trace"][0] == pytest.approx(1.0, abs=1e-12)
    assert tree["liouvillian_residual"] < 1e-10


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


def test_split_rejects_overcorrelated(capsys):
    assert main(["split", "--n", "1", "--m-re", "1.5"]) == 2
    assert "n(n+1)" in capsys.readouterr().err


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
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    assert main(["steady", "--model", qubit_model_file(tmp_path, n=1.0)]) == 3
    assert "numerical error" in capsys.readouterr().err


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


def test_tol_flag_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["steady", "--model", qubit_model_file(tmp_path), "--tol", "1e-9"])
    assert exc.value.code == 2


def dump_complex(z):
    """The per-entry [re, im] encoder that _pairs replaced."""
    return [float(np.real(z)), float(np.imag(z))]


def test_pairs_matches_per_entry_encoding(rng):
    a = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
    a[0, 0] = complex(-0.0, -0.0)
    a[1, 2] = complex(0.0, -0.0)
    a[3, 4] = complex(-0.0, 2.5)
    for arr in (a, np.array([[-0.0 + 1.25j]])):
        want = [[dump_complex(z) for z in row] for row in arr]
        assert json.dumps(_pairs(arr)) == json.dumps(want)
    for z in (a[0, 0], a[3, 4], complex(0.5, -0.0), -1.5):
        assert json.dumps(_pairs(z)) == json.dumps(dump_complex(z))


@pytest.mark.parametrize("d", [3, 12])
def test_evolve_csv_matches_per_row_formatting(tmp_path, capsys, monkeypatch, rng, d):
    points, t_final = 9, 1.3
    states = rng.normal(size=(points, d, d)) + 1j * rng.normal(size=(points, d, d))
    states[2, 0, 1] = complex(-0.0, -0.0)
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
