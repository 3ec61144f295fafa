"""End-to-end command line runs in temporary directories."""

import csv
import json
import math
import re

import numpy as np
import pytest

from lfmrff.cli import RunConfig, _read_grid, build_spec, main
from lfmrff.features import sample_frequencies
from lfmrff.kernels import feature_matrix
from lfmrff.model import DataError, Dataset, LfmSpec, Ode1Params, write_dataset_csv
from lfmrff.predict import nmse


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture
def train_csv(tmp_path):
    rng = np.random.default_rng(21)
    t = np.tile(np.linspace(0.0, 3.0, 25), 2)
    ids = np.repeat([1, 2], 25)
    y = np.where(ids == 1, np.sin(1.4 * t), 0.6 * np.cos(t))
    y = y + rng.normal(scale=0.05, size=y.size)
    path = tmp_path / "train.csv"
    write_dataset_csv(path, Dataset(ids, t, y))
    return str(path)


def run(args):
    return main(args)


class TestTrain:
    def test_writes_fit_and_trace(self, tmp_path, train_csv, capsys):
        out = tmp_path / "run1"
        code = run(["train", train_csv, "--out-dir", str(out), "--samples", "20",
                    "--seed", "3", "--config", _cfg(tmp_path, "max_iters=5")])
        assert code == 0
        fit = json.loads((out / "fit.json").read_text())
        assert fit["schema_version"] == 1
        assert fit["num_samples"] == 20 and fit["seed"] == 3
        assert fit["status"] in ("converged", "max_iters", "line_search_failed")
        rows = read_rows(out / "trace.csv")
        assert rows[0] == ["iter", "lml", "grad_norm", "elapsed_s", "evals"]
        lmls = [float(r[1]) for r in rows[1:]]
        assert all(b >= a - 1e-12 for a, b in zip(lmls, lmls[1:]))
        captured = capsys.readouterr()
        assert "objective+gradient evaluation" in captured.out

    def test_fit_file_is_deterministic(self, tmp_path, train_csv):
        cfg = _cfg(tmp_path, "max_iters=4")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["train", train_csv, "--out-dir", str(out),
                        "--samples", "15", "--seed", "0", "--config", cfg]) == 0
            outs.append((out / "fit.json").read_bytes())
        assert outs[0] == outs[1]

    def test_mogp_train(self, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, size=(30, 2))
        ids = rng.integers(1, 3, size=30)
        y = np.sin(x[:, 0]) + 0.1 * rng.normal(size=30)
        path = tmp_path / "mogp.csv"
        write_dataset_csv(path, Dataset(ids, x, y))
        out = tmp_path / "out"
        code = run(["train", str(path), "--model", "mogp", "--samples", "10",
                    "--out-dir", str(out), "--config", _cfg(tmp_path, "max_iters=3")])
        assert code == 0
        fit = json.loads((out / "fit.json").read_text())
        assert fit["model"] == "mogp"


class TestPredict:
    def test_round_trip_quality(self, tmp_path, train_csv):
        out = tmp_path / "fitdir"
        assert run(["train", train_csv, "--out-dir", str(out), "--samples", "30",
                    "--seed", "1", "--config", _cfg(tmp_path, "max_iters=60")]) == 0
        t = np.tile(np.linspace(0.1, 2.9, 20), 2)
        ids = np.repeat([1, 2], 20)
        truth = np.where(ids == 1, np.sin(1.4 * t), 0.6 * np.cos(t))
        test_csv = tmp_path / "test.csv"
        write_csv(test_csv, ["output_id", "t"], list(zip(ids, t)))
        assert run(["predict", str(out / "fit.json"), str(test_csv),
                    "--out-dir", str(out)]) == 0
        rows = read_rows(out / "predictions.csv")
        assert rows[0] == ["output_id", "t", "mean", "var", "lower2sd", "upper2sd"]
        body = rows[1:]
        assert len(body) == 40
        mean = np.array([float(r[2]) for r in body])
        var = np.array([float(r[3]) for r in body])
        assert nmse(truth, mean) < 0.2
        assert np.all(var > 0)
        lo = np.array([float(r[4]) for r in body])
        hi = np.array([float(r[5]) for r in body])
        np.testing.assert_allclose(hi - mean, 2.0 * np.sqrt(var), rtol=1e-10)
        np.testing.assert_allclose(mean - lo, 2.0 * np.sqrt(var), rtol=1e-10)

    def test_empty_test_file_gives_header_only(self, tmp_path, train_csv):
        out = tmp_path / "o"
        assert run(["train", train_csv, "--out-dir", str(out), "--samples", "8",
                    "--config", _cfg(tmp_path, "max_iters=1")]) == 0
        test_csv = tmp_path / "empty.csv"
        write_csv(test_csv, ["output_id", "t"], [])
        assert run(["predict", str(out / "fit.json"), str(test_csv),
                    "--out-dir", str(out)]) == 0
        rows = read_rows(out / "predictions.csv")
        assert rows == [["output_id", "t", "mean", "var", "lower2sd", "upper2sd"]]

    def test_latent_force_output(self, tmp_path, train_csv):
        out = tmp_path / "o"
        assert run(["train", train_csv, "--out-dir", str(out), "--samples", "8",
                    "--config", _cfg(tmp_path, "max_iters=1")]) == 0
        test_csv = tmp_path / "test.csv"
        write_csv(test_csv, ["output_id", "t"], [[1, 0.5], [2, 0.5], [1, 1.5]])
        cfg = _cfg(tmp_path, "latent_force=1", name="lf.cfg")
        assert run(["predict", str(out / "fit.json"), str(test_csv),
                    "--out-dir", str(out), "--config", cfg]) == 0
        rows = read_rows(out / "latent_forces.csv")
        assert rows[0][0] == "force_id"
        times = sorted({0.5, 1.5})
        assert len(rows) == 1 + len(times)


class TestKernelEval:
    def test_both_mode_reports_distance(self, tmp_path, capsys):
        grid = tmp_path / "grid.csv"
        write_csv(grid, ["t"], [[0.5], [1.0], [1.5]])
        out = tmp_path / "k"
        code = run(["kernel-eval", str(grid), "--mode", "both", "--samples", "400",
                    "--seed", "2", "--out-dir", str(out),
                    "--config", _cfg(tmp_path, "outputs=1\ngamma1=1.0")])
        assert code == 0
        err = capsys.readouterr().err
        assert "frobenius" in err.lower()
        rff = read_rows(out / "kernel_rff.csv")
        oracle = read_rows(out / "kernel_oracle.csv")
        assert len(rff) == len(oracle) == 4
        a = np.array([[float(v) for v in r] for r in rff[1:]])
        b = np.array([[float(v) for v in r] for r in oracle[1:]])
        assert np.linalg.norm(a - b) < 0.25 * np.linalg.norm(b)

    def test_zero_time_grid_is_zero_matrix(self, tmp_path):
        grid = tmp_path / "grid.csv"
        write_csv(grid, ["t"], [[0.0]])
        out = tmp_path / "k"
        code = run(["kernel-eval", str(grid), "--mode", "rff", "--samples", "10",
                    "--out-dir", str(out),
                    "--config", _cfg(tmp_path, "outputs=2")])
        assert code == 0
        rows = read_rows(out / "kernel_rff.csv")
        vals = np.array([[float(v) for v in r] for r in rows[1:]])
        assert vals.shape == (2, 2)
        np.testing.assert_allclose(vals, 0.0, atol=1e-15)

    def test_mogp_oracle_mode(self, tmp_path):
        grid = tmp_path / "grid.csv"
        write_csv(grid, ["x1"], [[-0.5], [0.5]])
        out = tmp_path / "k"
        code = run(["kernel-eval", str(grid), "--model", "mogp", "--mode",
                    "oracle", "--out-dir", str(out),
                    "--config", _cfg(tmp_path, "outputs=1")])
        assert code == 0
        rows = read_rows(out / "kernel_oracle.csv")
        vals = np.array([[float(v) for v in r] for r in rows[1:]])
        assert vals.shape == (2, 2)
        assert vals[0, 0] > vals[0, 1] > 0


class TestSampleFeatures:
    def test_writes_complex_columns(self, tmp_path):
        grid = tmp_path / "grid.csv"
        write_csv(grid, ["output_id", "t"], [[1, 0.5], [1, 1.0]])
        out = tmp_path / "f"
        code = run(["sample-features", str(grid), "--samples", "3",
                    "--out-dir", str(out)])
        assert code == 0
        rows = read_rows(out / "features.csv")
        assert rows[0][2:] == [
            "feat1_re", "feat1_im", "feat2_re", "feat2_im", "feat3_re", "feat3_im"
        ]
        assert len(rows) == 3
        # the default ode1 spec and seed 0 the command used; floats round-trip
        phi = feature_matrix([0.5, 1.0], [1, 1], build_spec(RunConfig(samples=3), 1),
                             sample_frequencies(3, 1, 0)).phi
        vals = np.array([[float(v) for v in r[2:]] for r in rows[1:]])
        assert np.array_equal(vals[:, 0::2], phi.real)
        assert np.array_equal(vals[:, 1::2], phi.imag)


    @pytest.mark.parametrize("command,written", [
        ("sample-features", "features.csv"), ("kernel-eval", "kernel_rff.csv"),
    ])
    @pytest.mark.parametrize("row", ["nan", "-1.0"], ids=["nan-time", "negative-time"])
    def test_invalid_grid_is_data_error(self, tmp_path, capsys, command, written, row):
        grid = tmp_path / "grid.csv"
        grid.write_text(f"t\n0.5\n{row}\n")
        out = tmp_path / "f"
        assert run([command, str(grid), "--samples", "3", "--out-dir", str(out)]) == 2
        assert not (out / written).exists()


def refuse_c_parser(*args, **kwargs):
    raise ValueError("C parser disabled")


class TestGridReader:
    """Bare t / x1..xp grids: numpy's C parser and the per-line fallback agree."""

    @staticmethod
    def read_both(path, monkeypatch):
        cfg = RunConfig(outputs=2)
        loadtxt = np.loadtxt
        served = []

        def spy(*args, **kwargs):
            served.append(True)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        fast = _read_grid(path, cfg)
        monkeypatch.setattr(np, "loadtxt", refuse_c_parser)
        slow = _read_grid(path, cfg)
        return fast, slow, bool(served)

    @pytest.mark.parametrize(
        "text",
        [
            "t\r\n0.5\r\n1.5\r\n-0.0\r\n",
            "t\n0.5\n\n1.5\n\n",
            "t\r0.5\r1.5",
            " t \n 0.5 \n\t1e-320 \n",
            "t\nnan\n-inf\n1e400\n-nan\n",
            "x1,x2\n0.1,-0.2\n0.3,0.4\n",
            "x1,x2,x3\n1,2,3",
        ],
        ids=["crlf", "blank-lines", "cr", "padded", "nan-inf", "x1-x2", "x1-x3"],
    )
    def test_c_parser_reads_like_per_line_parser(self, tmp_path, monkeypatch, text):
        path = tmp_path / "g.csv"
        path.write_bytes(text.encode())
        (ids, grid), (ids2, grid2), served = self.read_both(path, monkeypatch)
        assert served
        assert ids.tolist() == ids2.tolist()
        assert grid.shape == grid2.shape and grid.tobytes() == grid2.tobytes()
        rows = grid.shape[0] // 2
        assert ids.tolist() == [1] * rows + [2] * rows

    @pytest.mark.parametrize(
        "text",
        ["t\n", "t\n0.5\n   \n1.5\n", 't\n"0.5"\n', "t\n\u0661\n", "t\n1_0\n"],
        ids=["header-only", "whitespace-line", "quoted", "non-ascii-digit", "underscore"],
    )
    def test_fallback_reads_what_the_c_parser_refuses(self, tmp_path, monkeypatch, text):
        path = tmp_path / "g.csv"
        path.write_bytes(text.encode())
        (ids, grid), (ids2, grid2), _ = self.read_both(path, monkeypatch)
        assert ids.tolist() == ids2.tolist()
        assert grid.shape == grid2.shape and grid.tobytes() == grid2.tobytes()

    @pytest.mark.parametrize(
        "text,message",
        [
            ("t\n0.5\noops\n", "g.csv:3: could not convert string to float: 'oops'"),
            ("x1,x2\n0.1\n", "g.csv:2: expected 2 fields, got 1"),
            ("t\n0.5,1\n", "g.csv:2: expected 1 fields, got 2"),
            ("t\n0.5\n\n,\n", "g.csv:4: expected 1 fields, got 2"),
            ("t\n0.5 # note\n", "g.csv:2: could not convert string to float: '0.5 # note'"),
            ("t\n\x1c1\n", "g.csv:2: could not convert string to float: '\\x1c1'"),
        ],
        ids=["bad-float", "short-row", "long-row", "comma-line", "comment", "control-char"],
    )
    def test_malformed_grids_raise_per_line_messages(self, tmp_path, monkeypatch, text, message):
        path = tmp_path / "g.csv"
        path.write_bytes(text.encode())
        with pytest.raises(DataError) as fast:
            _read_grid(path, RunConfig())
        monkeypatch.setattr(np, "loadtxt", refuse_c_parser)
        with pytest.raises(DataError) as slow:
            _read_grid(path, RunConfig())
        assert str(fast.value) == str(slow.value)
        assert re.search(re.escape(message) + "$", str(fast.value))


class TestConfigPrecedence:
    def test_flags_override_config(self, tmp_path, train_csv):
        cfg = _cfg(tmp_path, "samples=99\nseed=42\nmax_iters=1")
        out = tmp_path / "o"
        assert run(["train", train_csv, "--samples", "7", "--seed", "5",
                    "--config", cfg, "--out-dir", str(out)]) == 0
        fit = json.loads((out / "fit.json").read_text())
        assert fit["num_samples"] == 7 and fit["seed"] == 5

    def test_config_supplies_when_no_flag(self, tmp_path, train_csv):
        cfg = _cfg(tmp_path, "samples=9\nmax_iters=1")
        out = tmp_path / "o"
        assert run(["train", train_csv, "--config", cfg,
                    "--out-dir", str(out)]) == 0
        fit = json.loads((out / "fit.json").read_text())
        assert fit["num_samples"] == 9


class TestExitCodes:
    def test_usage_error_unknown_config_key(self, tmp_path, train_csv, capsys):
        cfg = _cfg(tmp_path, "no_such_key=1")
        assert run(["train", train_csv, "--config", cfg]) == 1
        assert "no_such_key" in capsys.readouterr().err

    def test_usage_error_bad_flag(self, capsys):
        assert run(["kernel-eval", "x.csv", "--mode", "sideways"]) == 1

    def test_flags_a_command_does_not_read_are_usage_errors(self, tmp_path, train_csv, capsys):
        # predict takes the model, S, Q and seed from the fit file
        out = tmp_path / "o"
        assert run(["train", train_csv, "--samples", "5", "--out-dir", str(out),
                    "--config", _cfg(tmp_path, "max_iters=0")]) == 0
        test_csv = tmp_path / "test.csv"
        write_csv(test_csv, ["output_id", "t"], [[1, 0.5]])
        predict = ["predict", str(out / "fit.json"), str(test_csv), "--out-dir", str(out)]
        ignored = [("--samples", "50"), ("--model", "ode1"), ("--forces", "1"), ("--seed", "0"),
                   ("--oracle-tol", "1e-3"), ("--mode", "rff")]
        for flag, value in ignored:
            assert run([*predict, flag, value]) == 1
            assert flag in capsys.readouterr().err
        assert not (out / "predictions.csv").exists()
        for command in ("train", "sample-features"):
            for flag, value in ignored[-2:]:
                assert run([command, train_csv, "--out-dir", str(out), flag, value]) == 1
        assert sorted(p.name for p in out.iterdir()) == ["fit.json", "trace.csv"]
        # config files stay permissive: keys a command does not read are ignored
        cfg = _cfg(tmp_path, "samples=50\nmode=oracle", name="extra.cfg")
        assert run([*predict, "--config", cfg]) == 0
        assert (out / "predictions.csv").exists()

    @pytest.mark.parametrize("command,setting", [
        ("train", "--seed -1"),
        ("train", "seed=-1"),
        ("kernel-eval", "outputs=-2"),
        ("kernel-eval", "outputs=0"),
        ("train", "max_iters=-1"),
        ("train", "grad_tol=-1e-5"),
        ("train", "grad_tol=nan"),
        ("kernel-eval", "oracle_tol=-1"),
        ("kernel-eval", "--oracle-tol 0"),
        ("kernel-eval", "oracle_tol=nan"),
        ("train", "noise0=0.01"),
        ("train", "lengthscale0=2.0"),
        ("train", "sens1_0=0.5"),
        ("train", "gamma01=2.0"),
    ])
    def test_out_of_range_setting_is_usage_error(self, tmp_path, train_csv, capsys,
                                                command, setting):
        # a setting is a flag and its value, or one config file line
        flags = (setting.split() if setting.startswith("--")
                 else ["--config", _cfg(tmp_path, setting)])
        grid = tmp_path / "grid.csv"
        write_csv(grid, ["t"], [[0.5], [1.5]])
        out = tmp_path / "o"
        if command == "train":
            argv = ["train", train_csv, *flags]
        else:
            argv = ["kernel-eval", str(grid), "--mode", "oracle", *flags]
        assert run([*argv, "--out-dir", str(out), "--samples", "4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_removed_benchmark_command_is_usage_error(self, capsys):
        assert run(["benchmark"]) == 1

    def test_data_error_missing_file(self, tmp_path, capsys):
        assert run(["train", str(tmp_path / "absent.csv")]) == 2

    def test_data_error_malformed_row_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("output_id,t,y\n1,0.5,1.0\n1,oops,2.0\n")
        assert run(["train", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "bad.csv" in err and "3" in err

    def test_data_error_corrupt_fit_file(self, tmp_path):
        fit = tmp_path / "fit.json"
        fit.write_text("{ not json")
        test_csv = tmp_path / "t.csv"
        write_csv(test_csv, ["output_id", "t"], [[1, 0.5]])
        assert run(["predict", str(fit), str(test_csv)]) == 2

    @pytest.mark.parametrize("doc,field", [
        ({"schema_version": 1}, "spec"),
        ("ode1-without-gamma", "gamma"),
        ("ode1-typed-ode3", "unknown output type 'ode3'"),
        ([1, 2], "list"),
    ], ids=["no-spec", "ode1-without-gamma", "ode1-typed-ode3", "top-level-list"])
    def test_data_error_malformed_fit_file(self, tmp_path, train_csv, capsys, doc, field):
        fit = tmp_path / "fit.json"
        if isinstance(doc, str):  # a trained ode1 fit with its first output edited
            out = tmp_path / "o"
            assert run(["train", train_csv, "--samples", "5", "--out-dir", str(out),
                        "--config", _cfg(tmp_path, "max_iters=1")]) == 0
            trained = json.loads((out / "fit.json").read_text())
            output = trained["spec"]["outputs"][0]
            if doc == "ode1-without-gamma":
                del output["gamma"]
            else:
                output["type"] = "ode3"
            doc = trained
        fit.write_text(json.dumps(doc))
        test_csv = tmp_path / "t.csv"
        write_csv(test_csv, ["output_id", "t"], [[1, 0.5]])
        assert run(["predict", str(fit), str(test_csv)]) == 2
        err = capsys.readouterr().err
        assert str(fit) in err and field in err

    @pytest.mark.parametrize("model,kind", [("mogp", "lfmx"), ("ode1", "LFM")])
    def test_unknown_spec_kind_is_data_error(self, tmp_path, train_csv, capsys, model, kind):
        # A trained fit whose spec kind is edited to one no model has: it
        # names neither the MOGP nor the LFM, so nothing is predicted.
        data = train_csv
        if model == "mogp":
            rng = np.random.default_rng(3)
            x = rng.uniform(-1, 1, size=(20, 2))
            data = tmp_path / "mogp.csv"
            write_dataset_csv(data, Dataset(rng.integers(1, 3, size=20), x, np.sin(x[:, 0])))
        out = tmp_path / "o"
        assert run(["train", str(data), "--model", model, "--samples", "5",
                    "--out-dir", str(out), "--config", _cfg(tmp_path, "max_iters=0")]) == 0
        doc = json.loads((out / "fit.json").read_text())
        doc["spec"]["kind"] = kind
        fit = tmp_path / "fit.json"
        fit.write_text(json.dumps(doc))
        pred = tmp_path / "pred"
        assert run(["predict", str(fit), str(data), "--out-dir", str(pred)]) == 2
        assert f"unknown spec kind {kind!r}" in capsys.readouterr().err
        assert not (pred / "predictions.csv").exists()

    def test_numerical_error_repeated_roots(self, tmp_path, train_csv, capsys):
        # A generic operator with a double root has no residue expansion.
        cfg = _cfg(tmp_path, "model=odeP\ncoeffs1=1,2,1\ncoeffs2=1,2,1")
        assert run(["train", train_csv, "--config", cfg]) == 3
        assert "repeated" in capsys.readouterr().err

    def test_numerical_error_vanishing_ode2_mass(self, tmp_path, train_csv, capsys):
        # Roots that overflow are a numerical failure, not a usage error.
        cfg = _cfg(tmp_path, "model=ode2\nmass1=1e-170")
        assert run(["train", train_csv, "--config", cfg]) == 3
        assert "mass" in capsys.readouterr().err

    def test_latent_force_on_mogp_fit_is_data_error(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, size=(20, 2))
        ids = rng.integers(1, 3, size=20)
        data = tmp_path / "mogp.csv"
        write_dataset_csv(data, Dataset(ids, x, np.sin(x[:, 0])))
        out = tmp_path / "o"
        assert run(["train", str(data), "--model", "mogp", "--samples", "5",
                    "--out-dir", str(out), "--config", _cfg(tmp_path, "max_iters=0")]) == 0
        cfg = _cfg(tmp_path, "latent_force=1", name="lf.cfg")
        assert run(["predict", str(out / "fit.json"), str(data), "--out-dir", str(out),
                    "--config", cfg]) == 2
        assert "LFM" in capsys.readouterr().err
        assert not (out / "predictions.csv").exists()

    def test_latent_force_outside_forces_is_data_error(self, tmp_path, train_csv, capsys):
        out = tmp_path / "o"
        assert run(["train", train_csv, "--samples", "5", "--out-dir", str(out),
                    "--config", _cfg(tmp_path, "max_iters=0")]) == 0
        test_csv = tmp_path / "test.csv"
        write_csv(test_csv, ["output_id", "t"], [[1, 0.5]])
        cfg = _cfg(tmp_path, "latent_force=3", name="lf.cfg")
        assert run(["predict", str(out / "fit.json"), str(test_csv), "--out-dir", str(out),
                    "--config", cfg]) == 2
        assert "1..1" in capsys.readouterr().err
        assert not (out / "predictions.csv").exists()

    def test_success_is_zero(self, tmp_path, train_csv):
        out = tmp_path / "o"
        assert run(["train", train_csv, "--out-dir", str(out), "--samples", "5",
                    "--config", _cfg(tmp_path, "max_iters=0")]) == 0


def _cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text + "\n")
    return str(path)
