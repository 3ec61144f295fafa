import csv
import math
import os
import re
import signal
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lfmrff import features, model
from lfmrff.model import (
    DataError,
    Dataset,
    LfmSpec,
    MogpSpec,
    NOISE_FLOOR,
    Ode1Params,
    Ode2Params,
    OdeOperator,
    pack,
    read_dataset_csv,
    unpack,
    validate_dataset,
    write_csv_columns,
    write_dataset_csv,
)


def _lfm(**kw):
    base = dict(
        outputs=(Ode1Params(1.0),),
        num_forces=1,
        lengthscales=[1.0],
        sensitivities=[[1.0]],
        noise_vars=[1.0],
    )
    base.update(kw)
    return LfmSpec(**base)


class TestSpecs:
    def test_ode1_requires_positive_gamma(self):
        with pytest.raises(DataError):
            Ode1Params(0.0)
        with pytest.raises(DataError):
            Ode1Params(-1.0)

    def test_ode2_field_domains(self):
        Ode2Params(1.0, 0.0, 2.0)  # undamped is a valid model
        with pytest.raises(DataError):
            Ode2Params(0.0, 1.0, 1.0)
        with pytest.raises(DataError):
            Ode2Params(1.0, -0.5, 1.0)
        with pytest.raises(DataError):
            Ode2Params(1.0, 1.0, 0.0)

    def test_operator_leading_coefficient(self):
        op = OdeOperator((2.0, 1.0, 0.5))
        assert op.order == 2
        with pytest.raises(DataError):
            OdeOperator((0.0, 1.0))

    def test_shape_validation(self):
        with pytest.raises(DataError):
            _lfm(sensitivities=[[1.0, 2.0]])
        with pytest.raises(DataError):
            _lfm(lengthscales=[1.0, 2.0])
        with pytest.raises(DataError):
            _lfm(noise_vars=[1.0, 1.0])
        with pytest.raises(DataError):
            _lfm(lengthscales=[-1.0])
        with pytest.raises(DataError):
            _lfm(noise_vars=[0.0])

    def test_arrays_are_readonly(self):
        spec = _lfm()
        with pytest.raises(ValueError):
            spec.lengthscales[0] = 2.0

    def test_mogp_spec(self):
        spec = MogpSpec(2, [1.0, 2.0], 1, [1.0], [[1.0], [1.0]], [0.1, 0.1])
        assert spec.num_outputs == 2
        with pytest.raises(DataError):
            MogpSpec(0, [1.0], 1, [1.0], [[1.0]], [0.1])
        with pytest.raises(DataError):
            MogpSpec(1, [-1.0], 1, [1.0], [[1.0]], [0.1])


class TestPacking:
    def test_single_ode1_layout(self):
        """gamma=1, ell=1, sigma^2=1, S=1 packs to (0,0,0,1): three logs of
        one and the raw sensitivity."""
        v = pack(_lfm())
        assert_allclose(v.values, [0.0, 0.0, 0.0, 1.0], atol=0)
        assert v.labels == (
            "log_gamma[d=1]",
            "log_lengthscale[q=1]",
            "log_noise_var[d=1]",
            "sensitivity[d=1,q=1]",
        )

    def test_round_trip_mixed_operators(self):
        spec = LfmSpec(
            (Ode1Params(0.4), Ode2Params(1.5, 2.0, 3.0), OdeOperator((1.0, -2.0, 4.0))),
            2,
            [0.7, 1.3],
            [[1.0, -0.5], [0.2, 0.9], [-1.1, 0.0]],
            [0.1, 0.2, 0.3],
        )
        rebuilt = unpack(pack(spec), spec)
        assert rebuilt.outputs[0].gamma == pytest.approx(0.4, rel=1e-12)
        assert rebuilt.outputs[1].spring == pytest.approx(3.0, rel=1e-12)
        assert rebuilt.outputs[2].coeffs == spec.outputs[2].coeffs
        assert_allclose(rebuilt.lengthscales, spec.lengthscales, rtol=1e-12)
        assert_allclose(rebuilt.sensitivities, spec.sensitivities, rtol=0)
        assert_allclose(rebuilt.noise_vars, spec.noise_vars, rtol=1e-12)

    def test_round_trip_mogp(self):
        spec = MogpSpec(2, [1.5, 0.5], 2, [1.0, 2.0], [[1.0, 0.0], [0.5, -1.0]], [0.1, 0.2])
        rebuilt = unpack(pack(spec), spec)
        assert_allclose(rebuilt.inv_widths, spec.inv_widths, rtol=1e-12)
        assert rebuilt.input_dim == 2

    def test_zero_damper_cannot_pack(self):
        spec = _lfm(outputs=(Ode2Params(1.0, 0.0, 2.0),))
        with pytest.raises(DataError, match="damper"):
            pack(spec)

    def test_noise_floor_applied_on_unpack(self):
        spec = _lfm()
        v = pack(spec).values.copy()
        v[2] = math.log(1e-300)
        rebuilt = unpack(v, spec)
        assert rebuilt.noise_vars[0] == NOISE_FLOOR

    def test_pack_rejects_non_spec(self):
        with pytest.raises(DataError, match="cannot pack"):
            pack(SimpleNamespace(num_outputs=1, num_forces=1))

    def test_unpack_rejects_missized_mogp_vector(self):
        spec = MogpSpec(2, [1.0, 2.0], 1, [1.0], [[1.0], [0.5]], [0.1, 0.2])
        size = len(pack(spec))
        for n in (size - 1, size + 1):
            with pytest.raises(DataError, match=f"expected {size}"):
                unpack(np.zeros(n), spec)

    def test_unpack_rejects_bad_vectors(self):
        spec = _lfm()
        with pytest.raises(DataError):
            unpack(np.zeros(3), spec)
        bad = pack(spec).values.copy()
        bad[1] = np.nan
        with pytest.raises(DataError, match="slot 1"):
            unpack(bad, spec)


class TestDataset:
    def test_row_order_preserved(self):
        data = Dataset([2, 1, 2], [0.5, 1.0, 0.0], [1.0, 2.0, 3.0])
        assert data.output_ids.tolist() == [2, 1, 2]
        assert data.inputs.tolist() == [0.5, 1.0, 0.0]

    def test_stacked_constructor(self):
        data = Dataset.stacked([[0.0, 1.0], [2.0]], [[1.0, 2.0], [3.0]])
        assert data.output_ids.tolist() == [1, 1, 2]
        assert len(data) == 3

    def test_validate_output_range(self):
        spec = _lfm()
        with pytest.raises(DataError, match="output_id 2"):
            validate_dataset(Dataset([2], [1.0], [0.0]), spec)

    def test_validate_negative_time(self):
        with pytest.raises(DataError, match="negative time"):
            validate_dataset(Dataset([1], [-0.5], [0.0]), _lfm())

    def test_validate_lfm_needs_scalar_times(self):
        with pytest.raises(DataError, match="scalar time"):
            validate_dataset(Dataset([1], [[1.0, 2.0]], [0.0]), _lfm())

    def test_validate_rejects_non_spec(self):
        with pytest.raises(DataError, match="unsupported spec type"):
            validate_dataset(Dataset([1], [1.0], [0.0]), SimpleNamespace(num_outputs=1))

    def test_validate_mogp_dimension(self):
        spec = MogpSpec(2, [1.0], 1, [1.0], [[1.0]], [0.1])
        with pytest.raises(DataError, match="dimension"):
            validate_dataset(Dataset([1], [[1.0, 2.0, 3.0]], [0.0]), spec)

    def test_empty_dataset_is_valid(self):
        validate_dataset(Dataset([], [], []), _lfm())


class TestCsv:
    def test_lfm_round_trip(self, tmp_path):
        path = tmp_path / "d.csv"
        data = Dataset([1, 2, 1], [0.1, 0.2, 0.30000000000000004], [1.5, -0.25, 1e-17])
        write_dataset_csv(path, data)
        back = read_dataset_csv(path)
        assert back.output_ids.tolist() == data.output_ids.tolist()
        assert_allclose(back.inputs, data.inputs, rtol=0, atol=0)
        assert_allclose(back.y, data.y, rtol=0, atol=0)

    def test_mogp_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        data = Dataset([1, 2], [[0.1, 0.2], [0.3, 0.4]], [1.0, 2.0])
        write_dataset_csv(path, data)
        back = read_dataset_csv(path)
        assert back.inputs.shape == (2, 2)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("output_id,t,y\n1,0.5,1.0\n1,oops,2.0\n")
        with pytest.raises(DataError, match="bad.csv:3"):
            read_dataset_csv(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("output_id,t,y\n1,0.5\n")
        with pytest.raises(DataError, match="bad.csv:2"):
            read_dataset_csv(path)

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,y\n0.5,1.0\n")
        with pytest.raises(DataError, match="output_id"):
            read_dataset_csv(path)

    def test_missing_y_allowed_when_optional(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("output_id,t\n1,0.5\n2,1.5\n")
        data = read_dataset_csv(path, require_y=False)
        assert len(data) == 2
        with pytest.raises(DataError, match="missing y"):
            read_dataset_csv(path)


def refuse_c_parser(*args, **kwargs):
    raise ValueError("C parser disabled")


class TestCsvParsers:
    """The C-parsed read and the per-line parser it falls back to agree."""

    @staticmethod
    def read_both(path, monkeypatch, **kw):
        """(dataset via numpy's parser, dataset via the per-line parser, whether
        numpy's parser served the first)."""
        loadtxt = np.loadtxt
        served = []

        def spy(*args, **kwargs):
            table = loadtxt(*args, **kwargs)
            served.append(len(table))
            return table

        monkeypatch.setattr(np, "loadtxt", spy)
        fast = read_dataset_csv(path, **kw)
        monkeypatch.setattr(np, "loadtxt", refuse_c_parser)
        slow = read_dataset_csv(path, **kw)
        return fast, slow, bool(served)

    @staticmethod
    def assert_same(a, b):
        for x, y in [(a.output_ids, b.output_ids), (a.inputs, b.inputs), (a.y, b.y)]:
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.flags.c_contiguous and y.flags.c_contiguous
            assert x.tobytes() == y.tobytes()  # nan payloads and signed zeros too

    @pytest.mark.parametrize(
        "text,kw",
        [
            ("output_id,t,y\r\n1,0.5,1.0\r\n2,1.5,-2.25\r\n", {}),
            ("output_id,t,y\n1,0.5,1.0\n\n2,1.5,3\n\n", {}),
            ("output_id,t,y\r1,0.5,1.0\r2,1.5,3\r", {}),
            ("output_id , t , y \n 1 , 0.5 ,\t1.0 \n+2, 01.5 ,-0.0\n", {}),
            ("output_id,t,y\n1,nan,inf\n2,-Infinity,-nan\n1,1e-320,1e400\n", {}),
            ("output_id,x1,x2,x3,y\n1,0.1,-0.2,3e5,1.0\n2,0.3,0.4,-5,2.0\n", {}),
            ("output_id,t\n1,0.5\n2,1.5\n", {"require_y": False}),
            ("output_id,x1,x2\n1,0.5,1\n2,1.5,2", {"require_y": False}),
        ],
        ids=["crlf", "blank-lines", "cr", "padded", "nan-inf", "mogp", "no-y", "mogp-no-y"],
    )
    def test_c_parser_reads_like_per_line_parser(self, tmp_path, monkeypatch, text, kw):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        fast, slow, served = self.read_both(path, monkeypatch, **kw)
        assert served  # numpy's parser read this file
        self.assert_same(fast, slow)

    @pytest.mark.parametrize(
        "text",
        [
            "output_id,t,y\n",
            "output_id,t,y\n1,0.5,1.0\n   \n2,1.5,3\n",
            'output_id,t,y\n"1","0.5",1.0\n',
            "output_id,t,y\n\u0661,0.5,1.0\n",
            "output_id,t,y\n1,1_0,2\n",
        ],
        ids=["header-only", "whitespace-line", "quoted", "non-ascii-digit", "underscore"],
    )
    def test_fallback_reads_what_the_c_parser_refuses(self, tmp_path, monkeypatch, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        fast, slow, served = self.read_both(path, monkeypatch)
        assert not served
        self.assert_same(fast, slow)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("output_id,t,y\n1,0.5,1.0\n1,oops,2.0\n",
             "d.csv:3: could not convert string to float: 'oops'"),
            ("output_id,t,y\n1,0.5\n", "d.csv:2: expected 3 fields, got 2"),
            ("output_id,t,y\n1,0.5,1,4\n", "d.csv:2: expected 3 fields, got 4"),
            ("output_id,t,y\n1.0,0.5,1\n",
             "d.csv:2: invalid literal for int() with base 10: '1.0'"),
            ("output_id,t,y\n1,0.5,1\n2,,1\n", "d.csv:3: could not convert string to float: ''"),
            ("output_id,t,y\n1,0.5,1 # note\n",
             "d.csv:2: could not convert string to float: '1 # note'"),
            ("output_id,t,y\n\x1c1,0.5,1\n",
             "d.csv:2: invalid literal for int() with base 10: '\\x1c1'"),
            # numpy's parser would read this id as 4621
            ("output_id,t,y\n\u01fe1,0.5,1\n",
             "d.csv:2: invalid literal for int() with base 10: '\u01fe1'"),
        ],
        ids=["bad-float", "short-row", "long-row", "float-id", "empty-field", "comment",
             "control-char", "non-ascii-letter"],
    )
    def test_malformed_rows_raise_per_line_messages(self, tmp_path, monkeypatch, text, message):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        with pytest.raises(DataError) as fast:
            read_dataset_csv(path)
        monkeypatch.setattr(np, "loadtxt", refuse_c_parser)
        with pytest.raises(DataError) as slow:
            read_dataset_csv(path)
        assert str(fast.value) == str(slow.value)
        assert re.search(re.escape(message) + "$", str(fast.value))


def csv_writer_reference(path, header, rows):
    """Row-wise writer: ``csv.writer`` with floats formatted by ``repr``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(x) if isinstance(x, float) else x for x in row])


class TestColumnWriter:
    def test_bytes_match_csv_writer(self, tmp_path):
        ids = np.array([1, 2, 3, 10, 2, 1])
        vals = np.array([-0.0, 5e-324, 0.1, 1e22, np.nan, np.inf])
        write_csv_columns(tmp_path / "cols.csv", ["id", "v"], [ids, vals])
        csv_writer_reference(tmp_path / "rows.csv", ["id", "v"],
                             zip(ids.tolist(), vals.tolist()))
        got = (tmp_path / "cols.csv").read_bytes()
        assert got == (tmp_path / "rows.csv").read_bytes()
        assert b"-0.0\r\n" in got and b"5e-324" in got and b"1e+22" in got

    def test_mogp_dataset_bytes_match_csv_writer(self, tmp_path):
        rng = np.random.default_rng(4)
        data = Dataset(rng.integers(1, 4, 7), rng.normal(size=(7, 3)), rng.normal(size=7))
        write_dataset_csv(tmp_path / "cols.csv", data)
        csv_writer_reference(
            tmp_path / "rows.csv", ["output_id", "x1", "x2", "x3", "y"],
            ([int(d), *x, y] for d, x, y in
             zip(data.output_ids, data.inputs.tolist(), data.y.tolist())),
        )
        assert (tmp_path / "cols.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    @pytest.mark.parametrize("columns", [[], [np.empty(0, int), np.empty(0)]],
                             ids=["no-columns", "no-rows"])
    def test_empty_table_is_header_only(self, tmp_path, columns):
        write_csv_columns(tmp_path / "e.csv", ["output_id", "t"], columns)
        assert (tmp_path / "e.csv").read_bytes() == b"output_id,t\r\n"


@pytest.fixture
def forks(monkeypatch):
    """The pids ``os.fork`` returns to this process; the process may run on two CPUs."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(features, "_helper_count", lambda: 1)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def raise_in_child(monkeypatch):
    """Make the row formatter raise in a forked child only."""
    parent, row_lines = os.getpid(), model._row_lines

    def rows_or_raise(*args):
        if os.getpid() != parent:
            raise RuntimeError("formatter failed in the child")
        return row_lines(*args)

    monkeypatch.setattr(model, "_row_lines", rows_or_raise)


def wide_table(rows, seed=0):
    """Four columns of ``rows`` rows: ids, and floats of several magnitudes."""
    rng = np.random.default_rng(seed + rows)
    return [rng.integers(1, 12, rows), rng.uniform(0.0, 5.0, rows),
            rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, rows), rng.normal(size=rows)]


def reference_bytes(tmp_path, header, columns):
    csv_writer_reference(tmp_path / "rows.csv", header,
                         zip(*(np.asarray(col).tolist() for col in columns)))
    return (tmp_path / "rows.csv").read_bytes()


class TestForkedColumnWriter:
    """Tables of ``model.FORK_MIN_CELLS`` cells or more: a forked child formats the second half."""

    @pytest.mark.parametrize("delta", [-1, 0, 1, 1001], ids=["below", "at", "above", "odd"])
    def test_same_bytes_with_and_without_the_child(self, tmp_path, forks, monkeypatch, delta):
        header = ["output_id", "t", "mean", "var"]
        columns = wide_table(model.FORK_MIN_CELLS // 4 + delta)
        write_csv_columns(tmp_path / "two.csv", header, columns)
        assert len(forks) == (delta >= 0)
        monkeypatch.setattr(features, "_helper_count", lambda: 0)
        write_csv_columns(tmp_path / "one.csv", header, columns)
        assert len(forks) == (delta >= 0)
        got = (tmp_path / "two.csv").read_bytes()
        assert got == (tmp_path / "one.csv").read_bytes()
        assert got == reference_bytes(tmp_path, header, columns)
        assert_no_child_left()

    def test_edge_values_and_int_columns(self, tmp_path, forks):
        edges = [-0.0, 5e-324, np.nan, np.inf, -np.inf, 1e22, 0.1, -1.5e-308]
        rows = model.FORK_MIN_CELLS // 3 + 1
        floats = np.resize(edges, rows)
        ints = np.resize([0, -7, 2**40, 1], rows)
        header = ["id", "v", "w"]
        columns = [ints, floats, floats[::-1].copy()]
        write_csv_columns(tmp_path / "cols.csv", header, columns)
        assert len(forks) == 1
        got = (tmp_path / "cols.csv").read_bytes()
        assert got == reference_bytes(tmp_path, header, columns)
        child_rows = b"\r\n".join(got.split(b"\r\n")[1 + rows // 2 :])
        for cell in (b"-0.0", b"5e-324", b"nan", b"-inf", b"1e+22", b"-1.5e-308", b"1099511627776"):
            assert cell in child_rows
        assert_no_child_left()

    @pytest.mark.parametrize("failure", ["raises", "sends-half", "no-fork"])
    def test_a_failed_child_gives_the_same_bytes(self, tmp_path, forks, monkeypatch, failure):
        parent = os.getpid()
        if failure == "raises":
            raise_in_child(monkeypatch)
        elif failure == "sends-half":
            write = os.write

            def half_then_exit(fd, data):
                if os.getpid() == parent or len(data) <= 8:  # the length goes through
                    return write(fd, data)
                write(fd, data[: len(data) // 2])
                os._exit(0)

            monkeypatch.setattr(os, "write", half_then_exit)
        else:
            def no_fork():
                raise OSError("fork refused")

            monkeypatch.setattr(os, "fork", no_fork)
        header = ["output_id", "t", "mean", "var"]
        columns = wide_table(model.FORK_MIN_CELLS // 4 + 3)
        write_csv_columns(tmp_path / "cols.csv", header, columns)
        assert len(forks) == (failure != "no-fork")
        assert (tmp_path / "cols.csv").read_bytes() == reference_bytes(tmp_path, header, columns)
        assert_no_child_left()

    def test_no_child_outlives_a_failed_open(self, tmp_path, forks):
        columns = wide_table(model.FORK_MIN_CELLS // 4)
        with pytest.raises(OSError):
            write_csv_columns(tmp_path, ["output_id", "t", "mean", "var"], columns)
        assert len(forks) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("failure", [False, True], ids=["child-sends", "child-raises"])
    def test_a_process_that_ignores_sigchld(self, tmp_path, forks, monkeypatch, failure):
        # the kernel reaps the child itself, so waitpid finds no child
        if failure:
            raise_in_child(monkeypatch)
        header = ["output_id", "t", "mean", "var"]
        columns = wide_table(model.FORK_MIN_CELLS // 4)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            write_csv_columns(tmp_path / "cols.csv", header, columns)
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert len(forks) == 1
        assert (tmp_path / "cols.csv").read_bytes() == reference_bytes(tmp_path, header, columns)
        assert_no_child_left()

    def test_unflushed_text_is_printed_once(self, tmp_path):
        # standard output is a pipe, so the text before the write stays in
        # the buffer that the forked child shares
        script = (
            "import os, sys\n"
            "import numpy as np\n"
            "from lfmrff import features, model\n"
            "features._helper_count = lambda: 1\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "print('before the write', end='')\n"
            "rows = model.FORK_MIN_CELLS // 2\n"
            "columns = [np.arange(rows), np.linspace(0, 1, rows)]\n"
            "model.write_csv_columns(sys.argv[1], ['t', 'y'], columns)\n"
            "print(f' and after; {len(forks)} fork')\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(model.__file__)))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        child = subprocess.run([sys.executable, "-c", script, str(tmp_path / "t.csv")],
                               env=env, capture_output=True, text=True, timeout=120, check=True)
        assert child.stdout == "before the write and after; 1 fork\n"
        rows = model.FORK_MIN_CELLS // 2
        assert (tmp_path / "t.csv").read_bytes() == reference_bytes(
            tmp_path, ["t", "y"], [np.arange(rows), np.linspace(0, 1, rows)])
