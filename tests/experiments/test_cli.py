"""Tests for the ``python -m repro.experiments`` CLI."""

import pytest

from repro.experiments.__main__ import main


class TestCli:
    def test_runs_one_experiment(self, capsys):
        assert main(["T6"]) == 0
        out = capsys.readouterr().out
        assert "[T6]" in out
        assert "intersection" in out

    def test_lowercase_ids_accepted(self, capsys):
        assert main(["f4"]) == 0
        assert "[F4]" in capsys.readouterr().out

    def test_multiple_ids_in_order(self, capsys):
        assert main(["T6", "F4"]) == 0
        out = capsys.readouterr().out
        assert out.index("[T6]") < out.index("[F4]")

    def test_unknown_id_is_an_argparse_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["T99"])
        assert excinfo.value.code == 2

    def test_seed_flag_accepted(self, capsys):
        assert main(["T6", "--seed", "3"]) == 0
        assert "[T6]" in capsys.readouterr().out

    def test_columnar_engine_warns_without_numpy(self, capsys, monkeypatch):
        """Without numpy, ``--engine columnar`` says once, on stderr and
        before the tables, that the matrix engines cannot engage; the
        tables are the object engine's."""
        import repro.core.columnar as columnar_module
        from repro.runtime.columnar_engine import NUMPY_REASON

        assert main(["F1", "--engine", "object"]) == 0
        reference = capsys.readouterr()
        assert reference.err == ""
        monkeypatch.setattr(columnar_module, "_np", None)
        assert main(["F1", "--engine", "columnar"]) == 0
        columnar = capsys.readouterr()
        assert columnar.out == reference.out
        warnings = columnar.err.splitlines()
        assert len(warnings) == 1
        assert warnings[0].startswith("warning: --engine columnar cannot engage")
        assert NUMPY_REASON in warnings[0]

    def test_backend_flag_runs_churn_family(self, capsys):
        assert main(["C1", "--backend", "multiprocess"]) == 0
        out = capsys.readouterr().out
        assert "[C1]" in out
        assert "backend=multiprocess" in out

    def test_backend_flag_validated(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["C1", "--backend", "gpu"])
        assert excinfo.value.code == 2

    def test_socket_backend_runs_churn_family(self, capsys):
        assert main(["C3", "--backend", "socket"]) == 0
        out = capsys.readouterr().out
        assert "[C3]" in out
        assert "backend=socket" in out

    def test_listen_requires_socket_backend(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["C1", "--backend", "multiprocess", "--listen", "0.0.0.0:7000"])
        assert excinfo.value.code == 2

    def test_listen_and_connect_addresses_validated(self, capsys):
        for argv in (
            ["C1", "--backend", "socket", "--listen", "nonsense"],
            ["--connect", "7000"],
            # ports past 65535 are usage errors, not a socket-layer
            # OverflowError or a worker that retries and serves nothing
            ["C1", "--backend", "socket", "--listen", "127.0.0.1:99999"],
            ["--connect", "127.0.0.1:99999"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert "expected HOST:PORT with a port in 0-65535" in err
            assert "Traceback" not in err

    def test_connect_rejects_experiment_arguments(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["C1", "--connect", "127.0.0.1:7000"])
        assert excinfo.value.code == 2

    def test_listen_connect_round_trip(self, capsys):
        """The multi-machine split, on one box: worker threads serve
        the shard worlds of a real --listen experiment run, looping
        from one workload cell to the next until the parent is done."""
        import socket
        import threading

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        workers = [
            threading.Thread(
                target=main, args=([f"--connect=127.0.0.1:{port}"],), daemon=True
            )
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        assert main(["C1", "--backend", "socket", "--listen",
                     f"127.0.0.1:{port}"]) == 0
        for worker in workers:
            worker.join(timeout=30)
        assert not any(worker.is_alive() for worker in workers)
        out = capsys.readouterr().out
        assert "[C1]" in out
        assert "backend=socket:127.0.0.1" in out
