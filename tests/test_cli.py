import csv
import dataclasses
import io
import json
import multiprocessing
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from ris_sop import cli, mcsim
from ris_sop.cli import (
    AXES,
    CSV_HEADER,
    EVALUATORS,
    ROUTES,
    SweepRow,
    SweepSpec,
    emit_csv,
    main,
    parse_config,
    run_sweep,
)
from ris_sop.errors import AccuracyError, ConfigError
from ris_sop.mcsim import SCHEMES, estimate_schemes_paired, estimate_sop
from ris_sop.sysmodel import SystemConfig

FAST = json.dumps(
    {
        "base": {"n_elements": 16, "n_users": 2, "gamma0_db": 10.0},
        "sweep": {"gamma0_db": [0.0, 10.0]},
        "schemes": ["OUS", "NOMA_BU", "NOMA_WU"],
        "evaluators": ["closed", "asymptotic", "mc"],
        "mc_trials": 2000,
        "seed": 9,
    }
)


def _read_csv(text):
    """The CSV's data rows as {column: cell} dicts, read by the stdlib."""
    return list(csv.DictReader(io.StringIO(text)))


class TestParseConfig:
    def test_empty_object_gives_default_single_point(self):
        spec = parse_config("{}")
        assert spec.base == SystemConfig()
        assert spec.axes == (("gamma0_db", (20.0,)),)
        assert spec.schemes == ("OUS",)
        assert "closed" in spec.evaluators and "mc" in spec.evaluators

    def test_rejects_invalid_values(self):
        with pytest.raises(ConfigError):
            parse_config(json.dumps({"base": {"n_users": 0}}))
        with pytest.raises(ConfigError):
            parse_config(json.dumps({"mc_trials": 0}))
        with pytest.raises(ConfigError):
            parse_config(json.dumps({"seed": -1}))

    def test_unknown_keys_named(self):
        with pytest.raises(ConfigError, match="wavelength"):
            parse_config(json.dumps({"base": {"wavelength": 1.0}}))
        with pytest.raises(ConfigError, match="schemas"):
            parse_config(json.dumps({"schemas": ["OUS"]}))
        with pytest.raises(ConfigError, match="z0"):
            parse_config(json.dumps({"sweep": {"z0": [40.0]}}))

    def test_malformed_json_reports_position(self):
        with pytest.raises(ConfigError, match=r"line 1, column"):
            parse_config("{oops}")

    def test_round_trip(self):
        spec = parse_config(FAST)
        assert parse_config(spec.to_json()) == spec

    def test_hand_built_spec_writes_the_json_routes_csv(self):
        doc = parse_config('{"base": {"d_sr": 45}, "evaluators": ["closed"]}')
        by_hand = SweepSpec(
            base=SystemConfig(d_sr=45),
            axes=(("gamma0_db", (20.0,)),),
            schemes=("OUS",),
            evaluators=("closed",),
            mc_trials=100_000,
            seed=1,
        )
        assert emit_csv(run_sweep(by_hand)) == emit_csv(run_sweep(doc))

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"mc_trials": 0}, "mc_trials must be a positive integer, got 0"),
            ({"seed": 2**64}, "seed must be an integer in [0, 2^64), got %d" % 2**64),
            ({"evaluators": ("clsoed",)},
             f"unknown evaluator 'clsoed'; expected subset of {EVALUATORS}"),
            ({"schemes": ("NOMA_XX",)},
             f"unknown scheme 'NOMA_XX'; expected subset of {SCHEMES}"),
            ({"evaluators": ()}, "'evaluators' must be a non-empty list"),
            ({"schemes": "OUS"}, "'schemes' must be a non-empty list"),
            ({"axes": (("z0", (40.0, 50.0)),)}, "unknown key 'z0' in 'sweep'"),
            ({"axes": (("gamma0_db", ()),)},
             "sweep axis 'gamma0_db' must be a non-empty list"),
            ({"axes": (("foo", (1,)),)}, "unknown key 'foo' in 'sweep'"),
            ({"axes": (("d_re", (30.0,)), ("d_re", (40.0,)))},
             "sweep axis 'd_re' given twice"),
            ({"axes": (("d_re", (30.0, -5)),)},
             "invalid sweep axis 'd_re' value -5: d_re must be positive, got -5.0"),
            ({"axes": (("gamma0_db", (0.0,) * 1001), ("n_elements", (1,) * 1001))},
             "grid has 1002001 points, cap is 1000000"),
            ({"schemes": ("OUS", "NOMA_WU"), "evaluators": ("closed", "quad_exact")},
             "no requested evaluator serves scheme 'NOMA_WU'; only 'mc' does"),
        ],
    )
    def test_every_spec_checks_trials_and_seed(self, change, message):
        with pytest.raises(ConfigError) as info:
            dataclasses.replace(parse_config("{}"), **change)
        assert str(info.value) == message

    def test_every_spec_stores_schemes_and_evaluators_in_canonical_order(self):
        spec = dataclasses.replace(
            parse_config("{}"), schemes=["NOMA_WU", "OUS"], evaluators=("mc", "closed")
        )
        assert spec.schemes == ("OUS", "NOMA_WU")
        assert spec.evaluators == ("closed", "mc")

    def test_every_spec_stores_its_axes_in_canonical_order(self):
        spec = dataclasses.replace(
            parse_config("{}"), axes=[("d_re", [30, 31.5]), ("n_users", (2,))]
        )
        assert spec.axes == (("n_users", (2,)), ("d_re", (30.0, 31.5)))
        assert type(spec.axes[1][1][0]) is float
        assert dataclasses.replace(spec, axes=()).axes == (("gamma0_db", (20.0,)),)
        assert parse_config(spec.to_json()) == spec

    def test_axis_values_are_stored_as_the_fields_type(self):
        spec = parse_config('{"sweep": {"d_re": [30, 31.5], "n_users": [2]}}')
        assert spec.axes == (("n_users", (2,)), ("d_re", (30.0, 31.5)))
        assert type(spec.axes[1][1][0]) is float

    def test_grid_cap(self):
        doc = {"sweep": {"gamma0_db": list(map(float, range(1001))),
                         "n_elements": list(range(1, 1002))}}
        with pytest.raises(ConfigError, match="cap"):
            parse_config(json.dumps(doc))

    def test_variate_cap(self):
        # Per slot the default point (N=64, M=3, OUS) draws 257 variates; the
        # cap admits the most whole trials that fit and refuses one more.
        spec = parse_config("{}")
        assert cli._work(spec)[2] == 257
        trials = cli._MAX_VARIATES // 257
        assert dataclasses.replace(spec, mc_trials=trials).mc_trials == trials
        with pytest.raises(ConfigError) as info:
            dataclasses.replace(spec, mc_trials=trials + 1)
        assert str(info.value) == (
            "Monte Carlo draws 257 variates per slot summed over the grid "
            f"x {trials + 1} trials = {257 * (trials + 1)} variates, "
            f"cap is {cli._MAX_VARIATES}")
        # Without the Monte Carlo evaluator nothing is drawn or capped.
        analytic = dataclasses.replace(spec, evaluators=("closed",), mc_trials=trials + 1)
        assert analytic.mc_trials == trials + 1


@pytest.fixture(scope="module")
def table():
    return run_sweep(parse_config(FAST))


class TestRunSweep:

    def test_row_layout(self, table):
        assert len(table) == 6  # 2 grid points x 3 schemes
        assert [r.scheme for r in table[:3]] == ["OUS", "NOMA_BU", "NOMA_WU"]
        assert table[0].gamma0_db == 0.0 and table[3].gamma0_db == 10.0

    def test_noma_rows_have_no_analytic_columns(self, table):
        for row in table:
            if row.scheme == "OUS":
                assert row.sop_closed is not None
                assert row.sop_asym is not None
            else:
                assert row.sop_closed is None
                assert row.sop_asym is None
                assert row.sop_quad_exact is None
            assert row.sop_mc is not None
            assert row.mc_trials == 2000
            assert row.error is None

    def test_csv_round_trip(self, table):
        # Shortest round-trip decimals and empty nulls; no error column.
        text = emit_csv(table)
        assert text.startswith(CSV_HEADER + "\n")
        records = _read_csv(text)
        assert len(records) == len(table)
        for row, record in zip(table, records):
            assert list(record) == CSV_HEADER.split(",")
            for name, cell in record.items():
                value = getattr(row, name)
                if value is None:
                    assert cell == "", name
                elif isinstance(value, float):
                    assert float(cell) == value and repr(float(cell)) == cell, name
                else:
                    assert type(value)(cell) == value, name

    def test_empty_table(self):
        assert emit_csv([]) == CSV_HEADER + "\n"

    def test_field_count(self, table):
        for line in emit_csv(table).strip().split("\n")[1:]:
            assert len(line.split(",")) == 17

    def test_worker_count_invariance(self):
        spec = parse_config(FAST)
        csv1 = emit_csv(run_sweep(spec, workers=1))
        csv4 = emit_csv(run_sweep(spec, workers=4))
        assert csv1 == csv4

    def test_tiny_values_floored_to_zero(self):
        spec = parse_config(json.dumps({
            "base": {"n_elements": 512, "n_users": 3, "gamma0_db": 60.0},
            "evaluators": ["closed"],
        }))
        (row,) = run_sweep(spec)
        assert row.sop_closed == 0.0

    def test_errors_recorded_not_raised(self):
        spec = parse_config(json.dumps({
            "base": {"n_users": 1, "n_elements": 16},
            "schemes": ["NOMA_BU"],
            "evaluators": ["mc"],
            "mc_trials": 10,
        }))
        (row,) = run_sweep(spec)
        assert row.error is not None and "mc" in row.error
        assert row.sop_mc is None

    def test_every_result_column_comes_from_exactly_one_route(self):
        spec = parse_config(FAST)
        filled = []
        for name, route in ROUTES.items():
            results = route.run(spec, spec.base, spec.seed)
            assert set(results) == set(route.schemes), name
            columns = {tuple(route.cells(result, spec.seed))
                       for result in results.values()}
            assert len(columns) == 1, name  # the same cells for every scheme served
            filled.extend(columns.pop())
        result_fields = [f.name for f in dataclasses.fields(SweepRow)
                         if f.name not in (*AXES, "scheme", "error")]
        assert sorted(filled) == sorted(result_fields)
        assert EVALUATORS == tuple(ROUTES)

    def test_a_raising_point_cancels_the_queued_ones(self, monkeypatch):
        # Ctrl-C arrives as an exception that escapes a point; the sweep
        # must stop after the points already running, not run the grid out.
        ran = []

        def evaluate(spec, index, cfg, *, executor):
            ran.append(index)
            if index == 0:
                raise KeyboardInterrupt
            time.sleep(0.05)
            return []

        monkeypatch.setattr(cli, "_evaluate_point", evaluate)
        spec = parse_config(json.dumps({
            "sweep": {"gamma0_db": list(map(float, range(40)))},
            "evaluators": ["closed"],
        }))
        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec, workers=2)
        assert len(ran) < 10


#: One grid point per n_users value: M = 1 has no NOMA pair.
PAIRED = {
    "base": {"n_elements": 16, "gamma0_db": 10.0, "r_th": 0.1},
    "sweep": {"n_users": [1, 2, 3]},
    "evaluators": ["mc"],
    "mc_trials": 3000,
    "seed": 5,
}


class TestOnePassPerPoint:
    @staticmethod
    def _sweep(doc):
        spec = parse_config(json.dumps(doc))
        rows = run_sweep(spec)
        per_point = len(spec.schemes)
        for i, cfg in enumerate(cli._grid_points(spec)):
            group = rows[i * per_point:(i + 1) * per_point]
            yield spec, cli._mix_seed(spec.seed, i), cfg, {r.scheme: r for r in group}

    @staticmethod
    def _assert_row_is(row, est):
        assert (row.sop_mc, row.sop_mc_ci_low, row.sop_mc_ci_high, row.mc_trials) == (
            est.sop_hat, est.ci_low, est.ci_high, est.trials)

    @pytest.mark.parametrize("schemes", [["OUS", "NOMA_BU", "NOMA_WU"],
                                         ["OUS", "NOMA_BU"], ["OUS", "NOMA_WU"]])
    def test_ous_row_comes_from_the_paired_pass(self, schemes):
        for spec, seed, cfg, rows in self._sweep(dict(PAIRED, schemes=schemes)):
            if cfg.n_users == 1:
                self._assert_row_is(
                    rows["OUS"], estimate_sop(cfg, "OUS", spec.mc_trials, seed))
                for scheme in schemes[1:]:
                    assert rows[scheme].sop_mc is None
                    assert "NOMA pairing needs n_users >= 2" in rows[scheme].error
                continue
            paired = estimate_schemes_paired(cfg, spec.mc_trials, seed)
            for scheme in schemes:
                self._assert_row_is(rows[scheme], paired[scheme])
                assert rows[scheme].error is None
            if "NOMA_BU" in rows:
                assert rows["NOMA_BU"].sop_mc >= rows["OUS"].sop_mc

    def test_ous_only_sweep_uses_the_ous_estimator(self):
        for spec, seed, cfg, rows in self._sweep(PAIRED):
            self._assert_row_is(
                rows["OUS"], estimate_sop(cfg, "OUS", spec.mc_trials, seed))

    @pytest.mark.parametrize("schemes", [["OUS"], ["OUS", "NOMA_BU", "NOMA_WU"],
                                         ["NOMA_WU"]])
    def test_one_monte_carlo_pass_per_point(self, schemes, monkeypatch):
        passes = []
        real = mcsim._per_chunk

        def counting(kernel, cfg, *args, **kwargs):
            passes.append(cfg.n_users)
            return real(kernel, cfg, *args, **kwargs)

        monkeypatch.setattr(mcsim, "_per_chunk", counting)
        list(self._sweep(dict(PAIRED, schemes=schemes, mc_trials=100)))
        ran = [1, 2, 3] if "OUS" in schemes else [2, 3]
        assert passes == ran


#: Eight Monte Carlo points of three chunks each, and a closed-form column.
POOLED = {
    "base": {"n_elements": 16, "r_th": 0.1},
    "sweep": {"gamma0_db": [0.0, 10.0, 20.0, 30.0], "n_users": [2, 3]},
    "schemes": ["OUS", "NOMA_BU", "NOMA_WU"],
    "evaluators": ["closed", "mc"],
    "mc_trials": 3 * mcsim.CHUNK_SLOTS,
    "seed": 3,
}


class _KernelFailure(Exception):
    pass


def _sweep_in_child(queue):
    queue.put(emit_csv(run_sweep(parse_config(json.dumps(POOLED)), workers=2)))


class TestSharedChunkPool:
    """``run_sweep`` runs every Monte Carlo chunk on one pool of its own."""

    @staticmethod
    def _watch(monkeypatch, fail_at=None):
        """Wrap both chunk kernels; the returned dict holds the most kernels
        seen running at once and the names of the threads that ran them.
        Every kernel at the (gamma0_db, n_users) point ``fail_at`` raises."""
        lock = threading.Lock()
        seen = {"live": 0, "peak": 0, "threads": set()}
        for name in ("_ous_chunk", "_noma_chunk"):
            def kernel(cfg, *args, real=getattr(mcsim, name)):
                with lock:
                    seen["live"] += 1
                    seen["peak"] = max(seen["peak"], seen["live"])
                    seen["threads"].add(threading.current_thread().name)
                try:
                    if (cfg.gamma0_db, cfg.n_users) == fail_at:
                        raise _KernelFailure("kernel failed")
                    time.sleep(0.002)  # widen the overlap of concurrent kernels
                    return real(cfg, *args)
                finally:
                    with lock:
                        seen["live"] -= 1
            monkeypatch.setattr(mcsim, name, kernel)
        return seen

    @pytest.mark.parametrize("workers", [1, 4])
    def test_one_chunk_pool_bounded_by_the_cpus(self, workers, monkeypatch):
        built = []

        class NamedPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None):
                built.append(f"pool{len(built)}")
                super().__init__(max_workers, thread_name_prefix=built[-1])

        monkeypatch.setattr(cli, "ThreadPoolExecutor", NamedPool)
        monkeypatch.setattr(mcsim, "ThreadPoolExecutor", NamedPool)
        seen = self._watch(monkeypatch)
        before = set(threading.enumerate())
        run_sweep(parse_config(json.dumps(POOLED)), workers=workers)
        assert {name.rsplit("_", 1)[0] for name in seen["threads"]} == {"pool0"}
        assert len(built) == (1 if workers == 1 else 2)
        assert 1 <= seen["peak"] <= mcsim._usable_cpus()
        assert set(threading.enumerate()) <= before

    @pytest.mark.parametrize("workers", [1, 4])
    def test_a_raising_kernel_fails_its_point_alone(self, workers, monkeypatch):
        spec = parse_config(json.dumps(POOLED))
        clean = run_sweep(spec, workers=workers)
        self._watch(monkeypatch, fail_at=(10.0, 3))
        before = set(threading.enumerate())
        rows = run_sweep(spec, workers=workers)
        assert set(threading.enumerate()) <= before
        assert len(rows) == len(clean)
        for row, want in zip(rows, clean):
            if (row.gamma0_db, row.n_users) != (10.0, 3):
                assert row == want
                continue
            assert row.error == "mc: kernel failed"
            assert row.sop_mc is None and row.mc_trials is None
            assert row.sop_closed == want.sop_closed

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_forked_child_can_sweep(self):
        # A chunk pool kept after a sweep would be copied into the child
        # without its threads, and the child's sweep would wait forever.
        expected = emit_csv(run_sweep(parse_config(json.dumps(POOLED)), workers=2))
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_sweep_in_child, args=(queue,))
        child.start()
        try:
            got = queue.get(timeout=60)
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
                child.join()
        assert got == expected
        assert child.exitcode == 0


class TestMain:
    @pytest.mark.parametrize("command", ["validate", "oracle", "sweep"])
    def test_a_config_that_is_not_utf8_is_reported(self, command, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"schemes": ["OUS\xff"]}')
        out = tmp_path / "o.csv"
        args = ["sweep", "--out", str(out)] if command == "sweep" else [command]
        assert main([*args, "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "0xff" in captured.err
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_validate_round_trips(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(FAST)
        assert main(["validate", "--config", str(path)]) == 0
        printed = capsys.readouterr().out
        assert parse_config(printed) == parse_config(FAST)

    #: Two gamma0 values over N in {4, 8} and M in {1, 3}, 100 trials.  Per
    #: slot an OUS pass draws N*M + N + 1 variates, a paired one 2*N*M + N + 1:
    #: 9, 17 (M = 1), 17, 33 (OUS at M = 3) and 29, 57 (paired at M = 3).
    @pytest.mark.parametrize("schemes, evaluators, slots, per_slot", [
        (["OUS", "NOMA_BU"], ["closed", "mc"], 800, 2 * (9 + 17 + 29 + 57)),
        (["OUS"], ["mc"], 800, 2 * (9 + 17 + 17 + 33)),
        (["NOMA_WU"], ["mc"], 400, 2 * (29 + 57)),  # M = 1 has no pair
        (["OUS"], ["closed"], 0, 0),
    ], ids=["mixed", "ous", "noma-only", "no-mc"])
    def test_validate_reports_the_work(
        self, schemes, evaluators, slots, per_slot, tmp_path, capsys, monkeypatch
    ):
        doc = {"sweep": {"gamma0_db": [0.0, 20.0], "n_elements": [4, 8],
                         "n_users": [1, 3]},
               "schemes": schemes, "evaluators": evaluators, "mc_trials": 100}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == parse_config(json.dumps(doc)).to_json() + "\n"
        assert captured.err == (
            f"work: 8 grid points, {slots} Monte Carlo slots, {per_slot} variates "
            f"per slot summed over the grid, {per_slot * 100} in all\n")

        # The sweep draws exactly that many variates.
        drawn, lock, real = [], threading.Lock(), mcsim._rng

        class Counting:
            def __init__(self, gen):
                self._gen = gen

            def __getattr__(self, name):
                def draw(*args, **kwargs):
                    out = getattr(self._gen, name)(*args, **kwargs)
                    with lock:
                        drawn.append(out.size)
                    return out
                return draw

        monkeypatch.setattr(mcsim, "_rng", lambda *key: Counting(real(*key)))
        run_sweep(parse_config(json.dumps(doc)), workers=2)
        assert sum(drawn) == per_slot * 100

    def test_validate_rejects(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"base": {"n_users": 0}}')
        assert main(["validate", "--config", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_sweep_writes_deterministic_csv(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "sweep": {"gamma0_db": [0.0, 20.0]},
            "evaluators": ["closed", "mc"],
            "mc_trials": 5000,
            "seed": 3,
        }))
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["sweep", "--config", str(path), "--out", str(out2),
                     "--workers", "4"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = _read_csv(out1.read_text())
        assert len(rows) == 2 and all(r["sop_mc"] != "" for r in rows)

    def test_sweep_trial_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"evaluators": ["mc"], "mc_trials": 50000}')
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out),
                     "--trials", "100"]) == 0
        (row,) = _read_csv(out.read_text())
        assert row["mc_trials"] == "100"

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--trials", "0", "mc_trials must be a positive integer, got 0"),
            ("--trials", str(10**10), "variates, cap is 1000000000000"),
            ("--seed", "-1", "seed must be an integer in [0, 2^64), got -1"),
            ("--seed", str(2**64), "seed must be an integer in [0, 2^64)"),
        ],
    )
    def test_sweep_rejects_out_of_range_overrides(
        self, tmp_path, capsys, flag, value, message
    ):
        path = tmp_path / "cfg.json"
        path.write_text('{"evaluators": ["mc"], "mc_trials": 100}')
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out),
                     flag, value]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "document, message",
        [
            ('{"sweep": {"d_re": [30, -5]}}', "sweep axis 'd_re' value -5"),
            ('{"sweep": {"gamma0_db": [0, NaN]}}', "sweep axis 'gamma0_db' value nan"),
            ('{"sweep": {"d_rd": [Infinity]}}', "d_rd must be finite, got inf"),
            ('{"sweep": {"r_th": [-Infinity]}}', "r_th must be finite, got -inf"),
            ('{"base": {"gamma0_db": NaN}, "evaluators": ["mc"]}',
             "invalid base configuration: gamma0_db must be finite, got nan"),
            ('{"base": {"d_sr": Infinity}}', "d_sr must be finite, got inf"),
            ('{"base": {"z0": -Infinity}}', "z0 must be finite, got -inf"),
            ('{"base": {"d_re": %s}}' % (10**400),
             "d_re: a 1329-bit integer leaves the float64 range"),
            ('{"sweep": {"d_re": [30, %s]}}' % (10**400),
             "d_re: a 1329-bit integer leaves the float64 range"),
            ('{"base": {"n_elements": %s}}' % (10**400),
             "n_elements: a 1329-bit integer leaves the float64 range"),
            ('{"sweep": {"n_users": [3, %s]}}' % (10**400),
             "n_users: a 1329-bit integer leaves the float64 range"),
            ('{"base": {"d_re": %s}}' % ("1" * 5000), "malformed JSON"),
            ('{"evaluators": [[1]]}', "unknown evaluator [1]"),
            ('{"schemes": [{}]}', "unknown scheme {}"),
            ('{"schemes": ["NOMA_BU"], "evaluators": ["closed"]}',
             "no requested evaluator serves scheme 'NOMA_BU'"),
        ],
        ids=["axis-negative", "axis-nan", "axis-inf", "axis-minus-inf",
             "base-nan", "base-inf", "base-minus-inf", "base-huge-float-field",
             "axis-huge-float-field", "base-huge-int-field", "axis-huge-int-field",
             "digit-limit", "evaluator-unhashable", "scheme-unhashable",
             "scheme-unserved"],
    )
    def test_every_subcommand_rejects_bad_values(
        self, tmp_path, capsys, document, message
    ):
        path = tmp_path / "cfg.json"
        path.write_text(document)
        out = tmp_path / "o.csv"
        for args in (["validate"], ["oracle"], ["sweep", "--out", str(out)]):
            assert main([*args, "--config", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and message in captured.err
        assert not out.exists()

    def test_sweep_reports_row_failures(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "base": {"n_users": 1, "n_elements": 16},
            "schemes": ["NOMA_WU"],
            "evaluators": ["mc"],
            "mc_trials": 10,
        }))
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        assert "row error" in capsys.readouterr().err

    def test_oracle_passes_on_default_grid(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "base": {"n_elements": 64, "n_users": 3},
            "sweep": {"gamma0_db": [0.0, 20.0, 40.0]},
        }))
        assert main(["oracle", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4  # three points plus the summary

    def test_oracle_reports_evaluator_errors_and_continues(
        self, tmp_path, capsys, monkeypatch
    ):
        exact = cli.sop_quad_exact_q

        def stalls_at_0db(cfg):
            if cfg.gamma0_db == 0.0:
                raise AccuracyError("quadrature stalled", value=0.0, error=1.0)
            return exact(cfg)

        monkeypatch.setattr(cli, "sop_quad_exact_q", stalls_at_0db)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sweep": {"gamma0_db": [0.0, 20.0]}}))
        assert main(["oracle", "--config", str(path)]) == 1
        first, second, summary = capsys.readouterr().out.strip().split("\n")
        assert first.startswith("point 0 ") and "AccuracyError" in first
        assert first.endswith("FAIL")
        assert second.startswith("point 1 ") and second.endswith("PASS")
        assert summary == "oracle: FAIL (1 points)"

    def test_oracle_tier_a_allows_the_closed_form_rounding(self, tmp_path, capsys):
        # Small SOPs: ~1e-9 at N=256, M=8, and 2.6e-10 at N=256, M=16, 50 dB,
        # the worst design-grid point.  A closed form assembled as 1 - total
        # carries ~2^M eps absolute there, up to 1.4e-2 of the value; split
        # at the branch point it meets 1e-6 relative plus 1e-15.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "base": {"n_elements": 256},
            "sweep": {"gamma0_db": [-5.0, 0.0, 50.0], "n_users": [8, 16]},
        }))
        assert main(["oracle", "--config", str(path)]) == 0
        assert capsys.readouterr().out.count("PASS") == 7

    def test_oracle_tier_a_catches_a_relative_error(
        self, tmp_path, capsys, monkeypatch
    ):
        closed = cli.sop_closed_form

        def biased(cfg):
            res = closed(cfg)
            return dataclasses.replace(res, value=res.value * (1 + 1e-5))

        monkeypatch.setattr(cli, "sop_closed_form", biased)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sweep": {"gamma0_db": [20.0]}}))
        assert main(["oracle", "--config", str(path)]) == 1
        assert capsys.readouterr().out.strip().endswith("oracle: FAIL (1 points)")

    def test_oracle_reports_an_out_of_range_linear_value(self, tmp_path, capsys):
        # d_sr = 1e-300 m is finite, but its path loss overflows float64.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sweep": {"d_sr": [1e-300, 45.0]}}))
        assert main(["oracle", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        first, second, summary = captured.out.strip().split("\n")
        assert first.startswith("point 0 ") and "DomainError" in first
        assert "d_sr" in first and first.endswith("FAIL")
        assert second.startswith("point 1 ") and second.endswith("PASS")
        assert summary == "oracle: FAIL (1 points)"
        assert "Traceback" not in captured.err

    def test_sweep_row_error_names_the_overflowing_field(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"base": {"gamma0_db": 5000}}))
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "row error" in err and "gamma0_db" in err
        assert "out of range" not in err

    def test_oracle_reports_an_overflowing_amplitude_square(self, tmp_path, capsys):
        # Every linear gain is finite here, but mu_d^2 is not.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"base": {"d_sr": 10**-42.5, "d_rd": 10**-42.5}}))
        assert main(["oracle", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        row, summary = captured.out.strip().split("\n")
        assert row.startswith("point 0 ") and "DomainError" in row
        assert "mu_d" in row and row.endswith("FAIL")
        assert summary == "oracle: FAIL (1 points)"
        assert "Traceback" not in captured.err

    # At N=1 the fitted CDF dips below 0 near zero amplitude, and at 100 dB
    # that dip carries all of the exponential weight: the fitted-Q integral
    # is -4.6e-4, which the sweep used to write as 0.0.
    NEGATIVE_FIT = {"n_elements": 1, "n_users": 1, "d_sr": 1.0, "d_rd": 1.0,
                    "gamma0_db": 100.0}

    def test_oracle_reports_a_negative_fitted_q_integral(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"base": self.NEGATIVE_FIT}))
        assert main(["oracle", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        row, summary = captured.out.strip().split("\n")
        assert row.startswith("point 0 ") and "EvaluationError" in row
        assert "-4.596" in row and row.endswith("FAIL")
        assert summary == "oracle: FAIL (1 points)"
        assert "Traceback" not in captured.err

    def test_sweep_records_a_negative_fitted_q_integral(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "base": self.NEGATIVE_FIT,
            "evaluators": ["closed", "quad_exact", "quad_approx"],
        }))
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        (row,) = _read_csv(out.read_text())
        assert row["sop_quad_approx"] == ""
        assert float(row["sop_closed"]) == 0.0 and float(row["sop_quad_exact"]) > 1e-3
        assert (
            "quad_approx: fitted-Q SOP integral is negative: -4.596"
            in capsys.readouterr().err
        )

    def test_oracle_reports_an_out_of_range_threshold(self, tmp_path, capsys):
        # 2^r_th overflows float64 from r_th = 1024.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"base": {"r_th": 2000}}))
        assert main(["oracle", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        row, summary = captured.out.strip().split("\n")
        assert row.startswith("point 0 ") and "DomainError" in row
        assert "r_th" in row and row.endswith("FAIL")
        assert summary == "oracle: FAIL (1 points)"
        assert "Traceback" not in captured.err

    def test_oracle_reports_order_sums_that_divide_by_zero(self, tmp_path, capsys):
        # Every field passes its check, but the terms' divisors underflow to
        # 0 at distances past 1e17 m.
        base = {"gamma0_db": 102.9, "n_elements": 65536, "r_th": 1.697,
                "d_sr": 1.54e38, "d_rd": 2.56e42, "d_re": 1.6e17, "z0": 181.6,
                "upsilon": 3.747}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"base": base}))
        assert main(["oracle", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        row, summary = captured.out.strip().split("\n")
        assert row.startswith("point 0 ") and "EvaluationError" in row
        assert "division by zero" in row and row.endswith("FAIL")
        assert summary == "oracle: FAIL (1 points)"
        assert "Traceback" not in captured.err

    def test_sweep_checks_out_before_evaluating(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text('{"evaluators": ["closed"]}')
        monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: pytest.fail("ran"))
        out = tmp_path / "missing" / "o.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(out) in captured.err
        assert "Traceback" not in captured.err
        assert not out.parent.exists()

    def test_sweep_keeps_an_existing_out_until_it_finishes(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "cfg.json"
        path.write_text('{"evaluators": ["closed"]}')
        out = tmp_path / "o.csv"
        out.write_text("previous run\n")
        seen = []
        real = cli.run_sweep

        def sweep(*args, **kwargs):
            seen.append(out.read_text())
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "run_sweep", sweep)
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        assert seen == ["previous run\n"]
        assert out.read_text().startswith(CSV_HEADER)

    def test_missing_config_file(self, capsys):
        assert main(["sweep", "--config", "/nonexistent.json",
                     "--out", "/tmp/x.csv"]) == 1
        assert "error" in capsys.readouterr().err
