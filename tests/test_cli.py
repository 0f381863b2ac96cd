"""CLI contract: exit codes, JSON schema, determinism, CSV flattening."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shemom import __version__, airy_sampler, she_moments
from shemom.cli import UsageError, emit_report, main, subseed


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_quiet(argv):
    """main(argv) with stdout and stderr captured; usable inside hypothesis tests."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def strict_json(text: str) -> dict:
    """json.loads that refuses NaN and Infinity, which strict JSON does not have."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


REPORT_KEYS = {"request", "estimates", "gaps", "pass", "seed", "version", "metadata"}


def strip_timestamp(text: str) -> str:
    payload = json.loads(text)
    payload.get("metadata", {}).pop("timestamp", None)
    return json.dumps(payload, sort_keys=True)


class TestExitCodes:
    def test_xcheck_pass(self, capsys):
        code, payload = run_json(capsys, ["xcheck", "--k", "1", "--t", "1", "--x", "0"])
        assert code == 0
        assert payload["pass"] is True

    def test_xcheck_forced_failure_still_emits(self, capsys):
        code, payload = run_json(capsys, ["xcheck", "--k", "1", "--t", "1", "--tol", "1e-15"])
        assert code == 2
        assert payload["pass"] is False
        assert payload["estimates"]  # report still produced

    def test_xcheck_single_route_not_passed(self, capsys):
        # at k = 7 only the partition route applies: nothing is cross-validated
        code, payload = run_json(capsys, ["xcheck", "--k", "7", "--t", "1"])
        assert code == 2
        assert payload["pass"] is False
        assert [e["method"] for e in payload["estimates"]] == ["partition"]
        assert payload["gaps"] == []

    def test_usage_error(self, capsys):
        assert main(["no-such-command"]) == 1
        assert main(["moment", "contour"]) == 1  # missing required flags
        # --samples belongs to the gaussian-mc route only
        assert main(["moment", "contour", "--k", "2", "--t", "1", "--samples", "5"]) == 1
        assert main(["moment", "partition", "--k", "2", "--t", "1", "--samples", "5"]) == 1
        assert "error" in capsys.readouterr().err

    def test_config_error(self, capsys):
        # invalid parameter reaching the module precondition
        assert main(["moment", "contour", "--k", "0", "--t", "1"]) == 1
        assert main(["moment", "contour", "--k", "5", "--t", "1"]) == 1  # no contour evaluator at k >= 5
        # a non-finite u, c or x is refused by name, before any quadrature runs
        for argv, message in [
            (["airy", "fredholm", "--u", "nan", "--t", "1"], "u must be positive and finite"),
            (["airy", "fredholm", "--u", "inf", "--t", "1"], "u must be positive and finite"),
            (["airy", "laplace-r", "--c", "1", "nan"], "c_i must be positive and finite"),
            (["airy", "laplace-r", "--c", "inf"], "c_i must be positive and finite"),
            (["airy", "kernel", "--x", "nan", "--y", "0"], "x and y must be finite"),
            (["airy", "kernel", "--x", "nan", "--y", "0", "--form", "integral"], "x and y must be finite"),
            # no route admits k = 9: the widest route's guard names its limit
            (["xcheck", "--k", "9", "--t", "1"], "moment_partition supports k <= 8"),
            # a bad tol is refused before any route runs, also at k >= 5 where no pair reads it
            (["xcheck", "--k", "2", "--t", "1", "--tol", "nan"], "tol must be positive and finite"),
            (["xcheck", "--k", "2", "--t", "1", "--tol", "inf"], "tol must be positive and finite"),
            (["xcheck", "--k", "2", "--t", "1", "--tol", "-1"], "tol must be positive and finite"),
            (["xcheck", "--k", "2", "--t", "1", "--tol", "0"], "tol must be positive and finite"),
            (["xcheck", "--k", "5", "--t", "1", "--tol", "-1"], "tol must be positive and finite"),
        ]:
            code, out, err = run_quiet(argv)
            assert code == 1
            assert out == ""
            assert message in err

    def test_refused_dsterf_signature_is_config_error(self, monkeypatch):
        # dgtsv's capsule under dsterf's name: sampling refuses it by its signature, and no other command binds it
        from scipy.linalg import cython_lapack

        monkeypatch.setitem(cython_lapack.__pyx_capi__, "dsterf", cython_lapack.__pyx_capi__["dgtsv"])
        airy_sampler._dsterf_handle.cache_clear()
        code, out, err = run_quiet(["sample", "airy", "--matrix-size", "100", "--replicas", "20"])
        assert (code, out) == (1, "")
        assert "error: scipy.linalg.cython_lapack dsterf has signature 'void (int *, int *, " in err
        assert "Traceback" not in err
        assert run_quiet(["xcheck", "--k", "1", "--t", "1"])[0] == 0

    @pytest.mark.parametrize("u,t", [("1e-300", "1e-6"), ("1e-3", "1e-6")])
    def test_fredholm_cutoff_below_airy_window_refused(self, u, t):
        # the left cutoff falls far below -600 at C = 0.008; it is refused before its nodes are built
        code, out, err = run_quiet(["airy", "fredholm", "--u", u, "--t", t])
        assert code == 1
        assert out == ""
        assert f"u = {float(u):g} at T = {float(t):g}" in err and "below the Airy window" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["moment", "partition", "--k", "2", "--t", "1", "--x", "30"],
            ["xcheck", "--k", "5", "--t", "1", "--x", "30", "--samples", "2000"],
            # X**2 overflowed here, and the refusal was "(34, 'Numerical result out of range')"
            ["moment", "partition", "--k", "2", "--t", "1", "--x", "1e200"],
            ["moment", "gaussian-mc", "--k", "2", "--t", "1", "--x", "1e200"],
        ],
    )
    def test_underflowed_shift_factor_refused(self, argv):
        # exp(-k X^2 / 2T) is 0.0 here: the route would report 0 +- 0, and xcheck would compare 0 with 0
        code, out, err = run_quiet(argv)
        assert code == 1
        assert out == ""
        x = float(argv[argv.index("--x") + 1])
        assert "numeric failure" in err and "underflows" in err and f"T=1.0, X={x}" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            # each once named what the user did not give: "contour moments support k <= 3", "t must be positive
            # and finite" (the internal t = sqrt(NT) + X) and "need 2 anchors decreasing by more than 1"
            ("polymer limit --k 0 --t 1", "error: moment order k must be >= 1"),
            ("polymer limit --k 1 --t 1 --x -100", "error: X must be finite and exceed -sqrt(N T) = -2.82843 at N = 8"),
            ("moment contour --k 2 --t 1 --x 1e200", "error: X/T = 1e+200 is too large for the contour route"),
            ("xcheck --k 2 --t 1 --x 1e200", "error: X/T = 1e+200 is too large for the contour route"),
        ],
    )
    def test_refusal_names_the_input_given(self, argv, message):
        code, out, err = run_quiet(argv.split())
        assert code == 1
        assert out == ""
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, parts",
        [
            (["moment", "partition", "--k", "2", "--t", "2140"], "[20.456182435393426]"),
            (["airy", "laplace-r", "--c", "30", "20"], "[30.0, 20.0]"),
        ],
    )
    def test_R_overflow_refused_by_name(self, argv, parts):
        # e^{sum c^3/12} overflows inside R, although at k = 2, T = 2140 the moment itself fits in a double
        code, out, err = run_quiet(argv)
        assert code == 1
        assert out == ""
        assert f"numeric failure: R overflowed at c = {parts}: e^(sum c^3/12) = e^" in err

    @pytest.mark.parametrize("argv", [["xcheck", "--k", "5", "--t", "100"], ["xcheck", "--k", "6", "--t", "60"]])
    def test_huge_error_bars_do_not_overflow_the_tolerance(self, argv):
        # bars above 1e154 overflow err**2; partition reports 6.0e216 +- 6.0e205 at k = 5, T = 100
        code, out, err = run_quiet(argv)
        assert code == 0, err
        payload = strict_json(out)
        assert payload["pass"] is True
        assert max(e["err"] for e in payload["estimates"]) > 1e160

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_non_finite_time_is_config_error(self, capsys, t):
        assert main(["xcheck", "--k", "2", "--t", t]) == 1
        assert "finite" in capsys.readouterr().err


class TestXcheckReport:
    def test_schema(self, capsys):
        _, payload = run_json(capsys, ["xcheck", "--k", "1", "--t", "1"])
        assert set(payload) == {
            "request", "estimates", "gaps", "pass", "seed", "version", "metadata",
        }
        assert payload["request"] == {"k": 1, "T": 1.0, "X": 0.0}
        assert payload["version"] == __version__
        methods = {e["method"] for e in payload["estimates"]}
        assert {"contour", "partition", "gaussian_mc"} <= methods
        for gap in payload["gaps"]:
            assert set(gap) == {"a", "b", "rel_gap", "tol", "pass"}
            assert gap["pass"] == (gap["rel_gap"] <= gap["tol"])

    def test_k1_heat_kernel_value(self, capsys):
        import math

        _, payload = run_json(capsys, ["xcheck", "--k", "1", "--t", "1", "--x", "0"])
        truth = 1.0 / math.sqrt(2.0 * math.pi)
        for e in payload["estimates"]:
            if e["method"] in ("contour", "partition"):
                assert abs(e["value"] - truth) < 1e-8 * truth

    def test_k3_report(self, capsys):
        code, payload = run_json(capsys, ["xcheck", "--k", "3", "--t", "1"])
        assert code == 0
        assert all(g["pass"] is True for g in payload["gaps"])
        partition = next(e for e in payload["estimates"] if e["method"] == "partition")
        assert 0.0 < partition["err"] < 1e-3 * partition["value"]

    def test_partition_error_bar_covers_closed_form(self, capsys):
        from shemom.she_moments import erfc_reduction_oracle

        _, payload = run_json(capsys, ["xcheck", "--k", "2", "--t", "0.5"])
        partition = next(e for e in payload["estimates"] if e["method"] == "partition")
        assert abs(partition["value"] - erfc_reduction_oracle(0.5)) <= 3.0 * partition["err"]

    @pytest.mark.parametrize(
        "k,methods",
        [
            (1, {"contour", "partition", "gaussian_mc"}),
            (4, {"contour", "partition", "gaussian_mc"}),
            (5, {"partition", "gaussian_mc"}),
            (7, {"partition"}),
        ],
    )
    def test_route_set(self, capsys, k, methods):
        # the contour route and the residue sum by quadrature and by Monte Carlo;
        # each method is reported once
        _, payload = run_json(capsys, ["xcheck", "--k", str(k), "--t", "1"])
        reported = [e["method"] for e in payload["estimates"]]
        assert sorted(reported) == sorted(methods)

    @pytest.mark.parametrize("t,x", [("0.5", "0"), ("2", "1")])
    def test_k4_contour_is_a_quadrature_pair(self, capsys, t, x):
        code, payload = run_json(capsys, ["xcheck", "--k", "4", "--t", t, "--x", x])
        assert code == 0
        contour = next(e for e in payload["estimates"] if e["method"] == "contour")
        assert contour["err"] <= 0.2 * contour["value"]
        gap = next(g for g in payload["gaps"] if {g["a"], g["b"]} == {"contour", "partition"})
        assert gap["tol"] == 1e-3 and gap["pass"] is True

    def test_pass_iff_all_gaps_pass(self, capsys):
        _, payload = run_json(capsys, ["xcheck", "--k", "2", "--t", "1"])
        assert payload["pass"] == all(g["pass"] for g in payload["gaps"])


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["xcheck", "--k", "1", "--t", "1", "--seed", "5"],
            ["moment", "gaussian-mc", "--k", "2", "--t", "1", "--samples", "5000", "--seed", "3"],
            ["airy", "laplace-r", "--c", "1.0", "0.8"],
            ["sample", "hk", "--k", "2", "--t", "1", "--matrix-size", "200", "--top-points", "8", "--replicas", "30"],
            # six chunks of pairs (4 x 1_667 + 2 x 1_666), run on every usable core
            ["polymer", "simulate", "--levels", "3", "--time", "1", "--steps", "500", "--replicas", "20000", "--seed", "3"],
        ],
    )
    def test_byte_identical_modulo_timestamp(self, capsys, argv):
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert strip_timestamp(first) == strip_timestamp(second)

    @pytest.mark.parametrize(
        "bad",
        [["xcheck", "--k", "2"], ["moment", "contour", "--k", "2", "--t", "1", "--samples", "5"], ["polymer", "nope"]],
        ids=["missing --t", "option of another subcommand", "unknown method"],
    )
    def test_parser_reused_after_usage_error(self, tmp_path, bad, capsys):
        # main parses with one parser per process: a usage error must leave nothing behind in it
        argv = ["xcheck", "--k", "2", "--t", "1", "--seed", "3"]
        assert main(bad) == 1
        reused, fresh = tmp_path / "reused.json", tmp_path / "fresh.json"
        main(argv + ["--output", str(reused)])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
        done = subprocess.run(
            [sys.executable, "-m", "shemom.cli", *argv, "--output", str(fresh)], capture_output=True, text=True, timeout=60, env=env
        )
        assert done.returncode in (0, 2), done.stderr
        reports = [json.loads(path.read_text()) for path in (reused, fresh)]
        for report in reports:
            report.pop("metadata")
        assert reports[0] == reports[1]

    def test_partition_independent_of_blas_threads(self):
        # the Gauss-Hermite sums of R are BLAS matrix products: the report must not depend on BLAS's thread count
        argv = [sys.executable, "-m", "shemom.cli", "moment", "partition", "--k", "4", "--t", "0.5"]
        reports = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
            done = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
            assert done.returncode == 0, done.stderr
            report = json.loads(done.stdout)
            report.pop("metadata")
            reports.append(report)
        assert reports[0] == reports[1]

    def test_seed_changes_mc_output(self, capsys):
        base = ["moment", "gaussian-mc", "--k", "2", "--t", "1", "--samples", "5000"]
        _, a = run_json(capsys, base + ["--seed", "1"])
        _, b = run_json(capsys, base + ["--seed", "2"])
        assert a["estimates"][0]["value"] != b["estimates"][0]["value"]

    def test_subseed_fixed_hash(self):
        assert subseed(0, "contour") == subseed(0, "contour")
        assert subseed(0, "contour") != subseed(0, "partition")
        assert subseed(0, "contour") != subseed(1, "contour")


class TestEmitReport:
    def _payload(self):
        return {
            "request": {"k": 1, "T": 1.0, "X": 0.0},
            "estimates": [
                {"method": "contour", "value": 0.5, "err": 1e-9, "meta": {}},
                {"method": "partition", "value": 0.5, "err": 1e-9, "meta": {}},
            ],
            "gaps": [{"a": "contour", "b": "partition", "rel_gap": 0.0, "tol": 1e-6, "pass": True}],
            "pass": True,
            "seed": 0,
            "version": __version__,
            "metadata": {"timestamp": 0.0},
        }

    def test_empty_estimates_rejected(self, tmp_path):
        payload = self._payload()
        payload["estimates"] = []
        target = tmp_path / "out.json"
        with pytest.raises(UsageError):
            emit_report(payload, "json", str(target))
        assert not target.exists()

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        payload = self._payload()
        emit_report(payload, "json", str(path))
        assert json.loads(path.read_text()) == payload

    def test_csv_rows(self, tmp_path):
        path = tmp_path / "report.csv"
        emit_report(self._payload(), "csv", str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("method,value,err")
        assert len(lines) == 3  # header + 2 estimates

    def test_numpy_meta_becomes_plain(self, tmp_path):
        path = tmp_path / "report.json"
        payload = self._payload()
        payload["estimates"][0]["meta"] = {
            "x": np.float64(0.25), "n": np.int64(3), "ok": np.bool_(True), "v": np.array([1.0, 2.0]),
        }
        emit_report(payload, "json", str(path))
        meta = strict_json(path.read_text())["estimates"][0]["meta"]
        assert meta == {"x": 0.25, "n": 3, "ok": True, "v": [1.0, 2.0]}
        assert [type(meta[key]) for key in ("x", "n", "ok")] == [float, int, bool]

    def test_unknown_format(self):
        with pytest.raises(UsageError):
            emit_report(self._payload(), "xml", None)

    def test_output_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SHEMOM_OUTPUT_DIR", str(tmp_path))
        emit_report(self._payload(), "json", "nested.json")
        assert (tmp_path / "nested.json").exists()

    def test_unwritable_path_exit_code(self, capsys, tmp_path):
        bad = str(tmp_path / "missing_dir" / "out.json")
        code = main(["moment", "contour", "--k", "1", "--t", "1", "--output", bad])
        assert code == 1


class TestSubcommands:
    def test_moment_contour_k2(self, capsys):
        from shemom.she_moments import erfc_reduction_oracle

        _, payload = run_json(capsys, ["moment", "contour", "--k", "2", "--t", "1"])
        est = payload["estimates"][0]
        assert est["method"] == "contour"
        assert abs(est["value"] - erfc_reduction_oracle(1.0)) < 1e-6
        assert est["err"] >= 0.0

    def test_airy_kernel(self, capsys):
        from shemom.airy import airy_kernel

        _, payload = run_json(capsys, ["airy", "kernel", "--x", "0", "--y", "0"])
        assert payload["estimates"][0]["value"] == pytest.approx(airy_kernel(0.0, 0.0))

    def test_airy_fredholm(self, capsys):
        _, payload = run_json(capsys, ["airy", "fredholm", "--u", "1.0", "--t", "2.0"])
        assert 0.0 < payload["estimates"][0]["value"] < 1.0

    def test_sample_series(self, capsys):
        _, payload = run_json(
            capsys,
            [
                "sample", "series", "--k", "1", "--t", "1",
                "--matrix-size", "100", "--top-points", "8", "--replicas", "50",
            ],
        )
        meta = payload["estimates"][0]["meta"]
        assert meta["weight_convention"] == "exponential(1)"
        assert meta["printed_weight_mean"] == 2.0
        assert meta["estimator"] == "rao_blackwell"
        # the leading block's rows, and the replicas redone on the full matrix
        assert meta["window"] == airy_sampler._window(100, 8) < 100
        assert meta["full_matrix_fallbacks"] == 0

    def test_sample_airy_bar_counts_matrices(self, capsys):
        # the top point's bar is the sampler's one: a matrix's two edges are one unit, the odd last top its own
        argv = ["sample", "airy", "--matrix-size", "200", "--top-points", "4", "--replicas", "41", "--seed", "2"]
        _, payload = run_json(capsys, argv)
        est = payload["estimates"][0]
        sam = airy_sampler.sample_airy_points(airy_sampler.EnsembleConfig(200, 4, 41, subseed(2, "sample")))
        mc = airy_sampler._mean(sam.points[:, 0])
        assert (est["value"], est["err"]) == (mc.value, mc.stderr)
        assert est["meta"]["var_a1"] == float(sam.points[:, 0].var(ddof=1))
        assert payload["metadata"]["warnings"] == []

    @pytest.mark.parametrize("method", ["series", "hk"])
    def test_sample_truncation_warning_in_metadata(self, method):
        # the setup of test_warns_when_cut_matters: the warning goes to the report, not to stderr, and the
        # report minus metadata is the functional's own estimate
        argv = ["sample", method, "--k", "2", "--t", "1", "--matrix-size", "100", "--top-points", "2"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_quiet([*argv, "--replicas", "20", "--seed", "0"])
        assert code == 0 and err == "" and caught == []
        payload = json.loads(out)
        notes = payload["metadata"]["warnings"]
        assert len(notes) == 1 and notes[0].startswith("truncation at 2 points may bias the estimate")
        sam = airy_sampler.sample_airy_points(airy_sampler.EnsembleConfig(100, 2, 20, subseed(0, "sample")))
        functional = airy_sampler.series_moment_mc if method == "series" else airy_sampler.hk_mc
        with pytest.warns(RuntimeWarning, match="truncation"):
            mc = functional(2, 1.0, sam)
        assert (payload["estimates"][0]["value"], payload["estimates"][0]["err"]) == (mc.value, mc.stderr)

    def test_polymer_contour(self, capsys):
        import math

        _, payload = run_json(
            capsys, ["polymer", "contour", "--k", "1", "--levels", "3", "--time", "2.0"]
        )
        assert payload["estimates"][0]["value"] == pytest.approx(2.0, rel=1e-10)
        assert math.isfinite(payload["estimates"][0]["err"])

    def test_polymer_simulate_odd_replicas(self, capsys):
        # the lone last path of an odd count is its own unit of the error bar
        code, payload = run_json(
            capsys, ["polymer", "simulate", "--levels", "2", "--time", "1", "--steps", "20", "--replicas", "3"]
        )
        assert code == 0
        assert all(math.isfinite(e["err"]) and e["err"] > 0 for e in payload["estimates"])

    def test_polymer_simulate(self, capsys):
        _, payload = run_json(
            capsys,
            [
                "polymer", "simulate", "--levels", "2", "--time", "1.0",
                "--steps", "100", "--replicas", "200",
            ],
        )
        methods = [e["method"] for e in payload["estimates"]]
        assert methods == ["polymer_mc_k1", "polymer_mc_k2"]


class TestReportContract:
    @pytest.mark.parametrize(
        "argv,request_keys,methods",
        [
            pytest.param(line.split(), keys, methods, id=" ".join(line.split()[:2]))
            for line, keys, methods in [
                ("moment contour --k 1 --t 1", {"k", "T", "X"}, ["contour"]),
                ("moment partition --k 2 --t 1 --x 0.5", {"k", "T", "X"}, ["partition"]),
                ("moment gaussian-mc --k 2 --t 1 --samples 2000", {"k", "T", "X"}, ["gaussian_mc"]),
                ("airy fredholm --u 1.0 --t 2.0", {"u", "T"}, ["fredholm"]),
                ("airy laplace-r --c 1.0 0.8", {"c"}, ["laplace_r"]),
                ("airy kernel --x 0 --y 0", {"x", "y"}, ["kernel_divided_difference"]),
                ("sample airy --matrix-size 60 --top-points 4 --replicas 20", {"matrix_size", "top_points"},
                 ["sample_airy"]),
                ("sample series --k 1 --t 1 --matrix-size 100 --replicas 20", {"k", "T"}, ["series_mc"]),
                ("sample hk --k 1 --t 1 --matrix-size 100 --replicas 20", {"k", "T"}, ["hk_mc"]),
                ("polymer simulate --levels 2 --time 1 --steps 50 --replicas 100", {"levels", "t", "steps"},
                 ["polymer_mc_k1", "polymer_mc_k2"]),
                ("polymer contour --k 1 --levels 3 --time 2.0", {"k", "levels", "t"}, ["polymer_contour"]),
                ("polymer limit --k 1 --t 1", {"k", "T", "X"}, ["polymer_limit"]),
            ]
        ],
    )
    def test_every_subcommand_emits_one_report_shape(self, argv, request_keys, methods):
        code, out, _ = run_quiet(argv)
        assert code == 0
        payload = strict_json(out)
        assert set(payload) == REPORT_KEYS
        assert set(payload["request"]) == request_keys
        assert [e["method"] for e in payload["estimates"]] == methods
        for e in payload["estimates"]:
            assert set(e) == {"method", "value", "err", "meta"}
            assert math.isfinite(e["value"]) and math.isfinite(e["err"])

    @pytest.mark.parametrize("value,err", [(math.nan, 0.0), (1.0, math.inf)])
    def test_non_finite_estimate_refused(self, monkeypatch, value, err):
        monkeypatch.setattr(
            she_moments, "moment_gaussian_mc", lambda k, T, samples, seed: she_moments.MomentEstimate(value, err, "gaussian_mc")
        )
        code, out, err_text = run_quiet(["moment", "gaussian-mc", "--k", "2", "--t", "1"])
        assert code == 1
        assert out == ""
        assert "gaussian_mc estimate is not finite" in err_text

    def test_contour_overflow_refused(self):
        # the anchors' prefactor overflows at T = 700 although the moment fits
        code, out, err = run_quiet(["moment", "contour", "--k", "2", "--t", "700"])
        assert code == 1
        assert out == ""
        assert "error:" in err and "contour" in err

    # --t 316: the trapezoid step aliases the phase, and the sum once reported 3.6e151
    @pytest.mark.parametrize(
        "argv", [["--k", "2", "--t", "1", "--x", "30"], ["--k", "3", "--t", "40"], ["--k", "2", "--t", "316"]]
    )
    def test_contour_without_correct_digit_refused(self, argv):
        code, out, err = run_quiet(["moment", "contour", *argv])
        assert code == 1
        assert out == ""
        assert "error:" in err and "contour" in err

    @pytest.mark.parametrize("method", ["series", "hk"])
    @pytest.mark.parametrize("t", ["-1", "0", "inf", "nan"])
    def test_sample_time_must_be_positive(self, method, t):
        argv = ["sample", method, "--k", "1", "--t", t, "--matrix-size", "60", "--top-points", "4", "--replicas", "20"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_quiet(argv)
        assert code == 1
        assert out == ""
        assert "T must be positive" in err
        assert caught == []

    @pytest.mark.parametrize("method", [["airy"], ["series", "--k", "1", "--t", "1"], ["hk", "--k", "1", "--t", "1"]])
    def test_sample_single_replica_refused(self, method):
        # one replica has no error bar (std with ddof = 1); refused before sampling, without a warning
        argv = ["sample", *method, "--matrix-size", "60", "--top-points", "4", "--replicas", "1"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_quiet(argv)
        assert code == 1
        assert out == ""
        assert "at least 2 replicas" in err
        assert caught == []

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["polymer", "simulate", "--levels", "2", "--time", "inf"], "time"),
            (["polymer", "simulate", "--levels", "2", "--time", "nan"], "time"),
            (["polymer", "contour", "--k", "2", "--levels", "3", "--time", "inf"], "t"),
            (["polymer", "limit", "--k", "2", "--t", "inf"], "T"),
            (["polymer", "limit", "--k", "2", "--t", "nan"], "T"),
            (["airy", "fredholm", "--u", "1", "--t", "nan"], "T"),
            (["airy", "fredholm", "--u", "1", "--t", "inf"], "T"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else v,
    )
    def test_non_finite_time_refused(self, argv, name):
        # refused up front: no simulation run, no numpy warning, nothing on stdout
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_quiet(argv)
        assert code == 1
        assert out == ""
        assert f"error: {name} must be positive and finite" in err
        assert caught == []

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    def test_non_finite_x_refused(self, x):
        # named as the --x the user gave, not as the derived t = sqrt(NT) + X
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_quiet(["polymer", "limit", "--k", "2", "--t", "1", f"--x={x}"])
        assert code == 1
        assert out == ""
        assert "error: X must be finite" in err and "Traceback" not in err
        assert caught == []

    def test_runtime_error_refused(self):
        # the k = 3 circle contours cancel to an imaginary part far above the value
        code, out, err = run_quiet(["polymer", "limit", "--k", "3", "--t", "50"])
        assert code == 1
        assert out == ""
        assert "error:" in err and "Traceback" not in err

    def test_contour_inconsistency_refused(self, imaginary_residue):
        code, out, err = run_quiet(["moment", "contour", "--k", "2", "--t", "1"])
        assert code == 1
        assert out == ""
        assert "error:" in err and "imaginary residue" in err

    def test_partition_overflow_refused(self):
        code, out, err = run_quiet(["xcheck", "--k", "2", "--t", "1e4"])
        assert code == 1
        assert out == ""
        assert "error:" in err

    @settings(max_examples=30, deadline=None)
    @given(
        method=st.sampled_from(list(she_moments.ROUTES)),
        k=st.integers(1, 8),
        t=st.floats(1e-3, 1e4),
        x=st.floats(-50.0, 50.0),
    )
    def test_any_request_exits_cleanly(self, method, k, t, x):
        route = she_moments.ROUTES[method]
        samples = ["--samples", "2000"] if route.stochastic else []
        argv = ["moment", method.replace("_", "-"), "--k", str(k), "--t", repr(t), "--x", repr(x), *samples]
        code, out, err = run_quiet(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if k > route.k_max:
            assert code == 1  # the route's k guard, or an earlier refusal: a configuration error either way
        if code == 0:
            for e in strict_json(out)["estimates"]:
                assert math.isfinite(e["value"]) and math.isfinite(e["err"])
        else:
            assert out == "" and "error:" in err


    @settings(max_examples=40, deadline=None)
    @given(
        levels=st.integers(1, 8),
        steps=st.integers(10, 60),
        replicas=st.integers(2, 60),
        max_moment=st.integers(1, 4),
        t=st.floats(1e-3, 50.0),
    )
    def test_any_polymer_simulation_exits_cleanly(self, levels, steps, replicas, max_moment, t):
        code, out, err = run_quiet(
            ["polymer", "simulate", "--levels", str(levels), "--time", repr(t), "--steps", str(steps),
             "--replicas", str(replicas), "--max-moment", str(max_moment)]
        )
        assert "Traceback" not in err
        if code == 0:
            for e in strict_json(out)["estimates"]:
                assert math.isfinite(e["value"]) and math.isfinite(e["err"])
        else:
            assert code == 1 and out == "" and "error:" in err


class TestRouteRecord:
    """A moment route registered by one ROUTES record alone: xcheck compares it, and ``moment`` runs it."""

    @pytest.fixture(params=[False, True], ids=["exact", "stochastic"])
    def stand_in(self, request, monkeypatch):
        def run(req, seed, samples):
            value = she_moments.heat_kernel(req.T, req.X)  # E[Z(T,X)] itself, so every k = 1 gap passes
            return she_moments.MomentEstimate(value, 1e-3 * value, "stand_in", {"seed": seed, "samples": samples})

        route = she_moments.Route(k_max=8, stochastic=request.param, shifted=False, run=run)
        monkeypatch.setitem(she_moments.ROUTES, "stand_in", route)
        return route

    def test_compared_by_xcheck(self, capsys, stand_in):
        code, payload = run_json(capsys, ["xcheck", "--k", "1", "--t", "1", "--samples", "5000"])
        assert code == 0
        assert [e["method"] for e in payload["estimates"]] == ["contour", "partition", "gaussian_mc", "stand_in"]
        gaps = {g["a"]: g for g in payload["gaps"] if g["b"] == "stand_in"}
        assert set(gaps) == {"contour", "partition", "gaussian_mc"}
        estimates = {e["method"]: e for e in payload["estimates"]}
        b = estimates["stand_in"]
        for name, gap in gaps.items():
            a = estimates[name]
            if stand_in.stochastic or name == "gaussian_mc":
                # the 3-bar Monte Carlo tolerance
                assert gap["tol"] == 3.0 * math.hypot(a["err"], b["err"]) / max(a["value"], b["value"])
            else:
                assert gap["tol"] == 1e-6

    def test_offered_by_moment(self, monkeypatch, stand_in):
        from shemom import cli

        monkeypatch.setattr(cli, "_parser", cli.build_parser)  # the cached parser predates the record
        argv = ["moment", "stand-in", "--k", "2", "--t", "1", "--seed", "4"]
        code, out, err = run_quiet([*argv, "--samples", "2000"])
        if stand_in.stochastic:
            assert code == 0, err
            (estimate,) = strict_json(out)["estimates"]
            assert estimate["method"] == "stand_in"
            assert estimate["meta"] == {"seed": subseed(4, "stand_in"), "samples": 2000}
        else:
            assert code == 1 and "--samples" in err  # only a stochastic route takes a sample count
            code, out, _ = run_quiet(argv)
            assert code == 0 and strict_json(out)["estimates"][0]["meta"]["samples"] is None


class TestStartup:
    """scipy loads on the first use of an Airy function or of the sampler's LAPACK, not at import."""

    @staticmethod
    def run_fresh(argvs: list) -> list:
        """Every argv through cli.main in one fresh interpreter; returns the scipy modules it then holds."""
        script = textwrap.dedent(
            f"""
            import json, os, sys
            from shemom import cli
            for argv in {argvs!r}:
                assert cli.main(argv + ["--output", os.devnull]) == 0, argv
            print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
            """
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env)
        assert (done.returncode, done.stderr) == (0, ""), done.stderr
        return json.loads(done.stdout)

    def test_moment_routes_load_no_scipy(self):
        argvs = [
            line.split()
            for line in (
                "xcheck --k 2 --t 1",
                "xcheck --k 6 --t 1",
                "moment partition --k 8 --t 0.5",
                "moment contour --k 4 --t 1",
                "polymer limit --k 2 --t 1",
                "polymer simulate --levels 2 --time 1 --steps 20 --replicas 50",
            )
        ]
        assert self.run_fresh(argvs) == []

    def test_airy_and_sample_load_scipy_on_first_use(self):
        argvs = [
            line.split()
            for line in (
                "airy kernel --x 0 --y 0",
                "airy fredholm --u 1 --t 2",
                "sample airy --matrix-size 100 --replicas 20",
            )
        ]
        assert {"scipy.special", "scipy.linalg"} <= set(self.run_fresh(argvs))
