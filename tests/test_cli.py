"""CLI contract: exit codes, JSON schema, determinism, CSV flattening."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shemom import __version__
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
        assert "error" in capsys.readouterr().err

    def test_config_error(self, capsys):
        # invalid parameter reaching the module precondition
        assert main(["moment", "contour", "--k", "0", "--t", "1"]) == 1

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
        assert {"contour", "partition", "gaussian_mc", "airy"} <= methods
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
        airy = next(e for e in payload["estimates"] if e["method"] == "airy")
        assert 0.0 < airy["err"] < 1e-3 * airy["value"]

    def test_airy_error_bar_covers_closed_form(self, capsys):
        from shemom.she_moments import erfc_reduction_oracle

        _, payload = run_json(capsys, ["xcheck", "--k", "2", "--t", "0.5"])
        airy = next(e for e in payload["estimates"] if e["method"] == "airy")
        assert abs(airy["value"] - erfc_reduction_oracle(0.5)) <= 3.0 * airy["err"]

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
        ],
    )
    def test_byte_identical_modulo_timestamp(self, capsys, argv):
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert strip_timestamp(first) == strip_timestamp(second)

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

    def test_polymer_contour(self, capsys):
        import math

        _, payload = run_json(
            capsys, ["polymer", "contour", "--k", "1", "--levels", "3", "--time", "2.0"]
        )
        assert payload["estimates"][0]["value"] == pytest.approx(2.0, rel=1e-10)
        assert math.isfinite(payload["estimates"][0]["err"])

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
        "argv",
        [
            ["moment", "contour", "--k", "1", "--t", "1"],
            ["moment", "partition", "--k", "2", "--t", "1", "--x", "0.5"],
            ["moment", "gaussian-mc", "--k", "2", "--t", "1", "--samples", "2000"],
            ["airy", "fredholm", "--u", "1.0", "--t", "2.0"],
            ["airy", "laplace-r", "--c", "1.0", "0.8"],
            ["airy", "kernel", "--x", "0", "--y", "0"],
            ["sample", "airy", "--matrix-size", "60", "--top-points", "4", "--replicas", "20"],
            ["polymer", "simulate", "--levels", "2", "--time", "1", "--steps", "50", "--replicas", "100"],
            ["polymer", "contour", "--k", "1", "--levels", "3", "--time", "2.0"],
            ["polymer", "limit", "--k", "1", "--t", "1"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_every_subcommand_emits_one_report_shape(self, argv):
        code, out, _ = run_quiet(argv)
        assert code == 0
        payload = strict_json(out)
        assert set(payload) == REPORT_KEYS
        assert payload["estimates"]
        for e in payload["estimates"]:
            assert set(e) == {"method", "value", "err", "meta"}
            assert math.isfinite(e["value"]) and math.isfinite(e["err"])

    def test_contour_overflow_refused(self):
        # the anchors' prefactor overflows at T = 700 although the moment fits
        code, out, err = run_quiet(["moment", "contour", "--k", "2", "--t", "700"])
        assert code == 1
        assert out == ""
        assert "error:" in err and "contour" in err

    @pytest.mark.parametrize("argv", [["--k", "2", "--t", "1", "--x", "30"], ["--k", "3", "--t", "40"]])
    def test_contour_without_correct_digit_refused(self, argv):
        code, out, err = run_quiet(["moment", "contour", *argv])
        assert code == 1
        assert out == ""
        assert "error:" in err and "contour" in err

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
        method=st.sampled_from(["partition", "contour"]),
        k=st.integers(1, 3),
        t=st.floats(1e-3, 1e4),
        x=st.floats(-50.0, 50.0),
    )
    def test_any_request_exits_cleanly(self, method, k, t, x):
        code, out, err = run_quiet(["moment", method, "--k", str(k), "--t", repr(t), "--x", repr(x)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 0:
            for e in strict_json(out)["estimates"]:
                assert math.isfinite(e["value"]) and math.isfinite(e["err"])
        else:
            assert out == "" and "error:" in err
