import dataclasses
import hashlib
import json
import pathlib
import warnings

import numpy as np
import pytest

from conftest import OVERFLOWING_CONSTRUCTIONS, OVERFLOWING_SEARCHES, SINGULAR_HESSIAN_MODEL
from pdom import cli, dissipativity, lti, registry
from pdom import matrixcore as mc


@pytest.fixture()
def msd4_file(tmp_path):
    path = tmp_path / "msd4.json"
    path.write_text(json.dumps(registry.msd(4.0).to_dict()))
    return str(path)


@pytest.fixture()
def cert4_file(tmp_path):
    path = tmp_path / "cert4.json"
    cert = {
        "P": registry.KNOWN_STORAGE[4].tolist(),
        "lambda": registry.KNOWN_RATE,
        "epsilon": 0.0,
        "p": 1,
    }
    path.write_text(json.dumps(cert))
    return str(path)


class TestAnalyze:
    def test_pass(self, capsys):
        assert cli.main(["analyze", "msd-c4", "--lambda", "1.2679", "--p", "1"]) == 0
        out = capsys.readouterr().out
        assert "eigen_split: pass" in out and "dominance: pass" in out

    def test_fail_wrong_rate(self):
        assert cli.main(["analyze", "msd-c4", "--lambda", "0", "--p", "1"]) == 1

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert cli.main(["analyze", str(bad), "--lambda", "1", "--p", "1"]) == 2

    def test_missing_file(self):
        assert cli.main(["analyze", "/nonexistent/sys.json", "--lambda", "1", "--p", "1"]) == 2

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_rate_is_input_error(self, rate, capsys):
        assert cli.main(["analyze", "msd-c4", "--lambda", rate, "--p", "1"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_inconclusive_rate(self, capsys):
        # an eigenvalue exactly on the shifted axis
        assert cli.main(["analyze", "msd-c4", "--lambda", "0.26794919243112281", "--p", "1"]) == 1


class TestVerify:
    def test_dominance_certificate(self, msd4_file, cert4_file):
        assert cli.main(["verify", msd4_file, cert4_file]) == 0

    def test_overflowing_channel_product_is_input_error(self, tmp_path, capsys):
        # g and h are finite but g h^T is not: an input error when the model is built (exit 2), with no
        # RuntimeWarning, and not a numerical failure of the vertex check (exit 3)
        channel = {"g": [0, 1e200], "h": [1e200, 0], "sigma": {"kind": "cubic_saturated"}, "alpha": -3, "beta": 1}
        model = {"A": [[0, 1], [-1, -8]], "B": [[0], [1]], "C": [[1, 0]], "channels": [channel]}
        (tmp_path / "overflow.json").write_text(json.dumps(model))
        (tmp_path / "rate1.json").write_text(json.dumps({"P": [[-1, 0], [0, 1]], "lambda": 1, "p": 1}))
        report = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            argv = ["--report", str(report), "verify", str(tmp_path / "overflow.json"), str(tmp_path / "rate1.json")]
            assert cli.main(argv) == 2
        assert "channel terms overflow" in capsys.readouterr().err
        data = json.loads(report.read_text())
        assert (data["error"]["class"], data["error"]["exit_code"]) == ("ValueError", 2)
        # the system file is recorded before it is parsed, so the report names the file that failed; the
        # certificate, never read, is not an input of this run
        digest = hashlib.sha256((tmp_path / "overflow.json").read_bytes()).hexdigest()[:16]
        assert data["inputs"] == {"system": {"path": str(tmp_path / "overflow.json"), "sha256": digest}}

    @pytest.mark.parametrize("verb", ["verify", "analyze", "interconnect"])
    def test_overflow_in_a_check_is_a_numerical_failure(self, tmp_path, capsys, verb):
        # 2 lam P overflows in the residual (and inf * 0 gives NaN), or B M C in the loop's state matrix: a numerical
        # failure (exit 3) with its report, and no RuntimeWarning on the way
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"P": [[-1, 0], [0, 1]], "lambda": 1e308, "p": 1}))
        part = {**registry.msd(8.0).to_dict(), "B": [[0], [1e200]], "C": [[0, 1e200]]}
        storage = {"P": registry.PASSIVITY_STORAGE_C8.tolist(), "p": 1}
        loop = tmp_path / "loop.json"
        loop.write_text(json.dumps({"sys1": part, "sys2": part, "supply1": {"kind": "passivity"},
                                    "supply2": {"kind": "passivity"}, "lambda": 1.2679, "cert1": storage,
                                    "cert2": storage}))
        argv = {"verify": ["verify", "msd-c4", str(cert)], "interconnect": ["interconnect", str(loop)],
                "analyze": ["analyze", "msd-c4", "--lambda", "1e308", "--p", "2"]}[verb]
        report = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["--report", str(report), *argv]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert json.loads(report.read_text())["error"]["class"] == "NumericalError"

    @pytest.mark.parametrize("epsilon, code", [(0.0, 1), (float("nan"), 2), (float("inf"), 2)])
    def test_non_finite_epsilon_is_input_error(self, tmp_path, epsilon, code):
        # lmax = 4 on diag(1, 2): fails at epsilon 0, and a non-finite epsilon is no claim at all
        sys_path = tmp_path / "diag.json"
        sys_path.write_text(json.dumps({"A": [[1.0, 0.0], [0.0, 2.0]], "B": [[0.0], [0.0]], "C": [[0.0, 0.0]]}))
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps({"P": [[-1.0, 0.0], [0.0, 1.0]], "lambda": 0.0, "epsilon": epsilon, "p": 1}))
        assert cli.main(["verify", str(sys_path), str(cert_path)]) == code

    def test_dissipativity_with_supply(self, tmp_path):
        sys_path = tmp_path / "msd8.json"
        sys_path.write_text(json.dumps(registry.msd(8.0).to_dict()))
        cert_path = tmp_path / "cert8.json"
        cert_path.write_text(
            json.dumps(
                {
                    "P": registry.PASSIVITY_STORAGE_C8.tolist(),
                    "lambda": registry.KNOWN_RATE,
                    "epsilon": 0.0,
                    "p": 1,
                }
            )
        )
        supply_path = tmp_path / "supply.json"
        supply_path.write_text(json.dumps({"kind": "passivity"}))
        assert cli.main(["verify", str(sys_path), str(cert_path), "--supply", str(supply_path)]) == 0
        supply_path.write_text(json.dumps({"kind": "gain", "gamma": 0.2}))
        assert cli.main(["verify", str(sys_path), str(cert_path), "--supply", str(supply_path)]) == 1

    def test_lure_vertex_verify(self, tmp_path):
        sys_path = tmp_path / "lure.json"
        sys_path.write_text(json.dumps(registry.nonlinear_msd("velocity", "cubic").to_dict()))
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(
            json.dumps({"P": registry.DIFF_STORAGE_VELOCITY.tolist(), "lambda": 1.0, "p": 1})
        )
        assert cli.main(["verify", str(sys_path), str(cert_path)]) == 0

    @pytest.mark.parametrize(
        "claim",
        [{"p": 0}, {"p": 1, "epsilon": 100.0}],
        ids=["wrong_p", "unmet_epsilon"],
    )
    def test_lure_certificate_held_to_its_claim(self, tmp_path, capsys, claim):
        # diag(-1, 1) is a rate-1 storage of inertia (1, 0, 1) with a vertex margin far below 100
        sys_path = tmp_path / "lure.json"
        sys_path.write_text(json.dumps(registry.nonlinear_msd("velocity", "cubic").to_dict()))
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps({"P": registry.DIFF_STORAGE_VELOCITY.tolist(), "lambda": 1.0, **claim}))
        report_path = tmp_path / "report.json"
        assert cli.main(["--report", str(report_path), "verify", str(sys_path), str(cert_path)]) == 1
        verdict = json.loads(report_path.read_text())["verdicts"][0]
        assert verdict["check"] == "dominance"
        assert verdict["passed"] is False
        assert verdict["p"] == claim["p"]

    def test_lure_certificate_failing_one_vertex(self, tmp_path, capsys):
        # A alone passes at rate 0.5; the vertex at slope -3 does not
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps({"P": [[-1.0, 0.0], [0.0, 1.0]], "lambda": 0.5, "p": 1}))
        report_path = tmp_path / "report.json"
        assert cli.main(["--report", str(report_path), "verify", "nl-msd", str(cert_path)]) == 1
        assert "dominance: residual_violation" in capsys.readouterr().out
        verdict = json.loads(report_path.read_text())["verdicts"][0]
        assert [(v["corner"], v["passed"]) for v in verdict["vertices"]] == [([-3.0], False), ([1.0], True)]
        # the witness eigenvalue is the failing vertex's lmax, and null on the passing one
        assert [v["witness_eigenvalue"] for v in verdict["vertices"]] == [verdict["vertices"][0]["lmax"], None]
        assert all(v["split_ok"] for v in verdict["vertices"])

    def test_failing_linear_report_carries_the_witness(self, tmp_path, capsys):
        sys_path = tmp_path / "diag.json"
        sys_path.write_text(json.dumps({"A": [[1.0, 0.0], [0.0, 2.0]], "B": [[0.0], [0.0]], "C": [[0.0, 0.0]]}))
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps({"P": [[-1.0, 0.0], [0.0, 1.0]], "lambda": 0.0, "p": 1}))
        report_path = tmp_path / "report.json"
        assert cli.main(["--report", str(report_path), "verify", str(sys_path), str(cert_path)]) == 1
        assert capsys.readouterr().out == "dominance: residual_violation\n"
        verdict = json.loads(report_path.read_text())["verdicts"][0]
        assert verdict["check"] == "dominance" and verdict["status"] == "residual_violation"
        assert verdict["inertia"] == [1, 0, 1] and verdict["worst_lmax"] == 4.0
        assert verdict["vertices"] == [
            {"corner": [], "passed": False, "status": "residual_violation", "lmax": 4.0,
             "witness_eigenvalue": 4.0, "split_ok": None}
        ]

    def test_failed_report_names_the_witness_vector_and_corner(self, tmp_path):
        # the vertex at slope -3 fails at rate 0.5: the report carries its corner and the top eigenvector of its residual
        from pdom.differential import hull_points
        from pdom.lti import residual

        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps({"P": [[-1.0, 0.0], [0.0, 1.0]], "lambda": 0.5, "p": 1}))
        canonical = []
        for _ in range(2):
            report = cli.RunReport(command="verify")
            args = cli.build_parser().parse_args(["verify", "nl-msd", str(cert_path)])
            assert args.func(args, report) == cli.EXIT_CRITERION_FAILED
            data = report.to_dict()
            data.pop("wall_time_s")
            canonical.append(json.dumps(data, sort_keys=True))
        assert canonical[0] == canonical[1]
        verdict = json.loads(canonical[0])["verdicts"][0]
        assert verdict["witness_corner"] == [-3.0]
        v = np.array(verdict["witness"])
        J = hull_points(registry.builtin_system("nl-msd"), [[-3.0]])[0]
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert v @ residual(J, np.diag([-1.0, 1.0]), 0.5) @ v == pytest.approx(verdict["worst_lmax"], rel=1e-12)

    def test_passing_report_has_no_witness(self, tmp_path):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps({"P": registry.DIFF_STORAGE_VELOCITY.tolist(), "lambda": 1.0, "p": 1}))
        report_path = tmp_path / "report.json"
        assert cli.main(["--report", str(report_path), "verify", "nl-msd", str(cert_path)]) == 0
        verdict = json.loads(report_path.read_text())["verdicts"][0]
        assert verdict["witness"] is None and verdict["witness_corner"] is None

    @pytest.mark.parametrize(
        "file, text, message",
        [
            ("system", '{"A": [[NaN, 0], [0, 2]], "B": [[0], [0]], "C": [[0, 0]]}', "non-finite number"),
            ("system", '{"A": [[1e999, 0], [0, 2]], "B": [[0], [0]], "C": [[0, 0]]}', "non-finite number"),
            ("certificate", '{"P": [[-1, 0], [0, Infinity]], "lambda": 0, "p": 1}', "non-finite number"),
            ("supply", '{"kind": "gain", "gamma": NaN}', "non-finite number"),
            # numpy would read a null inside a matrix as NaN, a numerical failure (exit 3)
            ("system", '{"A": [[null, 0], [0, 2]], "B": [[0], [0]], "C": [[0, 0]]}', "null is not an input value"),
            ("certificate", '{"P": null, "lambda": 0, "p": 1}', "null is not an input value"),
            ("supply", '{"Q": [[null]], "L": [[1]], "R": [[0]]}', "null is not an input value"),
        ],
        ids=["nan-system", "overflow-system", "infinity-certificate", "nan-supply", "null-system",
             "null-certificate", "null-supply"],
    )
    def test_non_finite_json_number_is_input_error(self, tmp_path, capsys, file, text, message):
        paths = {name: tmp_path / f"{name}.json" for name in ("system", "certificate", "supply")}
        paths["system"].write_text(json.dumps({"A": [[1, 0], [0, 2]], "B": [[0], [0]], "C": [[0, 0]]}))
        paths["certificate"].write_text(json.dumps({"P": [[-1, 0], [0, 1]], "lambda": 0, "p": 1}))
        paths["supply"].write_text(json.dumps({"kind": "passivity"}))
        paths[file].write_text(text)
        report = tmp_path / "r.json"
        argv = ["--report", str(report), "verify", str(paths["system"]), str(paths["certificate"]),
                "--supply", str(paths["supply"])]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert message in err and f"{file}.json" in err
        assert json.loads(report.read_text())["error"]["exit_code"] == 2

    @pytest.mark.parametrize(
        "file, text, message",
        [
            ("certificate", '{"P": [[-1, 0], [0, 1%s]], "lambda": 0, "p": 1}' % ("0" * 399), "non-finite number 1000"),
            ("certificate", '{"P": [[-1, 0], [0, 1]], "lambda": 1%s, "p": 1}' % ("0" * 400), "non-finite number 1000"),
            ("system", "[" * 990 + "]" * 990, "nested too deep"),
        ],
        ids=["400-digit-entry", "401-digit-lambda", "nested-990-deep"],
    )
    def test_json_that_crashed_the_loader_is_input_error(self, tmp_path, capsys, file, text, message):
        # each one printed a traceback (OverflowError, TypeError, RecursionError), exited 1 and wrote no report
        paths = {name: tmp_path / f"{name}.json" for name in ("system", "certificate")}
        paths["system"].write_text(json.dumps({"A": [[1, 0], [0, 2]], "B": [[0], [0]], "C": [[0, 0]]}))
        paths["certificate"].write_text(json.dumps({"P": [[-1, 0], [0, 1]], "lambda": 0, "p": 1}))
        paths[file].write_text(text)
        report = tmp_path / "r.json"
        assert cli.main(["--report", str(report), "verify", str(paths["system"]), str(paths["certificate"])]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and message in err and f"{file}.json" in err
        assert json.loads(report.read_text())["error"]["exit_code"] == 2

    def test_model_nested_too_deep_is_input_error(self, tmp_path, capsys):
        # 900 scaled wrappers decode, and building the model then ran out of stack: a traceback, exit 1, no report
        sigma = {"kind": "cubic_saturated"}
        for _ in range(900):
            sigma = {"kind": "scaled", "factor": 1.0, "base": sigma}
        channel = {"g": [0, 0.01], "h": [1, 0], "sigma": sigma, "alpha": -3, "beta": 1}
        system = tmp_path / "deep.json"
        system.write_text(json.dumps({"A": [[0, 1], [-1, -8]], "B": [[0], [1]], "C": [[1, 0]], "channels": [channel]}))
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"P": [[-1, 0], [0, 1]], "lambda": 1, "p": 1}))
        report = tmp_path / "r.json"
        assert cli.main(["--report", str(report), "verify", str(system), str(cert)]) == 2
        assert capsys.readouterr().err.startswith("input error: maximum recursion depth exceeded")
        error = json.loads(report.read_text())["error"]
        assert error["class"] == "RecursionError" and error["exit_code"] == 2

    @pytest.mark.parametrize("supply", [None, {"kind": "passivity"}], ids=["dominance", "dissipativity"])
    def test_claimed_p_null_is_input_error(self, tmp_path, capsys, supply):
        # int(None) would raise a TypeError: exit 1 with a traceback and no report
        cert = {"P": [[-1, 0], [0, 1]], "lambda": 1.2679, "p": None}
        if supply is not None:
            cert["supply"] = supply
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        report = tmp_path / "r.json"
        assert cli.main(["--report", str(report), "verify", "msd-c4", str(cert_path)]) == 2
        assert capsys.readouterr().err.startswith("input error: ")
        assert json.loads(report.read_text())["error"]["exit_code"] == 2

    @pytest.mark.parametrize("supply", [None, {"kind": "passivity"}], ids=["dominance", "dissipativity"])
    @pytest.mark.parametrize("system", ["nl-msd", "msd-c8"])
    def test_claimed_p_out_of_range_is_input_error(self, tmp_path, capsys, system, supply):
        cert = {"P": registry.DIFF_STORAGE_VELOCITY.tolist(), "lambda": 1.0, "p": 5}
        if supply is not None:
            cert["supply"] = supply
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        assert cli.main(["verify", system, str(cert_path)]) == 2
        assert "outside" in capsys.readouterr().err


    @pytest.mark.parametrize("field", ["lambda", "epsilon"])
    @pytest.mark.parametrize("supply", [None, {"kind": "passivity"}], ids=["dominance", "dissipativity"])
    def test_rate_or_margin_not_a_number_is_input_error(self, tmp_path, capsys, field, supply):
        # float() read true as 1.0, and this claim passes with a rate or a margin of 1.0
        cert = {"P": [[-1.0, 0.0], [0.0, 1.0]], "lambda": 1.0, "p": 1, field: True}
        if supply is not None:
            cert["supply"] = supply
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        report = tmp_path / "r.json"
        assert cli.main(["--report", str(report), "verify", "msd-c4", str(cert_path)]) == 2
        assert "must be a number" in capsys.readouterr().err
        error = json.loads(report.read_text())["error"]
        assert error["class"] == "ValueError" and error["exit_code"] == 2

    @pytest.mark.parametrize("field", ["alpha", "beta", "factor", "gamma"])
    def test_boolean_model_or_supply_number_is_input_error(self, tmp_path, capsys, field):
        # float() read true as 1.0, and each of these files then built a valid model or supply
        sigma = {"kind": "tabulated", "knots": [-1.0, 0.0, 1.0], "values": [-1.0, 0.0, 1.0]}
        if field == "factor":
            sigma = {"kind": "scaled", "factor": True, "base": sigma}
        channel = {"g": [0.0, 0.01], "h": [1.0, 0.0], "sigma": sigma, "alpha": 1.0, "beta": 1.0}
        channel.update({field: True} if field in ("alpha", "beta") else {})
        system = {"A": [[0.0, 1.0], [-1.0, -8.0]], "B": [[0.0], [1.0]], "C": [[0.0, 1.0]], "channels": [channel]}
        cert = {"P": [[-1.0, 0.0], [0.0, 1.0]], "lambda": 1.0, "p": 1}
        if field == "gamma":
            cert["supply"] = {"kind": "gain", "gamma": True}
        sys_path, cert_path = tmp_path / "sys.json", tmp_path / "cert.json"
        sys_path.write_text(json.dumps(system))
        cert_path.write_text(json.dumps(cert))
        report = tmp_path / "r.json"
        assert cli.main(["--report", str(report), "verify", str(sys_path), str(cert_path)]) == 2
        assert f"{field} must be a number, got True" in capsys.readouterr().err
        error = json.loads(report.read_text())["error"]
        assert error["class"] == "ValueError" and error["exit_code"] == 2

    def test_overflowing_gain_is_input_error(self, tmp_path, capsys):
        # gamma^2 overflows to inf: an input error, not a numerical failure (exit 3)
        cert = {"P": [[-1, 0], [0, 1]], "lambda": 1.2679, "p": 1, "supply": {"kind": "gain", "gamma": 1e200}}
        cert_path, report = tmp_path / "c.json", tmp_path / "r.json"
        cert_path.write_text(json.dumps(cert))
        assert cli.main(["--report", str(report), "verify", "msd-c8", str(cert_path)]) == 2
        assert "gain bound must be nonnegative with a finite square" in capsys.readouterr().err
        error = json.loads(report.read_text())["error"]
        assert error["class"] == "ValueError" and error["exit_code"] == 2

    def test_too_many_channels_is_input_error(self, tmp_path, capsys):
        # 17 channels make 2^17 vertices, above MAX_VERTICES: refused before any corner is built
        channel = {"g": [0.0, 0.01], "h": [1.0, 0.0], "sigma": {"kind": "cubic_saturated"}, "alpha": -3.0, "beta": 1.0}
        system = {"A": [[0.0, 1.0], [-1.0, -8.0]], "B": [[0.0], [1.0]], "C": [[1.0, 0.0]], "channels": [channel] * 17}
        sys_path, cert_path = tmp_path / "k17.json", tmp_path / "cert.json"
        sys_path.write_text(json.dumps(system))
        cert_path.write_text(json.dumps({"P": [[-1.0, 0.0], [0.0, 1.0]], "lambda": 1.0, "p": 1}))
        report = tmp_path / "r.json"
        assert cli.main(["--report", str(report), "verify", str(sys_path), str(cert_path)]) == 2
        assert "2^17 vertices" in capsys.readouterr().err
        error = json.loads(report.read_text())["error"]
        assert error["class"] == "UnsupportedConfigurationError" and error["exit_code"] == 2

    @pytest.mark.parametrize("p", [1.5, True], ids=["fractional", "boolean"])
    @pytest.mark.parametrize("supply", [None, {"kind": "passivity"}], ids=["dominance", "dissipativity"])
    def test_claimed_p_not_an_integer_is_input_error(self, tmp_path, capsys, p, supply):
        # read as p = 1, this storage would pass
        cert = {"P": registry.KNOWN_STORAGE[4].tolist(), "lambda": 1.2679, "p": p}
        if supply is not None:
            cert["supply"] = supply
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        report = tmp_path / "r.json"
        assert cli.main(["--report", str(report), "verify", "msd-c4", str(cert_path)]) == 2
        assert "integer" in capsys.readouterr().err
        error = json.loads(report.read_text())["error"]
        assert error["class"] == "ValueError" and error["exit_code"] == 2


class TestCertify:
    def test_writes_certificate(self, tmp_path, msd4_file):
        out = tmp_path / "cert.json"
        code = cli.main(
            ["certify", msd4_file, "--lambda", "1.2679", "--p", "1", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert set(data) == {"P", "lambda", "epsilon", "p"}
        assert data["epsilon"] > 0

    def test_passivity_search(self, tmp_path):
        sys_path = tmp_path / "msd8.json"
        sys_path.write_text(json.dumps(registry.msd(8.0).to_dict()))
        out = tmp_path / "pcert.json"
        code = cli.main(
            ["certify", str(sys_path), "--lambda", "1.2679", "--p", "1", "--passivity", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        P = np.asarray(data["P"])
        assert np.max(np.abs(P @ registry.msd(8.0).B - registry.msd(8.0).C.T)) <= 1e-10

    def test_non_finite_rate_is_input_error(self, capsys):
        assert cli.main(["certify", "msd-c4", "--lambda", "nan", "--p", "1"]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "system, rate, lmi_check",
        [
            ({"A": [[0, 1], [-1, -4]], "B": [[0], [0]], "C": [[1, 0]]}, "0.5",
             lambda lmi: lmi["violation"] is None and "unsatisfiable" in lmi["message"]),
            ("msd-c4", "0", lambda lmi: lmi["gap_bound"] > 0),
        ],
        ids=["no-equality-solution", "positive-gap-bound"],
    )
    def test_proven_miss_is_a_failed_check(self, tmp_path, capsys, system, rate, lmi_check):
        # B = 0 leaves P B = C^T without a solution; msd-c4 has no unstable eigenvalue at rate 0
        if isinstance(system, dict):
            path = tmp_path / "b0.json"
            path.write_text(json.dumps(system))
            system = str(path)
        report = tmp_path / "r.json"
        argv = ["--report", str(report), "certify", system, "--lambda", rate, "--p", "1", "--passivity"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("no storage: ")
        error = json.loads(report.read_text())["error"]
        assert error["class"] == "LmiInfeasibleError" and error["exit_code"] == 1
        assert lmi_check(error["lmi"])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_search_is_a_numerical_failure(self, tmp_path, capsys):
        # A^T P + P A overflows on this A: the engine refuses its block data before the first step, with no warning
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({"A": [[1e308, 0], [0, -1e308]], "B": [[1], [0]], "C": [[1, 0]]}))
        assert cli.main(["certify", str(path), "--lambda", "0.5", "--p", "1", "--passivity"]) == 3
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_singular_search_hessian_is_a_numerical_failure(self, tmp_path, capsys):
        # a well-posed model whose Newton Hessian turns singular: a search that ended without a storage (exit 3),
        # where numpy's LinAlgError, a ValueError, used to read as an input error (exit 2)
        path, report = tmp_path / "singular.json", tmp_path / "r.json"
        path.write_text(json.dumps(SINGULAR_HESSIAN_MODEL))
        argv = ["--report", str(report), "certify", str(path), "--lambda", "50000", "--p", "0", "--passivity"]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")
        error = json.loads(report.read_text())["error"]
        assert (error["class"], error["exit_code"]) == ("LmiInfeasibleError", 3)
        assert error["lmi"]["message"] == "barrier search ended without a storage" and error["lmi"]["gap_bound"] is None

    @pytest.mark.parametrize("verb", ["analyze", "certify"])
    @pytest.mark.parametrize("scale", [1e153, 1e300])
    def test_huge_state_matrix_writes_its_report(self, tmp_path, capsys, verb, scale):
        # the storage built for this A is about 1/scale in size, inside the zero band, which is absolute below 1:
        # the kernel refuses it, a numerical failure with its report and no RuntimeWarning (a zero band relative
        # to P would make it a pass). The split itself is not re-checked, so ||A||_F past 1.3e154 overflows nothing
        path, report = tmp_path / "huge.json", tmp_path / "r.json"
        path.write_text(json.dumps({"A": [[scale, scale], [-scale, scale]], "B": [[1], [0]], "C": [[1, 0]]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["--report", str(report), verb, str(path), "--lambda", "0", "--p", "2"]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")
        error = json.loads(report.read_text())["error"]
        assert error["class"] == "NumericalError"
        assert error["message"] == "constructed certificate failed verification: inertia_mismatch"

    @pytest.mark.parametrize("verb", ["analyze", "certify"])
    @pytest.mark.parametrize("case", OVERFLOWING_CONSTRUCTIONS)
    def test_overflowing_construction_writes_its_report(self, tmp_path, capsys, verb, case):
        # the split passes and the construction overflows: exit 3 with its report, and no RuntimeWarning
        path, report = tmp_path / "overflow.json", tmp_path / "r.json"
        path.write_text(json.dumps(OVERFLOWING_CONSTRUCTIONS[case]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["--report", str(report), verb, str(path), "--lambda", "0", "--p", "1"]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")
        data = json.loads(report.read_text())
        assert data["error"]["class"] == "NumericalError" and data["certificates"] == []
        assert [v["status"] for v in data["verdicts"]] == ["pass"]

    @pytest.mark.parametrize("verb", ["analyze", "certify"])
    def test_one_schur_factorization_per_claim(self, verb, monkeypatch):
        # the construction reorders the split verdict's Schur form: one gees per claim, a workspace query none
        import scipy.linalg.lapack as lapack

        calls, gees = [], lapack.dgees
        monkeypatch.setattr(lapack, "dgees", lambda *a, **k: calls.append(k["lwork"]) or gees(*a, **k))
        for system, rate, p in (("msd-c4", "1.2679", "1"), ("msd-c8", "1.2679", "1"), ("msd-c4", "0", "0")):
            calls.clear()
            assert cli.main([verb, system, "--lambda", rate, "--p", p]) == 0
            assert sum(lwork != -1 for lwork in calls) == 1

    def test_overflowing_search_radius_is_a_numerical_failure(self, tmp_path, capsys):
        # P B = C^T puts P_part near 1e160, and the search ball's radius, ten times its norm, is infinite: the search
        # ends without a storage after one step (exit 3, report written), with no RuntimeWarning
        path, report = tmp_path / "huge_c.json", tmp_path / "r.json"
        path.write_text(json.dumps({"A": [[0, 1], [-1, -8]], "B": [[0], [1]], "C": [[0, 1e160]]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            argv = ["--report", str(report), "certify", str(path), "--lambda", "1.2679", "--p", "1", "--passivity"]
            assert cli.main(argv) == 3
        error = json.loads(report.read_text())["error"]
        assert (error["class"], error["exit_code"]) == ("LmiInfeasibleError", 3)
        assert error["lmi"]["iterations"] == 1 and error["lmi"]["message"] == "barrier search ended without a storage"

    @pytest.mark.parametrize("case", OVERFLOWING_SEARCHES)
    def test_overflowing_search_writes_its_report(self, tmp_path, capsys, case):
        # an overflow in the particular solution or in a Newton system: exit 3 with its report, never the
        # "no storage" of a proof, and no RuntimeWarning on the way
        model, rate = OVERFLOWING_SEARCHES[case]
        path, report = tmp_path / "overflow.json", tmp_path / "r.json"
        path.write_text(json.dumps(model))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            argv = ["--report", str(report), "certify", str(path), "--lambda", str(rate), "--p", "1", "--passivity"]
            assert cli.main(argv) == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")
        error = json.loads(report.read_text())["error"]
        assert error["class"] in ("NumericalError", "LmiInfeasibleError") and error["exit_code"] == 3

    def test_searched_storage_the_kernel_refuses_is_a_numerical_failure(self, tmp_path, monkeypatch, capsys):
        # the kernel's verdict is a found storage's only proof: a refusal is a NumericalError, as a constructed
        # storage's is, and the report carries no search report, since the search itself succeeded
        verify = dissipativity.verify_dissipativity
        monkeypatch.setattr(dissipativity, "verify_dissipativity",
                            lambda sys, cert: verify(sys, dataclasses.replace(cert, p=cert.p + 1)))
        report = tmp_path / "r.json"
        argv = ["--report", str(report), "certify", "msd-c8", "--lambda", "1.2679", "--p", "1", "--passivity"]
        assert cli.main(argv) == 3
        assert "searched storage failed verification: inertia_mismatch" in capsys.readouterr().err
        error = json.loads(report.read_text())["error"]
        assert (error["class"], error["exit_code"]) == ("NumericalError", 3)
        assert "lmi" not in error

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "msd-c4", "--lambda", "1.2679", "--p", "1"],
            ["certify", "msd-c4", "--lambda", "1.2679", "--p", "1"],
            ["certify", "msd-c8", "--lambda", "1.2679", "--p", "1", "--passivity"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_each_verdict_solved_once(self, tmp_path, monkeypatch, capsys, argv):
        # the reported verdict is the one the construction or the search checked its storage by: one family
        # verdict per run, equal to what the public check makes of the reported certificate
        calls = []
        family_verdict = lti._family_verdict

        def counted(*args, **kwargs):
            calls.append(args)
            return family_verdict(*args, **kwargs)

        monkeypatch.setattr(lti, "_family_verdict", counted)
        monkeypatch.setattr(dissipativity, "_family_verdict", counted)
        report = tmp_path / "r.json"
        assert cli.main(["--report", str(report), *argv]) == 0
        capsys.readouterr()
        assert len(calls) == 1
        data = json.loads(report.read_text())
        [cert] = data["certificates"]
        system = registry.builtin_system(argv[1])
        if "--passivity" in argv:
            check = dissipativity.verify_dissipativity(system, dissipativity.DissipativityCertificate.from_dict(cert))
        else:
            check = lti.check_dominance(system, lti.DominanceCertificate.from_dict(cert))
        assert data["verdicts"][-1] == {"check": "dissipativity" if "--passivity" in argv else "dominance",
                                         **json.loads(json.dumps(check.to_dict()))}
        assert isinstance(data["verdicts"][-1]["rate"], float)

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "msd-c8", "--lambda", "1.2679", "--p", "7", "--passivity"],
            ["certify", "msd-c8", "--lambda", "-1", "--p", "1", "--passivity"],
            ["certify", "msd-c4", "--lambda", "1.2679", "--p", "5"],
            ["certify", "msd-c4", "--lambda", "-0.5", "--p", "1"],
            ["certify", "msd-c4", "--lambda", "-0.5", "--p", "0"],
            ["analyze", "msd-c4", "--lambda", "1.2679", "--p", "5"],
            ["analyze", "msd-c4", "--lambda", "1.2679", "--p", "-1"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_impossible_claim_is_input_error(self, tmp_path, capsys, argv):
        report = tmp_path / "r.json"
        assert cli.main(["--report", str(report), *argv]) == 2
        assert capsys.readouterr().err.startswith("input error: ")
        error = json.loads(report.read_text())["error"]
        assert error["class"] == "ValueError" and error["exit_code"] == 2

    def test_split_mismatch_is_a_failed_check(self, tmp_path, capsys):
        # msd-c4 has one unstable eigenvalue at this rate, so the requested 2-split fails: a verdict, not an error
        report, out = tmp_path / "r.json", tmp_path / "cert.json"
        argv = ["--report", str(report), "certify", "msd-c4", "--lambda", "1.2679", "--p", "2", "--out", str(out)]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "eigen_split: fail\n" and captured.err == ""
        data = json.loads(report.read_text())
        assert "error" not in data and data["certificates"] == [] and data["warnings"] == []
        [split] = data["verdicts"]
        assert split["check"] == "eigen_split" and split["status"] == "fail"
        assert (split["unstable_count"], split["requested_p"]) == (1, 2)
        assert not out.exists()

    def test_the_one_schur_form_decides_the_split(self, tmp_path, monkeypatch, capsys):
        # the split verdict and the construction read one spectrum, the unsorted Schur form's: with msd-c4's unstable
        # eigenvalue at this rate moved to 5e-8 off the axis there, both find the claim inconclusive (exit 1, a warning)
        msd_c4, original = registry.builtin_system("msd-c4"), mc._real_schur

        def near_axis(mat):
            T, Z, spectrum = original(mat)
            spectrum = spectrum.copy()
            spectrum[spectrum.real.argmax()] = -1.2679 + 5e-8
            return T, Z, spectrum

        assert lti.eigen_split_test(msd_c4, 1.2679, 1).passed
        lti.construct_certificate(msd_c4, 1.2679, 1)
        monkeypatch.setattr(mc, "_real_schur", near_axis)
        assert lti.eigen_split_test(msd_c4, 1.2679, 1).status == "inconclusive"
        with pytest.raises(ValueError, match="lies within 1.0e-07 of the imaginary axis"):
            lti.construct_certificate(msd_c4, 1.2679, 1)
        for verb in ("analyze", "certify"):
            report = tmp_path / f"{verb}.json"
            assert cli.main(["--report", str(report), verb, "msd-c4", "--lambda", "1.2679", "--p", "1"]) == 1
            assert capsys.readouterr().err == ""
            data = json.loads(report.read_text())
            assert "error" not in data and data["certificates"] == []
            assert [v["status"] for v in data["verdicts"]] == ["inconclusive"]
            assert data["warnings"] == ["split inconclusive: an eigenvalue sits on the shifted axis"]

    @pytest.mark.parametrize(
        "system, rate",
        [(name, rate) for name in ("msd-c4", "msd-c8") for rate in ("0", "0.5", "1.2679", "3")]
        + [("msd-c4", "0.26794919243112281"), ("on-axis", "0")],
    )
    def test_certify_decides_as_analyze(self, tmp_path, capsys, system, rate):
        # the same exit code, split verdict, certificate, check and warnings for every p; on-axis splits 1e-8, -1e-8
        inconclusive = system == "on-axis" or rate == "0.26794919243112281"  # an eigenvalue on the shifted axis
        if system == "on-axis":
            system = str(tmp_path / "on_axis.json")
            pathlib.Path(system).write_text(json.dumps({"A": [[1e-8, 0], [0, -1e-8]], "B": [[0], [0]], "C": [[0, 0]]}))
        codes = set()
        for p in range(3):
            runs = []
            for verb in ("analyze", "certify"):
                report = tmp_path / f"{verb}.json"
                code = cli.main(["--report", str(report), verb, system, "--lambda", rate, "--p", str(p)])
                data = json.loads(report.read_text())
                runs.append((code, data["verdicts"], data["certificates"], data["warnings"], data.get("error")))
            assert runs[0] == runs[1]
            assert runs[0][1][0]["check"] == "eigen_split"
            codes.add(runs[0][0])
        capsys.readouterr()
        assert codes == ({1} if inconclusive else {0, 1})


class TestInterconnect:
    def _loop_file(self, tmp_path, gamma2=None):
        sys8 = registry.msd(8.0)
        data = {
            "sys1": sys8.to_dict(),
            "sys2": sys8.to_dict(),
            "supply1": {"kind": "passivity"},
            "supply2": {"kind": "passivity"},
            "lambda": registry.KNOWN_RATE,
            "cert1": {"P": registry.PASSIVITY_STORAGE_C8.tolist(), "p": 1},
            "cert2": {"P": registry.PASSIVITY_STORAGE_C8.tolist(), "p": 1},
        }
        if gamma2 is not None:
            data["supply2"] = {"kind": "gain", "gamma": gamma2}
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_passive_loop_certified(self, tmp_path, capsys):
        assert cli.main(["interconnect", self._loop_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "closed_loop: pass" in out

    def test_coupling_failure(self, tmp_path):
        # gain 2 against passivity: the pure-output block goes positive
        assert cli.main(["interconnect", self._loop_file(tmp_path, gamma2=2.0)]) == 1

    def test_failed_open_loop_certificate_is_a_failed_check(self, tmp_path, capsys):
        # diag(-1, 1) certifies no passivity of msd-c8 at rate 0, and `pdom verify` on it exits 1 too
        path = self._loop_file(tmp_path)
        data = json.loads(pathlib.Path(path).read_text())
        data["lambda"] = 0
        data["cert1"] = data["cert2"] = {"P": [[-1, 0], [0, 1]], "p": 1}
        pathlib.Path(path).write_text(json.dumps(data))
        report = tmp_path / "r.json"
        assert cli.main(["--report", str(report), "interconnect", path]) == 1
        assert "interconnection failed: an open-loop certificate failed verification" in capsys.readouterr().err
        assert json.loads(report.read_text())["error"] == {
            "class": "CouplingError", "message": "an open-loop certificate failed verification", "exit_code": 1,
        }

    def test_mismatched_rates_are_an_input_error(self, tmp_path, capsys):
        # cert1 carries a rate of its own, 0.5 against the loop's: a loop certificate needs one rate
        path = self._loop_file(tmp_path)
        data = json.loads(pathlib.Path(path).read_text())
        data["cert1"]["lambda"] = 0.5
        pathlib.Path(path).write_text(json.dumps(data))
        report = tmp_path / "r.json"
        assert cli.main(["--report", str(report), "interconnect", path]) == 2
        message = f"rates differ: 0.5 vs {registry.KNOWN_RATE} (uniform rate required)"
        assert f"input error: {message}" in capsys.readouterr().err
        assert json.loads(report.read_text())["error"] == {"class": "ValueError", "message": message, "exit_code": 2}

    def test_overflowing_gain_supply_is_input_error(self, tmp_path, capsys):
        path = self._loop_file(tmp_path, gamma2=1e200)
        assert cli.main(["interconnect", path]) == 2
        assert "gain bound must be nonnegative with a finite square" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["feedthrough", "wide"])
    def test_loop_refusals_keep_their_class(self, tmp_path, case):
        # a part with D != 0, and channel widths no loop can join, are input errors
        path = self._loop_file(tmp_path)
        data = json.loads(pathlib.Path(path).read_text())
        if case == "feedthrough":
            data["sys2"]["D"] = [[1.0]]
            expected = "UnsupportedConfigurationError"
        else:
            data["sys2"] = {"A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[1.0, 0.0], [0.0, 1.0]], "C": [[1.0, 1.0]]}
            data["supply1"] = data["supply2"] = {"kind": "gain", "gamma": 0.5}
            data["cert2"] = {"P": [[1.0, 0.0], [0.0, 1.0]], "p": 0}
            expected = "DimensionError"
        pathlib.Path(path).write_text(json.dumps(data))
        report = tmp_path / "r.json"
        assert cli.main(["--report", str(report), "interconnect", path]) == 2
        error = json.loads(report.read_text())["error"]
        assert error["class"] == expected and error["exit_code"] == 2

    def test_balanced_gain_pair_loop(self, tmp_path):
        # small-gain pair around the product boundary, expressed with
        # explicitly scaled supplies (storage scaled alike)
        from pdom.dissipativity import small_gain_pair

        sys8 = registry.msd(8.0)
        g1 = 0.35  # above the minimum feasible bound 0.3031
        for delta, expected in ((-0.2, 0), (+0.2, 1)):
            g2 = 1.0 / g1 + delta
            s1, s2 = small_gain_pair(g1, g2)
            tau = g1 / g2
            data = {
                "sys1": sys8.to_dict(),
                "sys2": sys8.to_dict(),
                "supply1": s1.to_dict(),
                "supply2": s2.to_dict(),
                "lambda": registry.KNOWN_RATE,
                "cert1": {"P": registry.PASSIVITY_STORAGE_C8.tolist(), "p": 1},
                "cert2": {"P": (tau * registry.PASSIVITY_STORAGE_C8).tolist(), "p": 1},
            }
            path = tmp_path / "gain_loop.json"
            path.write_text(json.dumps(data))
            assert cli.main(["interconnect", str(path)]) == expected

    def test_lure_loop(self, tmp_path):
        sys = registry.nonlinear_msd("mixed", "cubic")
        data = {
            "sys1": sys.to_dict(),
            "sys2": sys.to_dict(),
            "supply1": {"kind": "passivity"},
            "supply2": {"kind": "passivity"},
            "lambda": 1.0,
            "cert1": {"P": registry.DIFF_STORAGE_MIXED.tolist(), "p": 1},
            "cert2": {"P": registry.DIFF_STORAGE_MIXED.tolist(), "p": 1},
        }
        path = tmp_path / "lure_loop.json"
        path.write_text(json.dumps(data))
        assert cli.main(["interconnect", str(path)]) == 0

    def test_loop_certificate_p_out_of_range(self, tmp_path, capsys):
        path = self._loop_file(tmp_path)
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        data["cert1"]["p"] = 9
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        assert cli.main(["interconnect", path]) == 2
        assert "outside" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, bad, message",
        [
            pytest.param("lambda", True, "rate must be a number, got True", id="lambda"),
            pytest.param("cert1", True, "rate must be a number, got True", id="cert1"),
            pytest.param("lambda", "1.2679", "rate must be a number, got '1.2679'", id="lambda-string"),
            pytest.param("lambda", -0.5, "rate must be nonnegative, got -0.5", id="lambda-negative"),
        ],
    )
    def test_loop_rate_not_a_number(self, tmp_path, capsys, key, bad, message):
        path = self._loop_file(tmp_path)
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if key == "lambda":
            data["lambda"] = bad
        else:
            data["cert1"]["lambda"] = bad
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        report = tmp_path / "r.json"
        assert cli.main(["--report", str(report), "interconnect", path]) == 2
        assert message in capsys.readouterr().err
        if key == "lambda":
            # the loop's rate is held to the claim rule before the coupling test
            assert json.loads(report.read_text())["verdicts"] == []

    def test_integer_loop_rate_is_reported_as_float(self, tmp_path):
        # two passive first-order lags, certified at rate 0 by P = 1 with the loop's rate as their default
        lag = {"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]]}
        data = {"sys1": lag, "sys2": lag, "supply1": {"kind": "passivity"}, "supply2": {"kind": "passivity"},
                "lambda": 0, "cert1": {"P": [[1.0]], "p": 0}, "cert2": {"P": [[1.0]], "p": 0}}
        path, report = tmp_path / "lag_loop.json", tmp_path / "r.json"
        path.write_text(json.dumps(data))
        assert cli.main(["--report", str(report), "interconnect", str(path)]) == 0
        out = json.loads(report.read_text())
        for rate in (out["verdicts"][-1]["lambda"], out["certificates"][0]["lambda"]):
            assert rate == 0.0 and type(rate) is float

    def test_passive_loop_searches_its_storages(self, tmp_path):
        from pdom.dissipativity import find_passivity_storage

        path = self._loop_file(tmp_path)
        data = json.loads(pathlib.Path(path).read_text())
        del data["cert1"], data["cert2"]
        pathlib.Path(path).write_text(json.dumps(data))
        report = tmp_path / "r.json"
        assert cli.main(["--report", str(report), "interconnect", path]) == 0
        cert = json.loads(report.read_text())["certificates"][0]
        storage = find_passivity_storage(registry.msd(8.0), registry.KNOWN_RATE, 1).P
        assert cert["p"] == 2
        assert np.array_equal(np.asarray(cert["P"]), np.block([[storage, np.zeros((2, 2))], [np.zeros((2, 2)), storage]]))

    @pytest.mark.parametrize("case", ["searched storage", "coupled supply"])
    def test_overflow_writes_its_report(self, tmp_path, capsys, case):
        # a second part with C = [[0, 1e200]] and no certificates: its storage search gets an infinite ball radius
        # and ends without a storage. Supplies of 1e308 on Q1 and R2: the network's Q overflows and SupplyRate
        # refuses it. Both are numerical failures with their report, and no RuntimeWarning
        path = self._loop_file(tmp_path)
        data = json.loads(pathlib.Path(path).read_text())
        if case == "searched storage":
            del data["cert1"], data["cert2"]
            data["sys2"]["C"] = [[0, 1e200]]
            error_class = "LmiInfeasibleError"
        else:
            data["supply1"] = {"Q": [[1e308]], "L": [[0]], "R": [[0]]}
            data["supply2"] = {"Q": [[0]], "L": [[0]], "R": [[1e308]]}
            data["cert1"] = data["cert2"] = {"P": [[-1, 0], [0, 1]], "p": 1}
            error_class = "NumericalError"
        pathlib.Path(path).write_text(json.dumps(data))
        report = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["--report", str(report), "interconnect", path]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")
        assert json.loads(report.read_text())["error"]["class"] == error_class

    def test_storage_is_searched_only_for_the_passivity_supply(self, tmp_path, capsys):
        # Q = 0 but not the passivity supply: a passivity storage would certify a different claim
        path = self._loop_file(tmp_path)
        data = json.loads(pathlib.Path(path).read_text())
        del data["cert1"], data["cert2"]
        data["supply1"] = data["supply2"] = {"Q": [[0.0]], "L": [[2.0]], "R": [[-1.0]]}
        pathlib.Path(path).write_text(json.dumps(data))
        assert cli.main(["interconnect", path]) == 2
        assert "input error: loop file must provide cert1 (a storage) for this subsystem" in capsys.readouterr().err

    @pytest.mark.parametrize("p", [1.5, True], ids=["fractional", "boolean"])
    def test_loop_certificate_p_not_an_integer(self, tmp_path, capsys, p):
        path = self._loop_file(tmp_path)
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        data["cert2"]["p"] = p
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        assert cli.main(["interconnect", path]) == 2
        assert "integer" in capsys.readouterr().err


class TestSimulate:
    def test_fixed_point_run(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = cli.main(
            [
                "simulate", "nl-msd", "--x0", "1,1", "--t", "100", "--dt", "0.001",
                "--record-every", "10", "--out", str(out),
            ]
        )
        assert code == 0
        assert "asymptotics: fixed_point" in capsys.readouterr().out
        assert out.read_text().startswith("t,x1,x2")

    def test_divergent_exit_zero(self, tmp_path):
        sys_path = tmp_path / "unstable.json"
        sys_path.write_text(
            json.dumps({"name": "u", "A": [[1.0]], "B": [[0.0]], "C": [[1.0]], "D": [[0.0]]})
        )
        code = cli.main(["simulate", str(sys_path), "--x0", "1", "--t", "60", "--dt", "0.01"])
        assert code == 0

    def test_zero_dt_rejected(self):
        assert cli.main(["simulate", "nl-msd", "--x0", "1,1", "--dt", "0"]) == 2

    def test_horizon_off_the_step_grid_is_input_error(self, tmp_path, capsys):
        # 1 / 0.4 is 2.5 steps: the run used to end at t = 0.8 with samples: 3 while its report said t: 1.0
        report = tmp_path / "r.json"
        assert cli.main(["--report", str(report), "simulate", "msd-c4", "--x0", "1,1", "--t", "1", "--dt", "0.4"]) == 2
        assert "whole number of steps" in capsys.readouterr().err
        assert json.loads(report.read_text())["error"]["exit_code"] == 2

    def test_wrong_x0_dimension(self):
        assert cli.main(["simulate", "nl-msd", "--x0", "1,1,1"]) == 2

    @pytest.mark.parametrize("x0", ["-1,1", "-.5,2", "-1e-3,1"])
    def test_negative_first_entry(self, tmp_path, capsys, x0):
        # argparse alone reads "-1,1" as an option, leaving --x0 without its value
        report = tmp_path / "r.json"
        assert cli.main(["--report", str(report), "simulate", "nl-msd", "--x0", x0, "--t", "1"]) == 0
        assert json.loads(report.read_text())["inputs"]["x0"] == [float(v) for v in x0.split(",")]
        argv = ["--report", str(report), "simulate", "nl-loop", "--x0", "1,0,0,0", "--input", x0, "--t", "1"]
        assert cli.main(argv) == 0
        assert json.loads(report.read_text())["inputs"]["input"] == [float(v) for v in x0.split(",")]

    @pytest.mark.parametrize("argv", [["--x0"], ["--x0", "--t", "1"], ["--x0", "1,1", "--input"]],
                             ids=["x0-last", "x0-before-flag", "input-last"])
    def test_vector_flag_without_value_is_usage_error(self, tmp_path, capsys, argv):
        report = tmp_path / "r.json"
        assert cli.main(["--report", str(report), "simulate", "nl-msd", *argv]) == 2
        assert "expected one argument" in capsys.readouterr().err
        assert json.loads(report.read_text())["error"]["class"] == "UsageError"

    @pytest.mark.parametrize(
        "args",
        [["--x0", "1,1", "--t", "inf"], ["--x0", "1,1", "--t", "nan"], ["--x0", "1,1", "--dt", "nan"],
         ["--x0", "nan,1"], ["--x0", "1,1", "--input", "inf"], ["--x0", "1,1", "--t", "1e300", "--dt", "1e-10"]],
        ids=["t-inf", "t-nan", "dt-nan", "x0-nan", "input-inf", "steps-overflow"],
    )
    def test_non_finite_number_is_input_error(self, tmp_path, capsys, args):
        report = tmp_path / "r.json"
        argv = ["--report", str(report), "simulate", "msd-c4", *args]
        if "--t" not in args:
            argv += ["--t", "1"]
        if "--dt" not in args:
            argv += ["--dt", "0.01"]
        assert cli.main(argv) == 2
        assert "finite" in capsys.readouterr().err
        assert json.loads(report.read_text())["error"]["exit_code"] == 2

    def test_overflowing_input_term_is_input_error(self, tmp_path, capsys):
        # a finite input whose B u overflows: exit 2 with its report, and no RuntimeWarning
        path, report = tmp_path / "m.json", tmp_path / "r.json"
        path.write_text(json.dumps({"A": [[0, 1], [-1, -8]], "B": [[0], [10]], "C": [[0, 1]]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            argv = ["--report", str(report), "simulate", str(path), "--x0", "1,1", "--t", "1", "--dt", "0.1",
                    "--input", "1e308"]
            assert cli.main(argv) == 2
        assert "B u must be finite" in capsys.readouterr().err
        assert json.loads(report.read_text())["error"]["exit_code"] == 2


class TestNumericPolicyOverride:
    def test_env_override_is_ignored(self, tmp_path, monkeypatch):
        # tolerances are fixed: a file asking for a sloppy lmi_tol cannot turn the failing small-gain check into a pass
        sys_path = tmp_path / "msd8.json"
        sys_path.write_text(json.dumps(registry.msd(8.0).to_dict()))
        cert_path = tmp_path / "cert8.json"
        cert_path.write_text(
            json.dumps(
                {
                    "P": registry.PASSIVITY_STORAGE_C8.tolist(),
                    "lambda": registry.KNOWN_RATE,
                    "epsilon": 0.0,
                    "p": 1,
                    "supply": {"kind": "gain", "gamma": 0.2},
                }
            )
        )
        assert cli.main(["verify", str(sys_path), str(cert_path)]) == 1
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(json.dumps({"lmi_tol": 10.0}))
        monkeypatch.setenv("PDOM_NUMERIC_POLICY", str(policy_path))
        assert cli.main(["verify", str(sys_path), str(cert_path)]) == 1


class TestRunReport:
    # one run per exit code; a report is written on every path and names the error that ended the run
    @pytest.mark.parametrize(
        "argv, code, error",
        [
            (["analyze", "msd-c4", "--lambda", "1.2679", "--p", "1"], 0, None),
            (["simulate", "nl-msd", "--x0", "1,1", "--t", "10"], 0, None),
            (["certify", "msd-c4", "--lambda", "1.2679", "--p", "2"], 1, None),
            (["verify", "nosuch.json", "nosuch2.json"], 2, "PdomError"),
            (["certify", "msd-c8", "--lambda", "1.2679", "--p", "0", "--passivity"], 3, "LmiInfeasibleError"),
            (["certify", "msd-c4", "--lambda", "1.2679", "--p", "1", "--out", "no_such_dir/x.json"], 2,
             "FileNotFoundError"),
            (["interconnect", "list_cert1.json"], 2, "ValueError"),
        ],
        ids=["exit0-analyze", "exit0-simulate", "exit1", "exit2", "exit3", "exit2-unwritable-out", "exit2-list-cert1"],
    )
    def test_report_on_every_exit(self, tmp_path, monkeypatch, capsys, argv, code, error):
        monkeypatch.chdir(tmp_path)
        # a loop file whose cert1 is a JSON list, not an object
        sys8 = registry.msd(8.0).to_dict()
        loop = {"sys1": sys8, "sys2": sys8, "supply1": {"kind": "passivity"}, "supply2": {"kind": "passivity"},
                "lambda": registry.KNOWN_RATE, "cert1": [1.0, 2.0]}
        (tmp_path / "list_cert1.json").write_text(json.dumps(loop))
        canonical = []
        for name in ("a.json", "b.json"):
            assert cli.main(["--report", name, *argv]) == code
            if code == 2:
                assert capsys.readouterr().err.startswith("input error: ")
            data = json.loads((tmp_path / name).read_text())
            assert data["command"] == argv[0]
            if error is None:
                assert "error" not in data
            else:
                assert data["error"]["class"] == error
                assert data["error"]["exit_code"] == code
                assert data["error"]["message"]
            if error == "LmiInfeasibleError":
                # the search report travels as fields, not only inside the message
                lmi = data["error"]["lmi"]
                assert sorted(lmi) == ["equality_residual", "gap_bound", "inertia", "iterations", "message",
                                       "violation"]
                assert lmi["inertia"] == [1, 0, 1] and lmi["iterations"] > 0
                assert lmi["violation"] < 0 and lmi["equality_residual"] <= 1e-9
                assert lmi["gap_bound"] is None and "target (0, 0, 2)" in lmi["message"]
            data.pop("wall_time_s")
            canonical.append(json.dumps(data, sort_keys=True, indent=2))
        capsys.readouterr()
        assert canonical[0] == canonical[1]

    @pytest.mark.parametrize(
        "argv, command, message",
        [
            (["analyze", "msd-c4", "--p", "1"], "analyze", "--lambda"),
            (["certify", "msd-c4", "--lambda", "x", "--p", "1"], "certify", "invalid float value"),
            ([], None, "verb"),
            (["frob"], None, "invalid choice"),
        ],
        ids=["missing-option", "bad-value", "no-verb", "unknown-verb"],
    )
    def test_usage_error_writes_report(self, tmp_path, monkeypatch, capsys, argv, command, message):
        monkeypatch.chdir(tmp_path)
        canonical = []
        for name in ("a.json", "b.json"):
            assert cli.main(["--report", name, *argv]) == 2
            assert capsys.readouterr().err.startswith("usage: pdom")
            data = json.loads((tmp_path / name).read_text())
            assert data["command"] == command
            assert data["error"]["class"] == "UsageError" and data["error"]["exit_code"] == 2
            assert message in data["error"]["message"]
            data.pop("wall_time_s")
            canonical.append(json.dumps(data, sort_keys=True, indent=2))
        assert canonical[0] == canonical[1]

    @pytest.mark.parametrize(
        "argv, code, error",
        [
            (["simulate", "nl-msd", "--x0", "1,1", "--t", "1"], 0, None),
            (["analyze", "msd-c4", "--p", "1"], 2, "UsageError"),
        ],
        ids=["exit0", "usage-error"],
    )
    def test_report_after_the_verb(self, tmp_path, monkeypatch, capsys, argv, code, error):
        # one flag on either side of the verb; it was an unrecognized argument after it, and no report was written
        monkeypatch.chdir(tmp_path)
        assert cli.main([*argv, "--report", "r.json"]) == code
        data = json.loads((tmp_path / "r.json").read_text())
        assert data["command"] == argv[0] and (data.get("error") or {}).get("class") == error

    def test_help_writes_no_report(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--report", str(tmp_path / "r.json"), "analyze", "--help"])
        assert excinfo.value.code == 0
        assert "usage: pdom analyze" in capsys.readouterr().out
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("verb", ["analyze", "verify", "certify", "interconnect", "simulate"])
    def test_inputs_hold_no_seed(self, tmp_path, msd4_file, cert4_file, capsys, verb):
        # only reproduce draws random numbers, so only its report records a seed
        argv = {
            "analyze": ["analyze", "msd-c4", "--lambda", "1.2679", "--p", "1"],
            "verify": ["verify", msd4_file, cert4_file],
            "certify": ["certify", "msd-c4", "--lambda", "1.2679", "--p", "1"],
            "interconnect": ["interconnect", TestInterconnect()._loop_file(tmp_path)],
            "simulate": ["simulate", "nl-msd", "--x0", "1,1", "--t", "1"],
        }[verb]
        report = tmp_path / "r.json"
        assert cli.main(["--report", str(report), *argv]) == 0
        data = json.loads(report.read_text())
        assert data["command"] == verb and data["inputs"] and "seed" not in data["inputs"]

    def test_seed_before_the_verb_is_a_usage_error(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        argv = ["--report", str(report), "--seed", "1", "analyze", "msd-c4", "--lambda", "1.2679", "--p", "1"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("usage: pdom")
        data = json.loads(report.read_text())
        assert data["command"] is None and data["error"]["class"] == "UsageError"

    def test_simulate_inputs_record_every(self, tmp_path, capsys):
        # --record-every changes the samples and can change the verdict, so the inputs name it
        reports = []
        for every in ("1", "10"):
            report = tmp_path / f"r{every}.json"
            argv = ["simulate", "nl-msd", "--x0", "1,1", "--t", "10", "--record-every", every]
            assert cli.main(["--report", str(report), *argv]) == 0
            reports.append(json.loads(report.read_text()))
        assert [r["inputs"]["record_every"] for r in reports] == [1, 10]
        assert [r["metrics"]["samples"] for r in reports] == [10001, 1001]
        assert reports[0]["inputs"] != reports[1]["inputs"]

    def test_unwritable_report_is_an_input_error(self, tmp_path, capsys):
        argv = ["--report", str(tmp_path / "no_such_dir" / "r.json"), "analyze", "msd-c4", "--lambda", "1.2679", "--p", "1"]
        assert cli.main(argv) == 2
        assert "input error: " in capsys.readouterr().err


GOLDEN = pathlib.Path(__file__).parent / "golden"

# name: (input files, written under these relative names, the command line, its exit code). Every block these
# verify runs solve is diagonal, so each lmax and witness is exact in binary and the report bytes do not depend on
# the LAPACK build.
_RATE0 = '{"P": [[-1, 0], [0, 1]], "lambda": 0, "p": 1}\n'
_GOLDEN_REPORTS = {
    # CI's diag.json + rate0.json: A^T P + P A = diag(-2, 4), so lmax 4 and witness [0, 1]
    "verify_linear_failure": (
        {"diag.json": '{"A": [[1, 0], [0, 2]], "B": [[0], [0]], "C": [[0, 0]]}\n', "rate0.json": _RATE0},
        ["verify", "diag.json", "rate0.json"], 1),
    # vertex residuals diag(-2, -4) at slope -3 and diag(-2, 4) at slope 1
    "verify_lure_failure": (
        {"lure.json": '{"A": [[1, 0], [0, 1]], "B": [[0], [0]], "C": [[0, 0]], "channels": [{"g": [0, 1], '
                      '"h": [0, 1], "sigma": {"kind": "cubic_saturated"}, "alpha": -3, "beta": 1}]}\n',
         "rate0.json": _RATE0},
        ["verify", "lure.json", "rate0.json"], 1),
    # the gain-1 supply's block is diag(-2, -3, -1)
    "verify_dissipativity_pass": (
        {"out.json": '{"A": [[1, 0], [0, -2]], "B": [[0], [0]], "C": [[0, 1]]}\n',
         "gain1.json": '{"P": [[-1, 0], [0, 1]], "lambda": 0, "p": 1, "supply": {"kind": "gain", "gamma": 1}}\n'},
        ["verify", "out.json", "gain1.json"], 0),
}


class TestInputsBeforeParsing:
    """Every file a run opens is in its report's inputs, recorded before it is parsed: its path, and its digest
    once it is read."""

    @pytest.mark.parametrize("verb, rest", [
        ("analyze", ["--lambda", "1", "--p", "1"]),
        ("verify", ["cert.json"]),
        ("certify", ["--lambda", "1", "--p", "1"]),
        ("simulate", ["--x0", "1,1"]),
    ])
    def test_system_that_fails_to_load(self, tmp_path, monkeypatch, verb, rest):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cert.json").write_text(json.dumps({"P": [[-1, 0], [0, 1]], "lambda": 1, "p": 1}))
        (tmp_path / "broken.json").write_text("{broken")
        digest = hashlib.sha256(b"{broken").hexdigest()[:16]
        for system, record in (("broken.json", {"path": "broken.json", "sha256": digest}),
                               ("nosuch.json", {"path": "nosuch.json"})):
            assert cli.main(["--report", "r.json", verb, system, *rest]) == 2
            assert json.loads((tmp_path / "r.json").read_text())["inputs"]["system"] == record

    def test_certificate_and_supply_that_fail_to_load(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "nan.json").write_text('{"P": [[NaN]], "lambda": 0, "p": 0}')
        digest = hashlib.sha256((tmp_path / "nan.json").read_bytes()).hexdigest()[:16]
        for rest, inputs in (
            (["nosuch.json", "--supply", "nosuch2.json"], {"certificate": {"path": "nosuch.json"}}),
            (["nan.json"], {"certificate": {"path": "nan.json", "sha256": digest}}),
            (["nan.json", "--supply", "nosuch.json"], {"certificate": {"path": "nan.json", "sha256": digest}}),
        ):
            assert cli.main(["--report", "r.json", "verify", "msd-c8", *rest]) == 2
            recorded = json.loads((tmp_path / "r.json").read_text())["inputs"]
            assert recorded == {"system": {"builtin": "msd-c8"}, **inputs}


class TestReportBytes:
    @pytest.mark.parametrize("name", sorted(_GOLDEN_REPORTS))
    def test_report_matches_golden(self, tmp_path, monkeypatch, capsys, name):
        # the canonical report (wall time aside), byte for byte
        files, argv, code = _GOLDEN_REPORTS[name]
        monkeypatch.chdir(tmp_path)
        for file, text in files.items():
            (tmp_path / file).write_text(text)
        assert cli.main(["--report", "report.json", *argv]) == code
        data = json.loads((tmp_path / "report.json").read_text())
        data.pop("wall_time_s")
        assert json.dumps(data, sort_keys=True, indent=2) + "\n" == (GOLDEN / f"{name}.json").read_text()


class TestReproduce:
    def test_all_matches_golden_output(self, capsys):
        # every line of every suite, numbers included, byte for byte
        golden = pathlib.Path(__file__).parent / "golden" / "reproduce_all.txt"
        assert cli.main(["reproduce", "all"]) == 0
        assert capsys.readouterr().out == golden.read_text()

    def test_suite_one(self, capsys):
        assert cli.main(["reproduce", "1"]) == 0
        out = capsys.readouterr().out
        assert "ALL PASS" in out
        assert out.count("PASS") >= 10

    def test_seed_is_recorded(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        assert cli.main(["--report", str(report), "reproduce", "1", "--seed", "7"]) == 0
        assert "ALL PASS" in capsys.readouterr().out
        assert json.loads(report.read_text())["inputs"] == {"which": "1", "seed": 7}

    def test_report_determinism(self, tmp_path, capsys):
        # identical inputs produce identical canonical reports
        reports = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert cli.main(["--report", str(path), "reproduce", "1"]) == 0
            data = json.loads(path.read_text())
            data.pop("wall_time_s")
            reports.append(json.dumps(data, sort_keys=True))
        capsys.readouterr()
        assert reports[0] == reports[1]
