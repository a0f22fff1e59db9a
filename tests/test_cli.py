"""End-to-end checks of the command-line interface.

Everything drives main(argv) in process, so exit codes, report bytes and
stderr text are observable without spawning subshells.
"""

import json
import math

import numpy as np
import pytest

from stieltjes.cli import (
    EXIT_DIVERGED,
    EXIT_INCONCLUSIVE,
    EXIT_JUMP,
    EXIT_OK,
    EXIT_USAGE,
    SpecError,
    main,
    parse_function_spec,
)
from stieltjes.core import BoundaryFunction, RSStatus
from stieltjes.singular import hilbert_stieltjes
from stieltjes.zoo import NAMES, make


def run_csv(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln]
    header = lines[0].split(",")
    records = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return code, header, records


class TestSpecParsing:
    def test_zoo_plain(self):
        phi = parse_function_spec("zoo:sin")
        assert isinstance(phi, BoundaryFunction)
        assert phi.name == "sin"

    def test_zoo_with_params(self):
        phi = parse_function_spec("zoo:step2pi:0.5")
        assert phi.jumps[0][0] == 0.5

    def test_zoo_unknown_name(self):
        with pytest.raises(SpecError):
            parse_function_spec("zoo:gauss")

    def test_poly(self):
        g = parse_function_spec("poly:t2")
        assert float(g(3.0)) == 9.0

    def test_poly_rejects_other_powers(self):
        with pytest.raises(SpecError):
            parse_function_spec("poly:t4")

    def test_const(self):
        g = parse_function_spec("const:2.5")
        assert np.all(g(np.array([0.0, 1.0])) == 2.5)

    def test_const_needs_number(self):
        with pytest.raises(SpecError):
            parse_function_spec("const:abc")

    def test_unknown_head(self):
        with pytest.raises(SpecError):
            parse_function_spec("gauss:3")

    def test_file_step(self, tmp_path):
        doc = {"kind": "step", "name": "half", "jumps": [[0.5, 1.0]], "base": 0.25}
        path = tmp_path / "step.json"
        path.write_text(json.dumps(doc))
        phi = parse_function_spec(f"file:{path}")
        assert isinstance(phi, BoundaryFunction)
        assert phi.jumps == ((0.5, 1.0),)
        assert phi.period_increment == 1.0
        assert float(phi(0.4)) == 0.25
        assert float(phi(0.5)) == 1.25

    def test_file_zoo(self, tmp_path):
        path = tmp_path / "zoo.json"
        path.write_text(json.dumps({"kind": "zoo", "name": "sin"}))
        assert parse_function_spec(f"file:{path}").name == "sin"

    def test_file_const(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"kind": "const", "value": 2.0}))
        g = parse_function_spec(f"file:{path}")
        assert np.all(g(np.array([0.0, 3.0])) == 2.0)

    def test_file_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "wavelet"}))
        with pytest.raises(SpecError):
            parse_function_spec(f"file:{path}")

    def test_file_missing(self):
        with pytest.raises(SpecError):
            parse_function_spec("file:/no/such/file.json")

    def test_file_malformed(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SpecError):
            parse_function_spec(f"file:{path}")

    @pytest.mark.parametrize(
        "doc", [{"kind": "zoo"}, {"kind": "const"}, [{"kind": "zoo", "name": "sin"}]],
        ids=["zoo_without_name", "const_without_value", "top_level_list"],
    )
    def test_file_missing_fields(self, tmp_path, capsys, doc):
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps(doc))
        code = main(["transform", "--phi", f"file:{path}", "--which", "U",
                     "--r", "0.5", "--theta", "0.0"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("stieltjes: ")


class TestIntegrate:
    def test_smooth_pair(self, capsys):
        code, header, records = run_csv(
            capsys,
            ["integrate", "--g", "poly:t", "--f", "poly:t2", "--a", "0", "--b", "1"],
        )
        assert code == EXIT_OK
        assert header == ["status", "value", "value_im", "est_error",
                          "levels", "deepest_mesh"]
        assert len(records) == 1
        assert records[0]["status"] == "converged"
        assert float(records[0]["value"]) == pytest.approx(2.0 / 3.0, abs=1e-5)
        assert float(records[0]["value_im"]) == 0.0

    def test_csv_floats_use_twelve_digits(self, capsys):
        code, _header, records = run_csv(
            capsys,
            ["integrate", "--g", "poly:t", "--f", "poly:t2", "--a", "0", "--b", "1"],
        )
        assert code == EXIT_OK
        # the formatter must be idempotent on its own output
        for field in ("value", "est_error"):
            s = records[0][field]
            assert f"{float(s):.12g}" == s

    def test_declared_step_is_exact(self, capsys, tmp_path):
        path = tmp_path / "step.json"
        path.write_text(json.dumps({"kind": "step", "jumps": [[0.5, 1.0]]}))
        code, _header, records = run_csv(
            capsys,
            ["integrate", "--g", "poly:t", "--f", f"file:{path}",
             "--a", "0", "--b", "1"],
        )
        assert code == EXIT_OK
        assert float(records[0]["value"]) == 0.5
        assert float(records[0]["est_error"]) == 0.0

    def test_divergent_pair_exits_two(self, capsys):
        code, _header, records = run_csv(
            capsys,
            ["integrate", "--g", "zoo:spikes", "--f", "poly:t",
             "--a", "0", "--b", "1"],
        )
        assert code == EXIT_DIVERGED
        assert records[0]["status"] == "diverged"

    def test_shared_jump_exits_three(self, capsys, tmp_path):
        path = tmp_path / "step.json"
        path.write_text(json.dumps({"kind": "step", "jumps": [[0.5, 1.0]]}))
        code, _header, records = run_csv(
            capsys,
            ["integrate", "--g", f"file:{path}", "--f", f"file:{path}",
             "--a", "0", "--b", "1"],
        )
        assert code == EXIT_INCONCLUSIVE
        assert records[0]["status"] == "inconclusive"

    def test_structured_report(self, capsys):
        code = main(["integrate", "--g", "poly:t", "--f", "poly:t2",
                     "--a", "0", "--b", "1", "--format", "structured"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["fields"] == ["status", "value", "value_im", "est_error",
                                 "levels", "deepest_mesh"]
        rec = doc["records"][0]
        assert rec["status"] == "converged"
        assert rec["value"] == pytest.approx(2.0 / 3.0, abs=1e-5)

    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "report.csv"
        code = main(["integrate", "--g", "poly:t", "--f", "poly:t2",
                     "--a", "0", "--b", "1", "--out", str(path)])
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""
        assert path.read_text().startswith("status,")

    def test_missing_flag_exits_one(self, capsys):
        code = main(["integrate", "--g", "poly:t"])
        assert code == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_negative_seed_is_named(self, capsys):
        code = main(["integrate", "--g", "poly:t", "--f", "poly:t2",
                     "--a", "0", "--b", "1", "--seed", "-1"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("stieltjes: ") and "seed" in err

    @pytest.mark.parametrize("flags", [["--tol", "-1"], ["--tol", "nan"], ["--b", "inf"]])
    def test_bad_number_exits_one(self, capsys, flags):
        argv = ["integrate", "--g", "poly:t", "--f", "poly:t2", "--a", "0", "--b", "1"]
        code = main(argv + flags)
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("stieltjes:")

    @pytest.mark.parametrize("spec", ["const:nan", "const:inf"])
    def test_non_finite_const_exits_one(self, capsys, spec):
        code = main(["integrate", "--g", spec, "--f", "poly:t2", "--a", "0", "--b", "1"])
        assert code == EXIT_USAGE
        assert "finite" in capsys.readouterr().err

    def test_non_finite_file_height_exits_one(self, capsys, tmp_path):
        path = tmp_path / "nan_step.json"
        path.write_text('{"kind": "step", "jumps": [[0.5, NaN]]}')
        code = main(["integrate", "--g", "poly:t", "--f", f"file:{path}", "--a", "0", "--b", "1"])
        assert code == EXIT_USAGE
        assert "finite" in capsys.readouterr().err

    def test_bad_spec_exits_one(self, capsys):
        code = main(["integrate", "--g", "gauss:1", "--f", "poly:t2",
                     "--a", "0", "--b", "1"])
        assert code == EXIT_USAGE
        assert "gauss" in capsys.readouterr().err


class TestToleranceSources:
    def test_env_tolerance_is_used(self, capsys, monkeypatch):
        monkeypatch.setenv("STIELTJES_TOL", "1e-3")
        code = main(["integrate", "--g", "poly:t", "--f", "poly:t2",
                     "--a", "0", "--b", "1"])
        capsys.readouterr()
        assert code == EXIT_OK

    def test_env_garbage_exits_one(self, capsys, monkeypatch):
        monkeypatch.setenv("STIELTJES_TOL", "not-a-number")
        code = main(["integrate", "--g", "poly:t", "--f", "poly:t2",
                     "--a", "0", "--b", "1"])
        assert code == EXIT_USAGE
        assert "STIELTJES_TOL" in capsys.readouterr().err

    def test_flag_wins_over_env(self, capsys, monkeypatch):
        # with --tol given the environment is never consulted
        monkeypatch.setenv("STIELTJES_TOL", "not-a-number")
        code = main(["integrate", "--g", "poly:t", "--f", "poly:t2",
                     "--a", "0", "--b", "1", "--tol", "1e-6"])
        capsys.readouterr()
        assert code == EXIT_OK


class TestTransform:
    def test_grid_values(self, capsys):
        code, header, records = run_csv(
            capsys,
            ["transform", "--phi", "zoo:step2pi:0.0", "--which", "U",
             "--r", "0.3", "0.6", "--theta", "0.0", "1.0"],
        )
        assert code == EXIT_OK
        assert header == ["r", "theta", "value", "value_im", "est_error", "status"]
        assert len(records) == 4
        # full-turn jump at 0, so U is exactly the standard radial kernel
        first = records[0]
        assert float(first["r"]) == 0.3
        assert float(first["value"]) == pytest.approx(1.3 / 0.7, abs=1e-9)

    def test_jobs_do_not_change_bytes(self, tmp_path):
        base = ["transform", "--phi", "zoo:step2pi:0.0", "--which", "V",
                "--r", "0.3", "0.7", "--theta", "0.0", "1.0", "2.0"]
        p1 = tmp_path / "serial.csv"
        p4 = tmp_path / "pool.csv"
        assert main(base + ["--jobs", "1", "--out", str(p1)]) == EXIT_OK
        assert main(base + ["--jobs", "4", "--out", str(p4)]) == EXIT_OK
        assert p1.read_bytes() == p4.read_bytes()

    def test_same_seed_same_bytes(self, tmp_path):
        base = ["transform", "--phi", "zoo:sin", "--which", "U",
                "--r", "0.5", "--theta", "0.7", "--seed", "3"]
        pa = tmp_path / "a.csv"
        pb = tmp_path / "b.csv"
        assert main(base + ["--out", str(pa)]) == EXIT_OK
        assert main(base + ["--out", str(pb)]) == EXIT_OK
        assert pa.read_bytes() == pb.read_bytes()

    def test_far_theta_gives_the_closed_form_at_that_angle(self, capsys):
        code, _, records = run_csv(capsys, ["transform", "--phi", "zoo:sin", "--which", "U",
                                            "--r", "0.9", "--theta", "1e17"])
        assert code == EXIT_OK
        assert records[0]["theta"] == "1e+17"
        assert float(records[0]["value"]) == pytest.approx(0.9 * math.cos(1e17), abs=1e-5)

    def test_needs_boundary_function(self, capsys):
        code = main(["transform", "--phi", "poly:t", "--which", "U",
                     "--r", "0.5", "--theta", "0.0"])
        assert code == EXIT_USAGE
        assert "boundary" in capsys.readouterr().err

    def test_unbounded_variation_refused(self, capsys):
        code = main(["transform", "--phi", "zoo:spikes", "--which", "U",
                     "--r", "0.5", "--theta", "0.0"])
        assert code == EXIT_USAGE

    def test_bad_which_exits_one(self, capsys):
        code = main(["transform", "--phi", "zoo:sin", "--which", "X",
                     "--r", "0.5", "--theta", "0.0"])
        assert code == EXIT_USAGE
        capsys.readouterr()

    def test_non_finite_theta_exits_one(self, capsys):
        code = main(["transform", "--phi", "zoo:sin", "--which", "U",
                     "--r", "0.5", "--theta", "nan"])
        assert code == EXIT_USAGE
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["zoo:cantor:inf", "zoo:spikes:inf", "zoo:step2pi:inf"])
    def test_non_finite_zoo_parameter_exits_one(self, capsys, spec):
        code = main(["transform", "--phi", spec, "--which", "U",
                     "--r", "0.5", "--theta", "0.0"])
        assert code == EXIT_USAGE
        assert "finite" in capsys.readouterr().err

    def test_deep_cantor_exits_one(self, capsys):
        code = main(["transform", "--phi", "zoo:cantor:54", "--which", "U",
                     "--r", "0.5", "--theta", "0.0"])
        assert code == EXIT_USAGE
        assert "cantor depth" in capsys.readouterr().err

    def test_fractional_cantor_depth_exits_one(self, capsys):
        code = main(["transform", "--phi", "zoo:cantor:2.7", "--which", "U",
                     "--r", "0.5", "--theta", "0.0"])
        assert code == EXIT_USAGE
        assert "cantor depth must be a whole number" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_one(self, capsys, jobs):
        code = main(["transform", "--phi", "zoo:sin", "--which", "U",
                     "--r", "0.5", "--theta", "0.0", "--jobs", jobs])
        assert code == EXIT_USAGE
        assert "--jobs" in capsys.readouterr().err


class TestHilbert:
    def test_smooth_values(self, capsys):
        code, header, records = run_csv(
            capsys,
            ["hilbert", "--phi", "zoo:sin", "--tau", "0.7", "1.3",
             "--tol", "1e-4"],
        )
        assert code == EXIT_OK
        assert header == ["tau", "value", "est_error", "extrapolated"]
        assert len(records) == 2
        assert float(records[0]["value"]) == pytest.approx(math.sin(0.7), abs=1e-3)
        assert float(records[1]["value"]) == pytest.approx(math.sin(1.3), abs=1e-3)

    @pytest.mark.parametrize("tau", ["1e16", "1e17"])
    def test_far_tau_gives_the_closed_form_at_that_angle(self, capsys, tau):
        # unreduced, 1e16 ended in the kernel's pole error and 1e17 in a zero
        code, _, records = run_csv(capsys, ["hilbert", "--phi", "zoo:sin", "--tau", tau])
        assert code == EXIT_OK
        assert float(records[0]["value"]) == pytest.approx(math.sin(float(tau)), abs=1e-3)
        assert float(records[0]["est_error"]) > 0.0

    def test_far_tau_consistency_compares_one_point(self, capsys):
        code, _, records = run_csv(capsys, ["hilbert", "--phi", "zoo:sin", "--tau", "1e16",
                                            "--compare-singular-cauchy"])
        assert code == EXIT_OK
        assert float(records[0]["consistency_residual"]) < 1e-4

    def test_plain_callable_exits_one(self, capsys):
        code = main(["hilbert", "--phi", "poly:t", "--tau", "0.5"])
        assert code == EXIT_USAGE
        assert "needs a boundary function" in capsys.readouterr().err

    def test_atom_exits_four(self, capsys):
        code = main(["hilbert", "--phi", "zoo:step2pi:0.0", "--tau", "0.0"])
        assert code == EXIT_JUMP
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        # 1 of the 8 window ladders ends inconclusive at the default tol
        ["--phi", "zoo:cantor", "--tau", "1.25"],
        # 5 of 8
        ["--phi", "zoo:cantor", "--tau", "0.7"],
        # 2 of 16: the cotangent form's left windows at eps = 2^-13 and 2^-15
        ["--phi", "zoo:sin", "--tau", "1.75", "--compare-singular-cauchy"],
    ])
    def test_inconclusive_window_exits_three(self, capsys, argv):
        code, header, records = run_csv(capsys, ["hilbert"] + argv)
        assert code == EXIT_INCONCLUSIVE
        assert header[:4] == ["tau", "value", "est_error", "extrapolated"]
        assert len(records) == 1

    def test_compare_singular_cauchy(self, capsys):
        code, header, records = run_csv(
            capsys,
            ["hilbert", "--phi", "zoo:step2pi:0.0", "--tau", "2.0",
             "--tol", "1e-4", "--compare-singular-cauchy"],
        )
        assert code == EXIT_OK
        assert header[-2:] == ["consistency_residual", "cauchy_imag"]
        rec = records[0]
        assert float(rec["value"]) == pytest.approx(1.0 / math.tan(1.0), abs=1e-6)
        assert float(rec["consistency_residual"]) < 1e-3
        # the report carries |Im|, and a full-turn atom pins it at one half
        assert float(rec["cauchy_imag"]) == pytest.approx(0.5, abs=1e-3)


class TestLimits:
    def test_poisson_check_passes(self, capsys):
        code, header, records = run_csv(
            capsys,
            ["limits", "--phi", "zoo:step2pi:0.0", "--which", "U",
             "--target", str(math.pi)],
        )
        assert code == EXIT_OK
        assert header[0] == "target"
        assert len(records) == 5
        assert {r["approach"] for r in records} == \
            {"radial", "stolz+0.524", "stolz-0.524", "stolz+1.047", "stolz-1.047"}
        assert all(r["grade"] == "pass" for r in records)

    def test_explicit_apertures(self, capsys):
        code, _header, records = run_csv(
            capsys,
            ["limits", "--phi", "zoo:step2pi:0.0", "--which", "U",
             "--target", str(math.pi), "--apertures", "0.3"],
        )
        assert code == EXIT_OK
        assert sorted(r["approach"] for r in records) == \
            ["radial", "stolz+0.300", "stolz-0.300"]

    def test_radial_only(self, capsys):
        code, _header, records = run_csv(
            capsys,
            ["limits", "--phi", "zoo:step2pi:0.0", "--which", "U",
             "--target", str(math.pi), "--apertures"],
        )
        assert code == EXIT_OK
        assert [r["approach"] for r in records] == ["radial"]

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tolerance_exits_one(self, capsys, tol):
        code = main(["limits", "--phi", "zoo:sin", "--which", "V", "--target", "0.9", "--tol", tol])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("stieltjes: limit tolerance")

    def test_plain_callable_exits_one(self, capsys):
        code = main(["limits", "--phi", "poly:t", "--which", "U", "--target", "0.5"])
        assert code == EXIT_USAGE
        assert "need a boundary function" in capsys.readouterr().err

    def test_far_target_reads_the_derivative_at_its_residue(self, capsys):
        # the approach paths and phi' both go to 1e17's exact residue
        code, _header, records = run_csv(capsys, ["limits", "--phi", "zoo:sin", "--which", "U", "--target", "1e17"])
        assert code == EXIT_OK
        assert len(records) == 5
        assert all(r["grade"] == "pass" for r in records)
        assert float(records[0]["expected"]) == pytest.approx(math.cos(1e17), abs=1e-11)

    def test_non_finite_target_exits_one(self, capsys):
        code = main(["limits", "--phi", "zoo:sin", "--which", "U", "--target", "nan"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("stieltjes: target_angle nan")

    def test_impossible_tolerance_exits_three(self, capsys):
        code, _header, records = run_csv(
            capsys,
            ["limits", "--phi", "zoo:step2pi:0.0", "--which", "U",
             "--target", str(math.pi), "--tol", "1e-30"],
        )
        assert code == EXIT_INCONCLUSIVE
        assert any(r["grade"] == "fail" for r in records)

    def test_uncertified_pv_exits_three(self, capsys):
        # every grade passes, but the PV that gives the expected value is not
        # certified: 3 of its 8 window ladders end inconclusive
        assert hilbert_stieltjes(make("cantor"), 2.05).status == RSStatus.INCONCLUSIVE
        code, _header, records = run_csv(
            capsys, ["limits", "--phi", "zoo:cantor", "--which", "V", "--target", "2.05"])
        assert code == EXIT_INCONCLUSIVE
        assert [r["grade"] for r in records] == ["pass"] * 5

    def test_conjugate_at_atom_exits_four(self, capsys):
        code = main(["limits", "--phi", "zoo:step2pi:0.0", "--which", "V",
                     "--target", "0.0"])
        assert code == EXIT_JUMP
        capsys.readouterr()

    def test_analytic_pair_rows(self, capsys):
        code, _header, records = run_csv(
            capsys,
            ["limits", "--phi", "zoo:step2pi:0.0", "--which", "SC",
             "--target", str(math.pi)],
        )
        assert code == EXIT_OK
        assert {r["field"] for r in records} == {"S", "C"}
        # the analytic check runs one aperture by default, two fields each
        assert len(records) == 6
        c_rows = [r for r in records if r["field"] == "C"]
        for row in c_rows:
            assert float(row["expected"]) == pytest.approx(0.5)


class TestCatalog:
    def test_lists_every_entry(self, capsys):
        code, header, records = run_csv(capsys, ["catalog"])
        assert code == EXIT_OK
        assert header == ["name", "kind", "atoms", "net_increment", "bound"]
        assert len(records) == len(NAMES)
        by_name = {r["name"]: r for r in records}
        assert by_name["sin"]["atoms"] == "-"
        assert by_name["step2pi"]["atoms"].startswith("0@")
        assert float(by_name["sin"]["net_increment"]) == 0.0

    def test_structured(self, capsys):
        code = main(["catalog", "--format", "structured"])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert len(doc["records"]) == len(NAMES)
        assert {r["name"] for r in doc["records"]} >= {"sin", "cantor", "spikes"}


REPORTS = {
    "integrate": ["integrate", "--g", "poly:t", "--f", "poly:t2", "--a", "0", "--b", "1"],
    "transform": ["transform", "--phi", "zoo:step2pi:0.0", "--which", "S",
                  "--r", "0.3", "--theta", "0.0", "1.0"],
    "hilbert": ["hilbert", "--phi", "zoo:step2pi:0.0", "--tau", "2.0",
                "--tol", "1e-4", "--compare-singular-cauchy"],
    "limits": ["limits", "--phi", "zoo:step2pi:0.0", "--which", "U",
               "--target", str(math.pi), "--apertures", "0.3"],
    "catalog": ["catalog"],
}


# the report columns that echo an input coordinate
ECHOED = {"r", "theta", "tau", "target"}


class TestReports:
    @pytest.mark.parametrize("argv", list(REPORTS.values()), ids=list(REPORTS))
    def test_structured_report_matches_csv(self, capsys, argv):
        code, header, records = run_csv(capsys, argv)
        assert main(argv + ["--format", "structured"]) == code
        doc = json.loads(capsys.readouterr().out)
        assert doc["fields"] == header
        assert len(doc["records"]) == len(records) > 0
        for rec, row in zip(doc["records"], records):
            # the CSV carries computed floats at 12 significant digits and
            # echoed inputs in their shortest round-trip form
            assert {k: v if isinstance(v, str) else repr(v) if k in ECHOED else f"{v:.12g}"
                    for k, v in rec.items()} == row

    @pytest.mark.parametrize("argv, field", [
        (["transform", "--phi", "zoo:linear", "--which", "U", "--r", "0.9999", "--theta", "1.868984836962194"],
         "theta"),
        (["hilbert", "--phi", "zoo:sin", "--tau", "0.8000000000001", "--tol", "1e-4"], "tau"),
        (["limits", "--phi", "zoo:sin", "--which", "U", "--target", "0.8000000000001"], "target"),
    ], ids=["transform", "hilbert", "limits"])
    def test_echoed_inputs_read_back_as_given(self, capsys, argv, field):
        given = float(argv[argv.index(f"--{field}") + 1])
        _code, _header, records = run_csv(capsys, argv)
        # at 12 digits these would read back as another point
        assert f"{given:.12g}" != repr(given)
        assert records and all(float(rec[field]) == given for rec in records)
        assert all(float(rec["r"]) == 0.9999 for rec in records if "r" in rec)

    def test_structured_report_is_strict_json(self, capsys):
        def refuse(token):
            raise ValueError(f"non-JSON token {token}")

        assert main(["catalog", "--format", "structured"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
        spikes = next(rec for rec in doc["records"] if rec["name"] == "spikes")
        # the CSV's own spelling of a non-finite float
        assert spikes["bound"] == "nan"

    def test_unwritable_out_exits_one(self, capsys, tmp_path):
        code = main(["catalog", "--out", str(tmp_path / "missing" / "report.csv")])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("stieltjes: ")


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["catalog", "--seed", "1"],
        ["catalog", "--tol", "1e-3"],
        ["limits", "--phi", "zoo:sin", "--which", "U", "--target", "0.8", "--seed", "1"],
    ], ids=["catalog_seed", "catalog_tol", "limits_seed"])
    def test_flags_nothing_reads_exit_one(self, capsys, argv):
        assert main(argv) == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_no_command(self, capsys):
        assert main([]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "integrate" in capsys.readouterr().out

    @pytest.mark.parametrize("bad", [
        ["integrate", "--g", "poly:t", "--f", "poly:t2", "--a", "x", "--b", "1"],
        ["transform", "--phi", "zoo:sin", "--which", "W", "--r", "0.5", "--theta", "0"],
        ["frobnicate"],
    ], ids=["bad_number", "bad_choice", "unknown_command"])
    def test_usage_error_leaves_the_next_call_unchanged(self, capsys, bad):
        # one parser serves every call of main
        argv = ["integrate", "--g", "poly:t", "--f", "poly:t2", "--a", "0", "--b", "1", "--seed", "3"]
        first = main(argv), capsys.readouterr().out
        assert main(bad) == EXIT_USAGE
        assert "error" in capsys.readouterr().err
        assert (main(argv), capsys.readouterr().out) == first
        assert first[0] == EXIT_OK and first[1].startswith("status,")
