"""Convergence harness: rates, regression, reports, reference comparisons."""

import numpy as np
import pytest

from wsld.benchmarks import (
    ConvergenceReport,
    TABLE1_REFERENCE,
    TABLE2_REFERENCE,
    check_reports,
    compare_to_reference,
    run_consistency,
    run_table1,
)


class TestRates:
    def test_dyadic(self):
        (got,) = ConvergenceReport(hs=[0.1, 0.05], errors=[1e-2, 6.25e-4]).rates()
        assert got == pytest.approx(4.0)

    def test_non_dyadic_refinement(self):
        # the 1/40 -> 1/60 step of the steady benchmark
        want = np.log(2.1214e-06 / 3.0790e-07) / np.log(60 / 40)
        (got,) = ConvergenceReport(hs=[1 / 40, 1 / 60],
                                   errors=[2.1214e-06, 3.0790e-07]).rates()
        assert got == pytest.approx(want)
        assert got == pytest.approx(4.7601, abs=1e-3)

    def test_observed_rates_length(self):
        report = ConvergenceReport(hs=[0.1, 0.05, 0.025], errors=[1, 0.25, 0.0625])
        assert len(report.rates()) == 2

    def test_repeated_step_size_has_no_rate(self):
        # log(h0/h1) = 0 divided by zero
        report = ConvergenceReport(hs=[0.1, 0.1], errors=[1.0, 0.5])
        for method in (report.rates, report.to_csv):
            with pytest.raises(ValueError, match=r"repeat the step size h=0\.1\b"):
                method()
        report = ConvergenceReport(hs=[0.1, 0.05, 0.05], errors=[1.0, 0.5, 0.25])
        with pytest.raises(ValueError, match=r"rows 1 and 2 repeat the step size h=0\.05"):
            report.rates()


class TestOrderRegression:
    def test_exact_fourth_order_model(self):
        hs = [0.1, 0.05, 0.025, 0.0125]
        errors = [3.0 * h ** 4 for h in hs]
        report = ConvergenceReport(hs=hs, errors=errors)
        assert report.regression_order() == pytest.approx(4.0, abs=1e-12)

    def test_reference_diffusion_rows_regress_to_four(self):
        hs = [1 / 10, 1 / 20, 1 / 40, 1 / 80]
        report = ConvergenceReport(hs=hs, errors=list(TABLE2_REFERENCE[(4, 1.8)]))
        assert report.regression_order() == pytest.approx(4.0, abs=0.1)

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="at least 3 rows"):
            ConvergenceReport(hs=[0.1], errors=[1e-3]).regression_order()
        with pytest.raises(ValueError, match="distinct step sizes"):
            ConvergenceReport(hs=[0.1, 0.1, 0.1], errors=[1, 1, 1]).regression_order()


class TestConvergenceReport:
    def test_rates_recompute_from_emitted_errors(self):
        report = ConvergenceReport(hs=[0.1, 0.05, 0.025],
                                   errors=[1e-2, 6.5e-4, 4.2e-5],
                                   metadata={"suite": "demo"})
        text = report.to_csv()
        rows = [line.split(",") for line in text.strip().splitlines()[2:]]
        hs = [float(r[0]) for r in rows]
        errors = [float(r[1]) for r in rows]
        emitted = [float(r[2]) for r in rows[1:]]
        recomputed = ConvergenceReport(hs=hs, errors=errors).rates()
        np.testing.assert_allclose(emitted, recomputed, atol=1e-3)

    def test_csv_shape_and_header(self):
        report = ConvergenceReport(hs=[0.1, 0.05], errors=[1e-2, 1e-3],
                                   metadata={"suite": "demo", "nu": 3})
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "# nu=3 suite=demo"
        assert lines[1] == "h,error,rate"
        assert lines[2].endswith(",")  # first row carries no rate
        assert len(lines) == 4

    def test_rejects_nonpositive_errors(self):
        with pytest.raises(ValueError):
            ConvergenceReport(hs=[0.1], errors=[0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_errors(self, bad):
        # NaN slipped past an ``e <= 0`` guard, and its rates then compared
        # False against every tolerance, so the report passed its reference
        with pytest.raises(ValueError, match="finite"):
            ConvergenceReport(hs=[0.1, 0.05], errors=[1e-2, bad])

    @pytest.mark.parametrize("hs", [[np.nan, 0.1], [-0.1, 0.1], [0.1, 0.0],
                                    [np.inf, 0.1]], ids=["nan", "negative", "zero", "inf"])
    def test_rejects_step_sizes_that_are_not_finite_and_positive(self, hs):
        # a NaN step size gave the rate [nan], and a negative one raised
        # "math domain error" from rates()
        with pytest.raises(ValueError, match="hs must be finite and strictly positive"):
            ConvergenceReport(hs=hs, errors=[1.0, 0.5])

    def test_determinism(self):
        a = "".join(r.to_csv() for r in run_table1(alphas=(-0.5,)))
        b = "".join(r.to_csv() for r in run_table1(alphas=(-0.5,)))
        assert a == b


class TestSteadyBenchmark:
    def test_integral_order_column_matches_reference(self):
        report = run_table1(alphas=(-0.5,))[0]
        failures = compare_to_reference(report, TABLE1_REFERENCE[-0.5],
                                        rtol=0.02, rate_tol=0.15)
        assert failures == []
        # agreement is far tighter than the acceptance tolerance
        for got, want in zip(report.errors, TABLE1_REFERENCE[-0.5]):
            assert got == pytest.approx(want, rel=1e-3)

    def test_derivative_column_reaches_order_five(self):
        report = run_table1(alphas=(1.8,))[0]
        assert report.regression_order() > 4.0
        assert report.rates()[-1] > 4.5


class TestConsistencyBenchmark:
    def test_levels_reach_nominal_orders(self):
        reports = run_consistency(nus=(3,), levels=(1, 2, 3),
                                  resolutions=(32, 64, 128))
        for report in reports:
            level = report.metadata["level"]
            assert report.rates()[-1] == pytest.approx(level, abs=0.3)


class TestCompareToReference:
    def test_reports_failures_with_context(self):
        report = ConvergenceReport(hs=[0.1, 0.05], errors=[1.0, 0.5],
                                   metadata={})
        failures = compare_to_reference(report, [1.0, 0.25], rtol=0.1)
        assert len(failures) == 1
        assert "h=5.0000e-02" in failures[0]

    def test_rate_mismatch_detected(self):
        report = ConvergenceReport(hs=[0.1, 0.05], errors=[1.0, 0.5], metadata={})
        failures = compare_to_reference(report, [1.0, 0.0625], rtol=10.0,
                                        rate_tol=0.5)
        assert len(failures) == 1
        assert "rate" in failures[0]

    @pytest.mark.parametrize("reference", [[1.0, 0.5], [1.0, 0.5, 0.25, 0.125, 0.0625]],
                             ids=["shorter", "longer"])
    @pytest.mark.parametrize("rate_tol", [None, 0.2])
    def test_reference_length_must_match(self, reference, rate_tol):
        report = ConvergenceReport(hs=[0.1, 0.05, 0.025, 0.0125],
                                   errors=[1.0, 0.5, 0.25, 0.125], metadata={})
        match = f"reference has {len(reference)} entries for a report of 4 rows"
        with pytest.raises(ValueError, match=match):
            compare_to_reference(report, reference, rtol=0.1, rate_tol=rate_tol)

    def test_nan_reference_never_passes(self):
        report = ConvergenceReport(hs=[0.1, 0.05], errors=[1.0, 0.5], metadata={})
        # a zero reference is no more a value to meet than a NaN one
        for bad in (float("nan"), 0.0):
            failures = compare_to_reference(report, [1.0, bad], rtol=0.1)
            assert len(failures) == 1
            assert "h=5.0000e-02" in failures[0]
            # the reference rates come from a report, which refuses the entry
            with pytest.raises(ValueError, match="finite"):
                compare_to_reference(report, [1.0, bad], rtol=0.1, rate_tol=0.2)
        failures = compare_to_reference(report, [0.0, 0.5], rtol=0.1)
        assert failures == ["h=1.0000e-01: error 1.0000e+00 vs reference 0.0000e+00 "
                            "(rel inf% > 10%)"]

    def test_consistency_report_of_one_row_fails(self):
        # its rates are empty, so the finest rate rates()[-1] did not exist
        reports = run_consistency(nus=(3,), levels=(1, 2), resolutions=(64,))
        assert check_reports("consistency", reports) == [
            f"nu=3 level={level}: no observed order to check in 1 row(s); "
            "a rate needs two" for level in (1, 2)]

    def test_nan_error_fails_the_suite_check(self):
        # a NaN written past the constructor's check still fails every comparison
        hs = [1 / 10, 1 / 20, 1 / 40, 1 / 80]
        report = ConvergenceReport(hs=hs, errors=list(TABLE2_REFERENCE[(4, 1.5)]),
                                   metadata={"nu": 4, "alpha": 1.5})
        assert check_reports("table2", [report]) == []
        report.errors[1] = float("nan")
        failures = check_reports("table2", [report])
        assert len(failures) == 3
        assert all("nu=4 alpha=1.5" in f for f in failures)
