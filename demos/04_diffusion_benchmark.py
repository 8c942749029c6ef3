"""Walkthrough: the two convergence benchmarks and their reference tables.

The steady benchmark measures the truncation order of the unshifted
fifth-order rule; the diffusion benchmark measures the full Crank-Nicolson
scheme at tau = h^2, where the fourth-order spatial error dominates.

    python demos/04_diffusion_benchmark.py        (~3 s)
"""

from wsld import run_table1, run_table2
from wsld.benchmarks import TABLE1_REFERENCE, TABLE2_REFERENCE


def print_report(report, reference):
    print(f"  {report.metadata}")
    print("      h        error       rate   reference   deviation")
    rates = [None] + report.rates()
    for h, err, rate, ref in zip(report.hs, report.errors, rates, reference):
        rate_txt = "  --  " if rate is None else f"{rate:.4f}"
        print(f"    {h:.4e}  {err:.4e}  {rate_txt}  {ref:.4e}  {(err - ref) / ref:+8.2%}")
    print()


print("Steady benchmark: unshifted nu=5 rule on u(x) = x^8")
print("===================================================")
for report in run_table1():
    print_report(report, TABLE1_REFERENCE[report.metadata["alpha"]])

print("Note: two cells are off: alpha=0.5 at h=1/60 and alpha=1.8 at h=1/40.")
print("Their neighbours alpha=0.5, h=1/40 and alpha=1.8, h=1/60 are off by")
print("less; the alpha=-0.5 column and the two coarsest rows agree to 0.3% or")
print("better.  The cause is unexplained: 50-digit arithmetic agrees with the")
print("double-precision computation in every cell.")
print()

print("Diffusion benchmark: 4th-order Crank-Nicolson, tau = h^2, t = 1")
print("===============================================================")
for report in run_table2():
    key = (report.metadata["nu"], report.metadata["alpha"])
    print_report(report, TABLE2_REFERENCE[key])

print("All 24 diffusion cells land within a fraction of a percent of the")
print("reference table; with tau = h^2 the observed orders approach 4.")
