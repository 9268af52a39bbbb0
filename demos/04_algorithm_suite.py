"""
The seven-algorithm comparison
==============================

Run the stock suite (ridge plus six mini-batch variants) over repeated
fresh splits of the synthetic problem and print what the result files
contain. Iterations are reduced here so the script finishes quickly; drop
the override for the full-length curves.
"""

from tskfuzzy import make_synthetic, percent_improvement, run_suite
from tskfuzzy.cli import DEFAULT_ALGOS, algorithm_config

data = make_synthetic(1500, seed=7)
overrides = {"iterations": 120}   # remove for the stock 500
configs = {name: algorithm_config(name, overrides) for name in DEFAULT_ALGOS}

suite = run_suite(configs, data, repeats=3, seed=42)

print(f"{'algorithm':<12} {'best test':>10} {'at iter':>8} {'final':>8} {'seconds':>8}")
for name in DEFAULT_ALGOS:
    hist = suite[name]
    best = hist.test_rmse.min()
    at = hist.test_rmse.argmin() + 1 if len(hist.test_rmse) > 1 else 0
    print(f"{name:<12} {best:>10.4f} {at:>8d} {hist.test_rmse[-1]:>8.4f} {hist.seconds:>8.2f}")

# Relative improvement over the plain trainer, as the curves would show it.
base = suite["MBGD"].test_rmse
print("\npercent improvement over MBGD at the final iteration:")
for name in DEFAULT_ALGOS:
    if name in ("RR", "MBGD"):
        continue
    curve = percent_improvement(base, suite[name].test_rmse)
    print(f"  {name:<12} {curve[-1]:6.1f}%")

# The command-line runner writes the same numbers to CSV files:
#   tskfuzzy --data synthetic --repeats 10 --seed 42 --out results
print("\n(run `tskfuzzy --data synthetic --out results` for the CSV outputs)")
