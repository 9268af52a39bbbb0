"""
A TSK fuzzy system up close
===========================

Build a tiny two-input system by hand, look at its rule firing levels,
and watch the weighted-average output respond.
"""

import numpy as np

from tskfuzzy import (
    RuleGrid,
    TskModel,
    firing_levels,
    flatten,
    load_model,
    param_count,
    predict,
    rule_outputs,
    save_model,
)

# Two inputs, two Gaussian MFs each ("low" near -1, "high" near +1).
# The grid pairs every MF combination, so we get 2^2 = 4 rules.
grid = RuleGrid(num_inputs=2, mfs_per_input=2)
print("rule antecedents (MF index per input):")
print(grid.antecedents)

centers = np.array([[-1.0, 1.0], [-1.0, 1.0]])
sigmas = np.ones((2, 2))
# Each rule's consequent is affine: bias, then one slope per input.
consequents = np.array([
    [0.0, 0.0, 0.0],   # low/low   -> flat zero
    [1.0, 0.0, 0.0],   # low/high  -> constant 1
    [0.0, 1.0, 0.0],   # high/low  -> follows x1
    [2.0, 0.0, 1.0],   # high/high -> 2 + x2
])
model = TskModel(grid, centers, sigmas, consequents)
print("parameters:", param_count(2, 2), "=", flatten(model).size)

# Each MF is a Gaussian bump; a rule's firing level multiplies the grades
# of its antecedents.
for x in ([-1.0, -1.0], [1.0, 1.0], [0.0, 0.0]):
    f = firing_levels(model, x)
    print(f"x={x}: firing={np.round(f, 4)}  outputs={rule_outputs(model, x)}  "
          f"prediction={predict(model, x):.4f}")

# The prediction is the firing-weighted average of the rule outputs, so it
# interpolates smoothly between the rules as x moves across the grid.
xs = np.linspace(-2, 2, 9)
curve = [predict(model, [v, v]) for v in xs]
print("diagonal sweep:", np.round(curve, 3))

# Checkpoints are plain text: two header lines, one parameter per line.
save_model(model, "tsk_demo_model.txt")
restored = load_model("tsk_demo_model.txt")
print("checkpoint round trip exact:", np.array_equal(flatten(restored), flatten(model)))
