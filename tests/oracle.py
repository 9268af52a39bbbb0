"""An exact gradient oracle for the batch loss, written apart from the package.

reference_loss is the loss from its definitions: each rule's firing level
is the product of the Gaussian grades in its M slots, the masks are applied
as they are defined (a dropped MF or membership slot has grade 1, a dropped
rule fires at 0), and the output is a plain weighted average. It uses no
softmax, no floor on the log-grades and no incidence matrix, and every
operation in it is analytic, so it takes complex parameters.

complex_step_grad differentiates it by the complex step (Squire & Trapp,
"Using complex variables to estimate derivatives of real functions", SIAM
Review 1998): g_i = Im L(theta + i h e_i) / h. There is no subtraction, so
a step of 1e-30 leaves a truncation error of order h^2 and no roundoff from
the step; each coordinate is as exact as one evaluation of the loss.
"""

import numpy as np

from tskfuzzy import flatten

STEP = 1e-30


def reference_loss(grid, theta, X, y, lam, masks=None):
    """0.5 * sum over rows of (y - pred)^2 + (lam / 2) * sum of the squared
    non-bias consequents, at the flat parameters theta (flatten()'s layout,
    real or complex). masks is None or a batch DropMask."""
    M, Mm, R = grid.num_inputs, grid.mfs_per_input, grid.num_rules
    centers = theta[: M * Mm].reshape(M, Mm)
    sigmas = theta[M * Mm : 2 * M * Mm].reshape(M, Mm)
    consequents = theta[2 * M * Mm :].reshape(R, M + 1)
    variant = None if masks is None else masks.variant
    grades = np.exp(-((X[:, :, None] - centers) ** 2) / (2.0 * sigmas**2))  # [N, M, Mm]
    if variant == "mf":
        grades = np.where(masks.keep, grades, 1.0)
    slots = grades[:, np.arange(M), grid.antecedents]  # [N, R, M]
    if variant == "membership":
        slots = np.where(masks.keep, slots, 1.0)
    firing = np.prod(slots, axis=2)  # [N, R]
    if variant == "rule":
        firing = np.where(masks.keep, firing, 0.0)
    outputs = consequents[:, 0] + X @ consequents[:, 1:].T  # [N, R]
    pred = (firing * outputs).sum(axis=1) / firing.sum(axis=1)
    return 0.5 * ((y - pred) ** 2).sum() + 0.5 * lam * (consequents[:, 1:] ** 2).sum()


def complex_step_grad(model, X, y, lam, masks=None):
    """Gradient of reference_loss at the model's parameters, one complex
    step per coordinate, aligned with flatten(model)."""
    theta = flatten(model).astype(complex)
    grad = np.empty(theta.size)
    for i in range(theta.size):
        theta[i] += 1j * STEP
        grad[i] = reference_loss(model.grid, theta, X, y, lam, masks).imag / STEP
        theta[i] -= 1j * STEP
    return grad
