"""Adam with L2 weight decay, plus the finite-difference gradient check.

Adam updates its moments and the parameters in place; the gradient check
builds a fresh tape for every backward, as backward consumes the one it runs.
"""

from __future__ import annotations

import numpy as np

from .tape import Parameter, backward

__all__ = ["AdamState", "init_adam_states", "adam_step", "finite_diff_check"]


_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


class AdamState:
    """First/second moment accumulators for one parameter."""

    __slots__ = ("m", "v", "t")

    def __init__(self, param: Parameter):
        self.m = np.zeros_like(param.value)
        self.v = np.zeros_like(param.value)
        self.t = 0


def init_adam_states(params) -> list[AdamState]:
    return [AdamState(p) for p in params]


def adam_step(params, states, lr: float, weight_decay: float = 0.0) -> None:
    """One Adam update over a parameter group; grads are zeroed after.

    The L2 term weight_decay * value is added to the gradient before the
    moment updates.  m, v and the value are updated in place, through two
    scratch arrays of the parameter's shape allocated here and freed with
    the call; each step takes the same operations in the same order as
    the out-of-place formula, so the results are bit-identical to it.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    for p, st in zip(params, states):
        a, b = np.empty_like(p.value), np.empty_like(p.value)
        g = p.grad
        if g is None:
            a.fill(0)
            g = a
        if weight_decay:
            np.multiply(p.value, weight_decay, out=b)
            g = np.add(g, b, out=a)
        st.t += 1
        st.m *= _BETA1
        st.m += np.multiply(g, 1.0 - _BETA1, out=b)
        st.v *= _BETA2
        np.multiply(g, g, out=b)
        b *= 1.0 - _BETA2
        st.v += b
        m_hat = np.divide(st.m, 1.0 - _BETA1**st.t, out=a)
        denom = np.divide(st.v, 1.0 - _BETA2**st.t, out=b)
        np.sqrt(denom, out=denom)
        denom += _EPS
        m_hat *= lr
        m_hat /= denom
        p.value -= m_hat
        p.zero_grad()


# relative error uses a floor so near-zero entries compare absolutely at
# this scale instead of amplifying finite-difference rounding noise
_REL_FLOOR = 1e-4
_ZERO_ATOL = 1e-7


def finite_diff_check(loss_fn, params, h: float = 1e-5, tolerance: float = 1e-4) -> dict:
    """Compare analytic gradients against central differences.

    loss_fn must be deterministic (dropout masks fixed, fixed operators) and
    rebuild the tape from the current parameter values on every call.
    Entries where both gradients are below _ZERO_ATOL are not compared.
    Returns {param name: {"max_rel_err", "passed", "status", "compared"}},
    compared counting the entries that were.
    """
    for p in params:
        p.zero_grad()
    backward(loss_fn())
    analytic = {id(p): (None if p.grad is None else p.grad.copy()) for p in params}

    report = {}
    for p in params:
        an = analytic[id(p)]
        if an is None:
            report[p.name] = {"max_rel_err": 0.0, "passed": True, "status": "no-grad, skipped", "compared": 0}
            continue
        flat_v = p.value.ravel()
        flat_a = an.ravel()
        worst, compared = 0.0, 0
        for k in range(flat_v.size):
            orig = flat_v[k]
            flat_v[k] = orig + h
            lp = float(loss_fn().value)
            flat_v[k] = orig - h
            lm = float(loss_fn().value)
            flat_v[k] = orig
            fd = (lp - lm) / (2.0 * h)
            a = flat_a[k]
            scale = max(abs(a), abs(fd))
            if scale < _ZERO_ATOL:
                continue
            compared += 1
            worst = max(worst, abs(a - fd) / max(scale, _REL_FLOOR))
        report[p.name] = {
            "max_rel_err": worst,
            "passed": worst <= tolerance,
            "status": "checked",
            "compared": compared,
        }
        p.zero_grad()
    return report
