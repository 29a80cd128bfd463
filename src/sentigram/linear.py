"""The linear kinds' engine: their two full-batch regularized objectives and
the L-BFGS solver that minimizes them.

``fit_linear`` finds a model's weights ``W`` (k, F) and biases ``b`` (k,) from
zero by L-BFGS (Liu & Nocedal, Math. Programming 1989) with Armijo
backtracking. The fit ends at whichever stop comes first: the gradient norm
is at most ``_LBFGS_REL_GRAD`` times its norm at the start point, LIBLINEAR's
primal stop (Fan et al., JMLR 2008); a step lowers the value by less than
``_LBFGS_REL_DECREASE``, relatively; or ``_LBFGS_MAX_ITER`` steps have been
taken. A fit builds X's transpose, and for the squared hinge its ±1 target
table, once, not on every call: scipy builds each ``X.T`` anew.
"""

import collections
import math

import numpy as np
from scipy.special import log_softmax

_LBFGS_MEMORY = 10  # curvature pairs kept
_LBFGS_MAX_ITER = 200  # steps
_LBFGS_REL_DECREASE = 1e-9  # a step lowering the objective by less, relatively, ends the fit
_LBFGS_REL_GRAD = 1e-3  # a gradient norm this far below the starting point's ends the fit


def fit_linear(loss_grad, X, targets, k, l2):
    """The weights ``W`` (k, F), in Fortran order, and biases ``b`` (k,)
    minimizing ``loss_grad`` (W, b, X, XT, targets, l2) -> (loss, grad_W,
    grad_b) on canonical rows X, by L-BFGS from zero."""
    F = X.shape[1]
    XT = X.T

    def objective(theta):
        # theta is b, then W.T in C order, the operand scipy's sparse product reads in place
        W = theta[k:].reshape(F, k).T
        loss, grad_W, grad_b = loss_grad(W, theta[:k], X, XT, targets, l2)
        return loss, np.concatenate((grad_b, grad_W.T.ravel()))

    theta = _lbfgs(objective, np.zeros(k + k * F))
    return theta[k:].reshape(F, k).T, theta[:k]


def softmax_xent_loss_grad(W, b, X, y_local, l2):
    """Mean softmax cross-entropy plus 0.5*l2*||W||^2, and its analytic gradient.

    W: (k, F), b: (k,), y_local: class indices 0..k-1 aligned with X rows.
    Returns (loss, grad_W, grad_b). The bias is unregularized. This is the
    objective ``SoftmaxRegression`` minimizes; it is exposed so the gradient
    can be checked against finite differences.
    """
    return _softmax_xent(W, b, X, X.T, y_local, l2)


def _softmax_xent(W, b, X, XT, y_local, l2):
    """``softmax_xent_loss_grad`` given ``XT``, X's transpose, which a fit builds once."""
    n = len(y_local)
    rows = np.arange(n)
    log_probs = log_softmax(X @ W.T + b, axis=1)
    loss = -np.mean(log_probs[rows, y_local]) + 0.5 * l2 * np.sum(W * W)
    delta = np.exp(log_probs)  # the mean loss's gradient with respect to the logits
    delta[rows, y_local] -= 1.0
    delta /= n
    return loss, (XT @ delta).T + l2 * W, delta.sum(axis=0)


def squared_hinge_loss_grad(W, b, X, y_local, l2):
    """One-vs-rest squared hinge plus 0.5*l2*||W||^2, and its analytic gradient.

    Class c's target is +1 on its own rows and -1 on the others; a row adds
    max(0, 1 - target * margin)^2 per class (LIBLINEAR's default L2-loss SVM
    primal), summed over classes and averaged over rows. ``LinearSVMOvR``
    minimizes it; arguments and returns are ``softmax_xent_loss_grad``'s.
    """
    return _squared_hinge(W, b, X, X.T, _signs(y_local, len(b)), l2)


def _signs(y_local, k):
    """The one-vs-rest targets, (n, k): +1 in each row's own class, -1 elsewhere."""
    return np.where(np.arange(k) == y_local[:, None], 1.0, -1.0)


def _squared_hinge(W, b, X, XT, Y, l2):
    """``squared_hinge_loss_grad`` given ``XT``, X's transpose, and ``Y``, the
    ``_signs`` table of the labels, which a fit builds once each."""
    n = len(Y)
    slack = np.maximum(0.0, 1.0 - Y * (X @ W.T + b))
    loss = np.sum(slack * slack) / n + 0.5 * l2 * np.sum(W * W)
    delta = (-2.0 / n) * Y * slack
    return loss, (XT @ delta).T + l2 * W, delta.sum(axis=0)


def _dot(a, b):
    """``a . b`` by einsum's own loop: unlike BLAS, its sum does not vary with the thread count."""
    return float(np.einsum("i,i->", a, b))


def _lbfgs(fun, x):
    """Minimize ``fun`` (returning value and gradient) from ``x`` by L-BFGS
    with Armijo backtracking, until the first of the module's three stops."""
    f, g = fun(x)
    g0 = math.sqrt(_dot(g, g))
    pairs = collections.deque(maxlen=_LBFGS_MEMORY)  # (s, y, 1 / y.s, y.y), oldest first
    for _ in range(_LBFGS_MAX_ITER):
        if math.sqrt(_dot(g, g)) <= _LBFGS_REL_GRAD * g0:
            break
        # two-loop recursion: q = H g, H starting from the newest pair's s.y / y.y
        q, alphas = g.copy(), []
        for s, y, rho, _ in reversed(pairs):
            alphas.append(rho * _dot(s, q))
            q -= alphas[-1] * y
        if pairs:
            q /= pairs[-1][2] * pairs[-1][3]
        for (s, y, rho, _), alpha in zip(pairs, reversed(alphas)):
            q += (alpha - rho * _dot(y, q)) * s
        slope = -_dot(g, q)
        if not slope < 0.0:  # a zero gradient
            break
        t = 1.0 if pairs else min(1.0, 1.0 / math.sqrt(-slope))  # a first step of length <= 1
        for _ in range(60):
            x_new = x - t * q
            f_new, g_new = fun(x_new)
            if f_new <= f + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break  # no step lowers the value at this precision
        s, y = x_new - x, g_new - g
        ys, yy = _dot(y, s), _dot(y, y)
        if ys > np.finfo(float).eps * yy:  # keeps H positive definite
            pairs.append((s, y, 1.0 / ys, yy))
        done = f - f_new <= _LBFGS_REL_DECREASE * max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if done:
            break
    return x
