"""Analytic ground truth: Gaussian-mixture marginals, exact scores,
a reference ODE solver, seeded random streams, and exact likelihood.

A linear diffusion pushes a Gaussian mixture forward to another
Gaussian mixture: component k of the data law N(m_k, s_k^2) becomes
N(mu(t) m_k, mu(t)^2 s_k^2 + L(t)^2) with unchanged weight.  Every
quantity a sampler consumes (score, noise prediction) is therefore
available in closed form, which is what makes the integrators in this
package testable without a trained network.

Conventions:

* ``score(x, t)`` is the gradient of the log marginal density.
* The noise-prediction field is eps(x, t) = -L(t) * score(x, t); it is
  the whitened quantity a denoising network would regress, and stays
  O(1) near t = 0 where the raw score blows up for concentrated data.
* Arrays are processed elementwise, so a vector input doubles as a
  batch of independent scalar states (and, for multi-axis arrays, as a
  per-axis factorized product distribution with iid axes).
* The field, its :meth:`EpsilonField.score` and each ``pf_loglik``
  stage form the marginal's means, variances and per-component bias
  log w_k - 0.5 log(2 pi var_k) directly (``_marginals``, at one time
  or many, with the bits of the one-time formula at each) instead of
  building a :class:`GaussianMixture`.  Every mixture evaluation runs
  one plain-numpy score routine (``_score_half``): the log terms, a
  shifted softmax (with a_k the log terms and a_max their max, the
  weights are exp(a_k - a_max) / sum_j exp(a_j - a_max) and the log
  density is a_max + log(sum_j exp(a_j - a_max))) and the score half of
  the pair code of :meth:`GaussianMixture.score_dx`, which leaves the
  score times -1.  So the field has the bits of
  ``marginal_at(gmm, spec, t).score(x)``, and against a 50-digit
  reference the score, the field and the log density are within 1e-13
  and the score's x-derivative within 1e-12, relative to max(1, |value|)
  (measured up to 3.4e-15 and 4.9e-14).  A one-component mixture has
  weight exactly 1, so its score has the bits of -(x - m) / var.  The
  routine works on per-component row views built once, not per call,
  and takes the max and the sums over the components as chains of binary
  ``np.maximum`` and ``np.add`` calls in the order k = 0, 1, ..., with no
  reduce over an axis.  The field and the mixture's methods run it
  through one kernel (``_kernel``), which works on ``x.reshape(-1)`` in
  blocks of at most 8192 states (``_BLOCK``), in place in a per-thread
  scratch buffer that outlives the call and keeps its views (``_rows``),
  so a call allocates only its output.  Each ``pf_loglik`` stage runs
  the routine directly, in rows of its own, and a later pass the
  derivative half of the pair code (``_dx_half``).  Either way each
  state gets the bits of a call on it alone.
* An :class:`EpsilonField` memoises that per-time work by ``float(t)``,
  up to 4096 times per field (``_MEMO_SIZE``; the memo is cleared when
  full).  A hit has the bits of a miss; a time whose marginal variance
  underflows raises on every call and is never stored.  A run that knows
  its times ahead (Euler-Maruyama) fills the memo from one array call.
  The reference solve neither reads nor fills it.
* Every fixed-step solve (the reference and :func:`pf_loglik`) runs one
  RK4 stepper, ``_rk4``, which steps in place in one buffer of six rows
  of the state's shape with numpy's over and invalid flags quiet, since
  its finite check reports divergence.  ``_rk4`` is entered once per
  window of at most 2047 steps (``_solve_windows``), which may hold many
  spans of a solve, each with its own step, and it records the state at
  each span's end.  One stage-table builder (``_stage_table``) takes
  the per-time work of a window (f, g2 / 2, L and the marginal's
  columns) from one array call each, with the bits of a call at each
  time.  The reference's right side runs the score routine on that
  table in rows of its own, with the float operations of calling the
  field, in their order; a field that is not an :class:`EpsilonField`
  of the solve's spec is called.  The likelihood's divergence never
  feeds back into x, so ``_rk4`` steps the state alone and records each
  stage's weights; one vectorised pass per chunk of steps then forms
  the divergence's slopes and RK4 increments in ``_rk4``'s expression
  order and adds them in sequence, with the bits of stepping the two
  together.

All operations are pure functions of their inputs (plus an explicit
seed for the stochastic ones), and a field's memo only ever holds what
a miss would compute, so instances can be shared freely across
threads.  Every random draw comes from :func:`normals`, Philox
keyed by the two words (seed, stream): stream 0 holds the initial
states of a batch and stream 1 + k the noise of the k-th step taken,
with trajectory i at position i of each.  Each thread keeps one
generator, whose whole state every draw resets to its key, so a draw
has the bits of a freshly keyed generator in any thread.  A shorter
draw is a prefix of a longer one, so a trajectory sees the same draws
at every batch size.  The Euler-Maruyama simulator of the reverse-time family, which
consumes these streams, is a step plan of :mod:`diffint.samplers`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field as dataclass_field
from numbers import Integral

import numpy as np

from .diffusion import DiffusionSpec
from .errors import DivergenceError, DomainError, OracleTrustError, ParameterError

__all__ = [
    "GaussianMixture",
    "Trajectory",
    "marginal_at",
    "EpsilonField",
    "fixed_step_times",
    "reference_solve",
    "reference_states",
    "reference_self_check",
    "draw_terminal_states",
    "normals",
    "pf_loglik",
]

_VARIANCE_FLOOR = 1e-300


# Widest run of states the score routine works on at once.  Its
# (2K + 2, block) rows live in a per-thread scratch buffer (``_scratch``)
# that is reused in place from block to block and from call to call, so
# a call allocates only its output.  Measured with K = 2 on a shared
# 2-vCPU machine: a field call on 8192 states fell from 159 to 113 us and
# on 50000 from 2800 to 880 us, and a 50000-wide lambda = 0
# ``samplers.em_terminal_batch``, 999 field calls, from 505k minor page
# faults to under 800.  Blocks of 4096 made a field call on 8192 states
# about 40% slower.
_BLOCK = 8192

# The scratch outlives the call because a fresh (5, 8192) buffer next to
# a fresh 50000-wide output still made the allocator hand the heap back
# to the OS after every field call of an EM run (146k minor faults per
# 999 calls).  Each block writes every element it reads, so no value
# carries between calls; one buffer per thread keeps shared fields
# thread-safe.
_scratch = threading.local()


def _scalars(values):
    """The floats ``values`` as a list of 0-d arrays.  As an operand of a
    ufunc, a 0-d array takes about two thirds of the time of a Python
    float, which numpy converts on every call, and gives the same bits."""
    arr = np.array(values, dtype=float)
    return [arr[i, ...] for i in range(arr.size)]


# The identities of the score routine's chains over the components,
# max(a, -inf) = a and a + (-0.0) = a bit for bit (nan and -0.0 included),
# which pair a one-component mixture's one row in place of a second; and
# the routine's factor 0.5.
_NO_MAX, _NO_SUM, _HALF = _scalars((-np.inf, -0.0, 0.5))


def _bias(weights, var):
    """log w_k - 0.5 log(2 pi var_k), the x-free part of each component's
    log term."""
    return np.log(weights) - 0.5 * np.log(2 * np.pi * var)


def _row_views(dev, e, eu, a_max, total):
    """The rows :func:`_score_half` works in, for m states of a K-component
    mixture: dev, e and eu, (K, m) each (eu may be dev itself), a_max and
    total, (m,) each, and the operands of its chains over the components,
    built once here so that a call makes no view.  Each chain is one
    binary ufunc call per component, in the order k = 0, 1, ...: it starts
    from the pair of rows 0 and 1 (row 0 and the chain's identity,
    ``_NO_MAX`` or ``_NO_SUM``, when K = 1) and goes on with rows 2, 3,
    ...  Returns (dev, e, eu, a_max, total, a pair, e pair, eu pair, rest
    of e, rest of eu)."""
    e_k, eu_k = list(e), list(eu)
    return (dev, e, eu, a_max, total, tuple(e_k + [_NO_MAX])[:2],
            tuple(e_k + [_NO_SUM])[:2], tuple(eu_k + [_NO_SUM])[:2], e_k[2:], eu_k[2:])


def _rows_of(buf, k: int, m: int):
    """:func:`_row_views` for m states of a k-component mixture, cut from
    the front of ``buf`` ((2k + 2) m floats or more), whose eu is their
    dev: e_k dev_k / var_k overwrites dev_k / var_k in place, which at
    8192 states and more takes less time than filling rows of their
    own."""
    work = buf[: (2 * k + 2) * m].reshape(2 * k + 2, m)
    dev = work[:k]
    return _row_views(dev, work[k : 2 * k], dev, work[-2], work[-1])


def _rows(k: int, m: int):
    """This thread's scratch, cut by :func:`_rows_of` for one block of m
    states.  The buffer grows to the largest block asked for.  The views
    of the last (k, m), row and chain views alike, are kept and built anew
    only when (k, m) changes, which is also the only time the buffer can
    grow; so a run of calls of one width makes no view, and a 50000-state
    call, whose last block has 848 states, builds them twice."""
    rows = getattr(_scratch, "rows", None)
    if rows is None or rows[0] != (k, m):
        buf = getattr(_scratch, "buf", None)
        if buf is None or buf.size < (2 * k + 2) * m:
            buf = _scratch.buf = np.empty((2 * k + 2) * m)
        rows = _scratch.rows = ((k, m), _rows_of(buf, k, m))
    return rows[1]


def _score_half(x, means, var, bias, rows, q):
    """The one score routine: the score half of the pair code at the
    states x, (m,), of the mixture with (K, 1) columns (means, var, bias)
    or (K, m) ones, working in ``rows`` (:func:`_row_views`).

    It forms the log terms a_k = bias_k - 0.5 dev_k^2 / var_k, with
    dev_k = x - m_k; their max a_max; e_k = exp(a_k - a_max), which lies
    in [0, 1] with e_k = 1 at the max; the weight total sum_k e_k; and
    q = sum_k e_k dev_k / var_k / sum_k e_k, minus the score, into q.  It
    leaves dev_k / var_k in the rows' dev (unless their eu is dev), e_k in
    e, e_k dev_k / var_k in eu, and a_max and the total in theirs, as
    :func:`_dx_half` and :func:`_logpdf_block` take them.  The max and
    the sums run over k = 0, 1, ... one binary ufunc call at a time on the
    rows' cached views, so a state gets the same bits alone and inside an
    array (numpy reduces eight or more terms of a 1-d array pairwise), and
    no view is made.  Where x is infinite, or |x - m_k| so large that its
    square overflows, a_k is -inf; where x is nan, a_k is nan; either way
    e and q are nan.  Callers hold numpy's over and invalid flags
    quiet."""
    dev, e, eu, a_max, total, a_pair, e_pair, eu_pair, e_rest, eu_rest = rows
    # the third argument of a ufunc is its output, but np.maximum takes
    # out= (numpy 2 deprecates its positional out, a path about twice as
    # slow)
    np.subtract(x, means, dev)
    np.square(dev, e)
    e *= _HALF
    e /= var
    np.subtract(bias, e, e)
    np.maximum(*a_pair, out=a_max)
    for row in e_rest:
        np.maximum(a_max, row, out=a_max)
    e -= a_max
    np.exp(e, e)
    dev /= var
    np.multiply(e, dev, eu)
    np.add(*e_pair, total)
    for row in e_rest:
        np.add(total, row, total)
    np.add(*eu_pair, q)
    for row in eu_rest:
        np.add(q, row, q)
    q /= total


def _dx_half(dev, e, total, q, inv_var, out):
    """The derivative half of the pair code: the score's x-derivative,
    from the dev, e and total rows and the q that :func:`_score_half`
    left, into out, with ``inv_var`` = 1.0 / var; overwrites dev.  It is
    taken as the posterior mean of (u_k - s)^2 - 1 / var_k, with
    u_k = -dev_k / var_k the component scores and s = -q, rather than as
    E[u^2 - 1 / var] - s^2, which cancels.  The rows may hold many stages
    at once, (k, n, m) against (n, m) q and (k, n, 1) ``inv_var``.  The
    sum over the components runs one term after another, as in
    :func:`_score_half`, from the pair of rows 0 and 1 (or row 0 and
    ``_NO_SUM``)."""
    dev -= q
    np.square(dev, dev)
    dev -= inv_var
    np.multiply(e, dev, dev)
    terms = list(dev) + [_NO_SUM]
    np.add(terms[0], terms[1], out)
    for row in terms[2:-1]:
        out += row
    out /= total


def _pair_block(rows, out, x, means, var, inv_var):
    """The score's x-derivative at the states x into out[1], by
    :func:`_dx_half` from the rows and the q in out[0] that
    :func:`_score_half` left, with ``inv_var`` = 1.0 / var.  The kernel's
    rows hold e_k dev_k / var_k in their dev, so dev_k / var_k is formed
    again first, with the routine's bits.  This is the pair code of
    :meth:`GaussianMixture.score_dx`; :func:`pf_loglik` runs its two
    halves apart."""
    dev, e, _, _, total = rows[:5]
    np.subtract(x, means, dev)
    dev /= var
    _dx_half(dev, e, total, out[0], inv_var, out[1])


def _logpdf_block(rows, out, x):
    """log sum_k exp(a_k) = a_max + log(sum_k e_k), from the rows that
    :func:`_score_half` left, into out[0]; a_max where a_max is
    infinite."""
    a_max, total, log = rows[3], rows[4], out[0]
    np.log(total, log)
    np.add(a_max, log, log)
    np.copyto(log, a_max, where=np.isinf(a_max))


# numpy 2 keeps the decorator's state per call, so it is thread-safe, and
# entering it costs about half of a ``with np.errstate`` block
@np.errstate(over="ignore", invalid="ignore")
def _kernel(x, means, var, bias, scale, finish=None, n_out=1, *args):
    """Run the score routine on x, in blocks of at most ``_BLOCK`` states.

    ``means``, ``var`` and ``bias`` (from :func:`_bias`) are (K, 1)
    columns.  For each block of ``x.reshape(-1)``, :func:`_score_half`
    writes q into the block's columns of the first row of the
    (n_out, x.size) output, in the block's :func:`_rows`, whose views,
    those of its binary chains over the components included, are built
    once per block width, so a block makes no view and reduces over no
    axis.  Then ``finish(rows, out, x, *args)``, when given, writes the
    block's columns from them and the block's states, and ``scale``
    multiplies the first row.  So with ``finish`` None and ``scale`` -1.0
    the output is the score, as (sum / sum) * -1.0, and with ``scale``
    L(t) it is the field -L(t) * score: negation is exact.  A ``finish`` that writes the first
    row itself takes ``scale`` 1.0, which keeps its bits.  Returns the
    output as an (n_out,) + x.shape array.  Every step is elementwise in
    x or a sum over the components in a fixed order, so each state gets
    the bits of a call on it alone.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    n, k = flat.size, len(means)
    out = np.empty((n_out, n))
    for lo in range(0, n, _BLOCK):
        xb, ob = flat[lo : lo + _BLOCK], out[:, lo : lo + _BLOCK]
        rows, q = _rows(k, xb.size), ob[0]
        _score_half(xb, means, var, bias, rows, q)
        if finish is not None:
            finish(rows, ob, xb, *args)
        q *= scale
    return out.reshape((n_out,) + x.shape)


def _score_pair(x, means, var, bias):
    """Score s of the mixture and its x-derivative (see :func:`_pair_block`)."""
    pair = _kernel(x, means, var, bias, -1.0, _pair_block, 2, means, var, 1.0 / var)
    return pair[0], pair[1]


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """A one-dimensional Gaussian mixture with exact density and score."""

    weights: np.ndarray
    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        m = np.atleast_1d(np.asarray(self.means, dtype=float))
        s = np.atleast_1d(np.asarray(self.stds, dtype=float))
        if not (w.size == m.size == s.size) or w.size < 1:
            raise ParameterError("weights, means, stds must share a length >= 1")
        if not (np.isfinite(w).all() and np.isfinite(m).all() and np.isfinite(s).all()):
            raise ParameterError("weights, means, stds must be finite")
        if np.any(w <= 0):
            raise ParameterError("mixture weights must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ParameterError(f"weights sum to {w.sum()!r}, expected 1 within 1e-12")
        if np.any(s <= 0):
            raise ParameterError("component stds must be strictly positive")
        for name, arr in (("weights", w), ("means", m), ("stds", s)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def _kernel_args(self):
        """(means, variances, bias) as the (K, 1) columns the mixture
        kernel takes."""
        var = (self.stds**2).reshape(-1, 1)
        return self.means.reshape(-1, 1), var, _bias(self.weights.reshape(-1, 1), var)

    def logpdf(self, x):
        """Log density; -inf where every component's term is -inf."""
        return _kernel(x, *self._kernel_args(), 1.0, _logpdf_block)[0]

    def score(self, x):
        """Gradient of the log density."""
        return _kernel(x, *self._kernel_args(), -1.0)[0]

    def score_dx(self, x):
        """Derivative of the score (exact divergence in the scalar case)."""
        return _score_pair(x, *self._kernel_args())[1]

    def mean(self) -> float:
        return float(np.sum(self.weights * self.means))

    def variance(self) -> float:
        second = np.sum(self.weights * (self.stds**2 + self.means**2))
        return float(second - self.mean() ** 2)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States recorded along an integration, in integration order."""

    times: np.ndarray
    states: np.ndarray

    @property
    def terminal(self):
        return self.states[-1]


def marginal_at(gmm: GaussianMixture, spec: DiffusionSpec, t: float) -> GaussianMixture:
    """Forward marginal of the mixture at time t (again a mixture)."""
    mu_t = float(spec.mu(t))
    l_t = float(spec.L(t))
    return GaussianMixture(
        weights=gmm.weights,
        means=mu_t * gmm.means,
        stds=np.sqrt((mu_t * gmm.stds) ** 2 + l_t * l_t),
    )


def _marginals(gmm: GaussianMixture, spec: DiffusionSpec, times):
    """L(t), (T,), and the means, variances and :func:`_bias` of the
    time-t marginal, (K, T) each, one column per time of ``times`` (a
    1-d array, or one time), each with the bits of :func:`marginal_at`'s
    mixture, without building and validating one.  The (K, T) arrays
    are read-only; raises :class:`DomainError` at the first time whose
    variance underflows."""
    # mu has the shape of times, so against the (K, 1) data columns it
    # gives (K, T) arrays, or (K, 1) ones for one time
    mu = spec.mu(times)
    l_t = np.asarray(spec.L(times), dtype=float).reshape(-1)
    total_var = (mu * gmm.stds.reshape(-1, 1)) ** 2 + l_t * l_t
    low = total_var < _VARIANCE_FLOOR
    if low.any():
        t = times if np.ndim(times) == 0 else times[low.any(axis=0).argmax()]
        raise DomainError(f"marginal variance underflow at t={t}")
    means = mu * gmm.means.reshape(-1, 1)
    var = np.sqrt(total_var) ** 2
    bias = _bias(gmm.weights.reshape(-1, 1), var)
    for arr in (means, var, bias):
        arr.setflags(write=False)
    return l_t, means, var, bias


# Bound on the per-time memo of one EpsilonField, at about 530 bytes per
# entry.  Measured distinct times per field (the reference solves
# tabulate their own times and do not count): 689 in one pass of the
# benchmark sweep; 46 to 471 for the shipped convergence and study
# configs, and 91 for trace, so none of them fills the memo.  It also
# sets the window of a fixed-step solve, (_MEMO_SIZE - 1) // 2 steps.
_MEMO_SIZE = 4096


@dataclass(frozen=True, eq=False)
class EpsilonField:
    """Noise-prediction field eps(x, t) = -L(t) * score(x, t) of a mixture.

    Everything that depends on t alone (L(t) and the marginal's means,
    variances and bias, from :func:`_marginals`) is kept in a memo keyed
    by ``float(t)``, so a time evaluated again costs only the x-dependent
    kernel.  The memo holds at most ``_MEMO_SIZE`` (4096) times and is
    cleared when full.  A hit returns the very arrays a miss computed,
    so the results have the same bits either way.  A time whose variance
    underflows raises :class:`DomainError` on every call and is never
    stored.  The field stays safe to share across threads: each entry is
    a pure function of its key, stored and cleared by single dict
    operations, so a race can only cost a recomputation.  The field is
    frozen, so the memo cannot outlive a change of ``gmm`` or ``spec``.
    """

    gmm: GaussianMixture
    spec: DiffusionSpec
    _memo: dict = dataclass_field(default_factory=dict, init=False, repr=False)

    def _marginal(self, t: float):
        """:func:`_marginals` of this field's mixture at the one time t,
        from the memo, as the float L(t) and (K, 1) columns, the form the
        mixture kernel takes.  Each array is computed at its own size, so
        that a memo entry owns three small arrays and holds no views of
        larger ones."""
        key = float(t)
        entry = self._memo.get(key)
        if entry is None:
            l_t, *columns = _marginals(self.gmm, self.spec, t)
            entry = (float(l_t[0]), *columns)
            if len(self._memo) >= _MEMO_SIZE:
                self._memo.clear()
            self._memo[key] = entry
        return entry

    def _fill(self, times):
        """Store the memo entries of the float ``times`` that it does not
        hold yet, from one :func:`_marginals` array call, each with its own
        copied (K, 1) columns, as a miss at that time would store them.
        Nothing is stored when they would not fit in the ``_MEMO_SIZE``
        entries, or when a variance underflows, so that the call at that
        time raises :class:`DomainError` as it would without the fill."""
        keys = [t for t in dict.fromkeys(times) if t not in self._memo]
        if not keys or len(self._memo) + len(keys) > _MEMO_SIZE:
            return
        try:
            l_t, *columns = _marginals(self.gmm, self.spec, np.array(keys))
        except DomainError:
            return
        for j, key in enumerate(keys):
            entry = [float(l_t[j])]
            for arr in columns:
                entry.append(arr[:, j : j + 1].copy())
                entry[-1].setflags(write=False)
            self._memo[key] = tuple(entry)

    def __call__(self, x, t: float):
        l_t, means, var, bias = self._marginal(t)
        return _kernel(x, means, var, bias, l_t)[0]

    def score(self, x, t: float):
        """Exact score of the time-t marginal, evaluated elementwise."""
        return _kernel(x, *self._marginal(t)[1:], -1.0)[0]


def _steps(t_from: float, t_to: float, dt: float):
    """The step rule of every fixed-step oracle solve: n equal steps of at
    most dt (checked by :func:`_check_step`) from t_from to t_to, as
    (n, h) with the signed h = (t_to - t_from) / n."""
    _check_step(dt)
    n = max(1, int(np.ceil(abs(t_to - t_from) / dt - 1e-12)))
    return n, (t_to - t_from) / n


def _stage_windows(t, n: int, h):
    """The stage times of n RK4 steps of size h from t, in windows of at
    most ``(_MEMO_SIZE - 1) // 2`` steps: yields each window's list t_k,
    t_k + h/2, t_k + h, ..., with t carried by ``t += h`` across windows,
    so their size never moves a time."""
    window = (_MEMO_SIZE - 1) // 2
    for first in range(0, n, window):
        times = [t]
        for _ in range(min(window, n - first)):
            times += (t + 0.5 * h, t + h)
            t += h
        yield times


def _solve_windows(spans, dt: float):
    """The windows of one fixed-step solve through ``spans``, pairs
    (t_from, t_to) taken in turn, each in the steps of :func:`_steps` with
    its own h and the stage times of :func:`_stage_windows`.  Yields
    (first, times, steps) per window of at most ``(_MEMO_SIZE - 1) // 2``
    steps, which holds whole pieces of :func:`_stage_windows`: the index
    of its first step in the solve, the stage times of its pieces one
    after another, and per step (j, half, h, end), for :func:`_rk4`."""
    window = (_MEMO_SIZE - 1) // 2
    first, times, steps = 0, [], []
    for end, (t_from, t_to) in enumerate(spans):
        n, h = _steps(t_from, t_to, dt)
        half, full = _scalars((0.5 * h, h))
        for piece in _stage_windows(t_from, n, h):
            if len(steps) + len(piece) // 2 > window:
                yield first, times, steps
                first, times, steps = first + len(steps), [], []
            steps += [(j, half, full, None) for j in range(len(times), len(times) + len(piece) - 1, 2)]
            times += piece
        steps[-1] = steps[-1][:3] + (end,)
    if steps:
        yield first, times, steps


def _stage_table(spec: DiffusionSpec, times, gmm: GaussianMixture | None = None):
    """What a fixed-step solve takes from the stage times of one window,
    from one array call each, each value with the bits of a call at its
    time alone: f and g2 / 2, (T,) each, then L, (T,), and, given the
    mixture ``gmm``, the means, var and bias of its marginal
    (:func:`_marginals`)."""
    stage = np.array(times)
    f, half_g2 = spec.f(stage), 0.5 * spec.g2(stage)
    if gmm is None:
        return f, half_g2, np.asarray(spec.L(stage), dtype=float).reshape(-1)
    return (f, half_g2) + _marginals(gmm, spec, stage)


# the decorator enters np.errstate once per call, in about half the time
# of a ``with`` block
@np.errstate(over="ignore", invalid="ignore")
def _rk4(rhs, y, times, steps, what: str, first: int, ends):
    """The oracle's one RK4 loop: classical steps over one window of
    :func:`_solve_windows`, from a copy of y, with ``rhs(y, j, out)``
    writing the right side at times[j] into ``out``.  Step (j, half, h,
    end) of ``steps`` has size h (negative to step down) and half = 0.5 h,
    both 0-d arrays, and its stages at times[j], times[j + 1] twice and
    times[j + 2]; a step that ends span ``end`` of the solve (else None)
    copies its state into ends[end].  The state, the stage state and the
    four slopes are the rows of one buffer allocated per call, and each
    update keeps the order of y + (0.5 h) k1 and
    y + h (((k1 + 2 k2) + 2 k3) + k4) / 6.  The loop runs with numpy's
    over and invalid flags quiet: a non-finite state raises
    :class:`DivergenceError` naming ``what``, the step counted from the
    solve's start (this window's is ``first``) and the time it starts
    from."""
    work = np.empty((6,) + np.shape(y))
    work[0] = y
    y, stage, k1, k2, k3, k4 = (work[i, ...] for i in range(6))
    two, six = np.array(2.0), np.array(6.0)
    for s, (j, half, h, end) in enumerate(steps):
        rhs(y, j, k1)
        np.multiply(k1, half, stage)
        stage += y
        rhs(stage, j + 1, k2)
        np.multiply(k2, half, stage)
        stage += y
        rhs(stage, j + 1, k3)
        np.multiply(k3, h, stage)
        stage += y
        rhs(stage, j + 2, k4)
        np.multiply(k2, two, stage)
        stage += k1
        k3 *= two
        stage += k3
        stage += k4
        stage *= h
        stage /= six
        y += stage
        if not np.isfinite(y).all():
            raise _diverged(what, first + s, times[j])
        if end is not None:
            ends[end] = y
    return y


def _diverged(what: str, k: int, time: float):
    """The :class:`DivergenceError` of a fixed-step solve of ``what`` whose
    step k, from ``time``, left a non-finite value."""
    return DivergenceError(f"{what} diverged at step {k}", step_index=k, time=time)


def reference_solve(
    spec: DiffusionSpec, field, x_T, dt: float = 1e-3, t0: float = 1e-3
) -> Trajectory:
    """Ground-truth solve of the sampling ODE, t_end down to t0, with
    0 < t0 < t_end.

    Fixed-step classical RK4 (:func:`reference_states` on
    :func:`fixed_step_times`); ``dt`` must lie in (0, 1e-3] so that the
    result can serve as the reference for every error metric in the
    package (run :func:`reference_self_check` before trusting it for
    a new oracle).
    """
    if not 0 < t0 < spec.t_end:
        raise ParameterError(f"t0 must lie in (0, t_end = {spec.t_end}), got {t0}")
    times = fixed_step_times(spec.t_end, t0, dt)
    states = reference_states(spec, field, x_T, times[::-1], dt)[::-1]
    return Trajectory(times=times, states=states)


def reference_states(
    spec: DiffusionSpec, field, x_T, times, dt: float = 1e-3
) -> np.ndarray:
    """Reference states aligned with ``times``, strictly increasing with
    0 < times[0] and times[-1] <= t_end.

    Integration starts at times[-1] with state x_T and proceeds
    downward; the returned array is indexed like ``times`` (entry i is
    the state at times[i], entry -1 the initial condition).  Each span
    takes the steps of :func:`_steps`, and the whole solve runs through
    :func:`_rk4` once per window of :func:`_solve_windows` on
    dx/dt = f(t) x + g2(t) / (2 L(t)) eps(x, t), with the right side of
    :func:`_reference_side`.
    """
    _check_step(dt)
    times = np.asarray(times, dtype=float)
    if not (times.ndim == 1 and times.size and 0 < times[0] and times[-1] <= spec.t_end
            and (np.diff(times) > 0).all()):
        raise ParameterError(f"reference times must be strictly increasing in "
                             f"(0, t_end = {spec.t_end}], got {times}")
    x = np.asarray(x_T, dtype=float)
    out = np.empty((times.size, x.size))
    out[-1] = x.reshape(-1)
    y, side = out[-1], _reference_side(spec, field, x.shape)
    spans = [(times[i], times[i - 1]) for i in range(times.size - 1, 0, -1)]
    for first, stage, steps in _solve_windows(spans, dt):
        y = _rk4(side(stage), y, stage, steps, "reference solve", first, out[-2::-1])
    return out.reshape(times.shape + x.shape)


def _reference_side(spec: DiffusionSpec, field, shape):
    """The reference solve's right side f y + c eps(y, t), c = (0.5 g2) / L,
    on the flat state of ``x_T``'s ``shape``, as ``side(times)``, which
    gives :func:`_rk4`'s rhs for one window from its
    :func:`_stage_table`.  For an :class:`EpsilonField` of ``spec`` the
    rhs runs the score routine (:func:`_score_half`) on rows built once
    per solve, then q *= L, q *= c, out = f y and out += q: the field's
    -L s is q L, so these are the float operations of calling it, in
    their order, and the field's memo is neither read nor filled.  Any
    other field is called as ``field(y, t)``."""
    if not (isinstance(field, EpsilonField) and field.spec == spec):
        def side(times):
            f, half_g2, l_t = _stage_table(spec, times)
            f, c = _scalars(f), _scalars(half_g2 / l_t)

            def rhs(y, j, out):
                np.multiply(y, f[j], out)
                out += np.reshape(c[j] * field(y.reshape(shape), times[j]), -1)
            return rhs
        return side

    k, m = len(field.gmm.weights), int(np.prod(shape))
    rows, q = _rows_of(np.empty((2 * k + 2) * m), k, m), np.empty(m)

    def side(times):
        f, half_g2, l_t, *columns = _stage_table(spec, times, field.gmm)
        f, c, l_t = _scalars(f), _scalars(half_g2 / l_t), _scalars(l_t)
        means, var, bias = (list(arr.T[:, :, None]) for arr in columns)

        def rhs(y, j, out):
            _score_half(y, means[j], var[j], bias[j], rows, q)
            np.multiply(q, l_t[j], q)
            np.multiply(q, c[j], q)
            np.multiply(y, f[j], out)
            out += q
        return rhs
    return side


def reference_self_check(
    spec: DiffusionSpec, field, x_T, dt: float = 1e-3, t0: float = 1e-3,
    tol: float = 1e-6, *, coarse=None,
) -> float:
    """Step-halving trust check for the reference solver.

    Solves at ``dt`` and ``dt/2`` and returns the max terminal gap;
    raises :class:`OracleTrustError` when it exceeds ``tol``.  A caller
    that already holds the terminal state of the solve at ``dt`` passes
    it as ``coarse``, and only the ``dt/2`` solve runs.  ``tol`` must be
    finite and non-negative, and a nan gap fails the check.
    """
    if not 0 <= tol < np.inf:
        raise ParameterError(f"tol must be finite and non-negative, got {tol}")
    if coarse is None:
        coarse = reference_solve(spec, field, x_T, dt, t0).terminal
    fine = reference_solve(spec, field, x_T, dt / 2, t0).terminal
    gap = float(np.max(np.abs(coarse - fine)))
    if not gap <= tol:
        raise OracleTrustError(
            f"reference dt-halving changed the terminal state by {gap:.3e} > {tol:.1e}"
        )
    return gap


def _check_step(dt: float):
    """Raise :class:`ParameterError` unless 0 < dt <= 1e-3, the step
    bound of every fixed-step oracle solve (reference, EM, likelihood)."""
    if not 0 < dt <= 1e-3:
        raise ParameterError(f"fixed-step oracle solves require 0 < dt <= 1e-3, got {dt}")


def fixed_step_times(t_hi: float, t_lo: float, dt: float) -> np.ndarray:
    """Equal steps of at most ``dt`` (checked by :func:`_check_step`) from
    t_hi down to t_lo, endpoints included."""
    return np.linspace(t_hi, t_lo, _steps(t_hi, t_lo, dt)[0] + 1)


# One Philox generator per thread, rekeyed by every :func:`normals` call.
_philox = threading.local()
_ZEROS = np.zeros(4, dtype=np.uint64)
_ZEROS.setflags(write=False)


def normals(seed: int, stream: int, n, out=None) -> np.ndarray:
    """Standard normals ``standard_normal(n)`` of Philox keyed by the two
    words (seed, stream), 0 <= seed, stream < 2**64, written into ``out``
    (of shape n) when given.  The draw of a smaller n is a prefix of the
    draw of a larger one.  A word that is not an integer in that range
    raises :class:`ParameterError`, since it would alias another key.

    Each thread keeps one ``Generator(Philox)`` and every call resets its
    whole state, to key [seed, stream], counter 0 and an empty output
    buffer, so a draw has the bits of a freshly built
    ``Generator(Philox(key=seed + (stream << 64)))`` and no state carries
    from one call to the next.  That saves building a generator, and the
    OS-entropy seed sequence a new bit generator makes, on every draw."""
    if not (isinstance(seed, Integral) and isinstance(stream, Integral)
            and 0 <= seed < 2**64 and 0 <= stream < 2**64):
        raise ParameterError(f"seed and stream must be integers in [0, 2**64), "
                             f"got {seed!r}, {stream!r}")
    gen = getattr(_philox, "gen", None)
    if gen is None:
        gen = _philox.gen = np.random.Generator(np.random.Philox())
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": np.array([int(seed), int(stream)], dtype=np.uint64)},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return gen.standard_normal(n, out=out)


def draw_terminal_states(spec: DiffusionSpec, seed: int, n: int) -> np.ndarray:
    """n draws from the terminal law N(0, pi_std^2): draw i is pi_std
    times position i of :func:`normals` stream 0 of ``seed``.  They are
    the initial states of :func:`em_terminal_batch`'s trajectories, so
    deterministic and stochastic batch runs start from the same states,
    and the first n draws are the same for every larger n."""
    return spec.pi_std * normals(seed, 0, n)


def pf_loglik(gmm: GaussianMixture, spec: DiffusionSpec, x0, dt: float = 1e-3):
    """Exact-divergence log-likelihood along the sampling ODE.

    Integrates the scalar state together with the accumulated
    divergence of the ODE drift forward from (x0, 0) to t_end, then
    evaluates the terminal density under the pushed-forward mixture:

        log p_0(x0) = log p_T(x_T) + int_0^T  d(drift)/dx  dt.

    p_0 here is the diffusion's time-0 marginal: equal to the data
    density whenever L(0) = 0 (the VP preset), and the data convolved
    with N(0, L(0)^2) otherwise (the VE preset's noise floor).

    An array ``x0`` holds independent points, which are integrated
    together and give the same bits as one call per point, since every
    step of the score routine is elementwise in x or a sum over the
    components in one fixed order.  The divergence never feeds back into
    x, so :func:`_rk4` steps the state alone, (x0.size,), one
    :func:`_stage_windows` window at a time, with the right side of
    :func:`_loglik_stages`: the score routine (:func:`_score_half`, the
    log terms and the score half of the pair code), whose per-stage
    values it records.  A vectorised pass then
    finishes s_dx from the records with the derivative half, and after
    each chunk of steps (:func:`_loglik_chunk`) the RK4 increments of
    f - c s_dx, formed in :func:`_rk4`'s expression order, are added to
    the divergence in sequence, so it has the bits of stepping the two
    together.  What depends on t alone (f, g2 and the marginal's
    columns, :func:`_marginals`) is tabulated by one array call each per
    window (:func:`_loglik_table`); the records are allocated once per
    call, and their size scales with the number of points and not with
    dt.  A point whose state or divergence turns non-finite fails the
    whole call with :class:`DivergenceError`, at the earlier of the two
    steps; a stage time whose marginal variance underflows raises
    :class:`DomainError` before its window is integrated.  Returns nats.
    """
    x = np.asarray(x0, dtype=float)
    k, m = len(gmm.weights), x.size
    n, h = _steps(0.0, spec.t_end, dt)
    records = _StageRecords(k, m, *_loglik_chunk(k, m, n))
    y, div, end = x.reshape(-1), np.zeros(m), np.empty((1, m))
    for first, times, steps in _solve_windows([(0.0, spec.t_end)], dt):
        rhs, finish = _loglik_stages(_loglik_table(gmm, spec, times), records, div, h,
                                     times, first)
        try:
            y = _rk4(rhs, y, times, steps, "likelihood ODE", first, end)
        except DivergenceError as err:
            # the divergence may have failed at an earlier step of the
            # chunk; after a failed carry this call is a no-op
            finish(err.step_index - first)
            raise
        finish(len(steps))
    terminal = marginal_at(gmm, spec, spec.t_end)
    return terminal.logpdf(end.reshape(x.shape)) + div.reshape(x.shape)


# Floats of pf_loglik's stage records: 512 KiB, so that they stay in a
# core's L2 cache between the stages that write them and the pass that
# reads them.  Measured on a shared 2-vCPU machine with 2 MiB of L2 a
# core, at 10000 points (K = 2), as medians of interleaved series against
# stepping the state and the divergence as one stacked array: a pass
# after each step's four stages (1.9 MiB of records) took 1.08-1.16
# times as long, a pass after each stage 0.95-1.09 times.  Budgets of
# 1 << 14 and 1 << 15 were 11% and 8% slower at 1000 points.
_RECORD_FLOATS = 1 << 16

# Most steps in a chunk.  Each record's row views are built once per call,
# while a pass costs about 25 numpy calls at any length: at 3 points
# (K = 2), chunks of 64 steps took about 5% less time than chunks of 910.
_CHUNK_STEPS = 64


def _loglik_chunk(k: int, m: int, n: int):
    """(steps, slots) for :func:`pf_loglik` on m points of a k-component
    mixture over n steps: the divergence is carried after each chunk of
    ``steps`` steps, and the pass runs after each ``slots`` stages, as
    many as keep their records, (2k + 2) m floats a stage, within
    ``_RECORD_FLOATS``.  A chunk has at least 1 step and at most n,
    ``_CHUNK_STEPS`` or a :func:`_stage_windows` window, and its four
    stages a step fill a whole number of passes: slots is 4 steps, or 2
    or 1 where one step's records do not fit."""
    slots = max(1, _RECORD_FLOATS // ((2 * k + 2) * max(m, 1)))
    steps = max(1, min(n, (_MEMO_SIZE - 1) // 2, _CHUNK_STEPS, slots // 4))
    return steps, 4 * steps if slots >= 4 else min(slots, 2)


def _loglik_table(gmm: GaussianMixture, spec: DiffusionSpec, times):
    """What :func:`pf_loglik`'s stages take from the times of one
    :func:`_stage_windows` window, from its :func:`_stage_table`, as
    (per_time, per_stage).  per_time holds, for
    the state's right side, lists of f and c = g2 / 2 as 0-d arrays and
    of the marginal's means, var and bias as (K, 1) columns, one entry
    per time.  per_stage holds, for the divergence pass, f and c as
    (4 S, 1) and 1.0 / var as (K, 4 S, 1), one row per stage of the S
    steps: t, t + h/2 twice, t + h."""
    f, c, _, means, var, bias = _stage_table(spec, times, gmm)
    at = (np.arange(0, len(times) - 1, 2)[:, None] + [0, 1, 1, 2]).reshape(-1)
    per_time = (_scalars(f), _scalars(c), *(list(arr.T[:, :, None]) for arr in (means, var, bias)))
    return per_time, (f[at, None], c[at, None], (1.0 / var)[:, at, None])


class _StageRecords:
    """The buffers of :func:`pf_loglik`'s divergence for m points of a
    k-component mixture, carried ``steps`` steps at a time from passes
    over ``slots`` stages, allocated once per call.  Per recorded stage:
    the score half's dev_k / var_k and weights e_k, in ``dev`` and ``e``,
    (slots, k, m) each, and its weight total and q = -s, in ``total`` and
    ``q``, (slots, m) each.  The pass writes f - c s_dx of the chunk's
    stages into ``slopes``, (4 steps, m), and the carry the divergence
    after each step into ``inc``, (steps, m).  ``slots`` holds each
    record's (rows, q) as :func:`_score_half` takes them: the rows are
    :func:`_row_views` of the record, built once per call with their
    chains' views, and share their e_k dev_k / var_k and a_max rows, and
    ``fx``, as scratch."""

    def __init__(self, k: int, m: int, steps: int, slots: int):
        self.dev, self.e = np.empty((2, slots, k, m))
        self.total, self.q = np.empty((2, slots, m))
        self.slopes, self.inc = np.empty((4 * steps, m)), np.empty((steps, m))
        self.fx, a_max, eu = np.empty(m), np.empty(m), np.empty((k, m))
        self.slots = [(_row_views(self.dev[i], self.e[i], eu, a_max, self.total[i]), self.q[i])
                      for i in range(slots)]


def _loglik_stages(table, records: _StageRecords, div, h, times, first: int):
    """:func:`pf_loglik`'s work on the window ``times`` of the solve
    (its first step is ``first``), from its :func:`_loglik_table`, as
    (rhs, finish).

    ``rhs(x, j, out)`` is :func:`_rk4`'s right side for the state alone:
    it writes f x - c s at times[j] into out, with c = g2 / 2 and the
    score s from :func:`_score_half`, in the next free record.  When the
    records are full it first runs the pass
    (:func:`_divergence_slopes`) on them, and when the chunk's slopes
    are complete, ``finish``.  ``finish(step)`` runs the pass on what is
    recorded and carries the chunk's steps before the window's step
    ``step``: each step's increment h (((k1 + 2 k2) + 2 k3) + k4) / 6, as
    :func:`_rk4` forms it, added to ``div`` one step after another.  It
    raises :class:`DivergenceError` at the first step whose divergence
    is not finite."""
    (f, c, means, var, bias), per_stage = table
    slots, fx = records.slots, records.fx
    # the chunk's first step in the window, its stages passed, and the
    # stages recorded since
    start = done = i = 0

    def derive():
        nonlocal done, i
        if i:
            _divergence_slopes(per_stage, records, 4 * start + done,
                               records.slopes[done : done + i])
            done, i = done + i, 0

    @np.errstate(over="ignore", invalid="ignore")
    def finish(step):
        nonlocal start, done
        derive()
        lo, r = start, step - start
        start, done = step, 0
        if r <= 0:
            return
        slopes = records.slopes[: 4 * r].reshape(r, 4, -1)
        k1, k2, k3, k4 = (slopes[:, s] for s in range(4))
        inc = records.inc[:r]
        np.multiply(k2, 2.0, inc)
        inc += k1
        k3 *= 2.0
        inc += k3
        inc += k4
        inc *= h
        inc /= 6.0
        inc[0] += div
        # the running sum, one step after another; np.add.accumulate over
        # axis 0 runs one inner loop per point, about 5 ns an element
        for prev, row in zip(inc, inc[1:]):
            row += prev
        # a non-finite sum stays non-finite, so the last row tells
        if not np.isfinite(inc[-1]).all():
            bad = lo + int(np.isfinite(inc).all(axis=1).argmin())
            raise _diverged("likelihood ODE", first + bad, times[2 * bad])
        div[...] = inc[-1]

    def rhs(x, j, out):
        nonlocal i
        if i == len(slots):
            derive()
            if done == len(records.slopes):
                finish(j // 2)
        rows, q = slots[i]
        i += 1
        # f x + c (-s): c q = -(c s) and a + (-b) = a - b, bit for bit
        _score_half(x, means[j], var[j], bias[j], rows, q)
        np.multiply(q, c[j], out)
        np.multiply(x, f[j], fx)
        out += fx

    return rhs, finish


def _divergence_slopes(per_stage, records: _StageRecords, lo: int, out):
    """The pass: f - c s_dx at the first len(out) recorded stages, which
    are the stages lo, lo + 1, ... of the window whose ``per_stage``
    table (:func:`_loglik_table`) is given, into out, from the derivative
    half of the pair code (:func:`_dx_half`) on all of them at once.
    f + (-c) s_dx = f - c s_dx, bit for bit.  Overwrites their records'
    dev; callers hold numpy's over and invalid flags quiet."""
    f, c, inv_var = per_stage
    n = len(out)
    _dx_half(records.dev[:n].transpose(1, 0, 2), records.e[:n].transpose(1, 0, 2),
             records.total[:n], records.q[:n], inv_var[:, lo : lo + n], out)
    out *= c[lo : lo + n]
    np.subtract(f[lo : lo + n], out, out)
