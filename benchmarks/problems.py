"""Seeded problem generators for the certify benchmark.

Every problem is built from a planted spectrum, so its expected verdict
follows from the construction alone: A = S T S' with S a random orthogonal
matrix and T block upper triangular (real Schur form) with chosen diagonal
blocks.  Nothing here imports lyacert.

A problem is a dict with
  kind      construction label (stable-C, stable-Q, unstable, undetectable,
            resonant)
  text      the problem JSON handed to ``lyacert.parse_problem``
  A, Q      the matrices the checker uses (Q = C'C when C is given)
  n         the dimension
  alpha     planted spectral abscissa
  expect    expected verdict
  known_failure  exception name when the program is known to fail on it
            (fixed inputs only, never seeded)
"""

import json

import numpy as np

STABLE = "ExponentiallyStable"
UNSTABLE = "Unstable"
INCONCLUSIVE = "Inconclusive"

#: seed of the fixed inputs on which the program fails today; they never
#: depend on the run's seed, so the failed share is the same in every run
FIXED_SEED = 20140128


def _schur_block(rng, spectrum, coupling):
    """Real block upper-triangular T with the given diagonal blocks.

    ``spectrum`` is a list of real eigenvalues (floats) and conjugate pairs
    (tuples (a, b) standing for a +- ib)."""
    n = sum(2 if isinstance(s, tuple) else 1 for s in spectrum)
    T = np.triu(rng.standard_normal((n, n)) * coupling / np.sqrt(n), 1)
    i = 0
    for s in spectrum:
        if isinstance(s, tuple):
            a, b = s
            T[i:i + 2, i:i + 2] = [[a, b], [-b, a]]
            i += 2
        else:
            T[i, i] = s
            i += 1
    return T


def _orthogonal(rng, n):
    S, R = np.linalg.qr(rng.standard_normal((n, n)))
    return S * np.sign(np.diag(R))


def _spectrum(rng, n, top, width, lead_pair=False, imag=2.0):
    """n eigenvalues with real parts in [top - width, top] and imaginary
    parts up to ``imag``; the leading one sits exactly at ``top`` (as a
    conjugate pair when ``lead_pair``)."""
    spec = []
    if lead_pair and n >= 2:
        spec.append((top, float(rng.uniform(0.2, imag))))
    else:
        spec.append(top)
    while sum(2 if isinstance(s, tuple) else 1 for s in spec) < n:
        re = float(top - rng.uniform(0.05, 1.0) * width)
        left = n - sum(2 if isinstance(s, tuple) else 1 for s in spec)
        if left >= 2 and rng.random() < 0.4:
            spec.append((re, float(rng.uniform(0.2, imag))))
        else:
            spec.append(re)
    return spec


def _problem(kind, A, expect, alpha, C=None, Q=None, t0=None,
             known_failure=None):
    d = {"A": A.tolist()}
    if C is not None:
        d["C"] = C.tolist()
        Q = C.T @ C
    else:
        d["Q"] = Q.tolist()
    if t0 is not None:
        d["t0"] = t0
    text = json.dumps(d)
    # the checker works on exactly the floats the program parses
    back = json.loads(text)
    A = np.array(back["A"])
    Q = np.array(back["Q"]) if "Q" in back else np.array(back["C"]).T @ np.array(back["C"])
    return {"kind": kind, "text": text, "A": A, "Q": Q, "n": A.shape[0],
            "alpha": alpha, "expect": expect, "known_failure": known_failure}


def stable(rng, n, alpha, m, coupling=1.0, q_form=False, t0=None,
           width=1.5, imag=2.0, known_failure=None):
    """Stable, observable pair: every eigenvalue has real part <= alpha < 0.
    With ``q_form`` the right-hand side is given as the rank-m matrix
    Q = C'C (m < n), with observation horizon t0."""
    spec = _spectrum(rng, n, alpha, width, lead_pair=rng.random() < 0.3,
                     imag=imag)
    S = _orthogonal(rng, n)
    A = S @ _schur_block(rng, spec, coupling) @ S.T
    C = rng.standard_normal((m, n))
    if q_form:
        Q = C.T @ C
        return _problem("stable-Q", A, STABLE, alpha, Q=0.5 * (Q + Q.T),
                        t0=t0, known_failure=known_failure)
    return _problem("stable-C", A, STABLE, alpha, C=C,
                    known_failure=known_failure)


def unstable(rng, n, alpha, m, coupling=1.0, width=1.5, imag=2.0):
    """Observable pair with one or two eigenvalues at real part >= alpha > 0
    and the rest stable.  Sums of planted eigenvalues stay >= 0.05 away
    from zero, so the Lyapunov operator is far from singular."""
    k = 1 if n < 4 else 1 + int(rng.random() < 0.5)
    while True:
        up = [alpha] + [float(alpha + rng.uniform(0.0, 0.5)) for _ in range(k - 1)]
        down = _spectrum(rng, n - k, -float(rng.uniform(0.1, 1.0)), width,
                         imag=imag)
        re = up + [s[0] if isinstance(s, tuple) else s for s in down]
        sums = np.add.outer(re, re)
        if np.all(np.abs(sums) >= 0.05):
            break
    S = _orthogonal(rng, n)
    A = S @ _schur_block(rng, up + down, coupling) @ S.T
    C = rng.standard_normal((m, n))
    return _problem("unstable", A, UNSTABLE, alpha, C=C)


def undetectable(rng, n, alpha, m, coupling=1.0):
    """Unstable eigenvalue alpha > 0 on an invariant direction that C does
    not see; the rest is stable and observable.  Expected: Inconclusive."""
    spec = _spectrum(rng, n - 1, -float(rng.uniform(0.1, 1.0)), 1.5)
    T = np.zeros((n, n))
    T[0, 0] = alpha
    T[0, 1:] = rng.standard_normal(n - 1) * coupling / np.sqrt(n)
    T[1:, 1:] = _schur_block(rng, spec, coupling)
    C_rot = np.zeros((m, n))
    C_rot[:, 1:] = rng.standard_normal((m, n - 1))
    S = _orthogonal(rng, n)
    return _problem("undetectable", S @ T @ S.T, INCONCLUSIVE, alpha,
                    C=C_rot @ S.T)


def resonant(rng, n, m, coupling=1.0):
    """Observable pair with a planted eigenvalue pair +- i omega, the rest
    stable: lambda + conj(lambda) = 0, so only the spectral verdict
    Unstable is possible."""
    omega = float(rng.uniform(0.3, 2.0))
    spec = [(0.0, omega)]
    if n > 2:
        spec += _spectrum(rng, n - 2, -float(rng.uniform(0.1, 1.0)), 1.5)
    S = _orthogonal(rng, n)
    A = S @ _schur_block(rng, spec, coupling) @ S.T
    C = rng.standard_normal((m, n))
    return _problem("resonant", A, UNSTABLE, 0.0, C=C)


def _log_grid(i, count, lo, hi):
    """The i-th of ``count`` log-spaced values in [lo, hi], visited in a
    fixed shuffled order so that it does not track n, which follows i."""
    frac = (np.random.default_rng(count).permutation(count)[i] + 0.5) / count
    return float(lo * (hi / lo) ** frac)


# ---------------------------------------------------------------------------
# Workload rounds.  A run repeats one round until its time is up, so every
# run attempts whole rounds and the failed share never depends on run length.
# ---------------------------------------------------------------------------

#: small-mix: problems per kind in one round; n cycles through 2..12
SMALL_MIX = {"stable-C": 18, "stable-Q": 14, "unstable": 8,
             "undetectable": 5, "resonant": 5}


def small_mix(seed, quick=False, part=0):
    rng = np.random.default_rng([seed, 1, part])
    out = []
    for kind, count in SMALL_MIX.items():
        if quick:
            count = max(1, count // 4)
        for i in range(count):
            n = 2 + i * 11 // count
            # single-output pairs from n = 7 on are misranked by the Krylov
            # rank decision on some seeds; they are kept to n <= 6
            m = 1 + i % 3 if n <= 6 else 2 + i % 2
            # |alpha| sets the integral cross-check's step count, so it
            # follows a fixed grid and the seed only draws the matrices
            a = _log_grid(i, count, 0.05, 1.0)
            if kind == "stable-C":
                p = stable(rng, n, -a, m)
            elif kind == "stable-Q":
                p = stable(rng, n, -a, min(m, n - 1), q_form=True,
                           t0=round(float(rng.uniform(0.5, 2.0)), 3))
            elif kind == "unstable":
                p = unstable(rng, n, a, m)
            elif kind == "undetectable":
                p = undetectable(rng, n, a, m)
            else:
                p = resonant(rng, n, m)
            out.append(p)
    return _interleave(out)


#: mid-size: n grid of one round; seeded problems have 3 or 4 outputs
MID_SIZES = (20, 22, 24, 26, 28, 30, 32)
#: fixed single-output problems that fail today with
#: "unobservable subspace is not A-invariant" (Krylov-SVD misrank)
MID_KNOWN_FAILURES = (20, 26)


def mid_size(seed, quick=False):
    rng = np.random.default_rng([seed, 2])
    sizes = (20, 21) if quick else MID_SIZES
    # a compact spectrum (|Im| <= 1, weak coupling): with the wider small-mix
    # spectrum, pairs with 2 to 4 outputs are misranked on some seeds at n=32
    shape = {"width": 1.0, "imag": 1.0, "coupling": 0.5}
    out = []
    for j, n in enumerate(sizes):
        m = 3 + j % 2
        out.append(stable(rng, n, -0.45, m, **shape))
        out.append(stable(rng, n, -0.5, 3, q_form=True, t0=1.0, **shape))
        if not quick:
            out.append(stable(rng, n, -0.55, 4, **shape))
            out.append(unstable(rng, n, 0.5, 7 - m, **shape))
    fixed = np.random.default_rng(FIXED_SEED)
    for n in MID_KNOWN_FAILURES[:1] if quick else MID_KNOWN_FAILURES:
        out.append(stable(fixed, n, -0.5, 1, known_failure="InternalInconsistencyError",
                          **shape))
    return _interleave(out)


#: slow-decay: (alpha, problems per round); the two smallest |alpha| get one
#: problem each because the fixed-step integral cross-check takes seconds
SLOW_ALPHAS = ((-1e-2, 50), (-1e-3, 1), (-1e-4, 1))
#: fixed problem that fails today with DivergenceError although it is stable
SLOW_KNOWN_FAILURE_ALPHA = -1e-5


def slow_decay(seed, quick=False):
    rng = np.random.default_rng([seed, 3])
    out = []
    alphas = ((-1e-2, 8), (-1e-3, 1)) if quick else SLOW_ALPHAS
    for alpha, count in alphas:
        for i in range(count):
            n = 4 + i * 7 // count
            q_form = i % 5 == 4
            out.append(stable(rng, n, alpha, 1 + i % 2 if n <= 6 else 2, width=1.0,
                              q_form=q_form, t0=1.0 if q_form else None))
    if not quick:
        fixed = np.random.default_rng(FIXED_SEED)
        out.append(stable(fixed, 6, SLOW_KNOWN_FAILURE_ALPHA, 1, width=1.0,
                          known_failure="DivergenceError"))
    # interleaved, so the fast problems' timings spread over the whole round
    return _interleave(out)


#: batch: small-mix rounds per batch round, and problem files per directory
BATCH_PARTS = 4
BATCH_FILES = 5


def batch(seed, quick=False):
    """Several independent small-mix rounds; run.py puts every BATCH_FILES
    consecutive problems into one directory for the CLI."""
    return [p for part in range(1 if quick else BATCH_PARTS)
            for p in small_mix(seed, quick=quick, part=part)]


def _interleave(problems):
    """Deterministic shuffle so kinds and sizes alternate within a round."""
    order = np.random.default_rng(len(problems)).permutation(len(problems))
    return [problems[i] for i in order]


WORKLOADS = {
    "small-mix": small_mix,
    "mid-size": mid_size,
    "slow-decay": slow_decay,
    "batch": batch,
}
