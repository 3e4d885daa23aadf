"""Output checks for the benchmark's commands.

None of these checks import ymalg.  Each one returns None when the output is
correct and a short reason otherwise.  The exact arithmetic here uses only
``fractions`` and plain ints, so a defect in the library's scalar or
linear-algebra code cannot hide in the oracle as well.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

REPORT_KEYS = {"command", "seed", "inputs_digest", "results"}


def parse_report(stdout: bytes):
    """The JSON report on stdout, or a reason string when it is malformed."""
    try:
        report = json.loads(stdout)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return f"stdout is not JSON: {exc}"
    if not isinstance(report, dict) or set(report) != REPORT_KEYS:
        return "stdout is not a ymalg report"
    return report


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- weak dimensions: Hilbert series of U(ym(n)) -------------------------------


def _mobius(k: int) -> int:
    result, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            result = -result
        p += 1
    return -result if k > 1 else result


def _divisors(d: int) -> list:
    return [e for e in range(1, d + 1) if d % e == 0]


def free_lie_dims(n: int, max_degree: int) -> list:
    """Witt's necklace formula for dim f(n)_d, d = 1..max_degree."""
    return [
        sum(_mobius(d // e) * n**e for e in _divisors(d)) // d
        for d in range(1, max_degree + 1)
    ]


def ym_weak_dims(n: int, max_degree: int) -> list:
    """dim ym(n)_d for d = 1..max_degree, for n >= 2.

    U(ym(n)) has Hilbert series 1/P(t) with P(t) = 1 - n t + n t^3 - t^4
    (Connes & Dubois-Violette 2002).  By PBW, 1/P(t) = prod_d (1 - t^d)^(-c_d)
    with c_d = dim ym(n)_d.  Taking logarithms, the power sums p_k of the
    inverse roots of P satisfy p_k = sum_{d | k} d c_d, so Mobius inversion
    gives c_d = (1/d) sum_{e | d} mu(d/e) p_e.  The p_k follow from P's
    coefficients by Newton's identities, in plain integers.
    """
    if n < 2:
        raise ValueError("the Hilbert series formula needs n >= 2")
    # P(t) = 1 - e1 t + e2 t^2 - e3 t^3 + e4 t^4
    e = [1, n, 0, -n, -1]
    p = [0] * (max_degree + 1)
    for k in range(1, max_degree + 1):
        acc = 0
        for i in range(1, min(k, 4) + 1):
            term = e[i] * (p[k - i] if i < k else k)
            acc += term if i % 2 else -term
        p[k] = acc
    dims = []
    for d in range(1, max_degree + 1):
        total = sum(_mobius(d // e_) * p[e_] for e_ in _divisors(d))
        if total % d:
            raise ArithmeticError(f"non-integral dimension at degree {d}")
        dims.append(total // d)
    return dims


def check_weak_dims(report: dict, n: int, max_degree: int):
    res = report["results"]
    want_ym = ym_weak_dims(n, max_degree)
    want_free = free_lie_dims(n, max_degree)
    if res.get("n") != n or res.get("strong") is not False:
        return "dims echo mismatch"
    if res.get("ym_dims") != want_ym:
        return f"ym_dims {res.get('ym_dims')} != Hilbert series {want_ym}"
    table = res.get("table")
    if not isinstance(table, list) or len(table) != max_degree:
        return "dims table has the wrong length"
    for d, row in enumerate(table, start=1):
        expect = {
            "degree": d,
            "free_dim": want_free[d - 1],
            "ideal_dim": want_free[d - 1] - want_ym[d - 1],
            "ym_dim": want_ym[d - 1],
        }
        if row != expect:
            return f"dims row {row} != {expect}"
    return None


# -- Gaussian rationals as (Fraction, Fraction) pairs ---------------------------


def g(re=0, im=0) -> tuple:
    return (Fraction(re), Fraction(im))


def gadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def gsub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def gfmt(x) -> str:
    """Render in the CLI's scalar grammar, e.g. "3/2", "-1+1/2i", "2i"."""
    re, im = x
    if not im:
        return str(re)
    body = f"{abs(im)}i"
    if not re:
        return body if im > 0 else "-" + body
    return f"{re}{'+' if im > 0 else '-'}{body}"


# -- sl(2) residuals by 2x2 matrices ---------------------------------------------

_ZERO = g()


def sl2_matrix(image: dict):
    """{"e": a, "h": b, "f": c} -> [[b, a], [c, -b]] over Q(i)."""
    a = image.get("e", _ZERO)
    b = image.get("h", _ZERO)
    c = image.get("f", _ZERO)
    return ((b, a), (c, gsub(_ZERO, b)))


def _mat_mul(x, y):
    return tuple(
        tuple(
            gadd(gmul(x[i][0], y[0][j]), gmul(x[i][1], y[1][j])) for j in range(2)
        )
        for i in range(2)
    )


def _commutator(x, y):
    xy, yx = _mat_mul(x, y), _mat_mul(y, x)
    return tuple(tuple(gsub(xy[i][j], yx[i][j]) for j in range(2)) for i in range(2))


def _mat_add(x, y):
    return tuple(tuple(gadd(x[i][j], y[i][j]) for j in range(2)) for i in range(2))


def weak_residuals_vanish(mats: list) -> list:
    """For images X_1..X_n, whether r_j = sum_i [X_i, [X_i, X_j]] is zero."""
    out = []
    for xj in mats:
        acc = ((_ZERO, _ZERO), (_ZERO, _ZERO))
        for xi in mats:
            acc = _mat_add(acc, _commutator(xi, _commutator(xi, xj)))
        out.append(all(v == _ZERO for row in acc for v in row))
    return out


def check_sl2_verify(code: int, report: dict, images: list):
    """A weak verify of ym(3) -> sl(2): exit code and each residual agree
    with the matrix computation."""
    zero = weak_residuals_vanish([sl2_matrix(img) for img in images])
    res = report["results"]
    if res.get("residuals_zero") is not all(zero):
        return f"residuals_zero {res.get('residuals_zero')} != {all(zero)}"
    got = [r == "0" for r in res.get("residuals", [])]
    if got != zero:
        return f"residual zero pattern {got} != {zero}"
    if code != (0 if all(zero) else 1):
        return f"exit code {code} for residuals_zero={all(zero)}"
    return None


def check_all_residuals_zero(code: int, report: dict, count: int):
    res = report["results"]
    residuals = res.get("residuals")
    if code != 0 or res.get("residuals_zero") is not True:
        return f"exit {code}, residuals_zero {res.get('residuals_zero')}"
    if residuals != ["0"] * count:
        return f"residuals {residuals} are not {count} zeros"
    return None


# -- realization data ------------------------------------------------------------


def rank(rows: list) -> int:
    """Rank over Q by Gauss-Jordan elimination on Fractions."""
    m = [list(map(Fraction, r)) for r in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def is_gcm(A: list) -> bool:
    m = len(A)
    return all(
        (A[i][i] == 2)
        if i == j
        else (A[i][j] <= 0 and (A[i][j] != 0 or A[j][i] == 0))
        for i in range(m)
        for j in range(m)
    )


def check_realization(code: int, report: dict, A: list):
    """Recompute h_dim = 2m - rank, both independence conditions and the
    pairing <alpha_i-check, alpha_j> = a_ij from the printed realization."""
    m, r = len(A), rank(A)
    res = report["results"]
    real = res.get("realization", {})
    if code != 0 or res.get("verified") is not True:
        return f"exit {code}, verified {res.get('verified')}"
    if res.get("m") != m or res.get("rank") != r:
        return f"m/rank {res.get('m')}/{res.get('rank')} != {m}/{r}"
    if real.get("h_dim") != 2 * m - r:
        return f"h_dim {real.get('h_dim')} != {2 * m - r}"
    if res.get("gcm", {}).get("ok") is not is_gcm(A):
        return f"gcm.ok != {is_gcm(A)}"
    try:
        pi = [[Fraction(x) for x in row] for row in real["pi"]]
        pi_check = [[Fraction(x) for x in row] for row in real["pi_check"]]
    except (KeyError, TypeError, ValueError) as exc:
        return f"unreadable realization: {exc}"
    if len(pi) != m or len(pi_check) != m:
        return "realization has the wrong number of roots or coroots"
    if any(len(row) != 2 * m - r for row in pi + pi_check):
        return "root or coroot of the wrong length"
    if rank(pi) != m or rank(pi_check) != m:
        return "roots or coroots are not independent"
    pairing = [
        [sum(x * y for x, y in zip(pi_check[i], pi[j])) for j in range(m)]
        for i in range(m)
    ]
    if pairing != [[Fraction(a) for a in row] for row in A]:
        return "pairing does not reproduce the matrix"
    if real.get("pairing") != [[str(Fraction(a)) for a in row] for row in A]:
        return "printed pairing does not reproduce the matrix"
    return None


# -- the sl(2) audit ---------------------------------------------------------------


def check_case_study(code: int, report: dict, samples: int):
    res = report["results"]
    audit = res.get("audit", {})
    if code != 0:
        return f"exit code {code}"
    if res.get("samples") != samples or res.get("mismatches_total") != 0:
        return f"mismatches_total {res.get('mismatches_total')}"
    if audit.get("solvable_violations") != []:
        return "solvable-image violations reported"
    if audit.get("residual_zero", -1) + audit.get("non_residual_zero", -1) != audit.get(
        "candidates"
    ):
        return "residual_zero + non_residual_zero != candidates"
    return None
