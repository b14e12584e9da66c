"""Correctness checks computed apart from the package under test.

Nothing here imports torus_action.  The eigenvalue tables, trigonometric
paths, Laplacian, potential gradients and certificate verdicts are all
recomputed from the config alone, with numpy, and compared with what the
package returned.  Every check returns a list of failure messages, empty
when the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_TOL = 1e-8  # SolverOptions.tol_grad_inf when a config leaves it out


def grid_of(config):
    grid = config["grid"]
    return tuple(float(T) for T in grid["periods"]), tuple(int(N) for N in grid["resolutions"])


def node_coords(periods, resolutions):
    axes = [np.arange(N) * (T / N) for T, N in zip(periods, resolutions)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def eval_path(path, periods, t, n):
    """Sum of coeff * trig(sum_a 2 pi k_a t_a / T_a) at coordinates t (..., p)."""
    out = np.zeros(t.shape[:-1] + (n,))
    for term in (path or {}).get("terms", []):
        omega = np.array([2 * math.pi * k / T for k, T in zip(term["freq"], periods)])
        wave = (np.cos if term["trig"] == "cos" else np.sin)(t @ omega)
        out += wave[..., None] * np.asarray(term["coeff"], dtype=float)
    return out


def path_mean(path, n):
    """Box mean of a path: its zero-frequency cosine terms."""
    mean = np.zeros(n)
    for term in (path or {}).get("terms", []):
        if term["trig"] == "cos" and not any(term["freq"]):
            mean += np.asarray(term["coeff"], dtype=float)
    return mean


def path_laplacian(path, periods):
    """Analytic sum of second time derivatives of a path."""
    terms = []
    for term in (path or {}).get("terms", []):
        w2 = sum((2 * math.pi * k / T) ** 2 for k, T in zip(term["freq"], periods))
        terms.append(dict(term, coeff=[-w2 * c for c in term["coeff"]]))
    return {"terms": terms}


def eigenvalues(periods, resolutions, scheme):
    """Eigenvalues of minus the discrete Laplacian, one per Fourier mode.

    Spectral: sum_a (2 pi m_a / T_a)^2 with the signed mode m_a.  FD2: the
    three-point stencil's symbol sum_a (2 sin(pi k_a / N_a) / h_a)^2.
    """
    lam = np.zeros(resolutions)
    for a, (T, N) in enumerate(zip(periods, resolutions)):
        k = np.arange(N)
        if scheme == "spectral":
            m = np.where(k <= N // 2, k, k - N)
            axis = (2 * math.pi * m / T) ** 2
        else:
            axis = (2 * np.sin(math.pi * k / N) / (T / N)) ** 2
        shape = [1] * len(resolutions)
        shape[a] = N
        lam = lam + axis.reshape(shape)
    return lam


def apply_laplacian(values, lam):
    axes = tuple(range(lam.ndim))
    return np.fft.ifftn(-lam[..., None] * np.fft.fftn(values, axes=axes), axes=axes).real


def quadratic_data(config):
    """(A, g) of F = <A x, x>/2 + <g(t), x> for the quadratic kinds, else None.

    g is returned as a path; for manufactured it is built here from the
    target, g = lap(target) - target.
    """
    pot = config["potential"]
    n = int(pot["n"])
    periods, _ = grid_of(config)
    kind = pot["kind"]
    if kind == "quadratic_shift":
        shift = pot.get("shift", {"terms": []})
        neg = [dict(t, coeff=[-c for c in t["coeff"]]) for t in shift["terms"]]
        return np.eye(n), {"terms": neg}
    if kind == "quadratic_form":
        return np.asarray(pot["matrix"], dtype=float), pot.get("drift", {"terms": []})
    if kind == "manufactured":
        target = pot["target"]
        neg = [dict(t, coeff=[-c for c in t["coeff"]]) for t in target["terms"]]
        return np.eye(n), {"terms": path_laplacian(target, periods)["terms"] + neg}
    return None


def modewise_solution(config):
    """Solve (lambda_k I + A) u_k = -g_k one Fourier mode at a time."""
    A, g_path = quadratic_data(config)
    periods, res = grid_of(config)
    n = A.shape[0]
    g = eval_path(g_path, periods, node_coords(periods, res), n)
    axes = tuple(range(len(res)))
    ghat = np.fft.fftn(g, axes=axes)
    lam = eigenvalues(periods, res, config["scheme"])
    system = lam[..., None, None] * np.eye(n) + A
    uhat = np.linalg.solve(system, -ghat[..., None])[..., 0]
    return np.fft.ifftn(uhat, axes=axes).real


def lse_data(config):
    pot = config["potential"]
    n = int(pot["n"])
    S = pot.get("directions")
    S = np.vstack([np.eye(n), -np.eye(n)]) if S is None else np.asarray(S, dtype=float)
    offsets = pot.get("offsets") or [{"terms": []} for _ in range(len(S))]
    return S, offsets


def lse_gradient(config, t, x):
    """grad_x log sum_j exp(<s_j, x> + b_j(t)), by a shifted softmax."""
    periods, _ = grid_of(config)
    S, offsets = lse_data(config)
    z = x @ S.T + np.concatenate([eval_path(b, periods, t, 1) for b in offsets], axis=-1)
    z -= z.max(axis=-1, keepdims=True)
    w = np.exp(z)
    return (w / w.sum(axis=-1, keepdims=True)) @ S


def origin_inside_hull(S):
    """Whether the origin is an interior point of the convex hull of the rows."""
    S = np.asarray(S, dtype=float)
    if S.shape[1] == 1:
        return bool(S.min() < 0.0 < S.max())
    if S.shape[1] != 2:
        raise NotImplementedError("hull test is written for n <= 2")
    angles = np.sort(np.arctan2(S[:, 1], S[:, 0]))
    gaps = np.diff(np.concatenate([angles, angles[:1] + 2 * math.pi]))
    return bool(gaps.max() < math.pi - 1e-12)


def solver_tol(config):
    return float(config.get("solver", {}).get("tol_grad_inf", DEFAULT_TOL))


def check_solution(config, status, u, tol=None):
    """Check one solve result (status and node values) against theory.

    Quadratic kinds must converge to the mode-by-mode solution, and
    manufactured spectral cases also to the sampled target.  log_sum_exp
    must converge with a small strong residual and a vanishing box mean of
    grad F.  linear_drift with a nonzero mean must diverge along minus the
    mean drift.
    """
    tol = solver_tol(config) if tol is None else tol
    pot = config["potential"]
    kind = pot["kind"]
    n = int(pot["n"])
    periods, res = grid_of(config)
    u = np.asarray(u, dtype=float)
    if u.shape != res + (n,):
        return [f"solution has shape {u.shape}, expected {res + (n,)}"]
    if kind == "linear_drift":
        abar = path_mean(pot["drift"], n)
        if not np.linalg.norm(abar) > 0.0:
            return ["benchmark expects a drift with nonzero mean"]
        if status != "diverged_non_coercive":
            return [f"drift with mean {abar} is not solvable, but status is {status}"]
        mean = u.reshape(-1, n).mean(axis=0)
        cos = float(-mean @ abar / (np.linalg.norm(mean) * np.linalg.norm(abar)))
        return [] if cos > 0.99 else [f"mean {mean} does not run along -{abar} (cos {cos:.3f})"]
    if status != "converged":
        return [f"status {status} on a solvable {kind} case"]
    errors = []
    if kind == "log_sum_exp":
        t = node_coords(periods, res)
        grad = lse_gradient(config, t, u)
        lap = apply_laplacian(u, eigenvalues(periods, res, config["scheme"]))
        residual = float(np.abs(lap - grad).max())
        limit = 2 * tol + 1e-11
        if not residual <= limit:
            errors.append(f"strong residual {residual:.3e} exceeds {limit:.1e}")
        mean_grad = float(np.abs(grad.reshape(-1, n).mean(axis=0)).max())
        if not mean_grad <= limit:
            errors.append(f"box mean of grad F is {mean_grad:.3e}, not below {limit:.1e}")
        return errors
    A, _ = quadratic_data(config)
    limit = 100 * tol / float(np.linalg.eigvalsh(A)[0]) + 1e-11
    exact = modewise_solution(config)
    gap = float(np.abs(u - exact).max())
    if not gap <= limit:
        errors.append(f"solution differs from the mode-wise solve by {gap:.3e} > {limit:.1e}")
    if kind == "manufactured" and config["scheme"] == "spectral":
        target = eval_path(pot["target"], periods, node_coords(periods, res), n)
        gap = float(np.abs(u - target).max())
        if not gap <= limit:
            errors.append(f"solution differs from the sampled target by {gap:.3e} > {limit:.1e}")
    return errors


def _certificate_expectation(config):
    """(solvable, x_bar or None) from the averaged-potential theory."""
    pot = config["potential"]
    n = int(pot["n"])
    kind = pot["kind"]
    quad = quadratic_data(config)
    if quad is not None:
        A, g_path = quad
        return True, -np.linalg.solve(A, path_mean(g_path, n))
    if kind == "linear_drift":
        return not np.linalg.norm(path_mean(pot["drift"], n)) > 0.0, None
    S, _ = lse_data(config)
    return origin_inside_hull(S), None


def check_certificate(config, exit_code, report):
    """Check a certify report: verdict, exit code and stationary mean."""
    cert = report.get("certificate") or {}
    solvable, x_star = _certificate_expectation(config)
    verdict = cert.get("verdict")
    want = "solvable" if solvable else "not_solvable"
    errors = []
    if verdict != want:
        errors.append(f"verdict {verdict}, theory says {want}")
    want_code = 0 if solvable else 2
    if exit_code != want_code:
        errors.append(f"exit code {exit_code}, expected {want_code}")
    x_bar = cert.get("stationary_mean")
    if not solvable:
        if x_bar is not None:
            errors.append(f"stationary mean {x_bar} reported for a not-solvable case")
        return errors
    if x_bar is None:
        return errors + ["no stationary mean for a solvable case"]
    x_bar = np.asarray(x_bar, dtype=float)
    if x_star is not None:
        gap = float(np.abs(x_bar - x_star).max())
        if not gap <= 1e-6 * (1 + np.abs(x_star).max()):
            errors.append(f"stationary mean {x_bar} is {gap:.2e} from -A^-1 g_bar = {x_star}")
    elif config["potential"]["kind"] == "log_sum_exp":
        periods, res = grid_of(config)
        t = node_coords(periods, res)
        x = np.broadcast_to(x_bar, res + (x_bar.size,))
        mean_grad = float(np.abs(lse_gradient(config, t, x).reshape(-1, x_bar.size).mean(axis=0)).max())
        if not mean_grad <= 1e-6:
            errors.append(f"box mean of grad F at the stationary mean is {mean_grad:.2e}")
    return errors


def check_field_file(config, raw: bytes):
    """field.bin: one header line plus 8 N n bytes, and a header that fits the config."""
    _, res = grid_of(config)
    n = int(config["potential"]["n"])
    header, sep, _ = raw.partition(b"\n")
    nodes = int(np.prod(res))
    errors = []
    if len(raw) != len(header) + len(sep) + 8 * nodes * n:
        errors.append(f"field.bin has {len(raw)} bytes, expected header + {8 * nodes * n}")
    fields = dict(part.split("=", 1) for part in header.decode("ascii", "replace").split()[2:] if "=" in part)
    if fields.get("n") != str(n) or fields.get("N") != ",".join(map(str, res)):
        errors.append(f"field.bin header {header!r} does not fit n={n}, N={res}")
    return errors


def field_values(config, raw: bytes):
    _, res = grid_of(config)
    n = int(config["potential"]["n"])
    payload = raw.partition(b"\n")[2]
    return np.frombuffer(payload, dtype="<f8").reshape(res + (n,))


def check_trace(text: str, iterations: int):
    """trace.csv: a header naming the action column, then one row per iterate.

    The values themselves are not read: the program writes them as
    ``np.float64(...)`` under numpy 2, which no CSV reader parses.
    """
    lines = text.strip().splitlines()
    errors = []
    if "action" not in lines[0].split(","):
        errors.append("trace.csv has no action column")
    if len(lines) - 1 != iterations + 1:
        errors.append(f"trace.csv has {len(lines) - 1} rows for {iterations} iterations")
    return errors


def check_wirtinger(config, exit_code, report):
    """The spectral constant is max_a T^a / (2 pi); the audit attains it."""
    periods, _ = grid_of(config)
    want = max(periods) / (2 * math.pi)
    constant = report.get("constant", float("nan"))
    audit = report.get("audit_max_ratio", float("nan"))
    errors = []
    if not abs(constant - want) <= 1e-12 * want:
        errors.append(f"constant {constant!r}, theory says {want!r}")
    if not want * (1 - 1e-9) <= audit <= want * (1 + 1e-10):
        errors.append(f"audit ratio {audit!r} does not attain the constant {want!r}")
    if report.get("passed") is not True or exit_code != 0:
        errors.append(f"wirtinger audit failed (exit {exit_code})")
    return errors


def check_gradient_audit(exit_code, report):
    worst = report.get("max_relative_error", float("nan"))
    if exit_code == 0 and report.get("passed") is True and 0.0 <= worst <= report.get("threshold", 0.0):
        return []
    return [f"gradient audit failed: error {worst}, exit {exit_code}"]


def check_oracle(config, exit_code, report):
    _, res = grid_of(config)
    unknowns = int(np.prod(res)) * int(config["potential"]["n"])
    gap = report.get("max_abs_gap", float("nan"))
    errors = []
    if report.get("dense_unknowns") != unknowns:
        errors.append(f"dense_unknowns {report.get('dense_unknowns')}, expected {unknowns}")
    if not (exit_code == 0 and report.get("passed") is True and 0.0 <= gap <= 1e-8):
        errors.append(f"oracle gap {gap}, passed {report.get('passed')}, exit {exit_code}")
    if report.get("solver_status") != "converged":
        errors.append(f"solver status {report.get('solver_status')}")
    return errors
