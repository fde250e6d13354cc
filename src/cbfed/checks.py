"""The properties the solver rests on, one function each, for verify and the tests.

Each check takes its inputs and tolerance, raises CheckFailed (not assert,
which python -O strips) when the property fails, and returns a detail line.
It needs numpy alone: no test extras.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import eigen as eg
from . import galerkin as gk
from . import operators as op
from . import spectral as sp
from . import stationary as st


class CheckFailed(Exception):
    """A check found the property it tests violated."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def leray_projection(y, z, tol=1e-11):
    """P is idempotent, symmetric and divergence-free, on fields y and z."""
    py = sp.leray(y)
    worst = max(
        sp.norm_H(sp.leray(py) - py),
        abs(sp.inner(sp.leray(y), z) - sp.inner(y, sp.leray(z))),
        sp.divergence_max(py),
    )
    _require(worst < tol, f"worst defect {worst:.2e} exceeds {tol:g}")
    return f"worst defect {worst:.2e}"


def trilinear_antisymmetry(y, z, w, tol=1e-10):
    """b(y, z, w) = -b(y, w, z) and b(y, z, z) = 0 for solenoidal y."""
    scale = max(abs(op.trilinear(y, z, w)), 1.0)
    anti = abs(op.trilinear(y, z, w) + op.trilinear(y, w, z)) / scale
    diag = abs(op.trilinear(y, z, z)) / max(sp.norm_H(z) ** 2, 1.0)
    _require(max(anti, diag) < tol,
             f"antisymmetry {anti:.2e} or diagonal {diag:.2e} exceeds {tol:g}")
    return f"antisymmetry {anti:.2e}, diagonal {diag:.2e}"


def damping_pairing(y, rs, tol=1e-8):
    """(C_r(y), y) = ||y||_{L^{r+1}}^{r+1} at each r in rs, relative to tol."""
    for r in rs:
        lhs = sp.inner(op.power_damping(y, r), y)
        rhs = sp.norm_Lp(y, r + 1) ** (r + 1)
        rel = abs(lhs - rhs) / max(abs(rhs), 1e-30)
        _require(rel < tol, f"pairing off the L^{{r+1}} norm by {rel:.2e} at r={r:g}")
    return f"pairing matches L^{{r+1}} norm at r={','.join(f'{r:g}' for r in rs)}"


def strong_monotonicity(cases, tol=1e-8):
    """(C_r(y) - C_r(z), y - z) >= 2^{1-r} ||y - z||_{L^{r+1}}^{r+1} per (y, z, r)."""
    worst = np.inf
    for y, z, r in cases:
        lhs = sp.inner(op.power_damping(y, r) - op.power_damping(z, r), y - z)
        rhs = 2.0 ** (1 - r) * sp.norm_Lp(y - z, r + 1) ** (r + 1)
        worst = min(worst, (lhs - rhs) / max(abs(lhs), 1e-30))
    _require(worst > -tol, f"worst relative margin {worst:.2e} below {-tol:g}")
    return f"worst relative margin {worst:.2e}"


def gateaux_consistency(y, z, rs, eps=1e-6, tol=1e-5):
    """C_r'(y) z matches central differences of step eps at each r in rs."""
    for r in rs:
        dz = op.gateaux_first(y, z, r)
        fd = (0.5 / eps) * (op.power_damping(y + eps * z, r) - op.power_damping(y - eps * z, r))
        rel = sp.norm_H(dz - fd) / max(sp.norm_H(dz), 1e-30)
        _require(rel < tol, f"derivative off central differences by {rel:.2e} at r={r:g}")
    return f"first derivative matches central differences at r={','.join(f'{r:g}' for r in rs)}"


def constants_arithmetic(tol=1e-12):
    """The closed-form constants at hand-evaluated points: the one home of these pins."""
    frozen = [
        ("convection_rate(1, 1, 5, 1)", op.convection_rate(1.0, 1.0, 5.0, 1.0), 0.25),
        ("convection_rate(1, 1, 5, 0.5)", op.convection_rate(1.0, 1.0, 5.0, 0.5), 0.5),
        ("uniqueness_K1(1, -1, 5, 2)", st.uniqueness_K1(beta=1, gamma=-1, r=5, q=2), 0.5),
        ("uniqueness_K1(1, -1, 5, 1.5)", st.uniqueness_K1(1, -1, 5, 1.5), 0.512104699233823),
        ("gamma0 at L = 2 pi", gk.quadratic_gamma0(2 * np.pi, 2), np.sqrt(2.0) / np.pi),
    ]
    for name, got, want in frozen:
        _require(abs(got - want) < tol, f"{name} = {got!r}, frozen value {want!r}")
    return f"frozen values reproduced to {tol:g}"


def gain_placement(Lmat, B, sigma, want, tol=1e-8):
    """The synthesized gain moves the sorted closed-loop spectrum onto want."""
    want = np.asarray(want, dtype=float)
    got = np.sort(gk.synthesize_gain(Lmat, B, sigma=sigma).spectrum.real)
    _require(np.max(np.abs(got - want)) < tol, f"closed-loop spectrum {got}, want {want}")
    return f"closed-loop spectrum [{', '.join(f'{x:g}' for x in want)}]"


def eigen_smallest(grid, mu, alpha, tol=1e-8):
    """With zero gain the smallest eigenvalue of A_k = mu A + alpha I is alpha."""
    nu, _, _ = eg.smallest_eigenvalue_Ak(grid, 0.0, np.ones(grid.shape), mu=mu, alpha=alpha)
    _require(abs(nu - alpha) < tol, f"zero-gain eigenvalue {nu!r}, want {alpha!r}")
    return f"zero-gain eigenvalue {nu:.12f}"


def snapshot_roundtrip(y, path):
    """y written to path (removed after) reads back to its coefficients, bit for bit."""
    try:
        sp.write_snapshot(y, path)
        back = sp.read_snapshot(path)
    finally:
        Path(path).unlink(missing_ok=True)
    same = back.c.shape == y.c.shape and back.c.tobytes() == y.c.tobytes()
    _require(same, "round trip changed the coefficients' bytes")
    return "coefficients restored exactly"


def determinism(run):
    """Two calls of run, one config's simulation, give bitwise equal trajectories."""
    first, second = run(), run()
    _require(np.array_equal(first.norm_H, second.norm_H), "norm_H differs between runs")
    _require(np.array_equal(first.energy_defect, second.energy_defect),
             "energy_defect differs between runs")
    return "identical configs give identical trajectories"


def artifact_hashes(target):
    """Every artifact in the run directory target carries its manifest's hash."""
    if not target:
        return "no target configured"
    root = Path(target)
    try:
        manifest = json.loads((root / "manifest.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"cannot read manifest in {target}: {exc}") from None
    h = manifest["config_hash"]
    _require(root.name == h[:12], "directory name does not match the config hash")
    for name in manifest["files"]:
        path = root / name
        if name.endswith(".json"):
            _require(json.loads(path.read_text()).get("config_hash") == h, f"{name} hash mismatch")
        elif name.endswith(".csv"):
            first = path.read_text().splitlines()[0]
            _require(first == f"# config_hash={h}", f"{name} hash mismatch")
        else:
            _require(path.exists(), f"missing artifact {name}")
    return f"{len(manifest['files'])} artifacts consistent with {h[:12]}"
