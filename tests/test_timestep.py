"""Time integration: IMEX schemes, constraint handling, trajectory records."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from cbfed import convex as cx
from cbfed import operators as op
from cbfed import spectral as sp
from cbfed import timestep as ts
from cbfed.errors import ConfigError, SolverDivergence

import reference_routes as ref


def grid2(N=16):
    return sp.TorusGrid(d=2, N=N)


def shear_mode(g, amp=0.5):
    x = g.nodes()
    return sp.SpectralField.from_physical(g, np.stack([amp * np.sin(x[1]), np.zeros(g.shape)]))


def smooth_params(**kw):
    base = dict(mu=1.0, alpha=0.5, beta=1.0, gamma=-0.1, r=5, q=2)
    base.update(kw)
    return op.PhysicalParams(**base)


def test_single_mode_linear_decay_factor():
    # with negligible damping the shear mode sees only (I + dt(mu A + alpha))^{-1}
    g = grid2()
    p = op.PhysicalParams(mu=1.3, alpha=0.7, beta=1e-300, gamma=0.0, r=5, q=2)
    y0 = shear_mode(g)
    dt = 0.05
    cfg = ts.SimConfig(grid=g, params=p, y0=y0, T=dt, dt=dt)
    traj = ts.simulate(cfg)
    factor = 1.0 / (1.0 + dt * (p.mu * 1.0 + p.alpha))
    assert sp.norm_H(traj.final - factor * y0) < 1e-12


def test_unforced_energy_decays():
    g = grid2()
    p = smooth_params(gamma=0.0)
    y0 = 0.8 * sp.random_solenoidal(g, seed=5, decay=2.5)
    cfg = ts.SimConfig(grid=g, params=p, y0=y0, T=1.0, dt=0.02)
    traj = ts.simulate(cfg)
    assert np.all(np.diff(traj.norm_H) < 0)
    assert traj.norm_H[-1] < 0.5 * traj.norm_H[0]


def test_richardson_orders():
    g = grid2()
    p = smooth_params(mu=0.2)
    y0 = 0.5 * sp.random_solenoidal(g, seed=9, decay=3.0)
    f = 0.3 * sp.random_solenoidal(g, seed=10, decay=3.0)

    def final(scheme, dt):
        cfg = ts.SimConfig(grid=g, params=p, y0=y0, T=0.4, dt=dt, forcing=f, scheme=scheme)
        return ts.simulate(cfg).final

    for scheme, expected, slack in (("imex1", 1.0, 0.25), ("cnab2", 2.0, 0.35)):
        a = final(scheme, 0.02)
        b = final(scheme, 0.01)
        c = final(scheme, 0.005)
        order = np.log2(sp.norm_H(a - b) / sp.norm_H(b - c))
        assert abs(order - expected) < slack, (scheme, order)


def test_trajectory_csv_roundtrip(tmp_path):
    g = grid2()
    p = smooth_params()
    y0 = 0.5 * sp.random_solenoidal(g, seed=3)
    f = 0.2 * sp.random_solenoidal(g, seed=4, decay=3.0)
    cfg = ts.SimConfig(grid=g, params=p, y0=y0, T=0.2, dt=0.02, forcing=f)
    traj = ts.simulate(cfg)
    path = tmp_path / "run.csv"
    traj.to_csv(path)
    text = path.read_text()
    assert text.splitlines()[0] == "t,norm_H,norm_gradH,norm_V,norm_Lr1,dist_K,norm_u,energy_defect"
    back = ref.trajectory_from_csv(path)
    for name in ts.COLUMNS:
        np.testing.assert_allclose(getattr(back, name), getattr(traj, name), rtol=0, atol=0)
    # determinism: a rerun emits identical bytes
    traj2 = ts.simulate(cfg)
    path2 = tmp_path / "run2.csv"
    traj2.to_csv(path2)
    assert path2.read_bytes() == path.read_bytes()


def test_write_csv_bytes_match_per_value_format(tmp_path):
    # the bytes of each value formatted by itself, f"{v:.17g}", for the rows of
    # a trajectory (a zip of arrays) and of reduced.csv (ndarray rows)
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-310, -5e-324,
                        np.finfo(float).max, 0.1, 1 / 3, -2.5e17, 7.0])
    cols = [np.roll(special, i) for i in range(3)]
    for rows, as_rows in ((zip(*cols), list(zip(*cols))), (np.column_stack(cols),) * 2):
        path = tmp_path / "out.csv"
        ts.write_csv(path, ["a", "b", "c"], rows, comment="x=1")
        want = "# x=1\na,b,c\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                                          for row in as_rows)
        assert path.read_bytes() == want.encode()


def test_projection_mode_keeps_ball():
    g = grid2()
    p = smooth_params()
    K = cx.BallConstraint(0.4)
    y0 = K.project(0.4 * sp.random_solenoidal(g, seed=21))
    f = 2.0 * sp.random_solenoidal(g, seed=22, decay=3.0)  # pushes against the wall
    cfg = ts.SimConfig(grid=g, params=p, y0=y0, T=1.0, dt=0.01, forcing=f, constraint=K)
    traj = ts.simulate(cfg)
    assert np.max(traj.dist_K) < 1e-12
    assert np.max(traj.norm_H) <= K.radius * (1 + 1e-10)


def test_yosida_runs_approach_projection():
    g = grid2()
    p = smooth_params()
    K = cx.BallConstraint(0.4)
    y0 = K.project(0.4 * sp.random_solenoidal(g, seed=21))
    f = 2.0 * sp.random_solenoidal(g, seed=22, decay=3.0)

    def run(mode, lam=None, dt=5e-3):
        cfg = ts.SimConfig(
            grid=g, params=p, y0=y0, T=0.5, dt=dt, forcing=f,
            constraint=K, constraint_mode=mode, yosida_lam=lam,
        )
        return ref.record_states(cfg)[1]

    runs = {lam: run("yosida", lam) for lam in (0.1, 0.05, 0.025)}
    sup01 = ref.sup_state_distance(runs[0.1], runs[0.05])
    sup02 = ref.sup_state_distance(runs[0.05], runs[0.025])
    assert sup02 < sup01


def test_energy_defect_nonpositive():
    g = grid2()
    p = smooth_params()
    y0 = 0.6 * sp.random_solenoidal(g, seed=31, decay=2.5)
    f = 0.5 * sp.random_solenoidal(g, seed=32, decay=3.0)
    cfg = ts.SimConfig(grid=g, params=p, y0=y0, T=1.0, dt=0.005, forcing=f)
    traj = ts.simulate(cfg)
    assert traj.energy_defect[0] == 0.0
    assert np.max(traj.energy_defect[1:]) < 1e-6


def test_default_dt_formula():
    g = grid2()
    p = smooth_params()
    y0 = shear_mode(g, amp=2.0)
    lam_max = (2 * np.pi / g.L) ** 2 * float(np.max(g.k2[g.keep]))
    vmax = 2.0
    kmax = g.N // 2 - 1
    expect = min(0.25 / (p.mu * lam_max), 0.5 / (vmax * kmax * 2 * np.pi / g.L))
    assert abs(ts.default_dt(g, p, y0) - expect) < 1e-12 * expect


def test_blowup_guard():
    g = grid2()
    p = smooth_params()
    y0 = 10.0 * sp.random_solenoidal(g, seed=41)
    cfg = ts.SimConfig(grid=g, params=p, y0=y0, T=50.0, dt=5.0)
    with pytest.raises(SolverDivergence):
        ts.simulate(cfg)


@pytest.mark.parametrize("dt", [0.0, -0.1, float("nan")])
def test_nonpositive_dt_rejected(dt):
    g = grid2()
    with pytest.raises(ConfigError):
        ts.SimConfig(grid=g, params=smooth_params(), y0=shear_mode(g), T=1.0, dt=dt)


@pytest.mark.parametrize("record_every", [0, -1])
def test_record_every_below_one_rejected(record_every):
    g = grid2()
    with pytest.raises(ConfigError):
        ts.SimConfig(
            grid=g, params=smooth_params(), y0=shear_mode(g), T=1.0, dt=0.1,
            record_every=record_every,
        )


@pytest.mark.parametrize("scheme", ["imex1", "cnab2"])
@pytest.mark.parametrize("d", [2, 3])
def test_one_controller_call_per_state(d, scheme, monkeypatch):
    g = sp.TorusGrid(d=d, N=16 if d == 2 else 8)
    y_ref = 0.5 * sp.random_solenoidal(g, seed=51)
    y0 = 0.3 * sp.random_solenoidal(g, seed=52)
    calls = {"controller": 0, "shifted_convective": 0}

    def controller(z):
        calls["controller"] += 1
        return -0.7 * z

    shifted = op.shifted_convective

    def counted(*args, **kwargs):
        calls["shifted_convective"] += 1
        return shifted(*args, **kwargs)

    monkeypatch.setattr(op, "shifted_convective", counted)
    nsteps, dt = 6, 0.01
    cfg = ts.SimConfig(
        grid=g, params=smooth_params(), y0=y0, T=nsteps * dt, dt=dt, scheme=scheme,
        y_ref=y_ref, controller=controller, record_every=1,
    )
    traj, states = ref.record_states(cfg)
    assert calls == {"controller": nsteps + 1, "shifted_convective": nsteps}
    # the recorded feedback norm is that of the recorded state
    expect = [sp.norm_H(-0.7 * z) for _t, z in states]
    np.testing.assert_array_equal(traj.norm_u, expect)


# ---------------------------------------------------------------------------
# one evaluation per state: checked against the step as it was built before,
# from op.shifted_damping and the L^{r+1} norm at its earlier factor
# min(ceil((p + 1) / 2), 4): 4 for r = 4.5 and 5, 3 for r = 3 and 4.  For
# odd p = 5 (r = 4) the rectangle rule is not exact, and factors 3 and 4
# differ by ~2e-10 there, so the earlier factor is the reference.


def _norm_Lp_earlier_factor(a, p):
    factor = max(1, min(int(np.ceil((p + 1) / 2)), 4))
    vals = sp.oversample(a, factor)
    cell = (a.grid.L / (factor * a.grid.N)) ** a.grid.d
    return float((np.sum(np.sum(vals**2, axis=0) ** (p / 2.0)) * cell) ** (1.0 / p))


def _damping_on(a, factor, expo):
    """C_expo(a) evaluated on the factor-`factor` grid."""
    return op.damping_from_nodal(sp.oversample(a, factor), a.grid, [(1.0, expo)])


def _shifted_damping_on(z, around, factor, expo):
    """C(around + z) - C(around) on one grid, as op.shifted_damping does on its own."""
    if around is None:
        return _damping_on(z, factor, expo)
    return _damping_on(z + around, factor, expo) - _damping_on(around, factor, expo)


def _reference_run(g, p, y0, nsteps, dt, scheme="imex1", y_ref=None, forcing=None):
    """States and L^{r+1} norms of the unconstrained, uncontrolled step,
    with gamma C_q on the C_r grid."""
    lin = p.mu * g.lap + p.alpha
    f = sp.leray(forcing) if forcing is not None else sp.SpectralField.zero(g)
    z = y0.copy()
    states, norms = [z], [_norm_Lp_earlier_factor(z, p.r + 1)]
    prev_N = None
    for _ in range(nsteps):
        N = f - op.shifted_convective(z, y_ref) - p.beta * op.shifted_damping(z, y_ref, p.r)
        if p.gamma != 0:
            N = N - p.gamma * _shifted_damping_on(z, y_ref, sp.oversample_factor(p.r), p.q)
        if scheme == "imex1" or prev_N is None:
            c = (z.c + dt * N.c) / (1.0 + dt * lin)
        else:
            half = 0.5 * dt * lin
            c = (z.c * (1.0 - half) + dt * (1.5 * N.c - 0.5 * prev_N.c)) / (1.0 + half)
        if scheme == "cnab2":
            prev_N = N
        z = sp.leray(sp.SpectralField(g, c))
        states.append(z)
        norms.append(_norm_Lp_earlier_factor(z, p.r + 1))
    return states, np.array(norms)


def _reference_state(g, seed, offset):
    # a solenoidal field plus a constant flow, so that |y_ref| has no zeros
    y = 0.5 * sp.random_solenoidal(g, seed=seed, decay=3.0)
    y.c[(slice(None),) + (0,) * g.d] += np.asarray(offset[: g.d])
    return y


@pytest.mark.parametrize("r", [3, 5])
def test_oversample_once_per_factor_per_state(r, monkeypatch):
    g = grid2()
    p = smooth_params(r=r, q=2)   # gamma != 0: C_q at factor 2 shares a grid with C_3
    y_ref = _reference_state(g, 61, (0.6, -0.3))
    y0 = 0.3 * sp.random_solenoidal(g, seed=62)
    factors = []
    oversample = sp.oversample

    def counted(a, factor, out=None):
        factors.append(factor)
        return oversample(a, factor, out=out)

    monkeypatch.setattr(sp, "oversample", counted)
    nsteps, dt = 5, 0.01
    cfg = ts.SimConfig(
        grid=g, params=p, y0=y0, T=nsteps * dt, dt=dt, y_ref=y_ref, record_every=2,
    )
    ts.simulate(cfg)
    fr = sp.oversample_factor(r)
    # y_ref, states 0 .. nsteps-1 and the final state (for its norm) once
    # each, all on the C_r grid
    expect = {fr: nsteps + 2}
    assert {f: factors.count(f) for f in set(factors)} == expect
    assert 4 not in factors


@pytest.mark.parametrize("r", [3, 5])
@pytest.mark.parametrize("d", [2, 3])
def test_states_oversample_into_one_array(d, r, monkeypatch):
    # every state of the loop is oversampled into the same held array; the
    # reference state's values get an array of their own
    g = sp.TorusGrid(d=d, N=16 if d == 2 else 8)
    y_ref = _reference_state(g, 61, (0.6, -0.3, 0.2))
    y0 = 0.3 * sp.random_solenoidal(g, seed=62)
    calls = []
    oversample = sp.oversample

    def recorded(a, factor, out=None):
        vals = oversample(a, factor, out=out)
        calls.append((a, out, vals))
        return vals

    monkeypatch.setattr(sp, "oversample", recorded)
    nsteps, dt = 5, 0.01
    cfg = ts.SimConfig(
        grid=g, params=smooth_params(r=r), y0=y0, T=nsteps * dt, dt=dt, y_ref=y_ref,
        record_every=2,
    )
    ts.simulate(cfg)
    (first, first_out, y_nodal), *states = calls
    assert first is y_ref and first_out is None
    assert len(states) == nsteps + 1
    held = states[0][1]
    assert held is not None and not np.shares_memory(held, y_nodal)
    assert all(out is held and vals is held for _a, out, vals in states)


@pytest.mark.parametrize("scheme", ["imex1", "cnab2"])
@pytest.mark.parametrize("d", [2, 3])
def test_at_most_two_leray_projections_per_step(d, scheme, monkeypatch):
    # the convection's and the new state's: the damping goes unprojected into
    # the latter, because the update is diagonal in k
    g = sp.TorusGrid(d=d, N=16 if d == 2 else 8)
    y_ref = _reference_state(g, 66, (0.6, -0.3, 0.2))
    y0 = 0.3 * sp.random_solenoidal(g, seed=67)
    f = 0.3 * sp.random_solenoidal(g, seed=68, decay=3.0)
    calls = []
    leray = sp.leray

    def counted(a):
        calls.append(a)
        return leray(a)

    monkeypatch.setattr(sp, "leray", counted)
    dt, counts = 0.01, []
    for nsteps in (4, 8):
        calls.clear()
        ts.simulate(ts.SimConfig(
            grid=g, params=smooth_params(), y0=y0, T=nsteps * dt, dt=dt, scheme=scheme,
            y_ref=y_ref, forcing=f,
        ))
        counts.append(len(calls))
    assert (counts[1] - counts[0]) / 4 <= 2


@pytest.mark.parametrize("with_ref", [False, True])
@pytest.mark.parametrize("r", [3, 4, 4.5, 5])
def test_norm_Lr1_matches_reference_step(r, with_ref):
    g = grid2()
    p = smooth_params(r=r, q=2)
    y_ref = _reference_state(g, 63, (0.6, -0.3)) if with_ref else None
    y0 = 0.4 * sp.random_solenoidal(g, seed=64, decay=2.5)
    f = 0.3 * sp.random_solenoidal(g, seed=65, decay=3.0)
    nsteps, dt = 8, 0.01
    cfg = ts.SimConfig(grid=g, params=p, y0=y0, T=nsteps * dt, dt=dt, y_ref=y_ref, forcing=f)
    traj = ts.simulate(cfg)
    _states, norms = _reference_run(g, p, y0, nsteps, dt, y_ref=y_ref, forcing=f)
    rel = np.max(np.abs(traj.norm_Lr1 - norms) / norms)
    assert rel < 1e-13, rel


@pytest.mark.parametrize("scheme", ["imex1", "cnab2"])
def test_3d_shifted_trajectory_matches_reference_step(scheme):
    g = sp.TorusGrid(d=3, N=8)
    p = smooth_params(r=5, q=2, gamma=-0.3)
    y_ref = _reference_state(g, 66, (0.5, -0.2, 0.3))
    y0 = 0.4 * sp.random_solenoidal(g, seed=67)
    f = 0.3 * sp.random_solenoidal(g, seed=68, decay=3.0)
    nsteps, dt = 6, 0.01
    cfg = ts.SimConfig(
        grid=g, params=p, y0=y0, T=nsteps * dt, dt=dt, scheme=scheme, y_ref=y_ref,
        forcing=f,
    )
    traj, recorded = ref.record_states(cfg)
    states, norms = _reference_run(g, p, y0, nsteps, dt, scheme, y_ref, f)
    assert len(recorded) == len(states)
    for (_t, z), zr in zip(recorded, states):
        assert sp.norm_H(z - zr) <= 1e-12 * sp.norm_H(zr)
    assert np.max(np.abs(traj.norm_Lr1 - norms) / norms) < 1e-13


@pytest.mark.parametrize("d", [2, 3])
def test_gamma_term_on_finer_grid_reduces_aliasing(d):
    # from a rough field, C_2 = P[|y| y] aliases on any grid; on the C_5 grid
    # (factor 3) the step lands closer to a factor-8 evaluation than with
    # C_2 on its own factor-2 grid.  C_5 is exact on factor 3 in both.
    g = sp.TorusGrid(d=d, N=16 if d == 2 else 8)
    p = smooth_params(r=5, q=2, gamma=-1.0)
    y0 = 2.0 * sp.random_solenoidal(g, seed=71, decay=0.5)
    dt = 0.01
    lin = p.mu * g.lap + p.alpha

    def step(fr, fq):
        damp = p.beta * _damping_on(y0, fr, p.r) + p.gamma * _damping_on(y0, fq, p.q)
        N = -op.convective(y0) - damp
        return sp.leray(sp.SpectralField(g, (y0.c + dt * N.c) / (1.0 + dt * lin)))

    fine = step(8, 8)
    per_term = step(sp.oversample_factor(p.r), sp.oversample_factor(p.q))
    one = ts.simulate(ts.SimConfig(grid=g, params=p, y0=y0, T=dt, dt=dt)).final
    assert sp.norm_H(one - fine) < 0.5 * sp.norm_H(per_term - fine)


# ---------------------------------------------------------------------------
# states held in a span: with no reference state and odd integer exponents,
# the damping and the convection run on grids sized from the span's bandwidth


class _HiddenBandwidth:
    """The span's two constraint methods without its bandwidth, so the
    stepper keeps the damping and base grids: the reference run."""

    def __init__(self, span):
        self._span = span

    def project(self, x):
        return self._span.project(x)

    def distance(self, x):
        return self._span.distance(x)


def _span_runs(d, n, params, bandwidth, amplitude):
    """The same project-mode span run on the bandwidth grids and on the
    damping and base grids.  The amplitude makes the damping a visible share
    of the step: at the benchmark's 0.01 it is about 1e-8 of the linear term."""
    g = sp.TorusGrid(d=d, N=16 if d == 2 else 8)
    span = cx.SpanConstraint(sp.eigenbasis(g, n))
    assert span.bandwidth == bandwidth
    y0 = amplitude * sp.random_solenoidal(g, seed=81)
    z0 = span.project(y0)
    linear = sp.norm_H(sp.SpectralField(g, z0.c * (params.mu * g.lap + params.alpha)))
    damping = sum(abs(c) * sp.norm_H(op.power_damping(z0, p)) for c, p in params.damping_terms)
    assert damping > 0.01 * linear
    f = 0.5 * sp.random_solenoidal(g, seed=82, decay=3.0)
    nsteps, dt = 8, 1e-3
    cfg = ts.SimConfig(
        grid=g, params=params, y0=y0, T=nsteps * dt, dt=dt, forcing=f,
        constraint=span, constraint_mode="project", controller=lambda z: -0.5 * z,
    )
    return ts.simulate(cfg), ts.simulate(replace(cfg, constraint=_HiddenBandwidth(span)))


_SPANS = [(2, 6, 1, 3.0), (2, 14, 2, 3.0), (3, 15, 1, 5.0), (3, 56, 2, 5.0)]


@pytest.mark.parametrize("d, n, bandwidth, amplitude", _SPANS, ids=["d2B1", "d2B2", "d3B1", "d3B2"])
@pytest.mark.parametrize(
    "r, q, gamma", [(5, 3, -0.4), (3, 1, -0.5), (5, 2, 0.0)],
    ids=["r5q3", "r3q1", "r5-no-pumping"],
)
def test_span_states_on_bandwidth_grids_match_full_grids(d, n, bandwidth, amplitude, r, q, gamma):
    p = op.PhysicalParams(mu=0.7, alpha=0.2, beta=0.8, gamma=gamma, r=r, q=q)
    g = sp.TorusGrid(d=d, N=16 if d == 2 else 8)
    assert op.span_nodes(p, g, bandwidth) < p.damping_factor * g.N
    got, want = _span_runs(d, n, p, bandwidth, amplitude)
    for name in ("t", "norm_H", "norm_gradH", "norm_V", "norm_Lr1", "norm_u"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)), name
    assert sp.norm_H(got.final - want.final) <= 1e-13 * sp.norm_H(want.final)


@pytest.mark.parametrize("d, n, bandwidth, amplitude", _SPANS[1::2], ids=["d2B2", "d3B2"])
@pytest.mark.parametrize("r, q, gamma", [(4.5, 3, -0.4), (5, 2, -0.4)], ids=["r4.5", "q2-pumped"])
def test_span_states_outside_the_rule_keep_the_full_grids(d, n, bandwidth, amplitude, r, q, gamma):
    # a fractional or even exponent: the run is bitwise that on today's grids
    p = op.PhysicalParams(mu=0.7, alpha=0.2, beta=0.8, gamma=gamma, r=r, q=q)
    got, want = _span_runs(d, n, p, bandwidth, amplitude)
    for name in ts.COLUMNS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(got.final.c, want.final.c)
