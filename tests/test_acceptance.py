"""End-to-end acceptance checks, one test per criterion.

Each test prints and records a single line
    [criterion N] PASS/FAIL: <measured numbers against the bound>
so the result table is visible at the end of a pytest run (see the
terminal summary hook in conftest).  Tolerances are the contract here:
they are asserted, never merely reported.
"""

import time

import numpy as np
from helpers import (
    SIGMA_MINUS,
    ZERO2,
    random_complex,
    random_density,
    random_gaussian_nm,
    random_hermitian,
    random_unitary,
)

from gaussbath.collision import (
    CollisionConfig,
    convergence_study,
    increment_operator,
    simulate,
    trace_distance,
)
from gaussbath.doubling import (
    OperatorGaussianSpec,
    operator_split,
    scalar_split,
    split_residuals,
)
from gaussbath.lindblad import (
    SystemModel,
    commutator_superoperator,
    dissipation_quadratic,
    evolve,
    extract_commutator_hamiltonian,
    gks_decompose,
    heisenberg_generator,
    schrodinger_liouvillian,
    steady_state,
)
from gaussbath.linalg import (
    adjoint,
    choi_matrix,
    devectorize,
    mat_exp,
    operator_norm,
    vectorize,
)
from gaussbath.noise import NoiseParams, unitarity_defect
from gaussbath.wick import TIME_ORDERED, ItoCoefficients, normal_to_time, time_to_normal


def _random_model(rng, d):
    n, m = random_gaussian_nm(rng)
    return SystemModel(
        C=random_complex(rng, (d, d)),
        F=random_hermitian(rng, d),
        noise=NoiseParams(
            gamma=float(rng.uniform(0.5, 2.0)),
            sigma=float(rng.uniform(-1.0, 1.0)),
            n=n,
            m=m,
        ),
    )


def _apply(superop, x):
    return devectorize(superop @ vectorize(x), x.shape[0])


def _block_distance(a, b):
    return max(
        operator_norm(a.c00 - b.c00),
        operator_norm(a.c01 - b.c01),
        operator_norm(a.c10 - b.c10),
        operator_norm(a.c11 - b.c11),
    )


def test_criterion_1_ordering_conversion(rng, criterion):
    started = time.perf_counter()
    worst_defect = 0.0
    worst_round_trip = 0.0
    for case in range(200):
        d = (2, 3, 4)[case % 3]
        e10 = random_complex(rng, (d, d))
        e = ItoCoefficients(
            TIME_ORDERED,
            random_hermitian(rng, d),
            adjoint(e10),
            e10,
            random_hermitian(rng, d),
        )
        params = NoiseParams(
            gamma=float(rng.uniform(0.5, 2.0)), sigma=float(rng.uniform(-1.0, 1.0))
        )
        l = time_to_normal(e, params)
        worst_defect = max(worst_defect, unitarity_defect(l, params.gamma))
        worst_round_trip = max(
            worst_round_trip, _block_distance(e, normal_to_time(l, params))
        )
    elapsed = time.perf_counter() - started
    ok = worst_defect <= 1e-10 and worst_round_trip <= 1e-10 and elapsed < 10.0
    criterion(
        f"[criterion 1] {'PASS' if ok else 'FAIL'}: 200 conversions, "
        f"max unitarity defect {worst_defect:.2e} (<= 1e-10), "
        f"max round trip {worst_round_trip:.2e} (<= 1e-10), {elapsed:.2f}s (< 10s)"
    )
    assert ok


def test_criterion_2_gaussian_splits(rng, criterion):
    worst_scalar = 0.0
    pairs = [random_gaussian_nm(rng) for _ in range(178)]
    for _ in range(20):
        n = float(rng.uniform(0.2, 3.0))
        phase = np.exp(2j * np.pi * rng.uniform())
        pairs.append((n, np.sqrt(n * (n + 1.0)) * phase))
    pairs += [(0.0, 0.0), (1.0, np.sqrt(2.0))]
    for n, m in pairs:
        res = split_residuals(n, m, scalar_split(n, m))
        worst_scalar = max(worst_scalar, max(res.values()))

    worst_operator = 0.0
    for d in (2, 3, 4):
        for _ in range(10):
            v = random_unitary(rng, d)
            pairs = [random_gaussian_nm(rng) for _ in range(d)]
            n_op = v @ np.diag([p[0] for p in pairs]) @ adjoint(v)
            m_op = v @ np.diag([p[1] for p in pairs]) @ adjoint(v)
            x, y, z = operator_split(OperatorGaussianSpec(N=n_op, M=m_op))
            eye = np.eye(d)
            worst_operator = max(
                worst_operator,
                operator_norm(adjoint(x) @ x - adjoint(y) @ y + adjoint(z) @ z - eye),
                operator_norm(adjoint(x) @ x + adjoint(z) @ z - (n_op + eye)),
                operator_norm(y @ z - m_op),
            )
    ok = worst_scalar <= 1e-12 and worst_operator <= 1e-9
    criterion(
        f"[criterion 2] {'PASS' if ok else 'FAIL'}: 200 scalar splits, "
        f"max identity residual {worst_scalar:.2e} (<= 1e-12); 30 operator splits, "
        f"max residual {worst_operator:.2e} (<= 1e-9)"
    )
    assert ok


def test_criterion_3_generator_structure(rng, criterion):
    worst_unital = 0.0
    worst_duality = 0.0
    all_cp = True
    for case in range(50):
        model = _random_model(rng, 2 + case % 2)
        d = model.dim
        heis = heisenberg_generator(model)
        liouv = schrodinger_liouvillian(model)
        worst_unital = max(worst_unital, float(np.max(np.abs(heis @ vectorize(np.eye(d))))))
        x = random_complex(rng, (d, d))
        rho = random_complex(rng, (d, d))
        x /= np.linalg.norm(x)
        rho /= np.linalg.norm(rho)
        pairing_gap = abs(
            np.trace(_apply(heis, x) @ rho) - np.trace(x @ _apply(liouv, rho))
        )
        worst_duality = max(worst_duality, pairing_gap)
        all_cp = all_cp and gks_decompose(model).is_cp(tol=1e-12)

    least_negative = 0.0
    for _ in range(20):
        n = float(rng.uniform(0.5, 3.0))
        m = 1.1 * np.sqrt(n * (n + 1.0)) * np.exp(2j * np.pi * rng.uniform())
        model = SystemModel(
            C=SIGMA_MINUS, F=ZERO2,
            noise=NoiseParams(gamma=float(rng.uniform(0.5, 2.0)), n=n, m=m),
        )
        least_negative = min(
            least_negative, float(gks_decompose(model).kossakowski_eigenvalues().min())
        )
    ok = (
        worst_unital <= 1e-12
        and worst_duality <= 1e-12
        and all_cp
        and least_negative < -1e-3
    )
    criterion(
        f"[criterion 3] {'PASS' if ok else 'FAIL'}: unitality {worst_unital:.2e} "
        f"(<= 1e-12), duality gap {worst_duality:.2e} (<= 1e-12), "
        f"Kossakowski PSD on 50 valid models: {all_cp}, "
        f"min eigenvalue past boundary {least_negative:.2e} (< -1e-3)"
    )
    assert ok


def test_criterion_4_closed_form_dynamics(rng, criterion):
    worst_decay = 0.0
    grid = np.linspace(0.0, 3.0, 31)
    for gamma in (0.7, 1.0, 1.9):
        model = SystemModel(C=SIGMA_MINUS, F=ZERO2, noise=NoiseParams(gamma=gamma))
        states = evolve(model, np.diag([1.0, 0.0]).astype(complex), grid)
        worst_decay = max(
            worst_decay, float(np.max(np.abs(states[:, 0, 0] - np.exp(-gamma * grid))))
        )

    worst_thermal = 0.0
    for n in (0.5, 1.0, 3.0):
        model = SystemModel(C=SIGMA_MINUS, F=ZERO2, noise=NoiseParams(gamma=1.0, n=n))
        rho = steady_state(model)
        worst_thermal = max(worst_thermal, abs(rho[0, 0] - n / (2.0 * n + 1.0)))

    model = _random_model(rng, 2)
    rho0 = random_density(rng, 2)
    a = evolve(model, rho0, np.linspace(0.0, 1.0, 6), method="expm")
    b = evolve(model, rho0, np.linspace(0.0, 1.0, 6), method="rk4")
    method_gap = max(operator_norm(x - y) for x, y in zip(a, b))

    ok = worst_decay <= 1e-8 and worst_thermal <= 1e-8 and method_gap <= 1e-8
    criterion(
        f"[criterion 4] {'PASS' if ok else 'FAIL'}: vacuum decay error "
        f"{worst_decay:.2e} (<= 1e-8), thermal steady error {worst_thermal:.2e} "
        f"(<= 1e-8), expm vs rk4 {method_gap:.2e} (<= 1e-8)"
    )
    assert ok


def test_criterion_5_complete_positivity(rng, criterion):
    worst = np.inf
    for case in range(50):
        model = _random_model(rng, 2 + case % 2)
        liouv = schrodinger_liouvillian(model)
        for t in (0.1 / model.noise.gamma, 1.0 / model.noise.gamma):
            j = choi_matrix(mat_exp(t * liouv))
            worst = min(worst, float(np.linalg.eigvalsh((j + adjoint(j)) / 2.0).min()))
    ok = worst >= -1e-8
    criterion(
        f"[criterion 5] {'PASS' if ok else 'FAIL'}: 50 models x 2 times, "
        f"min Choi eigenvalue {worst:.2e} (>= -1e-8)"
    )
    assert ok


def test_criterion_6_sigma_is_hamiltonian_shift(rng, criterion):
    worst_residual = 0.0
    worst_h = 0.0
    for case in range(20):
        d = 2 + case % 2
        n, m = random_gaussian_nm(rng)
        c = random_complex(rng, (d, d))
        f = random_hermitian(rng, d)
        gamma = float(rng.uniform(0.5, 2.0))
        sigma = float(rng.uniform(0.1, 1.0)) * (-1.0) ** case
        shifted = SystemModel(C=c, F=f, noise=NoiseParams(gamma=gamma, sigma=sigma, n=n, m=m))
        flat = SystemModel(C=c, F=f, noise=NoiseParams(gamma=gamma, sigma=0.0, n=n, m=m))
        delta = heisenberg_generator(shifted) - heisenberg_generator(flat)
        q = dissipation_quadratic(shifted)
        worst_residual = max(
            worst_residual, operator_norm(delta - commutator_superoperator(sigma * q))
        )
        h, extraction_residual = extract_commutator_hamiltonian(delta)
        want = sigma * q - sigma * q[0, 0] * np.eye(d)
        worst_h = max(worst_h, operator_norm(h - want), extraction_residual)
    ok = worst_residual <= 1e-10 and worst_h <= 1e-10
    criterion(
        f"[criterion 6] {'PASS' if ok else 'FAIL'}: sigma shift is i[sigma*Q, .], "
        f"superoperator residual {worst_residual:.2e} (<= 1e-10), "
        f"recovered Hamiltonian error {worst_h:.2e} (<= 1e-10)"
    )
    assert ok


def test_criterion_7_collision_convergence(criterion):
    started = time.perf_counter()
    dts = [0.04, 0.02, 0.01]
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    results = {}
    for label, n in (("vacuum", 0.0), ("thermal", 1.0)):
        model = SystemModel(C=SIGMA_MINUS, F=ZERO2, noise=NoiseParams(gamma=1.0, n=n))
        results[label] = convergence_study(model, rho0, t_final=0.5, dts=dts, cutoff=5)

    moment_model = SystemModel(
        C=SIGMA_MINUS, F=ZERO2, noise=NoiseParams(gamma=1.3, n=1.0, m=0.7j)
    )
    config = CollisionConfig(model=moment_model, dt=0.02, steps=1, cutoff=6)
    b = increment_operator(config)
    bd = adjoint(b)
    gdt = 1.3 * 0.02
    noise = moment_model.noise
    moment_err = max(
        abs((b @ bd)[0, 0] - gdt * (noise.n + 1.0)),
        abs((bd @ b)[0, 0] - gdt * noise.n),
        abs((b @ b)[0, 0] - gdt * noise.m),
    )
    elapsed = time.perf_counter() - started

    orders = {label: r.fitted_order for label, r in results.items()}
    finest = {label: r.errors[-1] for label, r in results.items()}
    ok = (
        all(o >= 0.8 for o in orders.values())
        and all(e < 1e-2 for e in finest.values())
        and all(r.monotone for r in results.values())
        and moment_err <= 1e-10
        and elapsed < 300.0
    )
    criterion(
        f"[criterion 7] {'PASS' if ok else 'FAIL'}: fitted order vacuum "
        f"{orders['vacuum']:.3f}, thermal {orders['thermal']:.3f} (>= 0.8), "
        f"error at dt=0.01: vacuum {finest['vacuum']:.2e}, thermal "
        f"{finest['thermal']:.2e} (< 1e-2), increment moment error "
        f"{moment_err:.2e} (<= 1e-10), {elapsed:.1f}s (< 300s)"
    )
    assert ok


def test_criterion_8_squeezed_steady_cross_check(criterion):
    n = 1.0
    m = 0.8 * np.sqrt(2.0) * np.exp(0.25j * np.pi)
    model = SystemModel(C=SIGMA_MINUS, F=ZERO2, noise=NoiseParams(gamma=1.0, n=n, m=m))
    target = steady_state(model)
    config = CollisionConfig(model=model, dt=0.005, steps=800, cutoff=6)
    final = simulate(config, np.diag([1.0, 0.0]).astype(complex))[-1]
    gap = trace_distance(final, target)
    ok = gap <= 2e-2
    criterion(
        f"[criterion 8] {'PASS' if ok else 'FAIL'}: squeezed bath (n=1, |m|=0.8*sqrt(2)), "
        f"collision chain at t=4 vs Liouvillian kernel, trace distance {gap:.2e} (<= 2e-2)"
    )
    assert ok
