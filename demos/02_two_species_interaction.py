"""Two-species interaction model: equivalence of the two forms, and why the
two-step pipeline needs the true initial condition in higher dimensions.

The structured model
    dx1/dt = a1 x1 - b1 [x1 (eta2 + int x2) + x2 (eta1 + int x1)]
    dx2/dt = a2 x2 - b2 [x1 (eta2 + int x2) + x2 (eta1 + int x1)]
is the reduced form of the cumulative predator-prey system
    dy1/dt = a1 y1 - b1 y1 y2,   dy2/dt = a2 y2 - b2 y1 y2.
"""

import numpy as np

from greymatch import (
    GreyFitConfig,
    ParameterSet,
    ScenarioConfig,
    add_noise,
    fit_grey,
    fit_matching,
    forecast_fits,
    generate_clean,
    lotka_volterra_truth,
    reduced_to_grey,
    solve_grey,
    solve_reduced,
)

spec, truth = lotka_volterra_truth()
print("truth: a1=1.2, b1=0.3, a2=-1.0, b2=-0.4, eta=(5, 2/3)\n")

# --- the two forms produce the same cumulative trajectory -------------------
times = np.linspace(0.0, 5.0, 501)
grey_truth = reduced_to_grey(truth, spec)
y_grey = solve_grey(spec, grey_truth, times, substeps=5).states
y_reduced = solve_reduced(spec, truth, times, substeps=5).states[:, 2:]
print(f"max gap between cumulative trajectories of the two forms: "
      f"{np.max(np.abs(y_grey - y_reduced)):.2e}\n")

# --- estimation on noisy data ------------------------------------------------
config = ScenarioConfig("demo-lv", spec, truth, T=5.0, h=0.01,
                        noise_level=0.04, replications=1, seed=99)
clean = generate_clean(config)
noisy = add_noise(clean, 0.04, (99, 0))

match_fit = fit_matching(noisy, spec)
cross = spec.basis.pairs.index((0, 1))
print("one-step estimates from one noisy draw (4% noise, n=501):")
print(f"  a1={match_fit.params.theta_L[0, 0]: .4f}  "
      f"b1={-match_fit.params.theta_N[0, cross]: .4f}  "
      f"a2={match_fit.params.theta_L[1, 1]: .4f}  "
      f"b2={-match_fit.params.theta_N[1, cross]: .4f}")
print(f"  eta=({match_fit.params.eta[0]:.4f}, {match_fit.params.eta[1]:.4f})\n")

# --- the initial-value trap ---------------------------------------------------
print("two-step pipeline, seeding the cumulative solver two ways:")
for label, initials in (("noisy first point", None),
                        ("true initial value", tuple(truth.eta))):
    trials = 20
    fits = [fit_grey(add_noise(clean, 0.04, (99, rep)), spec,
                     GreyFitConfig(initial_values=initials)) for rep in range(trials)]
    blow_ups = sum(forecast.blown_up for forecast in forecast_fits(fits, 0))
    print(f"  {label:>18}: {blow_ups}/{trials} trajectories blew up")
print("\na noisy seed can push the second component negative, which escapes the")
print("closed orbits of the interaction system and diverges in finite time;")
print("the divergence is flagged, never raised as a crash")
