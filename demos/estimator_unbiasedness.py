"""The reception-compensated utility estimator: unbiased at any loss rate.

Freeze one network configuration (actions, activity, channels) and resample
only the reception sets and observation noise.  The estimator's mean lands on
the true global utility for every reception probability, while its variance
grows as receptions get rarer — the price of compensation.

Run:  python3 demos/estimator_unbiasedness.py   (a few seconds)
"""

import numpy as np

from dosp.core import RngStream
from dosp.estimator import estimate_global_utility, mc_check_unbiasedness, sample_reception
from dosp.network import NetworkConfig, sample_activity
from dosp.objectives import PowerControlModel


def main():
    rng = RngStream(12, 0).generator()
    model = PowerControlModel(12)
    net = NetworkConfig(12, 0.5, 1.0)

    live = sample_activity(net, rng, 1)
    while live.size < 4:
        live = sample_activity(net, rng, 1)
    env = model.sample_env(live, rng)
    actions = rng.uniform(-1.5, 1.5, 12)
    active = live.node_idx
    utilities = model.local_utilities(actions[active], live, env)
    f_true = utilities.sum()
    print(f"{active.size} active nodes, true global utility f = {f_true:.3f}")

    # one slot's estimates: every active node sees a different reception set
    f_tilde = estimate_global_utility(utilities, live, 0.5, sample_reception(live, 0.5, rng))
    print("one slot at q_r=0.5, per active node: "
          + " ".join(f"{f:.1f}" for f in f_tilde))

    print("\nresampling receptions and noise 200000 times:")
    print(f"{'q_r':>5} {'bias':>10} {'3*stderr':>10}")
    for q_r in (1.0, 0.5, 0.2, 0.1):
        bias, err = mc_check_unbiasedness(model, actions, live, env,
                                          q_r=q_r, sigma_eta=0.5,
                                          n_trials=200_000, rng=rng,
                                          noise=net.noise)
        print(f"{q_r:>5} {bias:>10.4f} {3 * err:>10.4f}")
    print("the bias column sits inside the 3-sigma band at every loss rate,")
    print("while the band itself widens as 1/q_r inflation amplifies noise")


if __name__ == "__main__":
    main()
