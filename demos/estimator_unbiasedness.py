"""The reception-compensated utility estimator: unbiased at any loss rate.

Freeze one network configuration (actions, activity, channels) and resample
only the reception sets and observation noise.  The estimator's mean lands on
the true global utility for every reception probability, while its variance
grows as receptions get rarer — the price of compensation.

Run:  python3 demos/estimator_unbiasedness.py   (a few seconds)
"""

import numpy as np

from dosp.core import RngStream
from dosp.estimator import estimate_global_utility, mc_check_unbiasedness
from dosp.network import NetworkConfig, sample_activity, sample_channel
from dosp.objectives import PowerControlModel


def main():
    rng = RngStream(12, 0).generator()
    model = PowerControlModel(12)
    net = NetworkConfig(12, 0.5, 1.0)

    delta = sample_activity(net, rng, 1)[0]
    while delta.sum() < 4:
        delta = sample_activity(net, rng, 1)[0]
    channel = sample_channel(12, model.channel, rng)
    actions = rng.uniform(-1.5, 1.5, 12)
    utilities = model.utilities_given_channel(actions, delta, channel)
    active = np.flatnonzero(delta)
    f_true = utilities[active].sum()
    print(f"{active.size} active nodes, true global utility f = {f_true:.3f}")

    # one slot's estimates: every active node sees a different reception set
    f_tilde = estimate_global_utility(utilities[None, :], delta[None, :], 0.5, rng)[0]
    print("one slot at q_r=0.5, per active node: "
          + " ".join(f"{f_tilde[i]:.1f}" for i in active))

    print("\nresampling receptions and noise 200000 times:")
    print(f"{'q_r':>5} {'bias':>10} {'3*stderr':>10}")
    for q_r in (1.0, 0.5, 0.2, 0.1):
        bias, err = mc_check_unbiasedness(model, actions, delta, channel,
                                          q_r=q_r, sigma_eta=0.5,
                                          n_trials=200_000, rng=rng)
        print(f"{q_r:>5} {bias:>10.4f} {3 * err:>10.4f}")
    print("the bias column sits inside the 3-sigma band at every loss rate,")
    print("while the band itself widens as 1/q_r inflation amplifies noise")


if __name__ == "__main__":
    main()
