"""The two ends of the shared-randomness axis, and two variations.

At unlimited shared randomness the rate is the minimum coupling
information. With none at all it is the minimum over Markov triples of
the larger one-sided information, found here by a linear program over
the atoms of the index grown by column generation, and it is strictly
cheaper than the zero-randomness closed form that additionally forces a
deterministic index map.
"""

import numpy as np

from ocrate import (
    DistortionMatrix,
    Pmf,
    c0_bsc,
    det_decoder_min_rate,
    empirical_region_min_rate,
    i0_solver,
    mmi_constrained_output,
    wyner_bsc,
)


def main():
    mu = Pmf(np.array([0.5, 0.5]))
    rho = DistortionMatrix.hamming(2)
    d = 0.25

    floor, _ = mmi_constrained_output(mu, mu, rho, d)
    i0, triple = i0_solver(mu, mu, rho, d, restarts=16, seed=0)
    print(f"distortion budget {d}, uniform binary marginals")
    print(f"  unlimited shared randomness  {floor:.4f} bits")
    print(f"  no shared randomness         {i0:.4f} bits")
    print(f"  deterministic-index form     {c0_bsc(d):.4f} bits")
    print(f"  common information           {wyner_bsc(d):.4f} bits")
    print("\nwitness triple found by the solver:")
    print(f"  index weights   {np.round(triple.weights.probs, 4)}")
    print(f"  source channel  {np.round(triple.x_given_u.rows, 4)}")
    print(f"  output channel  {np.round(triple.y_given_u.rows, 4)}")

    print("\ndeterministic decoder, rate against shared randomness:")
    for rc in (0.0, 0.4, 0.8, 1.2):
        r = det_decoder_min_rate(mu, mu, rho, d, rc)
        print(f"  rc={rc:.1f}  r_min={r:.4f}")
    print("the kink sits where the entropy shortfall meets the floor")

    emp = empirical_region_min_rate(mu, mu, rho, d)
    print(f"\nempirical-histogram relaxation: {emp:.4f} bits at every rc")


if __name__ == "__main__":
    main()
