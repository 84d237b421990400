"""Similarity-matrix heatmaps: dependence shows up as a diagonal band.

Writes plot-ready CSV and grayscale PGM files for an i.i.d. series and for
a strongly autoregressive one, then quantifies the band by comparing mean
similarity at short lags against long lags.

    python3 demos/03_heatmaps.py     # writes demos/out/*.csv, *.pgm
"""

import os

import numpy as np

from wise import build_similarity_matrix, kernels, validate_series
from wise.io import write_csv, write_pgm
from wise.simgen import from_setting, generate

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)


def band_means(S):
    n = S.shape[0]
    lag = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    near = S[(lag >= 1) & (lag <= 2)].mean()
    far = S[lag > 10].mean()
    return near, far


cases = {
    "iid": validate_series(np.random.default_rng(6).standard_normal((40, 100)), "vector"),
    "var": generate(from_setting("setting2.1", 40, 100, seed=0, coef_scale=0.5)),
}

for name, series in cases.items():
    S = build_similarity_matrix(series, kernels.neg_l1())
    write_csv(os.path.join(OUT, f"{name}.csv"), S.values)
    write_pgm(os.path.join(OUT, f"{name}.pgm"), S.values)
    near, far = band_means(S.values)
    print(f"{name}: mean similarity at lags 1-2 = {near:8.2f}, "
          f"at lags > 10 = {far:8.2f}, gap = {near - far:+.2f}")

print(f"\nfiles written under {OUT}")
print("open the .pgm files in any image viewer; the autoregressive matrix")
print("shows a bright band hugging the diagonal, the i.i.d. one is flat.")
