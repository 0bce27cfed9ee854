"""Scikit-learn style transformer for removing heavy tails from a series.

``Gaussianizer`` estimates the transformation vector on ``fit`` and then
maps observed data to its latent "nicely"-tailed version with
``transform`` (and back with ``inverse_transform``), so the heavy-tail
machinery drops into pipelines that expect the fit/transform protocol.
No scikit-learn dependency is required; ``get_params`` / ``set_params``
are provided for compatibility.
"""

from __future__ import annotations

import numpy as np

from .estimation import _check_series, fit_model
from .exceptions import DomainError, NotFittedError
from .transform import TailParams, h_tau, w_tau

__all__ = ["Gaussianizer"]

class Gaussianizer:
    """Estimate and apply the tail-removing transform.

    Parameters
    ----------
    method : {"igmm", "mle"}
        Estimator for the transformation vector: iterative method of
        moments (kurtosis matching, no distributional assumption beyond
        the target kurtosis) or Gaussian-input maximum likelihood.
    tail : {"h", "hh"}
        One shared tail parameter or separate left/right parameters.

    Attributes
    ----------
    tau_ : TailParams
        Fitted transformation vector.
    result_ : FitResult
        Full fit diagnostics.
    """

    def __init__(self, method: str = "igmm", tail: str = "h"):
        self.method = method
        self.tail = tail

    def get_params(self, deep: bool = True) -> dict:
        return {"method": self.method, "tail": self.tail}

    def set_params(self, **params) -> "Gaussianizer":
        for key, value in params.items():
            if key not in ("method", "tail"):
                raise DomainError(f"unknown parameter {key!r}")
            setattr(self, key, value)
        return self

    def fit(self, y, X=None) -> "Gaussianizer":
        """Estimate the transformation vector from a 1-D series."""
        result = fit_model(self._check_series(y), "gaussian", self.tail, self.method)
        self.result_ = result
        self.tau_ = result.tau
        return self

    def transform(self, y) -> np.ndarray:
        """Map observed data to the latent scale (remove heavy tails)."""
        return w_tau(self._check_series(y, fitted=True), self.tau_)

    def inverse_transform(self, x) -> np.ndarray:
        """Map latent-scale data back to the observed heavy-tailed scale."""
        return h_tau(self._check_series(x, fitted=True), self.tau_)

    def fit_transform(self, y, X=None) -> np.ndarray:
        return self.fit(y).transform(y)

    def _check_series(self, y, fitted: bool = False) -> np.ndarray:
        if fitted and not isinstance(getattr(self, "tau_", None), TailParams):
            raise NotFittedError("Gaussianizer must be fitted before transforming")
        return _check_series(y)
