"""Address predictors that can direct a stream buffer (Sections 2 and 4.2).

Any predictor implementing :class:`~repro.predictors.base.AddressPredictor`
can drive a Predictor-Directed Stream Buffer.  The paper's headline
configuration is the Stride-Filtered Markov (SFM) predictor; the pure
two-delta stride table doubles as the Farkas et al. PC-stride baseline.
"""

from repro.predictors.base import AddressPredictor, StreamState
from repro.predictors.context import ContextPredictor
from repro.predictors.correlated import CorrelatedAddressPredictor
from repro.predictors.mindelta import MinimumDeltaPredictor
from repro.predictors.markov import DifferentialMarkovTable
from repro.predictors.saturating import SaturatingCounter
from repro.predictors.sfm import StrideFilteredMarkovPredictor
from repro.predictors.stride import StrideEntry, TwoDeltaStrideTable

__all__ = [
    "AddressPredictor",
    "StreamState",
    "ContextPredictor",
    "CorrelatedAddressPredictor",
    "MinimumDeltaPredictor",
    "DifferentialMarkovTable",
    "SaturatingCounter",
    "StrideFilteredMarkovPredictor",
    "StrideEntry",
    "TwoDeltaStrideTable",
]
