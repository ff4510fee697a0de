"""Exception types shared across the library."""


class PricingError(Exception):
    """Base class for all fva-pricer errors."""


class ConfigError(PricingError, ValueError):
    """Invalid market, instrument, or solver configuration.

    `field` names the offending input (a FundingConfig or grid field such
    as "r_b" or "dt") when a single input is at fault, else None.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class InvalidRateOrder(ConfigError):
    """Rates violate the required ordering rebate <= r <= r_b, repo >= r."""


class InvalidHaircut(ConfigError):
    """A haircut lies outside [0, 1)."""


class NonPositiveVol(ConfigError):
    """Volatility is not strictly positive."""


class BadStrikes(ConfigError):
    """Strategy strikes are missing, unordered, or non-positive."""


class GridTooCoarse(ConfigError):
    """The spatial grid cannot place the spot at an interior node."""


class HaircutNotZero(PricingError):
    """A zero-haircut closed form was requested with a nonzero haircut."""


class PriceOutOfBounds(PricingError):
    """Target price violates static no-arbitrage bounds."""


class NoConvergence(PricingError):
    """An iteration exhausted its budget; the message says where it stopped."""


class OracleUnavailable(PricingError):
    """No pricing oracle exists for the requested hedge simulation."""
