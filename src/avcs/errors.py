"""Exception taxonomy shared across the package.

Anything raised on a hostile input path (wire decoding, certificate
validation) derives from :class:`ParseError` so callers can catch one
class at the trust boundary.  Errors on honest-caller misuse (joining
under an unregistered manufactory, signing a message before any
pseudonym) get their own types.
"""


class AvcsError(Exception):
    """Base class for every error raised by this package."""


class ParseError(AvcsError):
    """A byte string could not be decoded into the expected structure."""


class MappingError(AvcsError):
    """Hashing into the group failed after exhausting all retry counters."""


class UnknownManufactoryError(AvcsError):
    """An identity referenced a manufactory with no registered key vector."""


class DegenerateKeyError(AvcsError):
    """Key derivation produced the zero scalar or the identity element."""


class ProvisioningError(AvcsError):
    """A module could not join, or was asked for work it holds no key for."""


class SupervisorAuthError(AvcsError):
    """A reveal request carried a missing or wrong supervisor credential."""


class ProtocolError(AvcsError):
    """Inputs to a protocol step were inconsistent with each other."""


class ScenarioError(AvcsError):
    """A simulation scenario file was missing or malformed."""


class ClockError(AvcsError):
    """The trusted clock moved backwards."""
