"""Exception types shared across the package."""


class EiscongError(Exception):
    """Base class for all package-specific errors."""


class NotAMultiple(EiscongError, ValueError):
    """Target modulus is not a multiple of the character's modulus."""


class NotPrimitive(EiscongError, ValueError):
    """Operation requires a primitive character (modulus == conductor)."""


class NotSquareFree(EiscongError, ValueError):
    """Operation requires a square-free integer or polynomial."""


class InsufficientPrecision(EiscongError, ValueError):
    """A q-expansion does not carry enough coefficients for the request."""


class DenominatorDivisibleByEll(EiscongError, ArithmeticError):
    """A coefficient denominator is divisible by the residue characteristic,
    so membership in the prime is not defined by reduction alone."""


class RamifiedUnsupported(EiscongError, ValueError):
    """Exact valuations are only implemented for unramified primes (ell
    coprime to the cyclotomic conductor)."""


class NotASubfield(EiscongError, ValueError):
    """No field embedding exists (degree does not divide target degree)."""


class WeightTooLarge(EiscongError, ValueError):
    """k is above lvalues.K_MAX, the ceiling on Bernoulli numbers, L-values
    and Eisenstein weights."""


class OrderTooLarge(EiscongError, ValueError):
    """A character order is above lvalues.ORDER_MAX, the ceiling on the
    cyclotomic fields of L-values and Eisenstein parameters."""


class ModulusTooLarge(EiscongError, ValueError):
    """A character modulus, or the conductor a Gauss sum is taken in, is
    above characters.MODULUS_MAX, the ceiling on the unit tables a character
    is built from."""


class PrecisionTooLarge(EiscongError, ValueError):
    """A q-expansion precision is above lvalues.PREC_MAX."""


class BadDivisor(EiscongError, ValueError):
    """d must be a proper divisor of M."""


class NotFound(EiscongError, LookupError):
    """Newform label is unknown to both the fixture store and the remote API."""


class InsufficientData(EiscongError, ValueError):
    """Fewer Hecke eigenvalue coefficients are available than requested."""


class NetworkError(EiscongError, IOError):
    """Remote fetch failed after the offline fallback was attempted."""


class BadLabel(EiscongError, ValueError):
    """A newform label is not of LMFDB's form N.k.a.x."""


class BadFixture(EiscongError, ValueError):
    """A fixture file lacks a field or holds one of the wrong type."""


class BadPrimeForBasis(EiscongError, ArithmeticError):
    """ell divides a denominator of the stored integral-basis matrix."""


class NonSquarefreeReduction(EiscongError, ArithmeticError):
    """The coefficient-field polynomial is not squarefree mod ell; such
    primes are skipped rather than resolved through the maximal order."""


class CharacterMismatch(EiscongError, ValueError):
    """Newform nebentypus does not equal the lifted character of the
    Eisenstein parameters."""
