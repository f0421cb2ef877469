"""Exception types shared across the package."""


class HopfcrossError(Exception):
    pass


class ShapeMismatchError(HopfcrossError):
    pass


class SingularMatrixError(HopfcrossError):
    pass


class NotConvolutionInvertibleError(HopfcrossError):
    pass


class NoAntipodeError(HopfcrossError):
    pass


class InvalidGroupTableError(HopfcrossError):
    pass


class NotCrossedProductError(HopfcrossError):
    """No unit found in some graded component.

    `definitive` is True when the absence was proved (exhaustive enumeration
    over a finite field, or the determinant polynomial was certified zero),
    False when the search budget ran out over an infinite field.
    """

    def __init__(self, message, definitive=False):
        super().__init__(message)
        self.definitive = definitive


class NoSectionFoundError(HopfcrossError):
    def __init__(self, message, definitive=False):
        super().__init__(message)
        self.definitive = definitive


class CocycleViolationError(HopfcrossError):
    pass


class NotSquareZeroError(HopfcrossError):
    pass


class KernelNotNilpotentError(HopfcrossError):
    pass


class NotSuperCommutativeError(HopfcrossError):
    pass


class CharacteristicTwoError(HopfcrossError):
    pass


class ValidationError(HopfcrossError):
    pass


class InvalidCrossedSystemError(ValidationError):
    """A crossed system that fails its laws; `violations` lists the
    witnesses of check_crossed_system."""

    def __init__(self, violations):
        super().__init__("invalid crossed system: %r" % (violations,))
        self.violations = violations


class InvalidComoduleAlgebraError(ValidationError):
    """A coaction that fails the comodule-algebra laws, a nested hopf block
    that fails the Hopf laws, an algebra block that fails the algebra laws,
    or a lift problem whose parts do or whose maps have the wrong shape;
    `violations` lists the witnesses."""

    def __init__(self, violations, what="a comodule algebra"):
        super().__init__("not %s: %r" % (what, violations))
        self.violations = violations


class ParseError(HopfcrossError):
    pass
