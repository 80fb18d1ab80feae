"""Exception hierarchy shared by all modules.

Errors split into two families: malformed or invalid input data
(``InvalidInput``) and problems that are well posed but mathematically
infeasible (``Infeasible``), e.g. a partial operator with no positive
extension.  The CLI maps the two families to distinct exit codes.
"""


class KvnError(Exception):
    """Base class for all library errors."""


class InvalidInput(KvnError):
    """Input data violates a structural invariant."""


class Infeasible(KvnError):
    """Well-formed problem with no solution (carries a certificate when available)."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class NotSquare(InvalidInput):
    pass


class ShapeMismatch(InvalidInput):
    pass


class NotHermitian(InvalidInput):
    pass


class NotPsd(InvalidInput):
    pass


class ResultOutOfRange(InvalidInput):
    """A result of well-formed input overflows the float range."""


class InvalidOperator(InvalidInput):
    """Partial operator fails validation; the subclass names the first failure."""


class RankDeficientDomain(InvalidOperator):
    pass


class NonHermitianGram(InvalidOperator):
    pass


class NonPsdGram(InvalidOperator):
    pass


class AssociativityFail(InvalidInput):
    pass


class InvolutionFail(InvalidInput):
    pass


class UnitFail(InvalidInput):
    pass


class IdealNotClosed(InvalidInput):
    pass


class NoUnit(InvalidInput):
    pass


class NotExtendible(Infeasible):
    """No positive extension exists; ``certificate`` is a violating direction."""


class BoundTooSmall(Infeasible):
    """Upper bound does not dominate the minimal extension."""


class HypothesesFail(Infeasible):
    """Intertwining hypotheses do not hold for the given operator pair."""


class DomainNotInvariant(HypothesesFail):
    """Candidate operators do not leave the domain invariant."""


class NotAdmissible(Infeasible):
    """Functional violates the admissibility growth condition."""


class NotHilbertBounded(Infeasible):
    """Functional not dominated by its own quadratic form."""


class BoundNotDominating(Infeasible):
    """Dominating functional is smaller than the minimal extension somewhere."""


class NotRepresentable(Infeasible):
    """Functional admits no *-representation realizing it as a vector state."""
