"""Exception hierarchy shared across the library."""


class HitchsovError(Exception):
    """Base class for all library errors."""


class DegreeError(HitchsovError):
    """Defining polynomial has unsupported degree."""


class DuplicateBranchPoint(HitchsovError):
    """Two roots of the defining polynomial coincide within tolerance.

    The tolerance is per root: the roots count as distinct only when their
    Newton inclusion discs (``curves.root_cluster_margin``) are pairwise
    disjoint.  Repeated roots always fail; pairs closer than about 1e-6
    relative to the coefficients may fail too.
    """


class BranchProximity(HitchsovError):
    """A path entered the exclusion radius of a branch point."""


class ContinuationAmbiguity(HitchsovError):
    """The y given to start a continuation is not on the curve above x."""


class CycleDegenerate(HitchsovError):
    """Could not build a valid homology contour for the branch configuration."""


class RankError(HitchsovError):
    """Unsupported rank for the requested Lie family."""


class ConditioningWarning(UserWarning):
    """Fiber roots that double precision cannot certify as distinct.

    Raised as a warning by ``spectral.lambda_roots`` under the same
    inclusion-disc test as ``DuplicateBranchPoint``: a repeated fiber root
    always warns, and a pair closer than about 1e-6 relative to the
    coefficients may warn too.
    """


class SingularConfiguration(HitchsovError):
    """Design matrix of the separating system is singular."""


class SingularJacobian(HitchsovError):
    """Jacobian of the separating system w.r.t. H is singular."""


class NewtonDivergence(HitchsovError):
    """Multi-start Newton failed to reach the residual target; the message
    names the best residual reached and the number of starts."""


class BranchLocus(HitchsovError):
    """Evaluation requested on the branch locus of the lambda-cover."""


class IllConditioned(HitchsovError):
    """A matrix is singular, or its exact 1-norm condition number (never
    below LAPACK's estimate, zgecon) exceeds the cap."""


class StepRejected(HitchsovError):
    """Integration step produced an inconsistent state."""


class BranchCollision(HitchsovError):
    """A separating point collided with a branch point during a flow."""


class TruncationOverflow(HitchsovError):
    """No theta lattice radius up to the cap of 60 meets the truncation
    bound, or a theta sum's terms overflow double precision."""


class ThetaDivisor(HitchsovError):
    """Theta value below tolerance where a division is required."""


class ResidueUnstable(HitchsovError):
    """Contour residue did not stabilise under sample doubling."""


class DegenerateLine(HitchsovError):
    """Two proportional points do not span a line."""


class PoleCollision(HitchsovError):
    """Spectral parameters collide with a pole of the M-matrix."""


class ChartSingularity(HitchsovError):
    """No affine chart of P^3 is usable for the current point."""


class IndeterminateDimension(HitchsovError):
    """Cohomology dimension not determined by degree arithmetic alone."""


class TruncationInsufficient(HitchsovError):
    """Power-series truncation too short to decide the requested valuations."""


class NotIntegral(HitchsovError):
    """Newton polygon shows a unit factor (valuation-zero root)."""


class ValidationError(HitchsovError):
    """Malformed or inconsistent system description."""

    def __init__(self, message, field_path=None):
        super().__init__(message)
        self.field_path = field_path

    def __str__(self):
        base = super().__str__()
        if self.field_path:
            return f"{base} (at {self.field_path})"
        return base
