"""Exception types shared across the mapping pipeline."""


class MappingError(Exception):
    """Base class for all errors raised by this package."""


class UnallocatedQuery(MappingError):
    """A field query touched a voxel with missing corner vertices."""


class EmptyPool(MappingError):
    """A batch was requested from an empty replay pool."""


class EmptyMap(MappingError):
    """Requested grid evaluation covers no allocated voxel."""


class EmptyMesh(MappingError):
    """An operation requires a mesh with at least one triangle."""


class NoSurface(MappingError):
    """Marching cubes found no zero crossing in the valid region."""


class NonFiniteLoss(MappingError):
    """Training produced a NaN/Inf loss; state is not trustworthy."""


class PoseCountMismatch(MappingError):
    """Number of poses does not match the number of scans."""


class MalformedLine(MappingError):
    """A pose-file line could not be parsed."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class UnsupportedFormat(MappingError):
    """Input file extension or magic is not a supported format."""


class MalformedFile(MappingError):
    """Input file is recognized but structurally invalid."""
