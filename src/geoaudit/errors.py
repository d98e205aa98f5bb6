"""Exception types shared across the package.

Bad input or configuration raises GeoAuditError, and the command line exits
2 on it; a subclass exists only where a caller catches it by type."""


class GeoAuditError(Exception):
    """Input or configuration this package cannot use."""


class UnknownTarget(GeoAuditError):
    """Simulated world has no location for the target address."""


class BackendUnavailable(GeoAuditError):
    """Measurement backend cannot be reached or keeps failing."""
