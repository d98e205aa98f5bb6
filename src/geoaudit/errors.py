"""Exception types shared across the package.

Bad input or configuration raises GeoAuditError where it is found: a record,
row or document parse refuses the text it cannot read, and the command line
names the file and exits 2. Any other exception is a bug. A subclass exists
only where a caller catches it by type."""


class GeoAuditError(Exception):
    """Input or configuration this package cannot use."""


class UnknownTarget(GeoAuditError):
    """Simulated world has no location for the target address."""


class BackendUnavailable(GeoAuditError):
    """Measurement backend cannot be reached or keeps failing."""
