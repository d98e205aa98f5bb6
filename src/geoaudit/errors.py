"""Exception types shared across the package."""


class GeoAuditError(Exception):
    """Base class for all errors raised by this package."""


class MalformedPrefix(GeoAuditError):
    """Text does not parse as a CIDR prefix in canonical form."""


class InvertedRange(GeoAuditError):
    """Address range whose start is above its end."""


class MixedFamily(GeoAuditError):
    """Operands belong to different address families."""


class UnknownCountry(GeoAuditError):
    """Country code absent from the region map."""


class UnknownDialect(GeoAuditError):
    """No dialect table for the requested registry."""


class UnreadableStream(GeoAuditError):
    """Input stream could not be decoded or decompressed."""


class MalformedRoute(GeoAuditError):
    """RIB line does not parse as prefix and origin ASN."""


class NoResponses(GeoAuditError):
    """Every measurement in a batch came back empty."""


class NegativeRtt(GeoAuditError):
    """A round-trip time that is negative or not finite, which no clock
    should produce."""


class UnknownTarget(GeoAuditError):
    """Simulated world has no location for the target address."""


class BackendUnavailable(GeoAuditError):
    """Measurement backend cannot be reached or keeps failing."""


class EmptyGeoSet(GeoAuditError):
    """Classification was asked to run with no feasible region at all."""
