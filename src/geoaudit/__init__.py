"""geoaudit: audit IP prefix registrations for geographic consistency.

Importing the package loads no stage module; each command imports the
stages it runs.
"""

__version__ = "0.1.0"
