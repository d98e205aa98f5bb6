"""What an installed geoaudit must do that a checkout could do by accident.

An editable install or PYTHONPATH=src reads the bundled data files from the
checkout; this script, run with the interpreter of a wheel installed into a
fresh virtual environment, from outside the checkout, shows that pkgutil
finds them in a real install and that the install behaves as the suite
expects. CI runs it so:

    "$VENV/bin/python" tests/wheel_check.py

It runs against the checkout too, with PYTHONPATH=src, as
tests/test_cli.py::test_the_wheel_check_passes_against_the_checkout does on
every suite run, with -W error and a temporary cwd. Its name does not
start with test_, so pytest never collects it: its module checks need a
fresh interpreter, one no test has loaded anything into. It writes only
into a temporary directory that it removes.
"""

import sys

from geoaudit.geo import default_country_points
from geoaudit.registry import default_region_map
from geoaudit.whois import default_dialects

print(len(list(default_region_map())), len(default_country_points()), len(default_dialects()))

# the installed modules hash with the SHA-256 and BLAKE2b built into CPython,
# not OpenSSL; the modules below are imported after this check, so that none
# of them can be what loads _hashlib
import geoaudit.measure
import geoaudit.vantage

assert "_hashlib" not in sys.modules, "geoaudit.measure or geoaudit.vantage loads _hashlib"

import contextlib
import gzip
import io
import json
import os
import tempfile

from geoaudit import cli

# a gzip dump behind a byte order mark, holding a Latin-1 byte as RIPE
# exports do, loses no record, and no date spelling loads _strptime
DATES = {"2020-05-04": "2020-05-04", "20180105": "2018-01-05",
         "2021-06-01T08:00:00Z": "2021-06-01", "2021-6-1t8:0:0z": "2021-06-01",
         "noc@example.net 20190203": "2019-02-03", "2022-01-05T12:30:00.5+00:00": "2022-01-05",
         "20210304T101010Z": None, "\uff12\uff10\uff12\uff110304": "2021-03-04",
         "\uff12\uff10\uff12\uff11-\uff10\uff13-\uff10\uff14": None, "2021-02-30": None}

with tempfile.TemporaryDirectory() as tmp:
    dump, ingested, bad = (os.path.join(tmp, name) for name in ("bom.db.gz", "bom.jsonl", "bad.jsonl"))
    text = "\ufeff" + "".join(f"inetnum: 193.0.{n}.0 - 193.0.{n}.255\n" + "descr: Stra\u00dfe\n" * (n == 0)
                              + f"last-modified: {spelling}\n\n" for n, spelling in enumerate(DATES))
    with gzip.open(dump, "wb") as fp:
        fp.write(text.encode("utf-8").replace("\u00df".encode("utf-8"), b"\xdf"))
    assert cli.main(["ingest", "--ripe", dump, "-o", ingested]) == 0
    with open(ingested, encoding="utf-8") as fp:
        rows = [json.loads(line) for line in fp]
    assert len(rows) == len(DATES), f"{len(rows)} of {len(DATES)} records"
    assert [row["last_updated"] for row in rows] == list(DATES.values()), rows
    assert "_strptime" not in sys.modules, "ingest loads _strptime"

    # any other input is strict UTF-8: a 0xff byte exits 2 naming the file
    with open(bad, "wb") as fp:
        fp.write(b"{\"prefix\": \"\xff\"}\n")
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert cli.main(["oro", "--registrations", bad]) == 2
    assert err.getvalue().startswith(f"geoaudit: {bad}: ") and "0xff" in err.getvalue(), err.getvalue()

print("wheel check: ok")
