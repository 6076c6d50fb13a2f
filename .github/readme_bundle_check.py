"""Check README's step-1 bundle and step-2 groups from a checkout's root.

README's `geosampler generate` command is run twice, with the default
features.bin and with --features-format csv: the two bundles must load to
the same dataset, since the default format is lossless, and the default
bundle must hold exactly the files README's step 1 comment lists. README's
`geosampler groups` command is then run on the default bundle. points.csv
and groups.csv must equal, byte for byte, what the `csv` module writes for
the same rows. Exits non-zero, naming the failed check, otherwise.

    PYTHONPATH=src python .github/readme_bundle_check.py
"""

import csv
import io
import re
import shlex
import sys
import tempfile
from pathlib import Path

from geosampler.cli import main
from geosampler.data import datasets_equal, load_dataset


def readme_argv(command: str) -> list[str]:
    text = Path("README.md").read_text(encoding="utf-8").replace("\\\n", " ")
    return next(shlex.split(line, comments=True)[1:] for line in text.splitlines()
                if line.startswith(f"geosampler {command} "))


def readme_bundle_files() -> set[str]:
    """The file names in the parentheses of README's step 1 comment."""
    text = Path("README.md").read_text(encoding="utf-8")
    listed = re.search(r"# 1\. generate a synthetic dataset bundle \((.*?)\)", text, re.S)
    return {name.strip(" #\n") for name in listed.group(1).split(",")}


def csv_module_bytes(rows) -> bytes:
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode("utf-8")


def check(tmp: Path) -> str | None:
    generate, groups = readme_argv("generate"), readme_argv("groups")
    bundle = tmp / "default"
    codes = [main(generate + ["--out-dir", str(bundle)]),
             main(generate + ["--out-dir", str(tmp / "csv"), "--features-format", "csv"]),
             main(groups + ["--dataset", str(bundle), "--out-dir", str(tmp / "groups")])]
    if codes != [0, 0, 0]:
        return f"README's generate, generate --features-format csv and groups exited {codes}"
    written, listed = {p.name for p in bundle.iterdir()}, readme_bundle_files()
    if written != listed:
        return f"README's step 1 lists {sorted(listed)}, generate wrote {sorted(written)}"
    ds = load_dataset(bundle)
    if not (bundle / "features.bin").exists() or not datasets_equal(ds, load_dataset(tmp / "csv")):
        return "README's bin and csv bundles load unequal"
    points = [["point_id", "x", "y", "label", "cluster_id", "stratum_id"]] + [
        [pid, x, y, "NA" if label != label else label, ds.cluster_ids[j],
         ds.stratum_ids[ds.cluster_stratum[j]]]
        for pid, (x, y), label, j in zip(ds.point_ids, ds.coords.tolist(), ds.labels.tolist(),
                                         ds.point_cluster.tolist())
    ]
    if (bundle / "points.csv").read_bytes() != csv_module_bytes(points):
        return "points.csv differs from the csv module's bytes"
    written = (tmp / "groups" / "groups.csv").read_bytes()
    rows = list(csv.reader(io.StringIO(written.decode("utf-8"), newline="")))
    if [row[0] for row in rows[1:]] != list(ds.point_ids) or written != csv_module_bytes(rows):
        return "groups.csv differs from the csv module's bytes"
    return None


with tempfile.TemporaryDirectory() as tmp:
    failure = check(Path(tmp))
sys.exit(failure)
