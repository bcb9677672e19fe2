"""The artifact table writer as it formatted one cell at a time, for the tests.

`mesospin.cli._write_table` picks one formatter per column and leaves
native Python numbers and strings as they are; it is held to the bytes
this cell-by-cell writer produces.
"""

import numpy as np

from mesospin.config import canonical_json


def cell_text(value):
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    text = str(value)
    if "," in text or "\n" in text:
        raise ValueError(f"cell value {text!r} would break the CSV layout")
    return text


def cell_json(value):
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


def table_bytes(fname, meta, columns, records, summary=None):
    """Payload of one table file, CSV or JSON by the file name."""
    if fname.endswith(".json"):
        doc = {
            "artifact": fname[:-len(".json")],
            "metadata": meta,
            "columns": [{"name": n, "unit": u} for n, u in columns],
            "records": [[cell_json(c) if not isinstance(c, str) else c
                         for c in r] for r in records],
        }
        if summary is not None:
            doc["summary"] = {key: cell_json(v) for key, v in summary.items()}
        return canonical_json(doc).encode("utf-8")
    header = ",".join(f"{n} ({u})" if u else n for n, u in columns)
    lines = [header]
    lines.extend(",".join(cell_text(c) for c in r) for r in records)
    return ("\n".join(lines) + "\n").encode("utf-8")
