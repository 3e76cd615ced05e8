"""Small shared helpers: deterministic CSV output."""

import csv


def fmt17(x) -> str:
    """Format a float with 17 significant digits (round-trip exact)."""
    return f"{float(x):.17g}"


def write_csv(path, header, rows):
    """Write rows of floats/ints/strings; floats get 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt17(v) if isinstance(v, float) else v for v in row])
