"""Small shared helpers: deterministic CSV output and key-value input files."""

import configparser
import csv

from .errors import DomainError


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


def read_key_values(path, types: dict, kind: str) -> list[tuple[str, str, object]]:
    """(section, key, value) of every entry of a sectioned key-value file, in file order.

    ``types`` maps each allowed (section, key) to the type its value is
    converted with; ``kind`` names the file in messages. An unreadable or
    malformed file (no section header, a repeated section or key, a bad
    ``%`` interpolation), an unknown section or key, or a value its type
    refuses raises DomainError.
    """
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except configparser.Error as exc:
        raise DomainError(f"{path}: {exc}") from None
    if not read:
        raise DomainError(f"cannot read {kind} file {path}")
    entries = []
    for section, items in sections.items():
        if section not in {s for s, _ in types}:
            raise DomainError(f"{path}: unknown {kind} section [{section}]")
        for key, raw in items.items():
            if (section, key) not in types:
                raise DomainError(f"{path}: unknown key {key!r} in [{section}]")
            typ = types[section, key]
            try:
                entries.append((section, key, typ(raw)))
            except ValueError:
                raise DomainError(f"{path}: [{section}] {key} = {raw!r} is not a valid "
                                  f"{typ.__name__}") from None
    return entries
