"""Small shared helpers: deterministic CSV output and key-value input files.

``write_csv`` takes a table as columns, one per header name, and writes
it with one format call: floats with 17 significant digits, integers in
decimal, anything else as text quoted the way ``csv``'s excel dialect
quotes it, each line ending in ``\\r\\n``.
"""

from itertools import chain

from .errors import DomainError


def fmt17(x) -> str:
    """Format a float with 17 significant digits (round-trip exact)."""
    return f"{float(x):.17g}"


def _quote(cell: str) -> str:
    """A text cell as the csv module's minimal quoting writes it."""
    if "," in cell or '"' in cell or "\r" in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _field(column) -> tuple[str, list]:
    """The row-template field of one column and its cells, ready for ``%``.

    A column of floats gets ``%.17g`` and one of integers ``%d``; any
    other column is written cell by cell as text, floats in it with 17
    significant digits, every cell quoted already.
    """
    cells = column.tolist() if hasattr(column, "tolist") else list(column)
    if all(isinstance(c, float) for c in cells):
        return "%.17g", cells
    if all(type(c) is int for c in cells):   # not bool: csv writes True, %d writes 1
        return "%d", cells
    return "%s", [_quote(fmt17(c) if isinstance(c, float) else str(c)) for c in cells]


def write_csv(path, header, columns):
    """Write a table given as columns, one per header name, with one write.

    Each column is an array or a sequence; all have the same length. The
    rows are formatted by one ``%`` on a row template repeated once per
    row. The file is byte for byte what ``csv.writer`` writes from the
    same table row by row with every float cell passed through ``fmt17``.
    """
    header = [_quote(str(h)) for h in header]
    fields, cells = [], []
    for column in columns:
        field, values = _field(column)
        fields.append(field)
        cells.append(values)
    n_rows = len(cells[0]) if cells else 0
    if len(cells) != len(header) or any(len(c) != n_rows for c in cells):
        raise ValueError("write_csv needs one column per header name, all of one length")
    if len(header) == 1:
        # csv writes a record of one empty field as "", not as a blank line
        header = [header[0] or '""']
        if fields == ["%s"]:
            cells = [[c or '""' for c in cells[0]]]
    body = (",".join(fields) + "\r\n") * n_rows % tuple(chain.from_iterable(zip(*cells)))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + body)


def read_key_values(path, types: dict, kind: str) -> list[tuple[str, str, object]]:
    """(section, key, value) of every entry of a sectioned key-value file, in file order.

    ``types`` maps each allowed (section, key) to the type its value is
    converted with; ``kind`` names the file in messages. An unreadable or
    malformed file (no section header, a repeated section or key, a bad
    ``%`` interpolation), an unknown section or key, or a value its type
    refuses raises DomainError.
    """
    import configparser   # deferred: only a run given a config or profile file reads one

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
