#!/usr/bin/env python3
"""Write one <name>.schema.json per named schema of tracezero.schemas into
a directory (default: docs/schemas of this checkout) and print the paths."""
import argparse
import json
import pathlib

from tracezero.schemas import NAMED_SCHEMAS


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("directory", nargs="?",
                        default=pathlib.Path(__file__).resolve().parents[1] / "docs" / "schemas")
    directory = pathlib.Path(parser.parse_args().directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, schema in sorted(NAMED_SCHEMAS.items()):
        path = directory / f"{name}.schema.json"
        path.write_text(json.dumps(schema, indent=2, sort_keys=True) + "\n")
        print(path)


if __name__ == "__main__":
    main()
