"""Time one fresh process: import tracezero.cli and run one request.

Usage: python3 setup_probe.py SRC_DIR REQUEST_JSON

REQUEST_JSON holds {"argv": [...], "stdin": "..."}.  Prints one JSON line
{"setup_s", "code", "sha256"}; setup_s runs from just before the import to
the return of the request.
"""
import hashlib
import json
import sys
import time


def main():
    src, request_path = sys.argv[1:3]
    with open(request_path, encoding="utf-8") as fh:
        request = json.load(fh)
    sys.path.insert(0, src)
    start = time.perf_counter()
    import tracezero.cli
    try:
        code, text = tracezero.cli.run_from_args(request["argv"], request["stdin"])
    except Exception as exc:  # reported as a failed request, as in the main loop
        code, text = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "code": code,
                      "sha256": hashlib.sha256(text.encode()).hexdigest()}))


if __name__ == "__main__":
    main()
