"""Traced CLI invocation: runs `prestopping.cli.main` in this process under the tracer.

Usage: python3 perfbench/traced_cli.py RESULT_JSON SPANS_JSONL <prestopping CLI arguments>

Writes the CLI's exit code, the per-layer metrics, the self time of each span
name and the names the tracer could not find to RESULT_JSON, and every span
to SPANS_JSONL.
"""

import json
import sys

from prestopping import cli, engine, memorization, metrics, nn, refurbish

import tracer


def main(result_path, spans_path, argv):
    tr = tracer.Tracer()
    tr.install(cli, engine, memorization, metrics, nn, refurbish)
    try:
        code = tr.run(cli, argv)
    finally:
        tr.uninstall()
    tr.write(spans_path)
    with open(result_path, "w") as fh:
        json.dump({"code": code, "per_layer": tracer.layer_metrics(tr.spans),
                   "self_by_span": tracer.self_time_by_name(tr.spans),
                   "missing": tr.missing}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
