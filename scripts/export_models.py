#!/usr/bin/env python3
"""Export every bundled model to UPPAAL XML (plus query files), including the
strategy-fixed voter model used for external cross-checking:
`natstrat export-uppaal` once per model, into OUTDIR (default out/uppaal)."""

import sys

from natstrat import cli

EXPORTS = (
    ["--model", "voter_base", "--query", "reach_end"],
    ["--model", "voter_base", "--fix-strategy", "cast_verify", "--query", "reach_end",
     "--stem", "voter_base_fixed_cast_verify"],
    ["--model", "voter_check4", "--query", "complete_split_verification"],
    # the bundled voter_full declares n = 7, m = 5
    ["--model", "voter_full", "--query", "complete_symbolwise_verification",
     "--stem", "voter_full_7_5"],
    ["--model", "coercion_punisher"],
    ["--model", "coercion_infector"],
    ["--model", "coercion_watchdog"],
    ["--model", "infrastructure"],
)


def main() -> int:
    out = sys.argv[1] if len(sys.argv) > 1 else "out/uppaal"
    return max(cli.main(["export-uppaal", *args, "--out", out]) for args in EXPORTS)


if __name__ == "__main__":
    sys.exit(main())
