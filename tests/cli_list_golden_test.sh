#!/bin/sh
# `mlpsim list` prints the workload and machine vocabulary byte for
# byte as tests/golden/vocabulary_list.txt records it.
#
#   cli_list_golden_test.sh path/to/mlpsim path/to/vocabulary_list.txt
out=$(mktemp) || exit 1
trap 'rm -f "$out"' EXIT

"$1" list >"$out"
status=$?
if [ "$status" -ne 0 ]; then
    echo "mlpsim list: exit $status, want 0"
    exit 1
fi
if ! cmp -s "$out" "$2"; then
    echo "mlpsim list differs from $2:"
    diff "$2" "$out"
    exit 1
fi
