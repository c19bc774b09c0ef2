#!/bin/sh
# `mlpsim query --local` answers a run past its deadline the way
# `mlpsim serve` does: a "deadline" error line and exit 4, not an ok
# result. The run still counts as simulated in the exec: summary.
#
#   cli_query_deadline_test.sh path/to/mlpsim
mlpsim=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
work=$(mktemp -d) || exit 1
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1

"$mlpsim" query --local --deadline-s 1e-9 MLPf_NCF_Py >out.txt 2>err.txt
status=$?
if [ "$status" -ne 4 ]; then
    echo "query --local --deadline-s 1e-9: exit $status, want 4"
    cat out.txt err.txt
    exit 1
fi
if ! grep -q "^q1 error: deadline" out.txt; then
    echo "query --local --deadline-s 1e-9: stdout lacks 'q1 error: deadline':"
    cat out.txt
    exit 1
fi
if ! grep -q "^exec: 1 points simulated" err.txt; then
    echo "query --local --deadline-s 1e-9: stderr lacks 'exec: 1 points simulated':"
    cat err.txt
    exit 1
fi
