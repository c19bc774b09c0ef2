#!/bin/sh
# `mlpsim explain` sets up its machine the way `mlpsim run` does:
# an unknown --degraded-links target is a config error (exit 3), and
# a valid spec changes the explanation.
#
#   cli_explain_degraded_test.sh path/to/mlpsim
mlpsim=$1

"$mlpsim" explain MLPf_Res50_MX --degraded-links bogus-x:down \
    >/dev/null 2>&1
status=$?
if [ "$status" -ne 3 ]; then
    echo "explain --degraded-links bogus-x:down: exit $status, want 3"
    exit 1
fi

healthy=$("$mlpsim" explain MLPf_Res50_MX --system "C4140 (M)" \
    --gpus 4 --json 2>/dev/null) || exit 1
degraded=$("$mlpsim" explain MLPf_Res50_MX --system "C4140 (M)" \
    --gpus 4 --json --degraded-links nvlink:down 2>/dev/null) || exit 1
if [ "$healthy" = "$degraded" ]; then
    echo "explain --degraded-links nvlink:down printed the healthy run"
    exit 1
fi
