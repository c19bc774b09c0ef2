#!/bin/sh
# mlpsim reads its command line against one flag table: unknown
# flags, stray positionals, missing values, repeated flags and
# malformed numbers are usage errors (exit 2), and a switch may come
# before or after the positional it sits next to.
#
#   cli_flags_test.sh path/to/mlpsim
mlpsim=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
work=$(mktemp -d) || exit 1
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1
failed=0

# expect_usage PATTERN ARGS...: exit 2 with PATTERN on stderr.
expect_usage()
{
    pattern=$1
    shift
    "$mlpsim" "$@" >out.txt 2>err.txt
    status=$?
    if [ "$status" -ne 2 ]; then
        echo "mlpsim $*: exit $status, want 2"
        failed=1
    elif ! grep -q -- "$pattern" err.txt; then
        echo "mlpsim $*: stderr lacks '$pattern':"
        cat err.txt
        failed=1
    fi
}

# same_stdout "ARGS A" "ARGS B": both succeed with identical stdout.
same_stdout()
{
    eval "\"\$mlpsim\" $1" >a.txt 2>/dev/null || {
        echo "mlpsim $1 failed"
        failed=1
    }
    eval "\"\$mlpsim\" $2" >b.txt 2>/dev/null || {
        echo "mlpsim $2 failed"
        failed=1
    }
    if ! cmp -s a.txt b.txt; then
        echo "mlpsim $1 and mlpsim $2 print different output"
        failed=1
    fi
}

# Misspelled flags name the flag they meant.
expect_usage "did you mean '--gpus'" run MLPf_Res50_MX --gpu 4
expect_usage "did you mean '--mttf-hours'" \
    run MLPf_Res50_MX --mtf-hours 5
expect_usage "did you mean '--jobs'" report bogus --jbos 3 -o x.md
expect_usage "unknown command 'rnu' (did you mean 'run'" rnu

# A switch before the positional does not swallow it.
same_stdout "explain --json MLPf_Res50_MX" \
    "explain MLPf_Res50_MX --json"
same_stdout "run --reference MLPf_Res50_MX" \
    "run MLPf_Res50_MX --reference"
same_stdout "query --local MLPf_NCF_Py" "query MLPf_NCF_Py --local"

# A value flag needs its value; nothing is written under a stand-in.
expect_usage "--out needs a value" report --out
expect_usage "--trace needs a value" faults --trace
expect_usage "--trace needs a value" explain MLPf_Res50_MX --trace
expect_usage "--out needs a value" trace MLPf_Res50_MX --out --gpus 2
if [ -e true ] || [ -e mlpsim_report.md ]; then
    echo "a flag without a value still wrote a file"
    failed=1
fi

# Flags are given once (except repeatable ones); positionals are
# taken only where the command has them.
expect_usage "--system given more than once" \
    run MLPf_Res50_MX --system "C4140 (M)" --system "DSS 8440"
expect_usage "unexpected argument 'MLPf_GNMT_Py'" faults MLPf_GNMT_Py
expect_usage "unexpected argument 'MLPf_NCF_Py'" \
    run MLPf_Res50_MX MLPf_NCF_Py
expect_usage "unknown subcommand 'stat'" cache stat --cache-dir c

# A flag that only matters with a partner is an error without it,
# not silently ignored: --checkpoint times a fault run, and query's
# engine flags configure the in-process engine of --local.
expect_usage "--checkpoint only matters with --mttf-hours" \
    run MLPf_Res50_MX --checkpoint 30
expect_usage "--jobs only matters with --local" query MLPf_NCF_Py --jobs 2
expect_usage "--cache-dir only matters with --local" \
    query MLPf_NCF_Py --cache-dir c --port-file p
"$mlpsim" run MLPf_Res50_MX --checkpoint 30 --mttf-hours 24 \
    >out.txt 2>err.txt || {
    echo "run --checkpoint 30 --mttf-hours 24 failed"
    failed=1
}
same_stdout "query --local --jobs 1 MLPf_NCF_Py" \
    "query --local --jobs 2 MLPf_NCF_Py"

# Numbers parse strictly, whichever command reads them.
expect_usage "--gpus 4x: expected an integer" run MLPf_Res50_MX --gpus 4x
expect_usage "--seed 1.9: expected an integer" workload fuzz --seed 1.9
expect_usage "--mttf-hours 2h: expected a number" \
    run MLPf_Res50_MX --mttf-hours 2h

# A negative number is a value, not a flag: validation rejects it.
"$mlpsim" run MLPf_Res50_MX --mttf-hours -4 >/dev/null 2>err.txt
status=$?
if [ "$status" -ne 3 ] || ! grep -q "MTTF must be positive" err.txt; then
    echo "run --mttf-hours -4: exit $status, want 3 (MTTF must be positive)"
    failed=1
fi

# The usage text is generated from the table and lists every command.
"$mlpsim" >usage.txt 2>/dev/null
for cmd in list run scaling schedule characterize trace explain report \
    cache faults serve query soak workload; do
    if ! grep -q "^  mlpsim $cmd" usage.txt; then
        echo "usage lacks 'mlpsim $cmd'"
        failed=1
    fi
done

exit $failed
