#!/usr/bin/env bash
# Command-line contract of the three tools that take knob flags:
#   - `--help` exits 0 and lists exactly the flags each tool accepts (the
#     lists below are the flag sets the tools have always accepted);
#   - a bad value exits 2 with "<tool>: bad value '<v>' for <flag> (...)";
#   - a flag another tool owns is still unknown here.
#
# usage: check_cli.sh <bench-binary> <asfsim_explore> <asfsim_chaos>
set -u

BENCH=${1:?usage: check_cli.sh <bench-binary> <asfsim_explore> <asfsim_chaos>}
EXPLORE=${2:?usage: check_cli.sh <bench-binary> <asfsim_explore> <asfsim_chaos>}
CHAOS=${3:?usage: check_cli.sh <bench-binary> <asfsim_explore> <asfsim_chaos>}

KNOBS="--scale --threads --seed --fault-spurious --fault-commit --fault-evict
  --fault-probe-jitter --fault-sched-jitter --mutate --watchdog
  --oltp-records --oltp-payload --oltp-tx-len --oltp-tx --oltp-theta
  --oltp-read-ratio --oltp-rmw-ratio --oltp-scan-ratio --oltp-scan-len
  --oltp-hot-window --oltp-mix --prov --cm-policy --cm-max-retries
  --cm-karma --cm-stats"
WANT_BENCH="$KNOBS --csv --jobs --no-cache --trace-dir --trace-format
  --job-timeout"
WANT_EXPLORE="$KNOBS --workload --detector --nsub --ats --trace --list"
WANT_MATRIX="--seeds --ntx --audit --verbose"
WANT_CELL="--mutate --detector --nsub --seed --ntx --audit --cm-policy
  --cm-max-retries --cm-karma --max-tx-retries --ncells"
WANT_LIVELOCK="--runner --serialize"

fail=0
sorted() { tr ' ' '\n' | grep . | sort | tr '\n' ' '; }

# check_flags <name> <wanted flags> <help text>
check_flags() {
  local want got
  want=$(echo $2 | sorted)
  got=$(printf '%s\n' "$3" | grep -oE '^  --[a-z0-9-]+' | sed 's/^  //' | sorted)
  if [ "$want" != "$got" ]; then
    echo "FAIL: $1 --help lists: $got"
    echo "      expected:       $want"; fail=1
  else
    echo "ok:   $1 flags ($(echo $got | wc -w))"
  fi
}

# help_of <cmd...>: stdout of --help; fails unless the exit code is 0.
help_of() {
  local out rc
  out=$("$@" --help 2>&1); rc=$?
  if [ "$rc" -ne 0 ]; then echo "FAIL: $* --help exited $rc" >&2; fail=1; fi
  printf '%s\n' "$out"
}

section() { printf '%s\n' "$2" | awk -v s="$1 flags:" '$0 == s {on=1; next} /^[a-z]+ flags:$/ {on=0} on'; }

check_flags "$(basename "$BENCH")" "$WANT_BENCH" "$(help_of "$BENCH")"
check_flags asfsim_explore "$WANT_EXPLORE" "$(help_of "$EXPLORE")"
chaos_help=$(help_of "$CHAOS")
check_flags "asfsim_chaos matrix" "$WANT_MATRIX" "$(section matrix "$chaos_help")"
check_flags "asfsim_chaos cell" "$WANT_CELL" "$(section cell "$chaos_help")"
check_flags "asfsim_chaos livelock" "$WANT_LIVELOCK" "$(section livelock "$chaos_help")"

# expect_exit2 <stderr pattern> <cmd...>
expect_exit2() {
  local pattern=$1 out rc
  shift
  out=$("$@" 2>&1 >/dev/null); rc=$?
  if [ "$rc" -ne 2 ] || ! printf '%s\n' "$out" | grep -qE -- "$pattern"; then
    echo "FAIL: $* -> exit $rc: $out"; fail=1
  else
    echo "ok:   $(basename "$1") ${*:2} -> exit 2"
  fi
}

for tool in "$BENCH" "$EXPLORE"; do
  name=$(basename "$tool")
  expect_exit2 "^$name: bad value '-1' for --threads \(an integer in \[1, 1024\]\)$" "$tool" --threads -1
  expect_exit2 "^$name: bad value 'abc' for --oltp-theta \(a number in \[0, 4\]\)$" "$tool" --oltp-theta abc
  expect_exit2 "^$name: bad value 'banana' for --scale \(a number >= 0\)$" "$tool" --scale banana
  expect_exit2 "^$name: bad value '1.5' for --fault-evict " "$tool" --fault-evict 1.5
  expect_exit2 "^$name: bad value 'bogus' for --mutate \(one of: none, drop-dirty-subblock, .*serialize-skips-validation\)$" "$tool" --mutate bogus
  expect_exit2 "^$name: missing value for --watchdog$" "$tool" --watchdog
done
expect_exit2 "unknown flag --detector" "$BENCH" --detector subblock
expect_exit2 "unknown flag --ats" "$BENCH" --ats
expect_exit2 "unknown flag --trace-dir" "$EXPLORE" --trace-dir x
expect_exit2 "unknown flag --job-timeout" "$EXPLORE" --job-timeout 5
expect_exit2 "^asfsim_chaos: bad value '99999999999' for --max-tx-retries \(an integer in \[0, 2147483647\]\)$" "$CHAOS" cell --max-tx-retries 99999999999
expect_exit2 "^asfsim_chaos: bad value '-3' for --ntx " "$CHAOS" cell --ntx -3
expect_exit2 "^asfsim_chaos: bad value '0' for --ncells " "$CHAOS" cell --ncells 0
expect_exit2 "^asfsim_chaos: bad value '1,x' for --seeds " "$CHAOS" matrix --seeds 1,x
expect_exit2 "^asfsim_chaos: bad value 'x' for --audit " "$CHAOS" matrix --audit x
expect_exit2 "^asfsim_chaos: bad value 'bogus' for --cm-policy " "$CHAOS" cell --cm-policy bogus
expect_exit2 "unknown flag --cm-stats" "$CHAOS" cell --cm-stats
expect_exit2 "usage: asfsim_chaos" "$CHAOS" frobnicate

exit $fail
