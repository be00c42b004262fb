#!/usr/bin/env bash
# Golden-file test for asfsim_lint: every *_flag.cpp fixture must produce
# exactly its seeded diagnostics (right rule, right count, nonzero exit);
# every *_pass.cpp fixture must come back clean. Model-consistency rules
# are exercised on fixture *directories* (tests/lint_fixtures/model/*):
# each *_flag dir must yield exactly one finding of its rule, each *_pass
# dir must come back clean.
#
# usage: check_lint_fixtures.sh <asfsim_lint-binary> <fixtures-dir>
set -u

LINT=${1:?usage: check_lint_fixtures.sh <asfsim_lint-binary> <fixtures-dir>}
DIR=${2:?usage: check_lint_fixtures.sh <asfsim_lint-binary> <fixtures-dir>}

rule_of() {
  case "$(basename "$1")" in
    r1_*) echo "coawait-in-condition" ;;
    r2_*) echo "discarded-task" ;;
    r3_*) echo "global-alloc-in-tx" ;;
    r4_*) echo "raw-guest-access" ;;
    r5_*) echo "nondeterministic-source" ;;
    r6_*) echo "unordered-iteration" ;;
    *)    echo "" ;;
  esac
}

expected_count() {
  # Seeded violation counts, declared in each fixture's header comment.
  case "$(basename "$1")" in
    r1_flag.cpp) echo 3 ;;
    r2_flag.cpp) echo 2 ;;
    r3_flag.cpp) echo 2 ;;
    r4_flag.cpp) echo 3 ;;
    r5_flag.cpp) echo 3 ;;
    r6_flag.cpp) echo 3 ;;
    *)           echo 1 ;;
  esac
}

# Cross-TU model rules are keyed off directory names under model/.
model_rule_of() {
  case "$(basename "$1")" in
    stats_*) echo "stats-blob-completeness" ;;
    *)       echo "" ;;
  esac
}

fail=0

for f in $(find "$DIR" -name '*_flag.cpp' | sort); do
  out=$("$LINT" "$f" 2>/dev/null)
  rc=$?
  rule=$(rule_of "$f")
  want=$(expected_count "$f")
  got=$(printf '%s\n' "$out" | grep -c ": ${rule}: ")
  total=$(printf '%s\n' "$out" | grep -c ":[0-9]*: [a-z-]*: ")
  if [ "$rc" -eq 0 ]; then
    echo "FAIL: $f: expected nonzero exit, got 0"; fail=1
  elif [ "$got" -ne "$want" ]; then
    echo "FAIL: $f: expected $want '$rule' findings, got $got:"; fail=1
    printf '%s\n' "$out"
  elif [ "$total" -ne "$want" ]; then
    echo "FAIL: $f: unexpected extra findings beyond the $want seeded:"; fail=1
    printf '%s\n' "$out"
  else
    echo "ok:   $f ($want x $rule)"
  fi
done

for f in $(find "$DIR" -name '*_pass.cpp' | sort); do
  out=$("$LINT" "$f" 2>/dev/null)
  rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "FAIL: $f: expected clean run, exit $rc:"; fail=1
    printf '%s\n' "$out"
  else
    echo "ok:   $f (clean)"
  fi
done

# Model-consistency fixture directories: whole-dir lint so the cross-TU
# passes see the config header and the serializer together.
if [ -d "$DIR/model" ]; then
  for d in $(find "$DIR/model" -mindepth 1 -maxdepth 1 -type d -name '*_flag' | sort); do
    out=$("$LINT" "$d" 2>/dev/null)
    rc=$?
    rule=$(model_rule_of "$d")
    got=$(printf '%s\n' "$out" | grep -c ": ${rule}: ")
    total=$(printf '%s\n' "$out" | grep -c ":[0-9]*: [a-z-]*: ")
    if [ "$rc" -eq 0 ]; then
      echo "FAIL: $d: expected nonzero exit, got 0"; fail=1
    elif [ "$got" -ne 1 ] || [ "$total" -ne 1 ]; then
      echo "FAIL: $d: expected exactly 1 '$rule' finding, got $got ($total total):"; fail=1
      printf '%s\n' "$out"
    else
      echo "ok:   $d (1 x $rule)"
    fi
  done
  for d in $(find "$DIR/model" -mindepth 1 -maxdepth 1 -type d -name '*_pass' | sort); do
    out=$("$LINT" "$d" 2>/dev/null)
    rc=$?
    if [ "$rc" -ne 0 ]; then
      echo "FAIL: $d: expected clean run, exit $rc:"; fail=1
      printf '%s\n' "$out"
    else
      echo "ok:   $d (clean)"
    fi
  done
fi

# --fix-hints must print a hoisting rewrite for R1.
hint=$("$LINT" --fix-hints "$DIR/r1_flag.cpp" 2>/dev/null | grep -c "fix: hoist")
if [ "$hint" -lt 1 ]; then
  echo "FAIL: --fix-hints printed no hoisting rewrite for r1_flag.cpp"; fail=1
else
  echo "ok:   --fix-hints prints hoisting rewrites"
fi

exit $fail
