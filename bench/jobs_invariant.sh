#!/bin/sh
# jobs_invariant.sh <paper_claims> <work dir>
#
# Runs paper_claims --quick at --jobs=1 and at --jobs=4. Both must print
# the same stdout once the progress lines are dropped (the trace-collection
# lines and the [runner] summary, whose order and timings vary), and their
# --json directories must hold byte-identical files.
set -eu
bin=$1
work=$2
for jobs in 1 4; do
  rm -rf "$work/jobs$jobs"
  mkdir -p "$work/jobs$jobs"
  (cd "$work/jobs$jobs" && "$bin" --quick --jobs="$jobs" --json=.) \
    > "$work/jobs$jobs.raw"
  grep -v -e '^  \[runner\] ' -e ' \[[0-9]*/[0-9]*, [0-9.]*s\]$' \
    "$work/jobs$jobs.raw" > "$work/jobs$jobs.out"
done
diff "$work/jobs1.out" "$work/jobs4.out"
diff -r "$work/jobs1" "$work/jobs4"
