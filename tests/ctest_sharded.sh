#!/usr/bin/env bash
# Runs a build tree's ctest suite with its slowest test binaries split into
# googletest shards that run in parallel with the rest of the suite.
#
#   tests/ctest_sharded.sh BUILD_DIR SHARDS BINARY...
#
# Each BINARY (a ctest test of the same name, built in BUILD_DIR) is left
# out of the ctest run and launched instead as SHARDS background processes
# under GTEST_TOTAL_SHARDS / GTEST_SHARD_INDEX, while ctest runs the rest.
# The script then waits for every shard and exits non-zero if ctest or any
# shard failed, or if a binary's shards together did not run exactly the
# tests that `BINARY --gtest_list_tests` lists (each once). It prints the
# listed count and every shard's run count per binary.
set -u

if [ $# -lt 3 ]; then
  echo "usage: $0 BUILD_DIR SHARDS BINARY..." >&2
  exit 2
fi
build=$1
shards=$2
shift 2

logs=$(mktemp -d)
pids=()
labels=()
for bin in "$@"; do
  for ((i = 0; i < shards; ++i)); do
    GTEST_TOTAL_SHARDS=$shards GTEST_SHARD_INDEX=$i \
      "$build/$bin" > "$logs/$bin.$i.log" 2>&1 &
    pids+=($!)
    labels+=("$bin.$i")
  done
done

exclude="^($(IFS='|'; echo "$*"))\$"
ctest --test-dir "$build" --output-on-failure -j"$(nproc)" -E "$exclude"
status=$?

for k in "${!pids[@]}"; do
  if ! wait "${pids[$k]}"; then
    echo "FAILED: shard ${labels[$k]} (log follows)"
    cat "$logs/${labels[$k]}.log"
    status=1
  fi
done

for bin in "$@"; do
  # --gtest_list_tests prints "Suite." lines, then "  Test" lines (with an
  # optional "  # GetParam() = ..." comment).
  "$build/$bin" --gtest_list_tests |
    awk '/^[^ ]/ { suite = $1 } /^  / { print suite $1 }' |
    sort > "$logs/$bin.listed"
  sed -n 's/^\[ RUN      \] //p' "$logs/$bin".*.log | sort > "$logs/$bin.ran"
  counts=""
  for ((i = 0; i < shards; ++i)); do
    counts+=" $(grep -c '^\[ RUN      \] ' "$logs/$bin.$i.log")"
  done
  echo "$bin: $(wc -l < "$logs/$bin.listed") tests listed;" \
       "shard run counts:$counts"
  if ! cmp -s "$logs/$bin.listed" "$logs/$bin.ran"; then
    echo "FAILED: $bin shards did not run exactly the listed tests"
    diff "$logs/$bin.listed" "$logs/$bin.ran" | head -20
    status=1
  fi
done

rm -rf "$logs"
exit $status
