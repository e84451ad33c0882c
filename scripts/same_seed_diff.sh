#!/usr/bin/env bash
# Same-seed behaviour check: builds lds_stress and the deterministic paper
# benches twice — at BASE_REF (in a temporary git worktree outside the repo)
# and from the working tree — runs both builds on the same seeds, and diffs
# their stdout.  Any difference means the change altered behaviour.
#
#   scripts/same_seed_diff.sh            # working tree vs HEAD
#   scripts/same_seed_diff.sh main       # working tree vs main
#   JOBS=2 scripts/same_seed_diff.sh <sha>
#
# Runs, per build:
#   lds_stress --seed 42 --ops 2000 --crash-rate 0.05 --repair-rate 0.5
#     --backend {lds,abd,cas,store}
#   every bench/bench_* binary except the wall-clock ones (bench_codec,
#   bench_codes_micro, bench_storage_engine), with no arguments.
#
# Exit status: 0 = byte-identical stdout everywhere, 1 = some output
# differs (the diffs are printed), 2 = a build or setup step failed.
set -uo pipefail

BASE_REF="${1:-HEAD}"
JOBS="${JOBS:-$(nproc)}"
REPO="$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)" || exit 2
BASE_SHA="$(git -C "$REPO" rev-parse --verify "$BASE_REF^{commit}")" || {
  echo "same_seed_diff: unknown ref $BASE_REF" >&2
  exit 2
}

WORK="$(mktemp -d "${TMPDIR:-/tmp}/same_seed_diff.XXXXXX")"
cleanup() {
  git -C "$REPO" worktree remove --force "$WORK/base-src" >/dev/null 2>&1
  rm -rf "$WORK"
}
trap cleanup EXIT

WALL_CLOCK="bench_codec bench_codes_micro bench_storage_engine"
BENCHES=()
for src in "$REPO"/bench/bench_*.cpp; do
  name="$(basename "$src" .cpp)"
  case " $WALL_CLOCK " in *" $name "*) continue ;; esac
  BENCHES+=("$name")
done
BACKENDS=(lds abd cas store)

# build <source dir> <build dir>
build() {
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DLDS_BUILD_TESTS=OFF -DLDS_BUILD_EXAMPLES=OFF >"$2.log" 2>&1 &&
    cmake --build "$2" -j "$JOBS" --target lds_stress "${BENCHES[@]}" \
      >>"$2.log" 2>&1 || {
    echo "same_seed_diff: build of $1 failed (log: $2.log)" >&2
    tail -20 "$2.log" >&2
    return 1
  }
}

# run <build dir> <output dir>: stdout of every run, plus its exit status.
run() {
  mkdir -p "$2"
  for b in "${BACKENDS[@]}"; do
    (cd "$2" && "$1/lds_stress" --seed 42 --ops 2000 --crash-rate 0.05 \
      --repair-rate 0.5 --backend "$b" >"stress_$b.txt" 2>/dev/null
     echo "exit $?" >>"stress_$b.txt")
  done
  for bench in "${BENCHES[@]}"; do
    (cd "$2" && "$1/$bench" >"$bench.txt" 2>/dev/null
     echo "exit $?" >>"$bench.txt")
  done
}

echo "same_seed_diff: base $BASE_REF ($BASE_SHA) vs working tree"
git -C "$REPO" worktree add --detach "$WORK/base-src" "$BASE_SHA" \
  >/dev/null 2>&1 || {
  echo "same_seed_diff: git worktree add failed" >&2
  exit 2
}
build "$WORK/base-src" "$WORK/base-build" || exit 2
build "$REPO" "$WORK/work-build" || exit 2
run "$WORK/base-build" "$WORK/base-out"
run "$WORK/work-build" "$WORK/work-out"

status=0
for f in "$WORK"/base-out/*.txt; do
  name="$(basename "$f")"
  if diff -u --label "base/$name" --label "work/$name" \
    "$f" "$WORK/work-out/$name"; then
    echo "same  ${name%.txt}"
  else
    echo "DIFF  ${name%.txt}"
    status=1
  fi
done
if [ "$status" -eq 0 ]; then
  echo "same_seed_diff: all ${#BACKENDS[@]} stress runs and ${#BENCHES[@]} bench tables byte-identical"
else
  echo "same_seed_diff: output differs from $BASE_REF" >&2
fi
exit "$status"
