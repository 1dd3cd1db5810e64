#!/bin/sh
# Same-output check: build afsim and afqa at a revision and from the working
# tree, run a fixed list of commands with both, and compare each command's
# stdout (plus its exit status, when non-zero) byte for byte. Every command
# whose output differs is listed with the head of its diff.
#
#   scripts/sameout.sh          # compare the working tree against HEAD
#   scripts/sameout.sh REV      # ... against any revision git can archive
#   make same-output [REV=...]
#
# A behaviour-preserving change (refactor, deletion, simplification) should
# report no differences. The script is not part of check.sh because it
# compares two revisions rather than checking one. The revision is
# extracted with `git archive` into a temporary directory (removed on exit;
# honours TMPDIR), so the repository itself is never touched. Each side runs
# from its own root, so scenario files are read from the matching tree.
# Exit status: 0 when every output matches, 1 when any differs.
set -eu
cd "$(dirname "$0")/.."
REV="${1:-HEAD}"
WORK="$(pwd)"
TMP="$(mktemp -d "${TMPDIR:-/tmp}/sameout.XXXXXX")"
trap 'rm -rf "$TMP"' EXIT
mkdir "$TMP/base" "$TMP/bin.base" "$TMP/bin.work" "$TMP/out"

echo "== building afsim, afqa at $REV and from the working tree"
git archive "$REV" | tar -x -C "$TMP/base"
(cd "$TMP/base" && go build -o "$TMP/bin.base/" ./cmd/afsim ./cmd/afqa)
go build -o "$TMP/bin.work/" ./cmd/afsim ./cmd/afqa

{
    for profile in community afceph; do
        for backend in filestore directstore; do
            echo "afsim -profile $profile -backend $backend -runtime 0.3 -perf-dump"
        done
    done
    echo "afsim -pool ec4+2 -backend directstore -runtime 0.3 -perf-dump"
    echo "afsim -scrub-ms 50 -runtime 0.3"
    echo "afsim -trace -runtime 0.3"
    echo "afsim -sweep -runtime 0.1 -ramp 0.05"
    echo "afsim -runtime 0.6 -ramp 0.1 -fail-at 200 -recover-at 500"
    for f in examples/scenarios/*.json; do
        echo "afsim -scenario $f -perf-dump"
    done
    for profile in community afceph; do
        echo "afqa -profile $profile -seeds 3"
        echo "afqa -profile $profile -seeds 3 -thrash"
    done
    echo "afqa -backend directstore -seeds 3"
} >"$TMP/commands"

# run SIDE ROOT OUT CMD...: run one command from ROOT with SIDE's binaries,
# stdout to OUT, with a trailing "exit N" line when it fails.
run() {
    side=$1 root=$2 out=$3
    shift 3
    bin=$1
    shift
    status=0
    (cd "$root" && "$TMP/bin.$side/$bin" "$@") >"$out" 2>/dev/null </dev/null || status=$?
    if [ "$status" -ne 0 ]; then
        echo "exit $status" >>"$out"
    fi
}

set -f # command lines are split on spaces, never globbed
n=0
differ=0
while IFS= read -r cmd; do
    n=$((n + 1))
    # shellcheck disable=SC2086 # intentional word splitting
    run base "$TMP/base" "$TMP/out/$n.base" $cmd
    # shellcheck disable=SC2086
    run work "$WORK" "$TMP/out/$n.work" $cmd
    if cmp -s "$TMP/out/$n.base" "$TMP/out/$n.work"; then
        echo "same     $cmd"
    else
        echo "DIFFERS  $cmd"
        diff "$TMP/out/$n.base" "$TMP/out/$n.work" | head -n 20 | sed 's/^/    /'
        differ=$((differ + 1))
    fi
done <"$TMP/commands"

if [ "$differ" -ne 0 ]; then
    echo "same-output: $differ of $n commands differ from $REV"
    exit 1
fi
echo "same-output: all $n commands match $REV"
