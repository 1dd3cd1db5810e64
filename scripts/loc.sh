#!/bin/sh
# Code size: non-test Go lines (wc -l) per package of the root module, and
# their total. cmd/afperf, a module of its own, and testdata trees are left
# out, so the total is the root module's non-test Go.
#
#   scripts/loc.sh          # the working tree
#   scripts/loc.sh REV      # REV, the working tree and the difference
#
# The revision is extracted with `git archive` into a temporary directory
# (removed on exit; honours TMPDIR), so the repository itself is never
# touched. Packages are named by directory, "." for the root package.
set -eu
cd "$(dirname "$0")/.."

# count DIR: one "LINES PACKAGE" line per package under DIR.
count() {
    (cd "$1" && find . -name '*.go' ! -name '*_test.go' \
        ! -path './cmd/afperf/*' ! -path '*/testdata/*' -print0 |
        xargs -0 wc -l |
        awk '$2 != "total" {
            d = $2
            sub(/\/[^\/]*$/, "", d)
            sub(/^\.\/?/, "", d)
            if (d == "") d = "."
            n[d] += $1
        }
        END { for (d in n) print n[d], d }')
}

if [ $# -eq 0 ]; then
    count . | sort -k2,2 | awk '
        { printf "%8d  %s\n", $1, $2; total += $1 }
        END { printf "%8d  total\n", total }'
    exit 0
fi

REV="$1"
TMP="$(mktemp -d "${TMPDIR:-/tmp}/loc.XXXXXX")"
trap 'rm -rf "$TMP"' EXIT
mkdir "$TMP/base"
git archive "$REV" | tar -x -C "$TMP/base"
count "$TMP/base" >"$TMP/base.loc"
count . >"$TMP/work.loc"
printf "%8.8s %8s %8s  %s\n" "$REV" work diff package
awk 'FNR == NR { b[$2] = $1; next } { w[$2] = $1 }
    END {
        for (d in b) seen[d] = 1
        for (d in w) seen[d] = 1
        for (d in seen) printf "%8d %8d %+8d  %s\n", b[d], w[d], w[d] - b[d], d
    }' "$TMP/base.loc" "$TMP/work.loc" | sort -k4,4
awk 'FNR == NR { b += $1; next } { w += $1 }
    END { printf "%8d %8d %+8d  total\n", b, w, w - b }' "$TMP/base.loc" "$TMP/work.loc"
