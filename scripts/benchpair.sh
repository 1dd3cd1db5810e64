#!/bin/sh
# Paired benchmark comparison: build a benchmark at a revision and from
# the working tree, run N pairs of the two (alternating which side runs
# first), and print per entry the working tree's wins, both medians, both
# sides' lowest and highest runs and the revision's interquartile range
# (a floor is set from the lowest run). The claim rule of EXPERIMENTS.md
# reads off the output: a gain counts when the working tree wins at least
# nine pairs in ten and its median beats the revision's by more than the
# revision's IQR.
#
#   scripts/benchpair.sh REV                          # bench.sh's figures, 10 pairs
#   scripts/benchpair.sh REV 'Fig10/4K-randwrite' 6   # one entry, 6 pairs
#   scripts/benchpair.sh REV afperf/randwrite-deep    # one afperf workload
#
# PATTERN is a `go test -bench` regexp over the root package's benchmarks
# (default: the bench.sh pattern), run with -benchtime 1x; each entry
# compares ns/op (lower is better) and, where reported, sim-wall-x (higher
# is better). PATTERN afperf/<workload> builds cmd/afperf in both trees
# with cmd/afperf/run.sh's environment and compares the workload's
# end-to-end metrics, sim_wall_x (higher is better), host_us_per_op,
# peak_rss_mb and setup_s (lower is better); AFPERF_SECONDS (default 15) is its
# -seconds. The revision is extracted with `git archive` into a temporary
# directory (removed on exit; honours TMPDIR), so the repository itself is
# never touched. Each side runs from its own root.
set -eu
cd "$(dirname "$0")/.."
REV="${1:?usage: scripts/benchpair.sh REV [PATTERN] [N]}"
PATTERN="${2:-Fig|DropIn|MixedRW|Backends|Scrub|Scenarios|ECvsRep|Ablation|KVApply|FileStoreApply|JournalSubmit|SimEventHeap|SSDSubmit|NetsimSend}"
N="${3:-10}"
WORK="$(pwd)"
TMP="$(mktemp -d "${TMPDIR:-/tmp}/benchpair.XXXXXX")"
trap 'rm -rf "$TMP"' EXIT
mkdir "$TMP/base"
git archive "$REV" | tar -x -C "$TMP/base"

case "$PATTERN" in
afperf/*)
    WORKLOAD="${PATTERN#afperf/}"
    SECONDS_ARG="${AFPERF_SECONDS:-15}"
    echo "== building cmd/afperf at $REV and from the working tree"
    for side in base work; do
        root="$TMP/base"
        [ "$side" = work ] && root="$WORK"
        (cd "$root/cmd/afperf" &&
            GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off \
                go build -o "$TMP/$side.bin" .)
    done
    # run SIDE PAIR: one afperf run; prints "SIDE PAIR NAME METRIC VALUE".
    run() {
        root="$TMP/base"
        [ "$1" = work ] && root="$WORK"
        (cd "$root" && "$TMP/$1.bin" --workload "$WORKLOAD" --seed 1 --seconds "$SECONDS_ARG" --trace 0) |
            tail -n 1 | tr ',' '\n' | sed -n \
            -e "s/.*\"sim_wall_x\":{\"value\":\([-0-9.e+]*\).*/$1 $2 $WORKLOAD sim_wall_x \1/p" \
            -e "s/.*\"host_us_per_op\":{\"value\":\([-0-9.e+]*\).*/$1 $2 $WORKLOAD host_us_per_op \1/p" \
            -e "s/.*\"peak_rss_mb\":{\"value\":\([-0-9.e+]*\).*/$1 $2 $WORKLOAD peak_rss_mb \1/p" \
            -e "s/.*\"setup_s\":{\"value\":\([-0-9.e+]*\).*/$1 $2 $WORKLOAD setup_s \1/p"
    }
    ;;
*)
    echo "== building the root test binary at $REV and from the working tree"
    (cd "$TMP/base" && go test -c -o "$TMP/base.bin" .)
    go test -c -o "$TMP/work.bin" .
    run() {
        root="$TMP/base"
        [ "$1" = work ] && root="$WORK"
        (cd "$root" && "$TMP/$1.bin" -test.run '^$' -test.bench "$PATTERN" -test.benchtime 1x -test.timeout 2h) |
            awk -v side="$1" -v pair="$2" '/^Benchmark/ {
                name = $1
                sub(/-[0-9]+$/, "", name)
                for (i = 3; i < NF; i += 2) {
                    if ($(i + 1) == "ns/op" || $(i + 1) == "sim-wall-x") {
                        print side, pair, name, $(i + 1), $i
                    }
                }
            }'
    }
    ;;
esac

: >"$TMP/runs"
i=1
while [ "$i" -le "$N" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        order="base work"
    else
        order="work base"
    fi
    for side in $order; do
        echo "== pair $i/$N: $side"
        run "$side" "$i" >>"$TMP/runs"
    done
    i=$((i + 1))
done

# Per (entry, metric): wins of the working tree, both medians and the
# median change, each side's min and max, and the revision's IQR
# (quartiles by linear interpolation).
sort -k3,3 -k4,4 -k2,2n "$TMP/runs" | awk '
function quantile(a, n, q,    h, lo) {
    h = (n - 1) * q
    lo = int(h)
    if (lo + 1 >= n) return a[n - 1]
    return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
function sorted(src, n, dst,    i, j, v) {
    for (i = 0; i < n; i++) {
        v = src[i]
        for (j = i; j > 0 && dst[j - 1] > v; j--) dst[j] = dst[j - 1]
        dst[j] = v
    }
}
function flush(    nb, nw, i, wins, ties, sb, sw, mb, mw, iqr, better) {
    if (key == "") return
    nb = nw = 0
    for (i in base) nb++
    for (i in work) nw++
    better = (metric == "sim-wall-x" || metric == "sim_wall_x") ? 1 : -1
    wins = ties = 0
    for (p in base) {
        if (!(p in work)) continue
        if (work[p] == base[p]) ties++
        else if ((work[p] - base[p]) * better > 0) wins++
    }
    split("", bv); split("", wv); split("", bs); split("", ws)
    i = 0; for (p in base) bv[i++] = base[p]
    i = 0; for (p in work) wv[i++] = work[p]
    sorted(bv, nb, bs); sorted(wv, nw, ws)
    mb = quantile(bs, nb, 0.5); mw = quantile(ws, nw, 0.5)
    iqr = quantile(bs, nb, 0.75) - quantile(bs, nb, 0.25)
    printf "%-44s %-15s wins %2d/%-2d ties %d  median %.6g -> %.6g (%+.1f%%)  min %.6g -> %.6g  max %.6g -> %.6g  base IQR %.6g\n", \
        name, metric, wins, (nb < nw ? nb : nw), ties, mb, mw, (mb != 0 ? 100 * (mw - mb) / mb : 0), \
        bs[0], ws[0], bs[nb - 1], ws[nw - 1], iqr
    split("", base); split("", work)
}
{
    k = $3 " " $4
    if (k != key) { flush(); key = k; name = $3; metric = $4 }
    if ($1 == "base") base[$2] = $5; else work[$2] = $5
}
END { flush() }'
