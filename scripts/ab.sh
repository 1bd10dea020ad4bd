#!/bin/sh
# A/B benchmark in one command: the working tree (the change) against a
# base revision, in alternating pairs of runs of the benchmark that
# BENCHMARK.json declares.
#
# Usage (from the repository root):
#
#   sh scripts/ab.sh [-pairs N] [-seconds S] [-workload W] [-seed K] <rev>
#
# Defaults: 10 pairs of 10 s (BENCHMARK.json's run_seconds), every
# workload, seed 1, untraced runs (--trace 0).
#
# <rev> is checked out with `git worktree add --detach` under
# .bench_build/ab/, from local objects only, and removed on exit. Both
# sides' bench binaries are built as bench/run.sh builds them, sharing
# .bench_build/gocache; pair i runs the base first when i is odd and the
# change first when it is even. Result files and run logs go to
# .bench_build/ab/out. For each workload and end-to-end metric the script
# prints each side's median and quartiles over the pairs, the change's
# wins out of the pairs (a tie counts for neither side) and the
# two-sided sign-test p over the pairs that did not tie. It ends with one
# line starting "ab: summary", and exits non-zero if a run failed, read
# incorrect or failed an operation.
set -eu

usage() {
    echo "usage: sh scripts/ab.sh [-pairs N] [-seconds S] [-workload W] [-seed K] <rev>" >&2
    exit 2
}

pairs=10 seconds=10 workload=all seed=1
while [ $# -gt 1 ]; do
    case $1 in
    -pairs) pairs=$2 ;;
    -seconds) seconds=$2 ;;
    -workload) workload=$2 ;;
    -seed) seed=$2 ;;
    *) usage ;;
    esac
    shift 2
done
[ $# -eq 1 ] || usage
case $pairs in '' | *[!0-9]* | 0) usage ;; esac
rev=$1

root=$(pwd)
[ -f "$root/BENCHMARK.json" ] && [ -f "$root/bench/run.sh" ] || {
    echo "ab: run from the repository root" >&2
    exit 2
}
build="$root/.bench_build"
ab="$build/ab"
wt="$ab/base"
out="$ab/out"
base_sha=$(git rev-parse --short "$rev^{commit}")
change_sha=$(git rev-parse --short HEAD)
if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
    change_sha="$change_sha+dirty"
fi

cleanup() {
    git worktree remove --force "$wt" 2>/dev/null || true
    rm -rf "$wt"
    git worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT TERM

cleanup
rm -rf "$out"
mkdir -p "$out" "$build/tmp"
git worktree add --quiet --detach "$wt" "$base_sha"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C "$wt/bench" -o "$ab/bench-base" .
go build -C "$root/bench" -o "$ab/bench-change" .

run() { # run <side> <pair>
    "$ab/bench-$1" -datadir "$build/data" -outdir "$out" -out "$out/$1-$2.json" \
        -workload "$workload" -seed "$seed" -seconds "$seconds" -trace 0 >"$out/$1-$2.log" 2>&1 || {
        echo "ab: the $1 run of pair $2 failed; its log:" >&2
        cat "$out/$1-$2.log" >&2
        exit 1
    }
}

i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        first=base second=change
    else
        first=change second=base
    fi
    echo "ab: pair $i of $pairs: $first, then $second" >&2
    run "$first" "$i"
    run "$second" "$i"
    i=$((i + 1))
done

# Each result file is indented JSON (one key per line); BENCHMARK.json
# names the end-to-end metrics and the direction that is better.
for side in base change; do
    i=1
    while [ "$i" -le "$pairs" ]; do
        awk -v side="$side" -v pair="$i" '
            /"workload":/ { wl = $2; gsub(/[",]/, "", wl) }
            /"correct":/ { c = $2; gsub(/,/, "", c); print "C", side, pair, wl, c }
            /"failed":/ { f = $2; gsub(/,/, "", f); print "F", side, pair, wl, f }
            /^ *"[a-z0-9_.]+": \{$/ { m = $1; gsub(/[":]/, "", m) }
            /"value":/ { v = $2; gsub(/,/, "", v); print "M", side, pair, wl, m, v }
        ' "$out/$side-$i.json"
        i=$((i + 1))
    done
done >"$out/values.txt"

awk -v pairs="$pairs" -v base="$rev ($base_sha)" -v change="$change_sha" -v secs="$seconds" '
    FNR == NR {
        if (/"end_to_end"/) e2e = 1
        else if (e2e && /\]/) e2e = 0
        else if (e2e && /"name":/) { n = $2; gsub(/[",]/, "", n); order[++nm] = n }
        else if (e2e && /"better":/) { b = $2; gsub(/[",]/, "", b); better[n] = b }
        next
    }
    $1 == "C" && $5 != "true" { bad = bad sprintf(" %s pair %d %s read incorrect;", $2, $3, $4) }
    $1 == "F" && $5 != 0 { bad = bad sprintf(" %s pair %d %s failed %d operations;", $2, $3, $4, $5) }
    $1 == "M" && ($5 in better) {
        if (!($4 in seen)) { seen[$4] = 1; wls[++nw] = $4 }
        val[$2, $3, $4, $5] = $6
    }
    function quart(a, n, q,    pos, j) { # bench/recorder.go quartiles: cut point q of 4
        if (n == 1) return a[1]
        pos = q * (n + 1) / 4
        j = int(pos)
        if (j < 1) j = 1
        if (j > n - 1) j = n - 1
        return a[j] + (a[j + 1] - a[j]) * (pos - j)
    }
    function sorted(a, n,    i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    function signp(w, l,    n, k, j, c, s) { # two-sided binomial sign test
        n = w + l
        if (n == 0) return 1
        k = w < l ? w : l
        c = 1; s = 0
        for (j = 0; j <= k; j++) { s += c; c = c * (n - j) / (j + 1) }
        s = 2 * s / 2 ^ n
        return s > 1 ? 1 : s
    }
    END {
        printf "%-17s %-10s %-38s %-38s %8s %6s %7s\n", "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "change", "wins", "p"
        for (w = 1; w <= nw; w++) {
            wl = wls[w]
            for (m = 1; m <= nm; m++) {
                name = order[m]
                n = 0; wins = 0; losses = 0
                for (p = 1; p <= pairs; p++) {
                    if (!(("base", p, wl, name) in val) || !(("change", p, wl, name) in val)) continue
                    x = val["base", p, wl, name] + 0; y = val["change", p, wl, name] + 0
                    n++; xs[n] = x; ys[n] = y
                    if (x != y && ((better[name] == "lower") == (y < x))) wins++
                    else if (x != y) losses++
                }
                if (n == 0) continue
                sorted(xs, n); sorted(ys, n)
                mx = quart(xs, n, 2); my = quart(ys, n, 2)
                printf "%-17s %-10s %-38s %-38s %+7.1f%% %3d/%-2d %7.4f\n", wl, name,
                    sprintf("%.4f [%.4f, %.4f]", mx, quart(xs, n, 1), quart(xs, n, 3)),
                    sprintf("%.4f [%.4f, %.4f]", my, quart(ys, n, 1), quart(ys, n, 3)),
                    mx != 0 ? 100 * (my - mx) / mx : 0, wins, n, signp(wins, losses)
            }
        }
        if (bad != "") {
            printf "ab: summary: %d pairs of %s s, base %s, change %s: FAILED:%s\n", pairs, secs, base, change, bad
            exit 1
        }
        printf "ab: summary: %d pairs of %s s, base %s, change %s: every run correct, 0 failed operations\n", pairs, secs, base, change
    }
' "$root/BENCHMARK.json" "$out/values.txt"
