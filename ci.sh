#!/bin/sh
# Tier-1 gate: formatting, build, vet, and the full test suite under the
# race detector (the sweep engine runs experiment points on a worker
# pool, so every run exercises the concurrent path). -count=1 defeats
# the test cache so CI always runs the suite for real. Run from the
# repository root; .github/workflows/ci.yml calls this script.
set -eux

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go build ./...
go vet ./...
# Ignored-error gate: stdlib-only checker for the curated call list whose
# dropped errors corrupt log state (full errcheck runs in the CI lint job).
go run ./cmd/errgate .
go test -race -count=1 ./...
# Every package the build covers must also have a test, so a demo or a
# command cannot rot unnoticed. Exempt: lvmbench's main, which only
# dispatches to the experiments package and bench/ (both tested), and
# lvmload, whose tests await a hermetic black-box process harness.
untested=$(go list -f '{{if not (or .TestGoFiles .XTestGoFiles)}}{{.ImportPath}}{{end}}' ./... |
    grep -vx -e '' -e lvm/cmd/lvmbench -e lvm/cmd/lvmload || true)
if [ -n "$untested" ]; then
    echo "packages without tests:" >&2
    echo "$untested" >&2
    exit 1
fi
# The benchmarks that size sweep-pass, restart-replay (one shard's, and
# the walk into each sink) and whole-restart host cost must keep
# compiling and running; one iteration, no timing claims.
go test -run '^$' -bench SweepPass -benchtime 1x ./internal/experiments
go test -run '^$' -bench RecoverImage -benchtime 1x ./internal/lvmd
go test -run '^$' -bench RunBytes -benchtime 1x ./internal/logcursor
go test -run '^$' -bench NewServerRestart -benchtime 1x ./internal/lvmd
# bench/ is a nested module the commands above never see, and it imports
# internal packages: build, vet and test it so an API break fails here,
# not in the benchmark's acceptance run.
(cd bench && go vet . && go test -count=1 .)
# bench/'s own tests sweep at reduced parameters and do not read
# bench/golden/sweep.txt; this runs `lvmbench all`'s sections at their
# default parameters and exits non-zero if any pass differs from it.
sh bench/run.sh --workload sim_sweep --seed 1 --seconds 2 --trace 0 >/dev/null
