#!/bin/sh
# Tier-1 gate: build, vet, and the full test suite under the race
# detector (the sweep engine runs experiment points on a worker pool, so
# every run exercises the concurrent path). -count=1 defeats the test
# cache so CI always runs the suite for real. gofmt, the ignored-error
# check and the untested-package rule are root tests (TestGofmt,
# TestNoDroppedErrors, TestEveryPackageTested in gate_test.go), so
# `go test ./...` runs them. Run from the repository root;
# .github/workflows/ci.yml calls this script.
set -eux

go build ./...
# vet stays here: its analyzers ship only inside the go command, so a
# root test could only shell out to `go vet ./...` and add its 1.5 s
# (warm, 2 cores) to every tier-1 run.
go vet ./...
go test -race -count=1 ./...
# The benchmarks that size sweep-pass, restart-replay (one shard's, and
# the walk into each sink), whole-restart and commit-fence host cost
# must keep compiling and running; one iteration, no timing claims. `go test`
# compiles them but runs none; a test could drive one only through
# testing.Benchmark, which runs it for a second, not one iteration.
go test -run '^$' -bench SweepPass -benchtime 1x ./internal/experiments
go test -run '^$' -bench RecoverImage -benchtime 1x ./internal/lvmd
go test -run '^$' -bench RunBytes -benchtime 1x ./internal/logcursor
go test -run '^$' -bench NewServerRestart -benchtime 1x ./internal/lvmd
go test -run '^$' -bench CoreCommitSync -benchtime 1x ./internal/lvmd
# bench/ is a nested module the commands above never see, and it imports
# internal packages: build, vet and test it so an API break fails here,
# not in the benchmark's acceptance run. Root tests type-check bench/'s
# source, but its tests run only from inside its module, and they take
# 5.4 s, half of tier-1's wall time again.
(cd bench && go vet . && go test -count=1 .)
# scripts/ab.sh, the one-command A/B of the working tree against a
# revision, must keep working: one 1-second pair of sim_store against
# HEAD, which must end in the script's summary line.
ab=$(sh scripts/ab.sh -pairs 1 -seconds 1 -workload sim_store HEAD)
echo "$ab"
echo "$ab" | grep -q '^ab: summary: .*every run correct'
# bench/'s own tests sweep at reduced parameters and do not read
# bench/golden/sweep.txt; this runs `lvmbench all`'s sections at their
# default parameters and exits non-zero if any pass differs from it. At
# 17 s it takes longer than all of `go test ./...`, so tier-1 carries
# only the reduced-parameter TestSweepGolden.
sh bench/run.sh --workload sim_sweep --seed 1 --seconds 2 --trace 0 >/dev/null
