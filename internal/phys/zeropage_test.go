package phys_test

import (
	"testing"

	"lvm/internal/experiments"
	"lvm/internal/phys"
)

// TestZeroPageSurvivesSweep runs the paper's experiments at TestSweepGolden's
// reduced parameters — loads, deferred-copy resets, bcopy, logging, on the
// sim worker pool — and then checks that nothing wrote through the
// page every never-written frame shares.
func TestZeroPageSurvivesSweep(t *testing.T) {
	experiments.Table2()
	if _, err := experiments.Table3(32); err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.Fig7(20); err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.Fig9(); err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.Fig10(100); err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.Fig11(experiments.Fig11ComputeSweep(9), 100); err != nil {
		t.Fatal(err)
	}
	grain := []uint64{0, 10, 25, 50, 100, 200, 400, 800}
	experiments.LoggerModels(grain, 100)
	if _, err := experiments.FullStackOnChip(grain, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.CheckpointStyles(64, []int{1, 2, 4, 8, 16, 32, 64}); err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.ParallelSim(4, 400, true); err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.OODB(nil, 4); err != nil {
		t.Fatal(err)
	}
	if !phys.ZeroPageIsZero() {
		t.Fatal("the shared zero page was written")
	}
}
