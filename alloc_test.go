package lvm_test

import (
	"runtime"
	"testing"

	"lvm/internal/core"
	"lvm/internal/experiments"
)

// TestLoggedStoreZeroAlloc pins the simulated store path at zero host
// allocations per logged store once the workload is warm: the hardware
// FIFO rings have grown to the loop's high water, the log reader decodes
// into a scratch buffer, and every frame the loop touches is already
// resident and written. A
// regression here silently caps simulator throughput, so it fails the
// build rather than just showing up in -benchmem output.
func TestLoggedStoreZeroAlloc(t *testing.T) {
	sl, err := experiments.NewStoreLoop()
	if err != nil {
		t.Fatal(err)
	}
	if err := sl.Warm(); err != nil {
		t.Fatal(err)
	}
	// 20000 steps cover five truncate periods, so the measurement
	// includes the log-wrap path, not just the straight-line store.
	if avg := testing.AllocsPerRun(20000, sl.Step); avg != 0 {
		t.Fatalf("logged store allocates: %v allocs/op (want 0)", avg)
	}
	if err := sl.Err(); err != nil {
		t.Fatal(err)
	}
}

// allocatedFrames counts the frames sys's physical memory has handed out
// and not taken back, as its metrics snapshot reports them.
func allocatedFrames(sys *core.System) int {
	return int(sys.MetricsSnapshot().Counters["phys.frames_allocated"])
}

// allocatedBy reports the host bytes f allocates (TotalAlloc only grows,
// so a collection in the middle does not disturb the reading).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestNewSystemAllocBudget pins construction at "costs what it touches":
// every point of every sweep boots a fresh machine, so a table sized for
// the modelled capacity (the 32 K-entry PMT, a frame table for 64 MiB, a
// trace ring nobody enabled, the 819-entry FIFO) is paid hundreds of
// times per pass. Booting any of the three machine kinds stays under
// 32 KiB (it was 680 KiB, then 40 KiB), and a machine that has logged to
// 8 pages has grown by about those pages.
func TestNewSystemAllocBudget(t *testing.T) {
	const budget = 32 << 10
	kinds := []struct {
		name string
		boot func(core.Config) *core.System
	}{
		{"NewSystem", core.NewSystem},
		{"NewSystemOnChip", core.NewSystemOnChip},
		{"NewSystemNoLogger", core.NewSystemNoLogger},
	}
	for _, k := range kinds {
		var sys *core.System
		got := allocatedBy(func() { sys = k.boot(core.Config{}) })
		if got > budget {
			t.Errorf("%s allocates %d B, budget %d", k.name, got, budget)
		}
		t.Logf("%s: %d B", k.name, got)
		runtime.KeepAlive(sys)
	}

	// One logged store to each of 8 pages: the machine may grow by 4 KiB
	// per frame it now holds (data pages, the log's first page, whatever
	// the kernel keeps), the bookkeeping fitting in the boot budget's slack.
	const pages = 8
	var sys *core.System
	got := allocatedBy(func() {
		sys = core.NewSystem(core.Config{})
		seg := core.NewStdSegment(sys, pages*core.PageSize, nil)
		reg := core.NewStdRegion(sys, seg)
		if err := reg.Log(core.NewLogSegment(sys, 4)); err != nil {
			t.Fatal(err)
		}
		as := sys.NewAddressSpace()
		base, err := reg.Bind(as, 0)
		if err != nil {
			t.Fatal(err)
		}
		p := sys.NewProcess(0, as)
		for i := 0; i < pages; i++ {
			p.Store32(base+core.Addr(i*core.PageSize), uint32(i))
		}
		sys.Sync()
	})
	frames := allocatedFrames(sys)
	if frames < pages {
		t.Fatalf("%d frames allocated after touching %d pages", frames, pages)
	}
	if limit := uint64(budget + frames*core.PageSize); got > limit {
		t.Errorf("machine with %d touched frames allocates %d B, budget %d", frames, got, limit)
	}
	t.Logf("boot + %d touched frames: %d B", frames, got)
}

// TestReadOnlyPagesAllocBudget pins demand-zero pages: a page a run only
// reads is a frame number on phys's shared zero page, not 4 KiB of host
// heap. Loading one word from each of 64 fresh pages of a bound region
// costs their frame bookkeeping (it cost 271 192 B when every resident
// frame had its own storage).
func TestReadOnlyPagesAllocBudget(t *testing.T) {
	const pages, budget = 64, 16 << 10
	sys := core.NewSystem(core.Config{})
	seg := core.NewStdSegment(sys, pages*core.PageSize, nil)
	reg := core.NewStdRegion(sys, seg)
	as := sys.NewAddressSpace()
	p := sys.NewProcess(0, as)
	base, err := reg.Bind(as, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint32
	got := allocatedBy(func() {
		for i := 0; i < pages; i++ {
			sum += p.Load32(base + core.Addr(i*core.PageSize))
		}
	})
	if sum != 0 {
		t.Fatalf("fresh pages read %#x, want zeroes", sum)
	}
	if frames := allocatedFrames(sys); frames < pages {
		t.Fatalf("%d frames allocated after loading from %d pages", frames, pages)
	}
	if got > budget {
		t.Errorf("loading from %d fresh pages allocates %d B, budget %d", pages, got, budget)
	}
	t.Logf("load from %d fresh pages: %d B", pages, got)
}
