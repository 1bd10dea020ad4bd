package logship

import (
	"testing"

	"lvm/internal/wire"
)

// TestPhysRange pins the 64-bit catch-up offset math. The old code
// computed uint32(seq) * logrec.Size, which silently wraps for any
// sequence at or past 2^28 (offset 2^32); with a compaction base the
// physical offset is small even when sequences are huge, and out-of-range
// cursors must be explicit errors, never wrapped offsets.
func TestPhysRange(t *testing.T) {
	const big = uint64(1) << 28 // uint32(big)*16 == 0: the old overflow
	cases := []struct {
		start, end, base uint64
		logSize          uint32
		lo, hi           uint32
		wantErr          bool
		scenario         string
	}{
		{0, 4, 0, 256, 0, 64, false, "uncompacted log"},
		{big + 2, big + 4, big, 256, 32, 64, false, "huge seqs, small offsets past 2^28"},
		{big, big + 16, big - 16, 512, 256, 512, false, "boundary seq lands mid-log"},
		{10, 20, 16, 4096, 0, 0, true, "cursor predates the compaction cut"},
		{20, 10, 0, 4096, 0, 0, true, "inverted range"},
		{0, 300, 0, 4096, 0, 0, true, "range past the log end"},
	}
	for _, c := range cases {
		lo, hi, err := physRange(c.start, c.end, c.base, c.logSize)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, wantErr %v", c.scenario, err, c.wantErr)
			continue
		}
		if err == nil && (lo != c.lo || hi != c.hi) {
			t.Errorf("%s: range = [%d,%d), want [%d,%d)", c.scenario, lo, hi, c.lo, c.hi)
		}
	}
}

func TestNegotiateStart(t *testing.T) {
	cases := []struct {
		h        wire.Hello
		epoch    uint32
		seq      uint64
		want     uint64
		scenario string
	}{
		{wire.Hello{LastSeq: 0, Epoch: 0}, 1, 100, 0, "fresh replica"},
		{wire.Hello{LastSeq: 40, Epoch: 1}, 1, 100, 40, "clean reconnect"},
		{wire.Hello{LastSeq: 40, Epoch: 1}, 2, 100, 0, "stale epoch forces resync"},
		{wire.Hello{LastSeq: 200, Epoch: 1}, 1, 100, 0, "implausible claim forces resync"},
	}
	for _, c := range cases {
		if got := negotiateStart(c.h, c.epoch, c.seq); got != c.want {
			t.Errorf("%s: start = %d, want %d", c.scenario, got, c.want)
		}
	}
}
