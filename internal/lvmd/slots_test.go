package lvmd

import (
	"encoding/binary"
	"errors"
	"maps"
	"testing"

	"lvm/internal/ramdisk"
)

// bareSlotCore is the part of a ShardCore that rebuildSlots fills.
func bareSlotCore(cfg CoreConfig) *ShardCore {
	return &ShardCore{cfg: cfg, slots: make(map[uint64]uint32)}
}

// FuzzSlotDirectory checks the slot-directory rebuild a restart runs
// (rebuildSlots) two ways over each input.
//
// As raw directory bytes, the input must never panic the rebuild. The
// rebuild must refuse the directory exactly when one of its entries
// (those before the first zero entry) has a reserved flag bit set;
// otherwise nextSlot and every slot it maps stay inside the directory.
//
// As a program, each byte opens segment (byte mod 16) + 1 on a live
// core, so the only error allowed is a full directory. Rebuilding a
// fresh core from the live core's directory bytes must restore its slots
// and its nextSlot.
func FuzzSlotDirectory(f *testing.F) {
	f.Add([]byte{})
	// Open three segments.
	f.Add([]byte{0, 1, 2})
	// Reopen segments that already have a slot.
	f.Add([]byte{0, 1, 2, 1, 0, 16})
	// More segments than slots: the last opens find the directory full.
	full := make([]byte, 12)
	for i := range full {
		full[i] = byte(i)
	}
	f.Add(full)
	// Raw flag bits (the pinned refusal): an entry with the top bit set,
	// one with the bit below it, then a hole.
	f.Add([]byte{5, 0, 0, 0, 0, 0, 0, 0x80, 6, 0, 0, 0, 0, 0, 0, 0x40, 0, 0, 0, 0, 0, 0, 0, 0, 7})

	dirEnd := MarkerLimit + uint32(smallCore.Slots)*dirEntryBytes
	f.Fuzz(func(t *testing.T, data []byte) {
		img := make([]byte, dirEnd)
		copy(img[MarkerLimit:], data)
		flagged := false
		for off := MarkerLimit; off < dirEnd; off += dirEntryBytes {
			e := binary.LittleEndian.Uint64(img[off:])
			if e == 0 {
				break
			}
			flagged = flagged || e&dirFlagMask != 0
		}
		raw := bareSlotCore(smallCore)
		err := raw.rebuildSlots(img)
		if flagged != (err != nil) {
			t.Fatalf("directory with flag bits=%v: rebuild error %v", flagged, err)
		}
		if int(raw.nextSlot) > smallCore.Slots {
			t.Fatalf("nextSlot %d past a %d-slot directory", raw.nextSlot, smallCore.Slots)
		}
		for id, slot := range raw.slots {
			if slot >= raw.nextSlot {
				t.Fatalf("segment %#x mapped to slot %d, nextSlot %d", id, slot, raw.nextSlot)
			}
		}

		// Each open logs three words; 32 of them stay well inside the log.
		if len(data) > 32 {
			data = data[:32]
		}
		cfg := smallCore
		cfg.Disk = ramdisk.New()
		live, err := NewCore(cfg, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range data {
			if _, _, err := live.Open(uint64(b&15) + 1); err != nil && !errors.Is(err, ErrNoSlot) {
				t.Fatalf("open %d: %v", b&15+1, err)
			}
		}

		img = make([]byte, dirEnd)
		live.Arena.ReadInto(0, img)
		got := bareSlotCore(smallCore)
		if err := got.rebuildSlots(img); err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(got.slots, live.slots) || got.nextSlot != live.nextSlot {
			t.Fatalf("rebuilt slots=%v next=%d, live slots=%v next=%d",
				got.slots, got.nextSlot, live.slots, live.nextSlot)
		}
	})
}
