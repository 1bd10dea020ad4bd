package lvmd

import (
	"errors"
	"maps"
	"testing"

	"lvm/internal/ramdisk"
)

// bareSlotCore is the part of a ShardCore that rebuildSlots fills.
func bareSlotCore(cfg CoreConfig) *ShardCore {
	return &ShardCore{
		cfg:       cfg,
		slots:     make(map[uint64]uint32),
		moved:     make(map[uint64]uint32),
		receiving: make(map[uint64]bool),
	}
}

// FuzzSlotDirectory checks the slot-directory rebuild a restart runs
// (rebuildSlots) two ways over each input.
//
// As raw directory bytes, the input must never panic the rebuild, and
// nextSlot and every slot it maps must stay inside the directory.
//
// As a program, each byte is one directory operation on a live core:
// the top two bits pick Open, ImportImage (a receiving entry), Tombstone
// (a moved entry) or Activate, and the low four bits pick segment 1–16.
// An operation the segment's state forbids is skipped, so the only error
// allowed is a full directory. Rebuilding a fresh core from the live
// core's directory bytes must restore its slots, moved and receiving
// maps and its nextSlot.
func FuzzSlotDirectory(f *testing.F) {
	const (
		opOpen = iota
		opImport
		opTombstone
		opActivate
	)
	op := func(kind, seg byte) byte { return kind<<6 | (seg - 1) }
	f.Add([]byte{})
	// Open three and migrate the last away: its tombstone still holds
	// the top slot.
	f.Add([]byte{op(opOpen, 1), op(opOpen, 2), op(opOpen, 3), op(opTombstone, 3)})
	// Migrate 2 away, import 9 and activate it, import 3 back over its
	// own tombstone, leave 4 receiving.
	f.Add([]byte{
		op(opOpen, 1), op(opOpen, 2), op(opOpen, 3),
		op(opTombstone, 2), op(opImport, 9), op(opActivate, 9),
		op(opTombstone, 3), op(opImport, 3), op(opImport, 4),
	})
	// More segments than slots: the last opens find the directory full.
	full := make([]byte, 12)
	for i := range full {
		full[i] = op(opOpen, byte(i+1))
	}
	f.Add(full)
	// Raw flag bits: a tombstone and a receiving entry, then a hole.
	f.Add([]byte{5, 0, 0, 0, 0, 0, 0, 0x80, 6, 0, 0, 0, 0, 0, 0, 0x40, 0, 0, 0, 0, 0, 0, 0, 0, 7})

	dirEnd := MarkerLimit + uint32(smallCore.Slots)*dirEntryBytes
	f.Fuzz(func(t *testing.T, data []byte) {
		img := make([]byte, dirEnd)
		copy(img[MarkerLimit:], data)
		raw := bareSlotCore(smallCore)
		raw.rebuildSlots(img)
		if int(raw.nextSlot) > smallCore.Slots {
			t.Fatalf("nextSlot %d past a %d-slot directory", raw.nextSlot, smallCore.Slots)
		}
		for _, m := range []map[uint64]uint32{raw.slots, raw.moved} {
			for id, slot := range m {
				if slot >= raw.nextSlot {
					t.Fatalf("segment %#x mapped to slot %d, nextSlot %d", id, slot, raw.nextSlot)
				}
			}
		}

		// Each operation logs at most one slot image plus three words;
		// 32 of them stay well inside the log.
		if len(data) > 32 {
			data = data[:32]
		}
		cfg := smallCore
		cfg.Disk = ramdisk.New()
		live, err := NewCore(cfg, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		slotImg := make([]byte, cfg.SlotSize)
		for _, b := range data {
			seg := uint64(b&15) + 1
			_, owned := live.Lookup(seg)
			receiving := live.Receiving(seg)
			var err error
			switch b >> 6 {
			case opOpen:
				if !live.Moved(seg) {
					_, _, err = live.Open(seg)
				}
			case opImport:
				if !owned || receiving {
					err = live.ImportImage(seg, slotImg)
				}
			case opTombstone:
				if owned {
					err = live.Tombstone(seg)
				}
			case opActivate:
				if receiving {
					err = live.Activate(seg)
				}
			}
			if err != nil && !errors.Is(err, ErrNoSlot) {
				t.Fatalf("op %#02x: %v", b, err)
			}
		}

		img = make([]byte, dirEnd)
		live.Arena.ReadInto(0, img)
		got := bareSlotCore(smallCore)
		got.rebuildSlots(img)
		if !maps.Equal(got.slots, live.slots) || !maps.Equal(got.moved, live.moved) ||
			!maps.Equal(got.receiving, live.receiving) || got.nextSlot != live.nextSlot {
			t.Fatalf("rebuilt slots=%v moved=%v receiving=%v next=%d, live slots=%v moved=%v receiving=%v next=%d",
				got.slots, got.moved, got.receiving, got.nextSlot,
				live.slots, live.moved, live.receiving, live.nextSlot)
		}
	})
}
