package cycles

import "testing"

func TestTable2Constants(t *testing.T) {
	// The calibration constants ARE the paper's Table 2; a drive-by edit
	// here would silently recalibrate every experiment.
	if WordWriteThroughTotal != 6 || WordWriteThroughBus != 5 {
		t.Fatalf("word write-through: %d/%d", WordWriteThroughTotal, WordWriteThroughBus)
	}
	if BlockWriteTotal != 9 || BlockWriteBus != 8 {
		t.Fatalf("block write: %d/%d", BlockWriteTotal, BlockWriteBus)
	}
	if LogRecordDMATotal != 18 || LogRecordDMABus != 8 {
		t.Fatalf("log DMA: %d/%d", LogRecordDMATotal, LogRecordDMABus)
	}
}

func TestLoggerGeometry(t *testing.T) {
	if LoggerFIFOEntries != 819 || LoggerOverloadThreshold != 512 {
		t.Fatalf("FIFO geometry: %d/%d (Section 3.1.3 says 819/512)", LoggerFIFOEntries, LoggerOverloadThreshold)
	}
	if LoggerServiceCycles != LoggerLookupCycles+LogRecordDMATotal {
		t.Fatalf("service cycles inconsistent")
	}
}

func TestTimestampClock(t *testing.T) {
	// 6.25 MHz = 25 MHz / 4.
	if ToTimestamp(400) != 100 {
		t.Fatalf("ToTimestamp(400) = %d", ToTimestamp(400))
	}
	if ToTimestamp(3) != 0 {
		t.Fatalf("sub-tick rounding broken")
	}
}

func TestResetCrossoverCalibration(t *testing.T) {
	// Figure 9's two-thirds crossover is a pure function of these two
	// constants.
	ratio := float64(BcopyLineCycles) / float64(ResetLineCycles)
	if ratio < 0.6 || ratio > 0.72 {
		t.Fatalf("bcopy/reset per line = %.3f, want ~2/3", ratio)
	}
}
