package vm

import "testing"

// Both kernels keep one log-head ledger: the same append offset and the
// same absorb-loss count for the same store stream, whichever logger
// (Section 3.1's bus logger or Section 4.6's on-chip unit) writes the log.
var ledgerKernels = []struct {
	name  string
	setup func(t *testing.T, logPages uint32) (*Kernel, *Region, *Segment, *Process, Addr)
}{
	{"bus", func(t *testing.T, logPages uint32) (*Kernel, *Region, *Segment, *Process, Addr) {
		k := testKernel()
		r, _, ls, p, base := setupLogged(t, k, 1, logPages)
		return k, r, ls, p, base
	}},
	{"chip", func(t *testing.T, logPages uint32) (*Kernel, *Region, *Segment, *Process, Addr) {
		k := chipKernel()
		r, _, ls, p, base := setupChipLogged(t, k, 1, logPages)
		return k, r, ls, p, base
	}},
}

func storeN(p *Process, base Addr, n int) {
	for i := 0; i < n; i++ {
		p.Store32(base+Addr(i%1024)*4, uint32(i))
	}
}

// TestLogLedgerFullPages: a log page filled exactly ends the log one page
// further on, not at the page's start, and an absorb page filled exactly
// counts all 256 of its records as lost.
func TestLogLedgerFullPages(t *testing.T) {
	for _, lk := range ledgerKernels {
		k, _, ls, p, base := lk.setup(t, 2)
		storeN(p, base, 256)
		k.Sync()
		if off, lost := k.LogAppendOffset(ls), ls.LostRecords(); off != PageSize || lost != 0 {
			t.Errorf("%s: one full page: append offset %d, lost %d; want %d, 0", lk.name, off, lost, PageSize)
		}
		storeN(p, base, 512) // the second page, then a whole absorb page
		k.Sync()
		if off, lost := k.LogAppendOffset(ls), ls.LostRecords(); off != 2*PageSize || lost != 256 {
			t.Errorf("%s: full log + full absorb page: append offset %d, lost %d; want %d, 256", lk.name, off, lost, 2*PageSize)
		}
	}
}

// TestLogLedgerFullThenExtend: a full log counts each absorbed record
// once, and after Extend the records in the new page are part of the log.
func TestLogLedgerFullThenExtend(t *testing.T) {
	for _, lk := range ledgerKernels {
		k, _, ls, p, base := lk.setup(t, 1)
		storeN(p, base, 300) // one page, then 44 absorbed
		k.Sync()
		if lost := ls.LostRecords(); lost != 44 {
			t.Fatalf("%s: full log: lost %d, want 44", lk.name, lost)
		}
		storeN(p, base, 10) // absorbed too: the log is still full
		k.Sync()
		if off, lost := k.LogAppendOffset(ls), ls.LostRecords(); off != PageSize || lost != 54 {
			t.Errorf("%s: still full: append offset %d, lost %d; want %d, 54", lk.name, off, lost, PageSize)
		}
		ls.Extend(1)
		storeN(p, base, 10)
		k.Sync()
		if off, lost := k.LogAppendOffset(ls), ls.LostRecords(); off != PageSize+160 || lost != 54 {
			t.Errorf("%s: extended: append offset %d, lost %d; want %d, 54", lk.name, off, lost, PageSize+160)
		}
	}
}
