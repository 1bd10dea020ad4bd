package logship

import (
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"lvm/internal/compact"
	"lvm/internal/core"
	"lvm/internal/dsm"
	"lvm/internal/logrec"
	"lvm/internal/ramdisk"
	"lvm/internal/wire"
)

const shared = 8 * core.PageSize

// newProducer builds a simulated machine with an LVM producer whose
// writes append to a hardware log, plus a shipper serving ln.
func newProducer(t *testing.T, ln net.Listener, cfg Config) (*core.System, *dsm.LVMProducer, *Shipper) {
	t.Helper()
	sys := core.NewSystem(core.Config{NumCPUs: 2, MemFrames: 8192})
	p := sys.NewProcess(0, sys.NewAddressSpace())
	prod, err := dsm.NewLVMProducer(sys, p, shared, 256)
	if err != nil {
		t.Fatal(err)
	}
	s := NewShipper(sys, prod.Segment(), prod.LogSegment(), ln, cfg)
	t.Cleanup(func() { s.Close() })
	return sys, prod, s
}

func connectReplica(t *testing.T, dial DialFunc) *Replica {
	t.Helper()
	r, err := NewReplica(dial, shared)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Connect(); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestShipKillReconnect is the acceptance scenario: a seeded workload
// streams to two replicas over the deterministic in-memory transport,
// one replica is killed mid-stream and reconnects, and both converge
// byte-identical to the producer.
func TestShipKillReconnect(t *testing.T) {
	ln, dial := NewMemTransport()
	sys, prod, ship := newProducer(t, ln, Config{FlushRecords: 8})
	ra := connectReplica(t, dial)
	rb := connectReplica(t, dial)

	write := func(i uint32) { prod.Write((i*52)%shared&^3, 0xA000+i) }

	// First tranche streams to both replicas.
	for i := uint32(0); i < 60; i++ {
		write(i)
		if i%10 == 9 {
			if err := ship.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ship.ReleaseShip(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Crash replica B mid-stream; the producer keeps going.
	rb.Kill()
	bSeq := rb.LastSeq()
	for i := uint32(60); i < 140; i++ {
		write(i)
		if i%10 == 9 {
			if err := ship.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ship.ReleaseShip(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// B rejoins from its last acked sequence and is caught up from the
	// shipper's log, then both replicas synchronize on a final release.
	if err := rb.Connect(); err != nil {
		t.Fatal(err)
	}
	for i := uint32(140); i < 160; i++ {
		write(i)
	}
	if err := ship.ReleaseShip(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	for name, r := range map[string]*Replica{"A": ra, "B": rb} {
		if err := dsm.Verify(prod.Segment(), r.Consumer(), shared); err != nil {
			t.Fatalf("replica %s: %v", name, err)
		}
	}
	if ship.Consumers() != 2 {
		t.Fatalf("consumers = %d, want 2", ship.Consumers())
	}
	if bSeq == 0 {
		t.Fatal("replica B never acked before the crash")
	}
	if got := ship.Stats.CatchupRecords.Load(); got == 0 {
		t.Fatal("reconnect did not trigger catch-up")
	}
	if got := rb.Stats.Reconnects.Load(); got != 1 {
		t.Fatalf("replica B reconnects = %d, want 1", got)
	}

	// Both sides' counters surface through the metrics registries.
	snap := sys.MetricsSnapshot()
	if snap.Counters["logship.batches_shipped"] == 0 {
		t.Fatal("producer snapshot missing logship counters")
	}
	if rb.sys.MetricsSnapshot().Counters["logship.replica_records_applied"] == 0 {
		t.Fatal("replica snapshot missing logship counters")
	}

	// Both replicas die. Flushes with no consumer attached encode no
	// batch, yet every record they pass over reaches B when it rejoins.
	ra.Kill()
	rb.Kill()
	for ship.Consumers() > 0 {
		select {
		case <-ship.ack: // connAcks pings once it has killed its conn
		case <-time.After(5 * time.Second):
			t.Fatalf("%d consumers still live after both replicas died", ship.Consumers())
		}
	}
	batches, caught := ship.Stats.BatchesShipped.Load(), ship.Stats.CatchupRecords.Load()
	for i := uint32(160); i < 220; i++ {
		write(i)
		if i%10 == 9 {
			if err := ship.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ship.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := ship.Stats.BatchesShipped.Load(); got != batches {
		t.Fatalf("idle flushes shipped %d batches to no consumer", got-batches)
	}
	if err := rb.Connect(); err != nil {
		t.Fatal(err)
	}
	if err := ship.ReleaseShip(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := dsm.Verify(prod.Segment(), rb.Consumer(), shared); err != nil {
		t.Fatalf("replica B after the idle stretch: %v", err)
	}
	if got := ship.Stats.CatchupRecords.Load() - caught; got < 60 {
		t.Fatalf("rejoin caught up %d records, want the 60 written while idle", got)
	}
}

// TestShipTCPSmoke runs one replica over real TCP loopback.
func TestShipTCPSmoke(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	_, prod, ship := newProducer(t, ln, Config{})
	r := connectReplica(t, TCPDialer(ln.Addr().String()))
	for i := uint32(0); i < 200; i++ {
		prod.Write((i*36)%shared&^3, 0xC000+i)
	}
	if err := ship.ReleaseShip(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := dsm.Verify(prod.Segment(), r.Consumer(), shared); err != nil {
		t.Fatal(err)
	}
	r.Kill()
}

// stuckConsumer handshakes like a replica and then never reads again —
// the pathological slow consumer the backpressure policy exists for.
func stuckConsumer(t *testing.T, dial DialFunc) net.Conn {
	t.Helper()
	c, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := c.Write(wire.Encode(&wire.Hello{SegSize: shared})); err != nil {
		t.Fatal(err)
	}
	if m, err := wire.ReadMsg(c); err != nil || m.Type() != wire.TypeWelcome {
		t.Fatalf("handshake: %T err %v", m, err)
	}
	return c
}

// TestBackpressureDrop: with PolicyDrop a consumer whose window is full
// is disconnected instead of growing an unbounded backlog.
func TestBackpressureDrop(t *testing.T) {
	ln, dial := NewMemTransport()
	_, prod, ship := newProducer(t, ln, Config{FlushRecords: 1, Window: 1, OnFull: PolicyDrop})
	stuckConsumer(t, dial)

	for i := uint32(0); i < 64 && ship.Stats.Drops.Load() == 0; i++ {
		prod.Write(i*4, i)
		if err := ship.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	if ship.Stats.Drops.Load() == 0 {
		t.Fatal("stuck consumer was never dropped")
	}
	if err := ship.Flush(); err != nil { // sweeps the dead connection
		t.Fatal(err)
	}
	if n := ship.Consumers(); n != 0 {
		t.Fatalf("consumers = %d after drop, want 0", n)
	}
}

// TestBackpressureStall: with PolicyStall the shipper waits for the
// window, counts the stall, and drops the consumer only after the
// timeout — release latency is bounded, memory always is.
func TestBackpressureStall(t *testing.T) {
	ln, dial := NewMemTransport()
	_, prod, ship := newProducer(t, ln, Config{
		FlushRecords: 1, Window: 1, OnFull: PolicyStall, StallTimeout: 20 * time.Millisecond,
	})
	stuckConsumer(t, dial)

	for i := uint32(0); i < 64 && ship.Stats.Drops.Load() == 0; i++ {
		prod.Write(i*4, i)
		if err := ship.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	if ship.Stats.Stalls.Load() == 0 {
		t.Fatal("full window never stalled the shipper")
	}
	if ship.Stats.Drops.Load() == 0 {
		t.Fatal("stalled consumer was never dropped after the timeout")
	}
}

// fakeServer accepts one replica connection and hands the test direct
// control of the wire.
func fakeServer(t *testing.T, ln net.Listener) net.Conn {
	t.Helper()
	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	m, err := wire.ReadMsg(c)
	h, ok := m.(*wire.Hello)
	if err != nil || !ok {
		t.Fatalf("hello: %T err %v", m, err)
	}
	if _, err := c.Write(wire.Encode(&wire.Welcome{
		StartSeq: h.LastSeq, Epoch: 1, SegSize: h.SegSize,
	})); err != nil {
		t.Fatal(err)
	}
	return c
}

func encodeTestBatch(base, end uint64, recs ...logrec.Record) []byte {
	var records []byte
	var buf [logrec.Size]byte
	for _, rec := range recs {
		rec.Encode(buf[:])
		records = append(records, buf[:]...)
	}
	return wire.Encode(&wire.Batch{
		BaseSeq: base, EndSeq: end, Count: uint32(len(recs)), Records: records,
	})
}

// TestReplicaQuarantinesCorruptFrame: a replica applies clean batches,
// then a frame whose CRC fails ends the session unacked; the applied
// prefix and acked cursor survive for the next connect.
func TestReplicaQuarantinesCorruptFrame(t *testing.T) {
	ln, dial := NewMemTransport()
	r, err := NewReplica(dial, shared)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- r.Connect() }()
	c := fakeServer(t, ln)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	good := encodeTestBatch(0, 2,
		logrec.Record{Addr: 16, Value: 0x11111111, WriteSize: 4},
		logrec.Record{Addr: 17, Value: 0xAB, WriteSize: 1},
	)
	if _, err := c.Write(good); err != nil {
		t.Fatal(err)
	}
	if m, err := wire.ReadMsg(c); err != nil || !reflect.DeepEqual(m, &wire.Ack{Seq: 2}) {
		t.Fatalf("ack: %+v err %v, want seq 2", m, err)
	}

	bad := encodeTestBatch(2, 3, logrec.Record{Addr: 20, Value: 0x22222222, WriteSize: 4})
	bad[wire.HeaderSize] ^= 0x01 // corrupt the payload under the CRC
	if _, err := c.Write(bad); err != nil {
		t.Fatal(err)
	}
	r.Kill() // joins the consume goroutine, which quarantined and exited
	if !errors.Is(r.err, wire.ErrCorrupt) {
		t.Fatalf("session error = %v, want ErrCorrupt", r.err)
	}
	if r.LastSeq() != 2 {
		t.Fatalf("lastSeq = %d, want 2 (corrupt frame must not ack)", r.LastSeq())
	}
	if got := r.Consumer().Word(16); got != 0x1111AB11 {
		t.Fatalf("word 16 = %#x, want 0x1111AB11", got)
	}
	if r.Stats.QuarantinedFrames.Load() != 1 {
		t.Fatalf("quarantined frames = %d, want 1", r.Stats.QuarantinedFrames.Load())
	}
}

// TestReplicaQuarantinesInvalidRecord: a structurally valid frame whose
// record fails the recovery validation rules stops the apply at the
// damage; nothing past it lands and the batch is never acked.
func TestReplicaQuarantinesInvalidRecord(t *testing.T) {
	ln, dial := NewMemTransport()
	r, err := NewReplica(dial, shared)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- r.Connect() }()
	c := fakeServer(t, ln)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	frame := encodeTestBatch(0, 3,
		logrec.Record{Addr: 8, Value: 1, WriteSize: 4},
		logrec.Record{Addr: shared + 64, Value: 2, WriteSize: 4}, // out of range
		logrec.Record{Addr: 12, Value: 3, WriteSize: 4},
	)
	if _, err := c.Write(frame); err != nil {
		t.Fatal(err)
	}
	r.Kill()
	if r.err == nil {
		t.Fatal("invalid record did not end the session")
	}
	if r.LastSeq() != 0 {
		t.Fatalf("lastSeq = %d, want 0", r.LastSeq())
	}
	if got := r.Consumer().Word(8); got != 1 {
		t.Fatalf("record before the damage did not apply: word 8 = %#x", got)
	}
	if got := r.Consumer().Word(12); got != 0 {
		t.Fatalf("record past the damage applied: word 12 = %#x", got)
	}
	if r.Stats.QuarantinedRecords.Load() != 2 {
		t.Fatalf("quarantined records = %d, want 2", r.Stats.QuarantinedRecords.Load())
	}
}

// TestShipAcrossCompaction is the acceptance scenario for checkpointed
// compaction under replication: replica B dies, the producer compacts its
// log (the cut bounded by live replica A's acks), and B reconnects to a
// log that no longer holds the records it missed. B must converge via the
// snapshot catch-up path — image plus live tail — without the shipper
// bumping its epoch (no full resync), while A streams straight through
// the compaction untouched.
func TestShipAcrossCompaction(t *testing.T) {
	ln, dial := NewMemTransport()
	sys, prod, ship := newProducer(t, ln, Config{FlushRecords: 8})
	mgr, err := compact.New(sys, compact.Options{
		Data: prod.Segment(),
		Log:  prod.LogSegment(),
		Disk: ramdisk.New(),
		Ship: ship,
	})
	if err != nil {
		t.Fatal(err)
	}
	ra := connectReplica(t, dial)
	rb := connectReplica(t, dial)

	write := func(i uint32) { prod.Write((i*44)%shared&^3, 0xC000+i) }

	// Both replicas ack the first tranche; then B dies.
	for i := uint32(0); i < 60; i++ {
		write(i)
	}
	if err := ship.ReleaseShip(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	rb.Kill()
	bSeq := rb.LastSeq()
	if bSeq == 0 {
		t.Fatal("replica B never acked before the crash")
	}

	// More writes reach only A, then the producer compacts. A has acked
	// everything, so the whole physical log is cut; the records B is
	// missing no longer exist anywhere but in the checkpoint image.
	for i := uint32(60); i < 140; i++ {
		write(i)
	}
	if err := ship.ReleaseShip(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Compact(nil); err != nil {
		t.Fatal(err)
	}
	if ship.base.Load() == 0 {
		t.Fatal("compaction did not advance the shipper base")
	}
	if bSeq >= ship.base.Load() {
		t.Fatalf("test premise broken: B's cursor %d survived the cut at %d", bSeq, ship.base.Load())
	}

	// Post-compaction writes ship with logical sequences continuing past
	// the cut; then B reconnects from its pre-cut cursor.
	for i := uint32(140); i < 200; i++ {
		write(i)
	}
	if err := ship.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := rb.Connect(); err != nil {
		t.Fatal(err)
	}
	for i := uint32(200); i < 220; i++ {
		write(i)
	}
	if err := ship.ReleaseShip(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	for name, r := range map[string]*Replica{"A": ra, "B": rb} {
		if err := dsm.Verify(prod.Segment(), r.Consumer(), shared); err != nil {
			t.Fatalf("replica %s: %v", name, err)
		}
	}
	if ship.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1 (compaction must not force a resync)", ship.Epoch())
	}
	if got := ship.Stats.SnapshotsShipped.Load(); got != 1 {
		t.Fatalf("snapshots shipped = %d, want 1", got)
	}
	if got := rb.Stats.SnapshotsApplied.Load(); got != 1 {
		t.Fatalf("replica B snapshots applied = %d, want 1", got)
	}
	if got := ra.Stats.SnapshotsApplied.Load(); got != 0 {
		t.Fatalf("replica A applied %d snapshots, want 0 (it streamed through)", got)
	}
	if rb.LastSeq() != ship.SealedSeq() {
		t.Fatalf("replica B cursor = %d, want %d", rb.LastSeq(), ship.SealedSeq())
	}
}
