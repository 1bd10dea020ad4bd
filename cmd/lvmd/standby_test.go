package main

import (
	"bytes"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"lvm/internal/lvmd"
)

// syncBuf is a goroutine-safe writer the standby under test logs into.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func testShardCfg(leaseTTL time.Duration) lvmd.ShardConfig {
	return lvmd.ShardConfig{
		Core: lvmd.CoreConfig{Slots: 32, SlotSize: 1024, LogPages: 64,
			AbsorbWindow: 8, GroupSize: 8, GroupDeadline: 1024},
		SyncReplicas: true,
		LeaseTTL:     leaseTTL,
	}
}

// bootPrimary serves a real loopback primary so the standby exercises
// the same TCP dialer path the binary uses.
func bootPrimary(t *testing.T, leaseTTL time.Duration) (*lvmd.Server, string) {
	t.Helper()
	srv, err := lvmd.NewServer(lvmd.ServerConfig{
		Dir:          t.TempDir(),
		Shards:       2,
		Shard:        testShardCfg(leaseTTL),
		StallTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(ln)
	return srv, ln.Addr().String()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStandbyRequiresLease: lease expiry is the only thing that
// promotes, so a standby without a lease could never take over. It must
// refuse to start, before dialing anything, instead of following forever.
func TestStandbyRequiresLease(t *testing.T) {
	rcCh := make(chan int, 1)
	go func() {
		rcCh <- runStandby("127.0.0.1:1", 2, testShardCfg(0), 0, io.Discard, func([]lvmd.BootShard) int {
			t.Error("a standby without a lease promoted")
			return 0
		})
	}()
	select {
	case rc := <-rcCh:
		if rc == 0 {
			t.Fatal("runStandby without a lease returned 0")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("runStandby without a lease did not return")
	}
}

// TestStandbyLeasePromotesWithoutSignal is the tentpole end-to-end: the
// primary dies, no operator signal is ever sent, and the standby
// promotes itself when the lease it was observing runs out.
func TestStandbyLeasePromotesWithoutSignal(t *testing.T) {
	ttl := 150 * time.Millisecond
	srv, addr := bootPrimary(t, ttl)

	out := &syncBuf{}
	bootCh := make(chan []lvmd.BootShard, 1)
	rcCh := make(chan int, 1)
	go func() {
		rcCh <- runStandby(addr, 2, testShardCfg(ttl), ttl, out, func(boot []lvmd.BootShard) int {
			bootCh <- boot
			return 0
		})
	}()

	waitFor(t, "standby subscriptions", func() bool { return srv.Stats().Subscribers >= 2 })
	// Let several heartbeats land so every shard's monitor is armed —
	// a lease that was never heard must never expire.
	time.Sleep(3 * ttl)

	srv.Drain() // the primary disappears; nobody signals anybody

	var boot []lvmd.BootShard
	select {
	case boot = <-bootCh:
	case <-time.After(15 * time.Second):
		t.Fatalf("standby never promoted on lease expiry; output:\n%s", out.String())
	}
	if rc := <-rcCh; rc != 0 {
		t.Fatalf("runStandby rc = %d; output:\n%s", rc, out.String())
	}
	if !strings.Contains(out.String(), "promoting automatically") {
		t.Fatalf("promotion was not lease-driven; output:\n%s", out.String())
	}
	if len(boot) != 2 {
		t.Fatalf("promoted %d shards, want 2", len(boot))
	}
	for i, b := range boot {
		if b.Epoch < 2 {
			t.Fatalf("shard %d promoted epoch %d: not past the primary's", i, b.Epoch)
		}
	}
}
