package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lvm/internal/lease"
	"lvm/internal/logship"
	"lvm/internal/lvmd"
)

// runStandby follows a primary lvmd: one subscribed marker-tracking
// replica per shard, kept connected (with the bounded-retry dialer)
// until promotion or shutdown. Lease expiry is the only thing that
// promotes: each replica feeds a lease.Monitor from the heartbeat frames
// the primary broadcasts down its subscription streams. When every
// shard's lease runs out — the primary died, wedged, or was partitioned
// away, and by the lease rule has already demoted itself — the standby
// promotes with no operator involvement. A monitor that never heard a
// beat never expires, so a standby that never reached its primary stays
// down. Without a lease (leaseTTL <= 0) nothing could promote safely, so
// the standby refuses to start.
//
// Promotion rolls every shard replica back to its last transaction
// boundary and promotes it at its acked watermark; the promoted images
// boot a serving daemon on this process's own address and data
// directory, fenced one epoch above the dead primary. With the primary
// running -sync-replicas, an acknowledged commit implies a replicated
// commit, so the promoted daemon holds every acked write: a saved
// lvmload model replays against it with zero mismatches.
// SIGTERM/SIGINT exits without promoting.
func runStandby(upstream string, shards int, shCfg lvmd.ShardConfig, leaseTTL time.Duration,
	out io.Writer, serve func(boot []lvmd.BootShard) int) int {
	if leaseTTL <= 0 {
		fmt.Fprintln(os.Stderr, "lvmd: -standby needs -lease-ms")
		return 2
	}
	arenaSize, err := shCfg.Core.ArenaSize()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lvmd: %v\n", err)
		return 1
	}
	reps := make([]*logship.Replica, shards)
	mons := make([]*lease.Monitor, 0, shards)
	var stop atomic.Bool
	dialStop := make(chan struct{}) // cancels retry schedules mid-backoff
	var wg sync.WaitGroup
	for i := range reps {
		dial := lvmd.SubscribeDialer(
			logship.TCPDialerWith(upstream, logship.RetryConfig{Stop: dialStop}), uint32(i))
		r, err := logship.NewReplica(dial, arenaSize)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lvmd: shard %d replica: %v\n", i, err)
			return 1
		}
		r.TrackMarkers(lvmd.MarkerLimit)
		m := lease.NewMonitor(lease.Wall{}, lease.Ticks(leaseTTL))
		mons = append(mons, m)
		r.TrackLease(m.Observe)
		reps[i] = r
		wg.Add(1)
		go func(r *logship.Replica) {
			defer wg.Done()
			for !stop.Load() {
				if err := r.Connect(); err != nil {
					if errors.Is(err, logship.ErrDialStopped) {
						return
					}
					// The dialer already retried with backoff; pause before
					// the next round so a dead upstream isn't hammered.
					select {
					case <-time.After(500 * time.Millisecond):
					case <-dialStop:
						return
					}
					continue
				}
				if stop.Load() {
					r.Kill()
					return
				}
				// The replica is single-owner: only this goroutine may touch
				// it while connected, so teardown asks (dialStop) and the
				// Kill happens here rather than from the main goroutine.
				select {
				case <-r.Done():
				case <-dialStop:
					r.Kill()
					return
				}
			}
		}(r)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)

	leaseCh := make(chan struct{})
	watchStop := make(chan struct{})
	go func() {
		iv := leaseTTL / 4
		if iv <= 0 {
			iv = time.Millisecond
		}
		t := time.NewTicker(iv)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				expired := 0
				for _, m := range mons {
					// Expired requires heard: promotion arms per shard
					// only once that shard's primary proved itself on
					// this very stream.
					if m.Expired() {
						expired++
					}
				}
				if expired == len(mons) {
					close(leaseCh)
					return
				}
			case <-watchStop:
				return
			}
		}
	}()
	fmt.Fprintf(out, "lvmd: standby lease detection armed (ttl=%v): expiry promotes automatically\n", leaseTTL)
	fmt.Fprintf(out, "lvmd: standby following %s with %d shard replicas\n", upstream, shards)

	leaseFired := false
	select {
	case <-sig:
	case <-leaseCh:
		leaseFired = true
	}
	signal.Stop(sig)
	close(watchStop)
	stop.Store(true)
	close(dialStop)
	wg.Wait()

	if !leaseFired {
		fmt.Fprintln(out, "lvmd: standby exiting without promotion")
		return 0
	}
	fmt.Fprintln(out, "lvmd: primary lease expired on every shard: promoting automatically")

	// Promote every shard at its acked watermark. The lease expiry IS
	// the coordination in this topology (one standby per primary); the
	// grant still bumps the epoch so the promoted shippers fence
	// zombie-generation subscribers.
	boot := make([]lvmd.BootShard, shards)
	for i, r := range reps {
		b, res, err := lvmd.PromoteReplica(r, fmt.Sprintf("standby-%d", i))
		if err != nil {
			fmt.Fprintf(os.Stderr, "lvmd: shard %d promotion: %v\n", i, err)
			return 1
		}
		boot[i] = b
		fmt.Fprintf(out, "lvmd: shard %d promoted at watermark %d (seq=%d epoch=%d rolled=%d)\n",
			i, res.Watermark, b.Seq, b.Epoch, res.RolledBack)
	}
	return serve(boot)
}
