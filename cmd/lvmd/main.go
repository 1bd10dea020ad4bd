// Command lvmd is the multi-tenant logged-memory daemon: thousands of
// independent logged segments served across shard groups, each shard a
// deterministic logged-memory simulation with checkpointed compaction
// and log-shipping replication, durable across SIGKILL via per-shard
// checkpoint and log-tail files.
//
// Serve (default):
//
//	lvmd -addr 127.0.0.1:7420 -dir /var/lib/lvmd -shards 8
//
// SIGTERM drains: client sessions stop, every shard checkpoints behind
// the marker protocol, and a manifest with per-shard state digests is
// written so the next start (or -check) can prove byte-identical
// recovery.
//
// Check (no serving):
//
//	lvmd -dir /var/lib/lvmd -check
//
// recovers every shard twice, verifies recovery is deterministic (the
// same image and the same recovery report, quarantine included), and —
// when a drain manifest exists — verifies the recovered digests match
// the drained state exactly. A tail mirror with a damaged record is
// replayed up to it and reported on the shard's line (here and at boot)
// as "tail damaged at record N, M records dropped".
//
// Standby (failover):
//
//	lvmd -standby -upstream 127.0.0.1:7420 -addr 127.0.0.1:7421 -dir /var/lib/lvmd-b -lease-ms 5000
//
// follows a primary with one subscribed replica per shard. -lease-ms N
// is required, and the primary runs with the same flag: it heartbeats
// an N-millisecond serving lease down each subscription stream and the
// standby acknowledges every beat. A standby that sees the lease expire
// on every shard promotes itself with no operator involvement: every
// replica rolls back to its last transaction boundary and the promoted
// images start serving on this daemon's own address, fenced one epoch
// above the dead primary. A primary that cannot prove the lease demotes
// itself and refuses writes — whether its own renewal loop stalled
// (paused, wedged) or, once a standby has subscribed, its beats stop
// being acknowledged (a network partition: the loop is healthy, the
// messages are not). The evidence rule assumes this topology — one
// promotable standby per primary; a standby that unsubscribes for good
// also demotes the primary within one TTL, which is the honest reading
// of losing your only witness. With the primary running -sync-replicas
// (the batch fence waits for replica acks before the commit is
// acknowledged), the promoted daemon holds every acked write.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"lvm/internal/logship"
	"lvm/internal/lvmd"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7420", "listen address")
		dir      = flag.String("dir", "lvmd-data", "data directory")
		shards   = flag.Int("shards", 8, "shard groups")
		slots    = flag.Int("slots", 128, "tenant segments per shard")
		slotSize = flag.Uint("slot-size", 4096, "bytes per tenant segment")
		logPages = flag.Uint("log-pages", 1024, "hardware log pages per shard")
		absorb   = flag.Int("absorb", 8, "write-absorption window (0 = off)")
		group    = flag.Int("group-commit", 8, "group-commit batch (0 = off)")
		policy   = flag.String("policy", "stall", "slow-client policy: stall or drop")
		stallMS  = flag.Int("stall-ms", 5000, "stall patience in milliseconds")
		check    = flag.Bool("check", false, "verify recovery instead of serving")
		syncRep  = flag.Bool("sync-replicas", false, "batch fence waits for replica acks: acked implies replicated")
		standby  = flag.Bool("standby", false, "follow -upstream as a promotable standby")
		upstream = flag.String("upstream", "", "primary address to follow in -standby mode")
		leaseMS  = flag.Int("lease-ms", 0, "serving-lease TTL in milliseconds (0 = off): the primary heartbeats it to subscribers and demotes itself if it cannot renew; a standby promotes itself when it expires")
	)
	flag.Parse()

	coreCfg := lvmd.CoreConfig{
		Slots:         *slots,
		SlotSize:      uint32(*slotSize),
		LogPages:      uint32(*logPages),
		AbsorbWindow:  *absorb,
		GroupSize:     *group,
		GroupDeadline: 1024,
	}
	if *check {
		os.Exit(runCheck(*dir, *shards, coreCfg, os.Stdout))
	}

	pol := logship.PolicyStall
	switch *policy {
	case "stall":
	case "drop":
		pol = logship.PolicyDrop
	default:
		fmt.Fprintf(os.Stderr, "lvmd: unknown policy %q\n", *policy)
		os.Exit(2)
	}
	leaseTTL := time.Duration(*leaseMS) * time.Millisecond
	shCfg := lvmd.ShardConfig{Core: coreCfg, SyncReplicas: *syncRep, LeaseTTL: leaseTTL}
	serve := func(boot []lvmd.BootShard) int {
		return serveMain(*addr, *dir, *shards, *slots, shCfg, pol,
			time.Duration(*stallMS)*time.Millisecond, boot)
	}
	if *standby {
		if *upstream == "" {
			fmt.Fprintln(os.Stderr, "lvmd: -standby needs -upstream")
			os.Exit(2)
		}
		os.Exit(runStandby(*upstream, *shards, shCfg, leaseTTL, os.Stdout, serve))
	}
	os.Exit(serve(nil))
}

// serveMain boots the daemon (recovering from dir, or from promoted boot
// images) and serves until SIGTERM/SIGINT drains it to a manifest.
func serveMain(addr, dir string, shards, slots int, shCfg lvmd.ShardConfig,
	pol logship.Policy, stall time.Duration, boot []lvmd.BootShard) int {
	// A manifest only describes a drained shutdown; one surviving a crash
	// is stale and must not vouch for the state we are about to recover.
	manifest := filepath.Join(dir, "manifest.json")
	_ = os.Remove(manifest) //errgate:ok — absent manifest is the normal case

	srv, err := lvmd.NewServer(lvmd.ServerConfig{
		Dir:          dir,
		Shards:       shards,
		Shard:        shCfg,
		Policy:       pol,
		StallTimeout: stall,
		Boot:         boot,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "lvmd: %v\n", err)
		return 1
	}
	for i, info := range srv.RecoverInfos() {
		if info.TailRecords > 0 || info.Seq > 0 {
			fmt.Printf("lvmd: shard %d recovered seq=%d tail=%d records ckpt=%v%s\n",
				i, info.Seq, info.TailRecords, info.FromCheckpoint, tailDamage(info))
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lvmd: %v\n", err)
		return 1
	}
	srv.Serve(ln)
	fmt.Printf("lvmd: serving on %s shards=%d slots=%d\n", ln.Addr(), shards, slots)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	<-sig
	fmt.Println("lvmd: draining")
	rep := srv.Drain()
	b, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		err = os.WriteFile(manifest, b, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "lvmd: manifest: %v\n", err)
		return 1
	}
	if !rep.Drained {
		fmt.Fprintln(os.Stderr, "lvmd: drain was not clean")
		return 1
	}
	fmt.Printf("lvmd: drained %d shards cleanly\n", len(rep.Shards))
	return 0
}

// tailDamage renders a quarantined tail for the boot and -check lines
// (empty on a clean recovery): which mirrored record stopped the replay
// and how many records from there on were dropped.
func tailDamage(info lvmd.RecoverInfo) string {
	if !info.Quarantined() {
		return ""
	}
	return fmt.Sprintf(", tail damaged at record %d, %d records dropped",
		info.ReissuedRecords, info.TailRecords-info.ReissuedRecords)
}

// sameRecovery reports whether two recoveries of one shard agree: the
// image past the marker area, and every field of the RecoverInfo — the
// sequence, the quarantine offset and the record counts.
func sameRecovery(img1 []byte, info1 lvmd.RecoverInfo, img2 []byte, info2 lvmd.RecoverInfo) bool {
	return bytes.Equal(img1[lvmd.MarkerLimit:], img2[lvmd.MarkerLimit:]) && info1 == info2
}

// decodeManifest parses a drain manifest and refuses one that does not
// list exactly shards shards: a manifest vouches for every shard it
// lists, and checking fewer would leave the rest unverified.
func decodeManifest(b []byte, shards int) (*lvmd.DrainReport, error) {
	man := &lvmd.DrainReport{}
	if err := json.Unmarshal(b, man); err != nil {
		return nil, fmt.Errorf("lvmd: manifest unreadable: %w", err)
	}
	if len(man.Shards) != shards {
		return nil, fmt.Errorf("lvmd: check FAILED: manifest lists %d shards, -shards is %d",
			len(man.Shards), shards)
	}
	return man, nil
}

// runCheck recovers every shard twice from the durable files, proving
// recovery deterministic, and checks the drain manifest if one exists.
func runCheck(dir string, shards int, coreCfg lvmd.CoreConfig, out io.Writer) int {
	var man *lvmd.DrainReport
	if b, err := os.ReadFile(filepath.Join(dir, "manifest.json")); err == nil {
		if man, err = decodeManifest(b, shards); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	fail := 0
	for i := 0; i < shards; i++ {
		disk, tail, err := lvmd.OpenShardFiles(dir, i)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lvmd: shard %d: %v\n", i, err)
			return 1
		}
		cfg := coreCfg
		cfg.Disk = disk
		img1, info1, err1 := lvmd.RecoverImage(cfg, tail)
		img2, info2, err2 := lvmd.RecoverImage(cfg, tail)
		disk.Close()
		tail.Close()
		if err1 != nil || err2 != nil {
			fmt.Fprintf(os.Stderr, "lvmd: shard %d recovery: %v / %v\n", i, err1, err2)
			fail++
			continue
		}
		if !sameRecovery(img1, info1, img2, info2) {
			fmt.Fprintf(os.Stderr, "lvmd: shard %d recovery is NOT deterministic\n", i)
			fail++
			continue
		}
		d1 := sha256.Sum256(img1[lvmd.MarkerLimit:])
		status := "ok"
		if man != nil {
			if got := hex.EncodeToString(d1[:]); got != man.Shards[i].Digest ||
				info1.Seq != man.Shards[i].Seq {
				status = fmt.Sprintf("MISMATCH vs manifest (seq %d vs %d)", info1.Seq, man.Shards[i].Seq)
				fail++
			} else {
				status = "ok, matches manifest"
			}
		}
		fmt.Fprintf(out, "lvmd: shard %d seq=%d tail=%d records%s: %s\n",
			i, info1.Seq, info1.TailRecords, tailDamage(info1), status)
	}
	if fail > 0 {
		fmt.Fprintf(os.Stderr, "lvmd: check FAILED for %d shard(s)\n", fail)
		return 1
	}
	fmt.Fprintf(out, "lvmd: check passed for %d shards\n", shards)
	return 0
}
