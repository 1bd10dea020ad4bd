package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostEnv is recorded in every result file: enough to tell whether two
// files are comparable.
type hostEnv struct {
	GitCommit    string  `json:"git_commit"`
	GoVersion    string  `json:"go_version"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	DataDir      string  `json:"datadir"`
	DataDirFS    string  `json:"datadir_fs"`
	LoadAvgStart float64 `json:"loadavg_start"`
	Started      string  `json:"started"`
}

func readHostEnv(c *runCtx) hostEnv {
	return hostEnv{
		GitCommit:    gitCommit(),
		GoVersion:    runtime.Version(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		DataDir:      c.dataDir,
		DataDirFS:    fsType(c.dataDir),
		LoadAvgStart: c.loadStart,
		Started:      time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit is the checkout's commit, or "unknown" outside a git
// repository (the acceptance driver runs the benchmark from an export).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func loadAvg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64) // a malformed file reads as 0, like a missing one
	return v
}

// fsType names the filesystem holding dir: fsync on tmpfs is a no-op
// and on a disk it dominates a commit, so latencies are only comparable
// between runs on the same kind.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}

// hostUsage is a reading of the process's resource use.
type hostUsage struct {
	cpuNs     int64 // user + system
	mallocs   uint64
	gcPauseNs uint64
	maxRSSKiB int64
}

func readHostUsage() hostUsage {
	var ru syscall.Rusage
	var u hostUsage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpuNs = ru.Utime.Nano() + ru.Stime.Nano()
		u.maxRSSKiB = int64(ru.Maxrss)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.mallocs, u.gcPauseNs = ms.Mallocs, ms.PauseTotalNs
	return u
}

// setHost reports what the process spent between two readings, per op.
func (r *result) setHost(before, after hostUsage, ops int) {
	if ops > 0 {
		r.set("host.cpu_s_per_kop", float64(after.cpuNs-before.cpuNs)/1e9/float64(ops)*1e3)
		r.set("host.allocs_per_op", float64(after.mallocs-before.mallocs)/float64(ops))
	}
	r.set("host.gc_pause_ms", float64(after.gcPauseNs-before.gcPauseNs)/1e6)
	r.set("host.peak_rss_mb", float64(after.maxRSSKiB)/1024)
}
