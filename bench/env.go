// benchmark harness: wall-clock timing is the product.
//lsilint:file-ignore walltime

package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"
)

// envBlock identifies the build, the box and the run; every result file
// carries one.
type envBlock struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	Seed       int64   `json:"seed"`
	Scale      string  `json:"scale"`
	Blocks     int     `json:"blocks"`
	Clients    int     `json:"clients"`
	CalibMs    float64 `json:"env.calib_ms"`
	// CalibBeforeMs / CalibAfterMs are the same fixed CPU loop timed
	// before set-up and after the last stage: machine drift, never used
	// to normalise anything.
	CalibBeforeMs float64 `json:"calib_before_ms"`
	CalibAfterMs  float64 `json:"calib_after_ms"`
}

func newEnv(seed int64, sc scale, blocks int) envBlock {
	e := envBlock{
		Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: os.Getenv("GOGC"),
		Seed: seed, Scale: sc.name, Blocks: blocks, Clients: clients,
	}
	if e.GOGC == "" {
		e.GOGC = "100"
	}
	// bench/run.sh builds without VCS stamping and passes the commit in the
	// environment; `go run ./bench` in a git checkout carries the stamp.
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		e.Commit = c
	} else if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					e.Commit += "+dirty"
				}
			}
		}
	}
	return e
}

// calibrate times a fixed integer loop (best of three): the same
// instructions on every run, so a change in its time is the machine, not
// the code under test.
func calibrate() float64 {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < 3; r++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		runtime.KeepAlive(x) // the loop's result must stay live
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best) / 1e6
}

// usage is a point reading of the process's cumulative resource use.
type usage struct {
	cpu        time.Duration // user + system
	allocBytes uint64
	mallocs    uint64
	numGC      uint32
}

// usageDelta is the difference of two readings.
type usageDelta usage

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u := usage{allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs, numGC: ms.NumGC}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return u
}

func (u usage) sub(before usage) usageDelta {
	return usageDelta{
		cpu:        u.cpu - before.cpu,
		allocBytes: u.allocBytes - before.allocBytes,
		mallocs:    u.mallocs - before.mallocs,
		numGC:      u.numGC - before.numGC,
	}
}

func (d *usageDelta) add(o usageDelta) {
	d.cpu += o.cpu
	d.allocBytes += o.allocBytes
	d.mallocs += o.mallocs
	d.numGC += o.numGC
}

// settle collects the garbage earlier stages left, so that a timed stage
// pays for its own allocations only and every repetition starts from the
// same heap state.
func settle() { runtime.GC() }

// settledRSS returns VmRSS in MB after returning freed memory to the OS
// twice (the second call releases what the first one's sweep freed).
func settledRSS() (float64, error) {
	debug.FreeOSMemory()
	debug.FreeOSMemory()
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmRSS:")); ok {
			f := bytes.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(string(f[0]), 64)
			if err != nil {
				return 0, fmt.Errorf("VmRSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmRSS not found in /proc/self/status")
}

func heapMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
