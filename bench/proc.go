package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// host identifies the machine and toolchain a row was measured on. Rows
// from different hosts are never compared.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
}

func thisHost() host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuTime is the user+system CPU time this process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in
// MB; 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// region is one measured stretch of a run: wall-clock, process CPU and
// bytes allocated between its two edges.
type region struct {
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
}

// metered runs fn as one measured region. The collector runs first,
// outside the region, so one campaign's garbage is not charged to the
// next.
func metered(fn func()) region {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuTime(), time.Now()
	fn()
	r := region{wall: time.Since(t0), cpu: cpuTime() - c0}
	runtime.ReadMemStats(&m1)
	r.alloc = m1.TotalAlloc - m0.TotalAlloc
	return r
}
