package workload

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// HostDelta is what a measured window cost the host.
type HostDelta struct {
	WallNs int64
	// CPUNs is user+system time of the whole process (getrusage), so
	// garbage-collector workers on another core count.
	CPUNs      int64
	Mallocs    uint64
	AllocBytes uint64
	// PeakRSSMB is the resident-set high-water mark of this window alone
	// (see markHost), or of the process so far where the kernel does not
	// let the mark be reset.
	PeakRSSMB float64
}

type hostMark struct {
	wall    time.Time
	cpu     int64
	mallocs uint64
	bytes   uint64
}

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// markHost opens a measured window. It collects the construction garbage
// first, so the window starts from a settled heap and a collection inside it
// is one the window's own allocation caused; it hands freed pages back to the
// OS and resets the kernel's resident-set high-water mark, so the window's
// peak is its own and not the largest overshoot of any repetition before it.
func markHost() hostMark {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: see HostDelta.PeakRSSMB
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostMark{wall: time.Now(), cpu: cpuNow(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// since closes the window opened by markHost.
func (m hostMark) since() HostDelta {
	wall := time.Since(m.wall)
	cpu := cpuNow()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return HostDelta{
		WallNs:     int64(wall),
		CPUNs:      cpu - m.cpu,
		Mallocs:    ms.Mallocs - m.mallocs,
		AllocBytes: ms.TotalAlloc - m.bytes,
		PeakRSSMB:  peakRSSMB(),
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// Setup is what building a workload's topology cost the host, as the mean of
// the builds a repetition makes.
type Setup struct {
	Sec        float64
	Mallocs    float64
	AllocBytes float64
}

// timedSetup runs build repeat times and keeps the last topology. Small
// topologies build in microseconds, which one timing cannot resolve, so the
// cost reported is the mean over the builds.
func timedSetup[T any](repeat int, build func() (T, error)) (T, Setup, error) {
	var out T
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < repeat; i++ {
		var err error
		if out, err = build(); err != nil {
			return out, Setup{}, err
		}
	}
	sec := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	n := float64(repeat)
	return out, Setup{
		Sec:        sec / n,
		Mallocs:    float64(after.Mallocs-before.Mallocs) / n,
		AllocBytes: float64(after.TotalAlloc-before.TotalAlloc) / n,
	}, nil
}
