package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/hwsim"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted. It returns NaN for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// beyond counts the samples strictly above v: how well a tail percentile
// is supported.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// cpuTime is the process's user+system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (maxrss, KiB on Linux) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuTicks is one reading of the aggregate "cpu" line of /proc/stat.
type cpuTicks struct {
	total, steal uint64
	ok           bool
}

func readCPUTicks() cpuTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTicks{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	// user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already inside user, so only the first eight count.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	t.ok = true
	return t
}

// stealPct is the share of host CPU ticks stolen by the hypervisor between
// two readings, in percent; -1 when /proc/stat is unavailable.
func stealPct(a, b cpuTicks) float64 {
	if !a.ok || !b.ok || b.total <= a.total {
		return -1
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// nanosToCycles converts a simulated duration reported in nanoseconds back
// to co-processor clock cycles.
func nanosToCycles(ns uint64) uint64 {
	return uint64(math.Round(float64(ns) * hwsim.FPGAClockHz / 1e9))
}
