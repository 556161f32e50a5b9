package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail percentile resting on fewer is one or two outliers, not a
// property of the workload.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted (ascending)
// and the number of samples strictly after its rank.
func percentile(sorted []float64, q float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	idx := int(math.Ceil(float64(n)*q)) - 1 // nearest rank, 0-based
	idx = min(max(idx, 0), n-1)
	return sorted[idx], n - 1 - idx
}

// tailPercentile is percentile with the tail rule enforced: it fails
// when fewer than minBeyond samples lie beyond the q-quantile.
func tailPercentile(sorted []float64, q float64) (float64, int, error) {
	v, beyond := percentile(sorted, q)
	if beyond < minBeyond {
		return 0, beyond, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, len(sorted), beyond, minBeyond)
	}
	return v, beyond, nil
}

// median returns the median of xs (mean of the middle pair for even
// lengths); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Set-up is timed setupRepeats times per run, after setupWarm of
// unmeasured set-ups; setup_s is the median.
const (
	setupRepeats = 9
	setupWarm    = time.Second
)

// setUpTimes runs setUp unmeasured until setupWarm has passed, then
// setupRepeats more times, and returns those times in seconds. The
// first second of a process can run up to 1.7x slower than the rest of
// the run, and a set-up takes a few hundredths of a second: timed at
// once, it would measure that start.
func setUpTimes(setUp func() (time.Duration, error)) ([]float64, error) {
	for start := time.Now(); time.Since(start) < setupWarm; {
		if _, err := setUp(); err != nil {
			return nil, err
		}
	}
	times := make([]float64, 0, setupRepeats)
	for range setupRepeats {
		d, err := setUp()
		if err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
	}
	return times, nil
}

// lowerQuartile returns the lower quartile of xs (linear interpolation
// between closest ranks); xs is not modified.
//
// A run reports each timing as the lower quartile of its per-interval
// values (windows, batch repeats, campaign passes), and each rate as the
// upper quartile: the figure of the intervals the machine disturbed
// least. The shared machine only ever slows the program, for stretches
// of a second to tens of minutes and by up to 2x, with or without host
// steal to show for it. Bursts shorter than a run move its median
// interval but not its fast quartile. A change to the program moves
// every interval, fast ones included.
func lowerQuartile(xs []float64) float64 { return quantile(xs, 0.25) }

// upperQuartile returns the upper quartile of xs, as lowerQuartile.
func upperQuartile(xs []float64) float64 { return quantile(xs, 0.75) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for no xs).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set size in MiB
// (getrusage reports KiB on Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// residentMiB returns the process's current resident set size in MiB
// (0 when /proc is unavailable).
func residentMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// hostTicks returns the machine's cumulative steal time (CPU time the
// hypervisor gave to other guests while this one wanted it) and total
// CPU time, in clock ticks, from /proc/stat (0, 0 when unavailable).
func hostTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// mallocs returns the cumulative count of heap objects allocated.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// machine describes where a result was measured.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	OS         string `json:"os"`
}

func thisMachine() machine {
	return machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
