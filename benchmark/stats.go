package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0 <= p <= 100) of v by linear
// interpolation between closest ranks; v need not be sorted. An empty
// slice yields 0.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return percentile(v, 50) }

// tailPercentile picks the highest of p90, p95, p99 and p99.9 that still
// has at least ten samples beyond it, and returns it with its value. With
// fewer than a hundred samples there is no such percentile: (0, 0).
func tailPercentile(v []float64) (p, value float64) {
	for _, permille := range []int{999, 990, 950, 900} {
		if len(v)*(1000-permille)/1000 >= 10 {
			p = float64(permille) / 10
			return p, percentile(v, p)
		}
	}
	return 0, 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// calibBuf is the fixed input of the host calibration spin.
var calibBuf = make([]byte, 8<<20)

// calibrate times a fixed piece of CPU-bound work — SHA-256 over 8 MiB —
// in milliseconds. Taken at the start of every window, it tells a noisy
// neighbour or a frequency change apart from a change in the program.
func calibrate() float64 {
	start := time.Now()
	sha256.Sum256(calibBuf)
	return ms(time.Since(start))
}

// selfCPU returns the user+system CPU seconds this process has used.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat's utime and stime;
// Linux fixes it at 100 for user space on every architecture Go runs on.
const clockTick = 100

// procCPU returns the user+system CPU seconds of another process, read
// from /proc/<pid>/stat.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may hold spaces;
	// the numeric fields start after the last ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("benchmark: malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("benchmark: short /proc/%d/stat", pid)
	}
	// f[0] is field 3 (state), so utime (14) and stime (15) are f[11], f[12].
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("benchmark: unparsable times in /proc/%d/stat", pid)
	}
	return (ut + st) / clockTick, nil
}

// procPeakRSS returns a process's peak resident set (VmHWM) in MB;
// pid 0 means this process.
func procPeakRSS(pid int) float64 {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
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

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// rng is splitmix64: the one source of the benchmark's inputs, so equal
// seeds give equal inputs.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
