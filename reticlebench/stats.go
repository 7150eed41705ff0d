package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuNow is the process's user+sys CPU time so far (getrusage).
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU is the calling OS thread's user+sys CPU time so far
// (getrusage RUSAGE_THREAD).
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(1, &ru); err != nil { // RUSAGE_THREAD
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealSeconds reads the host's cumulative CPU steal, summed over all
// CPUs, from the "cpu" line of /proc/stat (USER_HZ ticks, 100 per
// second on Linux). It returns -1 where /proc/stat is unreadable.
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 8 && fields[0] == "cpu" {
			v, err := strconv.ParseFloat(fields[8], 64)
			if err != nil {
				return -1
			}
			return v / 100
		}
	}
	return -1
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				break
			}
			return kb / 1024
		}
	}
	return -1
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted.
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

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// tailLabel describes a latency sample the way every report line does:
// the median beside the highest percentile that still has at least ten
// samples beyond it, with the sample count. Under forty samples that
// percentile would be no tail, so the median stands alone.
func tailLabel(xs []float64, unit string) string {
	n := len(xs)
	out := fmt.Sprintf("p50=%.4g%s", median(xs), unit)
	best := 0.0
	for _, p := range []float64{90, 99, 99.9} {
		if float64(n)*(1-p/100) >= 10 {
			best = p
		}
	}
	if n >= 40 && best > 0 {
		out += fmt.Sprintf(" p%g=%.4g%s", best, quantile(xs, best/100), unit)
	}
	return out + fmt.Sprintf(" n=%d", n)
}
