package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// summary is one metric's samples within a run: median and quartiles
// (Python's statistics.quantiles(n=4), exclusive method) and the count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 1 {
		return summary{d[0], d[0], d[0], 1}
	}
	q := func(i int) float64 {
		m := len(d) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return summary{Median: median(d), Q1: q(1), Q3: q(3), N: len(d)}
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile (0 < p < 100) by linear
// interpolation between the closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	r := p / 100 * float64(len(d)-1)
	lo := int(r)
	if lo+1 >= len(d) {
		return d[len(d)-1]
	}
	return d[lo] + (r-float64(lo))*(d[lo+1]-d[lo])
}

// peakRSSMB is the process's peak resident set size. Each benchmark run
// is its own process running one workload, so this is that workload's
// peak and nothing carried over from another.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// host records the machine and build a result was measured with.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
	Modified   bool   `json:"modified"`
}

func hostInfo() host {
	h := host{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Revision: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				h.Modified = s.Value == "true"
			}
		}
	}
	return h
}
