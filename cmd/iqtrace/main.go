// Command iqtrace visualizes the segmented instruction queue cycle by
// cycle: per-segment occupancy, ready instructions in segment 0, chains
// in use, and issue activity, as a scrolling text timeline. It is the
// debugging lens for watching chains suspend across cache misses and
// drain afterwards.
//
// Examples:
//
//	iqtrace -workload swim -cycles 80
//	iqtrace -workload equake -skip 2000 -cycles 120 -size 256 -chains 64
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	var (
		workload = flag.String("workload", "swim", "workload to trace")
		size     = flag.Int("size", 512, "total IQ capacity")
		chains   = flag.Int("chains", 128, "chain wires (0 = unlimited)")
		hmp      = flag.Bool("hmp", true, "hit/miss predictor")
		lrp      = flag.Bool("lrp", true, "left/right predictor")
		warm     = flag.Int64("warm", 300_000, "fast-forward instructions")
		skip     = flag.Int64("skip", 500, "cycles to run before displaying")
		cycles   = flag.Int64("cycles", 60, "cycles to display")
		seed     = flag.Uint64("seed", 1, "workload seed")
	)
	flag.Parse()

	cfg := sim.SegmentedConfig(*size, *chains, *hmp, *lrp)
	s, err := trace.New(*workload, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iqtrace:", err)
		os.Exit(1)
	}
	streams := []trace.Stream{s}
	p, err := sim.NewEngine(cfg, streams)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iqtrace:", err)
		os.Exit(1)
	}
	p.Warm(streams, *warm)
	q := p.Queue().(*core.SegmentedIQ)
	nSegs := q.Config().Segments

	for i := int64(0); i < *skip; i++ {
		p.Step()
	}

	fmt.Printf("workload %s, %d entries as %d x %d segments, %s chains\n\n",
		*workload, *size, nSegs, q.Config().SegSize, chainsLabel(*chains))
	fmt.Printf("%7s  %-*s  %5s %6s %6s %9s\n",
		"cycle", nSegs*3, segHeader(nSegs), "total", "chains", "commit", "deadlocks")
	fmt.Printf("%s\n", strings.Repeat("-", 7+2+nSegs*3+2+5+1+6+1+6+1+9))

	lastCommit := p.Committed()
	for i := int64(0); i < *cycles; i++ {
		p.Step()
		var occ []string
		for k := nSegs - 1; k >= 0; k-- {
			occ = append(occ, fmt.Sprintf("%2d ", q.SegmentLen(k)))
		}
		st := stats.NewSet()
		q.CollectStats(st)
		committed := p.Committed()
		fmt.Printf("%7d  %s  %5d %6d %6d %9.0f\n",
			p.Cycle(), strings.Join(occ, ""), q.Len(), q.ChainsInUse(),
			committed-lastCommit, st.MustGet("deadlock_recoveries"))
		lastCommit = committed
	}
	fmt.Printf("\ncommitted %d instructions in %d cycles (IPC %.3f so far)\n",
		p.Committed(), p.Cycle(), float64(p.Committed())/float64(p.Cycle()))
	fmt.Println("columns: segment occupancies top..bottom (issue buffer rightmost)")
}

func segHeader(n int) string {
	var b strings.Builder
	for k := n - 1; k >= 0; k-- {
		fmt.Fprintf(&b, "s%-2d", k)
	}
	return b.String()
}

func chainsLabel(n int) string {
	if n == 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%d", n)
}
