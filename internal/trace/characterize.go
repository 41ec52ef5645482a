package trace

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/isa"
)

// Dependence-chain profiling granularity. Depths are computed within
// fixed windows of the dynamic stream — a proxy for what an instruction
// window of that size could see — with cross-window producers treated as
// ready. The sub-window gives a second, smaller measurement point, so
// critical-path growth with window size is measured rather than assumed
// linear from one sample.
const (
	// ChainWindow is the instruction-window size dependence depths are
	// computed over.
	ChainWindow = 256
	// ChainSubWindow is the smaller second measurement window; it must
	// divide ChainWindow.
	ChainSubWindow = 64
	// ChainBuckets is the number of log2 buckets in the depth and width
	// histograms: bucket b counts values v with 2^b <= v < 2^(b+1), and
	// the last bucket absorbs everything larger.
	ChainBuckets = 9
)

// Profile summarises the dynamic properties of a stream prefix; it backs
// cmd/tracedump and the workload-shape tests.
type Profile struct {
	Name         string
	Instructions int
	ClassCount   [isa.NumClasses]int
	Branches     int
	TakenBranch  int
	Loads        int
	Stores       int
	// UniqueLines counts distinct 64-byte data lines touched — a proxy for
	// working-set size.
	UniqueLines int
	// UniquePCs counts distinct static instructions.
	UniquePCs int
	// AvgDepDist is the mean distance, in dynamic instructions, between a
	// register consumer and its most recent producer (smaller = more
	// serial code).
	AvgDepDist float64

	// MixFrac is the per-class instruction mix: ClassCount normalised by
	// Instructions. Kept as an explicit field (not just the ClassFraction
	// accessor) so serialised profiles carry the mix directly.
	MixFrac [isa.NumClasses]float64

	// Dependence-chain structure, measured over ChainWindow-instruction
	// windows. An instruction's depth is 1 + the maximum depth of its
	// in-window register producers; a window's critical path is its
	// maximum depth. DepthHist counts instructions per log2 depth bucket;
	// WidthHist counts depth levels per log2 width bucket (a level's
	// width is how many of the window's instructions sit at that depth —
	// the ILP available at that rank of the dataflow graph).
	DepthHist [ChainBuckets]int
	WidthHist [ChainBuckets]int
	// MeanChainDepth is the mean per-instruction depth; MeanChainWidth is
	// instructions per occupied depth level (window ILP).
	MeanChainDepth float64
	MeanChainWidth float64
	// CritPathSub / CritPathWin are the mean critical-path lengths (in
	// nodes) of ChainSubWindow- and ChainWindow-instruction windows. Two
	// window sizes pin the growth rate of depth with window size.
	CritPathSub float64
	CritPathWin float64
	// CritClassFrac is the class mix of the instructions on window
	// critical paths (one longest path walked per window): what the
	// serial bottleneck is made of. A critical path dominated by loads
	// (pointer chasing) stalls on memory; one dominated by IntAlu is a
	// loop-carried counter.
	CritClassFrac [isa.NumClasses]float64

	// Branch-predictability proxies. BranchEntropy is the mean per-branch
	// outcome entropy in bits, weighting each static branch by its
	// dynamic frequency (0 = perfectly biased). BranchBiasMiss is the
	// mispredict rate of an oracle per-PC bias predictor (the floor any
	// history-less predictor can reach). BranchLocalMiss is the measured
	// mispredict rate of a small 2-level local-history predictor run over
	// the profiled stream — a realistic proxy for what a Table 1-class
	// predictor achieves.
	BranchEntropy   float64
	BranchBiasMiss  float64
	BranchLocalMiss float64

	// NewLinesPerLoad is the fraction of loads touching a 64-byte line
	// never seen before in the profile — a streaming/compulsory-miss
	// proxy (1 = pure streaming, 0 = fully resident).
	NewLinesPerLoad float64

	// SteadyLineRate is first-touch 64-byte lines (loads and stores)
	// per instruction over the second half of the profile. The whole-
	// profile rate overstates steady-state DRAM traffic for codes with
	// a bounded footprint: their cold lines are all touched early, so a
	// rate that includes the warm-up phase can run 2x the rate the
	// memory system actually sees once resident.
	SteadyLineRate float64
}

// chainBucket maps a positive value to its log2 histogram bucket.
func chainBucket(v int) int {
	b := 0
	for v > 1 && b < ChainBuckets-1 {
		v >>= 1
		b++
	}
	return b
}

// localPredictor is the profiling branch predictor behind
// BranchLocalMiss: a 2-level local-history scheme (512 history registers,
// 8-bit histories, shared 4K-entry 2-bit PHT). It is deliberately smaller
// than the Table 1 predictor — a proxy, not a duplicate — but it sees
// pattern-following branches the way any history predictor does.
type localPredictor struct {
	hist [512]uint8
	pht  [4096]int8
}

func (lp *localPredictor) predictAndTrain(pc uint64, taken bool) (hit bool) {
	h := &lp.hist[pc%uint64(len(lp.hist))]
	idx := (uint64(*h) ^ (pc << 3)) % uint64(len(lp.pht))
	ctr := &lp.pht[idx]
	hit = (*ctr >= 2) == taken
	if taken {
		if *ctr < 3 {
			*ctr++
		}
	} else if *ctr > 0 {
		*ctr--
	}
	*h = *h << 1
	if taken {
		*h |= 1
	}
	return hit
}

// Characterize drains up to n instructions from s and profiles them.
// Profiling consumes the stream: callers that also want to simulate the
// same workload must characterize a fresh (or forked) source.
func Characterize(s Stream, n int) Profile {
	p := Profile{Name: s.Name()}
	lines := make(map[uint64]struct{})
	pcs := make(map[uint64]struct{})
	lastWrite := make(map[int]int) // arch reg -> instruction index
	depSum, depCount := 0.0, 0

	// Per-window dependence state. depth/producer/class are indexed by
	// the instruction's offset in the current ChainWindow; regDepth maps
	// arch reg -> (defining offset) within the window, and regDepthSub
	// the same within the current sub-window.
	var (
		depth     [ChainWindow]int32
		producer  [ChainWindow]int32
		classes   [ChainWindow]isa.Class
		widths    [ChainWindow + 1]int32
		regDef    = make(map[int]int32)
		regDefSub = make(map[int]int32)
		subDepth  [ChainSubWindow]int32

		depthSum     int64
		levels       int64
		critSubSum   int64
		critSubCount int64
		critWinSum   int64
		critWinCount int64
		// Trailing partial windows would dilute the critical-path means
		// (a 7-instruction tail cannot exhibit window-256 behaviour), so
		// their paths are accumulated separately and only used when the
		// stream is shorter than one full window.
		critSubPart  [2]int64
		critWinPart  [2]int64
		critClassCnt [isa.NumClasses]int64
		critClassTot int64
		branchCounts = make(map[uint64]*[2]int)
		lp           localPredictor
		localMisses  int
		newLines     int
		lateNewLines int
		predictedBr  int
	)

	// endWindow folds the finished window (of size w) into the
	// histograms and walks one critical path for the class mix.
	endWindow := func(w int) {
		if w == 0 {
			return
		}
		maxIdx := 0
		for i := 0; i < w; i++ {
			d := depth[i]
			p.DepthHist[chainBucket(int(d))]++
			depthSum += int64(d)
			widths[d]++
			if d > depth[maxIdx] {
				maxIdx = i
			}
		}
		if w == ChainWindow {
			critWinSum += int64(depth[maxIdx])
			critWinCount++
		} else {
			critWinPart[0] += int64(depth[maxIdx])
			critWinPart[1]++
		}
		for d := int32(1); d <= depth[maxIdx]; d++ {
			if widths[d] > 0 {
				p.WidthHist[chainBucket(int(widths[d]))]++
				levels++
				widths[d] = 0
			}
		}
		// Walk one longest path back through the producers that set each
		// node's depth.
		for i := int32(maxIdx); i >= 0; i = producer[i] {
			critClassCnt[classes[i]]++
			critClassTot++
			if producer[i] < 0 {
				break
			}
		}
		for k := range regDef {
			delete(regDef, k)
		}
	}
	endSubWindow := func(w int) {
		if w == 0 {
			return
		}
		var crit int32 = 0
		for i := 0; i < w; i++ {
			if subDepth[i] > crit {
				crit = subDepth[i]
			}
		}
		if w == ChainSubWindow {
			critSubSum += int64(crit)
			critSubCount++
		} else {
			critSubPart[0] += int64(crit)
			critSubPart[1]++
		}
		for k := range regDefSub {
			delete(regDefSub, k)
		}
	}

	i := 0
	for ; i < n; i++ {
		in, ok := s.Next()
		if !ok {
			break
		}
		wi := i % ChainWindow // offset in window
		si := i % ChainSubWindow
		if wi == 0 && i > 0 {
			endWindow(ChainWindow)
		}
		if si == 0 && i > 0 {
			endSubWindow(ChainSubWindow)
		}

		p.Instructions++
		p.ClassCount[in.Class]++
		pcs[in.PC] = struct{}{}
		switch {
		case in.Class == isa.Branch:
			p.Branches++
			if in.Taken {
				p.TakenBranch++
			}
			bc := branchCounts[in.PC]
			if bc == nil {
				bc = new([2]int)
				branchCounts[in.PC] = bc
			}
			if in.Taken {
				bc[1]++
			} else {
				bc[0]++
			}
			predictedBr++
			if !lp.predictAndTrain(in.PC, in.Taken) {
				localMisses++
			}
		case in.Class == isa.Load:
			p.Loads++
			if _, seen := lines[in.Addr>>6]; !seen {
				newLines++
				if i >= n/2 {
					lateNewLines++
				}
			}
			lines[in.Addr>>6] = struct{}{}
		case in.Class == isa.Store:
			p.Stores++
			if _, seen := lines[in.Addr>>6]; !seen && i >= n/2 {
				lateNewLines++
			}
			lines[in.Addr>>6] = struct{}{}
		}

		// Window dependence depth.
		var d, dSub int32 = 1, 1
		var prod int32 = -1
		for _, src := range [...]int{in.Src1, in.Src2} {
			if src == isa.RegNone || src == isa.RegZero {
				continue
			}
			if w, ok := lastWrite[src]; ok {
				depSum += float64(i - w)
				depCount++
			}
			if pi, ok := regDef[src]; ok && depth[pi]+1 > d {
				d = depth[pi] + 1
				prod = pi
			}
			if pi, ok := regDefSub[src]; ok && subDepth[pi]+1 > dSub {
				dSub = subDepth[pi] + 1
			}
		}
		depth[wi], producer[wi], classes[wi] = d, prod, in.Class
		subDepth[si] = dSub
		if in.HasDest() {
			lastWrite[in.Dest] = i
			regDef[in.Dest] = int32(wi)
			regDefSub[in.Dest] = int32(si)
		}
	}
	endWindow(i % ChainWindow)
	endSubWindow(i % ChainSubWindow)
	if r := i % ChainWindow; r == 0 && i > 0 {
		endWindow(ChainWindow)
	}
	if r := i % ChainSubWindow; r == 0 && i > 0 {
		endSubWindow(ChainSubWindow)
	}

	p.UniqueLines = len(lines)
	p.UniquePCs = len(pcs)
	if depCount > 0 {
		p.AvgDepDist = depSum / float64(depCount)
	}
	if p.Instructions > 0 {
		for c := range p.MixFrac {
			p.MixFrac[c] = float64(p.ClassCount[c]) / float64(p.Instructions)
		}
		p.MeanChainDepth = float64(depthSum) / float64(p.Instructions)
	}
	if levels > 0 {
		p.MeanChainWidth = float64(p.Instructions) / float64(levels)
	}
	if critSubCount == 0 {
		critSubSum, critSubCount = critSubPart[0], critSubPart[1]
	}
	if critWinCount == 0 {
		critWinSum, critWinCount = critWinPart[0], critWinPart[1]
	}
	if critSubCount > 0 {
		p.CritPathSub = float64(critSubSum) / float64(critSubCount)
	}
	if critWinCount > 0 {
		p.CritPathWin = float64(critWinSum) / float64(critWinCount)
	}
	if critClassTot > 0 {
		for c := range p.CritClassFrac {
			p.CritClassFrac[c] = float64(critClassCnt[c]) / float64(critClassTot)
		}
	}
	if p.Branches > 0 {
		var entSum float64
		biasMiss := 0
		for _, bc := range branchCounts {
			tot := bc[0] + bc[1]
			minority := bc[0]
			if bc[1] < minority {
				minority = bc[1]
			}
			biasMiss += minority
			entSum += float64(tot) * binaryEntropy(float64(bc[1])/float64(tot))
		}
		p.BranchEntropy = entSum / float64(p.Branches)
		p.BranchBiasMiss = float64(biasMiss) / float64(p.Branches)
	}
	if predictedBr > 0 {
		p.BranchLocalMiss = float64(localMisses) / float64(predictedBr)
	}
	if p.Loads > 0 {
		p.NewLinesPerLoad = float64(newLines) / float64(p.Loads)
	}
	if late := p.Instructions - n/2; late > 0 {
		p.SteadyLineRate = float64(lateNewLines) / float64(late)
	} else if p.Instructions > 0 {
		p.SteadyLineRate = float64(p.UniqueLines) / float64(p.Instructions)
	}
	return p
}

// binaryEntropy returns the entropy in bits of a Bernoulli(p) outcome.
func binaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// ClassFraction returns the fraction of profiled instructions in class c.
func (p Profile) ClassFraction(c isa.Class) float64 {
	if p.Instructions == 0 {
		return 0
	}
	return float64(p.ClassCount[c]) / float64(p.Instructions)
}

// MemFraction returns the fraction of instructions that access memory.
func (p Profile) MemFraction() float64 {
	if p.Instructions == 0 {
		return 0
	}
	return float64(p.Loads+p.Stores) / float64(p.Instructions)
}

// BranchFraction returns the fraction of instructions that are branches.
func (p Profile) BranchFraction() float64 {
	if p.Instructions == 0 {
		return 0
	}
	return float64(p.Branches) / float64(p.Instructions)
}

// FpFraction returns the fraction of instructions in FP classes.
func (p Profile) FpFraction() float64 {
	if p.Instructions == 0 {
		return 0
	}
	n := 0
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		if c.IsFP() {
			n += p.ClassCount[c]
		}
	}
	return float64(n) / float64(p.Instructions)
}

// String renders the profile as a multi-line report.
func (p Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s: %d instructions, %d static\n", p.Name, p.Instructions, p.UniquePCs)
	fmt.Fprintf(&b, "  loads %.1f%%  stores %.1f%%  branches %.1f%% (%.1f%% taken)  fp %.1f%%\n",
		100*float64(p.Loads)/max1(p.Instructions),
		100*float64(p.Stores)/max1(p.Instructions),
		100*p.BranchFraction(),
		100*float64(p.TakenBranch)/max1(p.Branches),
		100*p.FpFraction())
	fmt.Fprintf(&b, "  touched %d lines (~%d KB)  mean dep distance %.1f  new-line/load %.1f%%  steady-line/inst %.2f%%\n",
		p.UniqueLines, p.UniqueLines*64/1024, p.AvgDepDist, 100*p.NewLinesPerLoad, 100*p.SteadyLineRate)
	fmt.Fprintf(&b, "  chains: depth mean %.1f  width mean %.1f  crit path %.1f/%d %.1f/%d\n",
		p.MeanChainDepth, p.MeanChainWidth,
		p.CritPathSub, ChainSubWindow, p.CritPathWin, ChainWindow)
	fmt.Fprintf(&b, "  depth hist %s\n  width hist %s\n",
		histString(p.DepthHist), histString(p.WidthHist))
	fmt.Fprintf(&b, "  crit-path mix:%s\n", classMixString(p.CritClassFrac))
	fmt.Fprintf(&b, "  branches: entropy %.2fb  bias-miss %.1f%%  local-miss %.1f%%\n",
		p.BranchEntropy, 100*p.BranchBiasMiss, 100*p.BranchLocalMiss)
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		if p.ClassCount[c] > 0 {
			fmt.Fprintf(&b, "  %-7s %6.2f%%\n", c, 100*p.ClassFraction(c))
		}
	}
	return b.String()
}

// histString renders a log2-bucketed histogram as "1:n 2:n 4:n ...",
// omitting empty buckets.
func histString(h [ChainBuckets]int) string {
	var b strings.Builder
	for i, n := range h {
		if n == 0 {
			continue
		}
		fmt.Fprintf(&b, " %d:%d", 1<<i, n)
	}
	if b.Len() == 0 {
		return " (empty)"
	}
	return b.String()
}

// classMixString renders a per-class fraction vector, omitting zeros.
func classMixString(m [isa.NumClasses]float64) string {
	var b strings.Builder
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		if m[c] > 0 {
			fmt.Fprintf(&b, " %s %.0f%%", c, 100*m[c])
		}
	}
	if b.Len() == 0 {
		return " (empty)"
	}
	return b.String()
}

func max1(n int) float64 {
	if n <= 0 {
		return 1
	}
	return float64(n)
}
