package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/trace"
	"repro/internal/uop"
)

// recycleDesigns covers the five queue designs at a size every one of
// them accepts.
var recycleDesigns = []Config{
	DefaultConfig(QueueIdeal, 128),
	SegmentedConfig(128, 0, true, true),
	PrescheduledConfig(128),
	FIFOConfig(128),
	DistanceConfig(128),
}

// recycleWorkloads lists the per-context workloads of an n-context
// machine, a different program on each context.
func recycleWorkloads(n int) []string {
	return []string{"swim", "gcc", "twolf", "mgrid"}[:n]
}

// warmedEngine builds a machine over the workloads with seeds 1, 2, …
// and fast-forwards every context warm instructions.
func warmedEngine(t *testing.T, cfg Config, workloads []string, warm int64) *Engine {
	t.Helper()
	streams := make([]trace.Stream, len(workloads))
	for i, w := range workloads {
		s, err := trace.New(w, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = s
	}
	e, err := NewEngine(cfg, streams)
	if err != nil {
		t.Fatal(err)
	}
	e.Warm(streams, warm)
	return e
}

// TestDetailedPhaseAllocFree pins the detailed cycle loop's steady state:
// once the machine has run long enough for its buffers to reach their
// working sizes, stepping allocates (almost) nothing. Committed uops are
// reused by fetch, the fetch buffer is a ring, queue rows keep their
// backing arrays and the event heap holds no pointers. What remains is
// amortised slice growth, far below one allocation per hundred committed
// instructions; before uop reuse it was about two per instruction.
func TestDetailedPhaseAllocFree(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not representative under the race detector")
	}
	const window = 20_000
	for _, cfg := range recycleDesigns {
		for _, n := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/%dctx", cfg.Queue, n), func(t *testing.T) {
				e := warmedEngine(t, cfg, recycleWorkloads(n), 50_000)
				for i := 0; i < 2*window; i++ {
					e.Step()
				}
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				mallocs, before := ms.Mallocs, e.Committed()
				for i := 0; i < window; i++ {
					e.Step()
				}
				runtime.ReadMemStats(&ms)
				allocs, committed := ms.Mallocs-mallocs, e.Committed()-before
				if committed < window/10 {
					t.Fatalf("only %d instructions committed in %d cycles", committed, window)
				}
				t.Logf("%d allocations over %d committed instructions", allocs, committed)
				if per := float64(allocs) / float64(committed); per >= 0.01 {
					t.Errorf("%d allocations over %d committed instructions (%.3f each), want < 0.01 each",
						allocs, committed, per)
				}
			})
		}
	}
}

// staleRef reports which of its contexts' structures still name u: the
// ROB (as an entry or an entry's producer), the rename table, the LSQ's
// lists, or the front end's buffer and stalled-on branch. A uop about to
// be reused must be named by none of them.
func staleRef(e *Engine, u *uop.UOp) string {
	for _, th := range e.ctxs {
		switch {
		case th.rob.Refers(u):
			return fmt.Sprintf("context %d ROB", th.id)
		case th.ren.Refers(u):
			return fmt.Sprintf("context %d rename table", th.id)
		case th.lsq.Refers(u):
			return fmt.Sprintf("context %d LSQ", th.id)
		case th.fe.Refers(u):
			return fmt.Sprintf("context %d front end", th.id)
		}
	}
	return ""
}

// recycleRun is one oracle scenario on one machine: a prefix-sharing
// family run (checkpoint forks, ladder rungs taken with CloneActive and
// refitted siblings from CloneBounded), then a forked machine cloned
// mid-run with both halves run to the budget.
func recycleRun(cfgs []Config, specs []ContextSpec, n int64) ([]*Result, error) {
	ck, err := NewCheckpoint(cfgs[0], specs...)
	if err != nil {
		return nil, err
	}
	out, err := RunFamily(ck, cfgs, n, true, nil)
	if err != nil {
		return nil, err
	}
	p, err := ck.Fork(cfgs[0])
	if err != nil {
		return nil, err
	}
	if err := p.runHooked(n/2, nil); err != nil {
		return nil, err
	}
	for p.inExec != 0 {
		p.Step()
	}
	c, err := p.CloneActive()
	if err != nil {
		return nil, err
	}
	for _, m := range []*Engine{p, c} {
		r, err := m.Run(n)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// TestRecycleSafety is the oracle for uop reuse. A hook sees every uop a
// front end is about to reuse and fails the test if any ROB entry, rename
// table row, LSQ list, fetch-buffer slot or stalled-on branch of the
// machine still names it. Every design runs on 1, 2 and 4 contexts
// through checkpoint forks, the prefix ladder and mid-run active clones,
// the scenarios in parallel (each engine recycles through its own
// front ends), and every result must equal a run that never reuses.
func TestRecycleSafety(t *testing.T) {
	const n, warm = 6_000, 20_000
	var reused atomic.Int64
	reuseCheck = func(e *Engine, u *uop.UOp) {
		reused.Add(1)
		if where := staleRef(e, u); where != "" {
			t.Errorf("uop #%d reused while the %s still names it", u.Seq, where)
		}
	}
	t.Cleanup(func() { reuseCheck, neverReuse = nil, false })

	type scenario struct {
		name  string
		cfgs  []Config
		specs []ContextSpec
	}
	var scs []scenario
	for _, name := range []string{"ideal", "segmented", "presched", "fifos", "distance"} {
		for _, nctx := range []int{1, 2, 4} {
			specs := make([]ContextSpec, nctx)
			for i, w := range recycleWorkloads(nctx) {
				specs[i] = ContextSpec{Workload: w, Seed: uint64(i + 1), Warm: warm}
			}
			scs = append(scs, scenario{fmt.Sprintf("%s/%dctx", name, nctx), prefixFamilies()[name], specs})
		}
	}
	runAll := func(never bool) [][]*Result {
		neverReuse = never
		res := make([][]*Result, len(scs))
		var wg sync.WaitGroup
		sem := make(chan struct{}, 2)
		for i, sc := range scs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				r, err := recycleRun(sc.cfgs, sc.specs, n)
				if err != nil {
					t.Errorf("%s: %v", sc.name, err)
				}
				res[i] = r
			}()
		}
		wg.Wait()
		return res
	}
	want := runAll(true)
	if reused.Load() != 0 {
		t.Fatalf("%d uops reused with reuse switched off", reused.Load())
	}
	got := runAll(false)
	if reused.Load() == 0 {
		t.Fatal("no uop was reused; the oracle checked nothing")
	}
	t.Logf("%d reuses checked", reused.Load())
	for i, sc := range scs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: results with uop reuse differ from a run that never reuses", sc.name)
		}
	}
}
