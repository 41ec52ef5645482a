package sim

import (
	"reflect"
	"testing"
)

// stepToBoundary advances the machine until an inExec==0 boundary at or
// after the target committed count, and reports how many pending memory
// events the boundary carries.
func stepToBoundary(t *testing.T, e *Engine, committed int64) int {
	t.Helper()
	for i := 0; i < 20_000_000; i++ {
		if e.Committed() >= committed && e.inExec == 0 {
			return e.hier.EQ.Len()
		}
		e.Step()
	}
	t.Fatal("no inExec==0 boundary found")
	return 0
}

// TestEngineCloneActiveMidRun: an active clone taken mid-run — pending
// memory events, busy MSHRs and queued fetches in flight — must continue
// bit-identically to the machine it was cloned from, for every queue
// design. This is the property the prefix-sharing ladder rests on.
func TestEngineCloneActiveMidRun(t *testing.T) {
	const workload, seed, n, warm = "swim", 1, 8000, 50_000
	sawPending := false
	for name, cfg := range forkTestConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			ck, err := NewCheckpoint(cfg, ContextSpec{Workload: workload, Seed: seed, Warm: warm})
			if err != nil {
				t.Fatal(err)
			}
			p, err := ck.Fork(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pending := stepToBoundary(t, p, 2000)
			if pending > 0 {
				sawPending = true
			}
			twin, err := p.CloneActive()
			if err != nil {
				t.Fatal(err)
			}
			a, err := p.Run(n)
			if err != nil {
				t.Fatal(err)
			}
			b, err := twin.Run(n)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("active clone diverged\noriginal: %+v\nclone:    %+v", a.Stats, b.Stats)
			}
		})
	}
	if !sawPending {
		t.Error("no design hit a boundary with pending events; test exercises nothing beyond Clone")
	}
}

// TestEngineCloneActiveRejectsMidExecution: between boundaries the gate
// must hold — instructions in execution cannot be carried across.
func TestEngineCloneActiveRejectsMidExecution(t *testing.T) {
	cfg := SegmentedConfig(128, 64, false, false)
	ck, err := NewCheckpoint(cfg, ContextSpec{Workload: "swim", Seed: 1, Warm: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ck.Fork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000 && p.inExec == 0; i++ {
		p.Step()
	}
	if p.inExec == 0 {
		t.Skip("machine never entered execution in 5000 cycles")
	}
	if _, err := p.CloneActive(); err == nil {
		t.Error("active clone accepted with instructions in execution")
	}
}
