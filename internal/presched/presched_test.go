package presched

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/uop"
)

func alu(seq int64, s1, s2, d int) *uop.UOp {
	return uop.New(seq, isa.Inst{Class: isa.IntAlu, Src1: s1, Src2: s2, Dest: d})
}

func load(seq int64, d int) *uop.UOp {
	return uop.New(seq, isa.Inst{Class: isa.Load, Src1: isa.RegNone, Src2: isa.RegNone, Dest: d, Size: 8})
}

func always(*uop.UOp) bool { return true }

func TestDefaultConfigSizes(t *testing.T) {
	// The paper's prescheduling points: 128, 320, 704, 1472 total slots
	// = 32-entry buffer + 8/24/56/120 lines of 12.
	for _, c := range []struct{ total, lines int }{
		{128, 8}, {320, 24}, {704, 56}, {1472, 120},
	} {
		cfg := DefaultConfig(c.total)
		if cfg.Lines != c.lines {
			t.Errorf("DefaultConfig(%d).Lines = %d, want %d", c.total, cfg.Lines, c.lines)
		}
		q := MustNew(cfg)
		if q.Capacity() != c.total {
			t.Errorf("capacity = %d, want %d", q.Capacity(), c.total)
		}
	}
	if DefaultConfig(10).Lines != 1 {
		t.Error("degenerate size should clamp to one line")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Lines: 0, LineWidth: 12, IssueBuffer: 32, PredictedLoadLatency: 4},
		{Lines: 8, LineWidth: 0, IssueBuffer: 32, PredictedLoadLatency: 4},
		{Lines: 8, LineWidth: 12, IssueBuffer: 0, PredictedLoadLatency: 4},
		{Lines: 8, LineWidth: 12, IssueBuffer: 32, PredictedLoadLatency: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if q := MustNew(DefaultConfig(128)); q.Name() != "prescheduled" || q.ExtraDispatchStages() != 1 {
		t.Error("identity wrong")
	}
}

func TestReadyInstructionFlowsThroughHeadRow(t *testing.T) {
	q := MustNew(Config{Lines: 8, LineWidth: 12, IssueBuffer: 32, PredictedLoadLatency: 4})
	u := alu(0, isa.RegNone, isa.RegNone, 1)
	q.BeginCycle(0)
	if !q.Dispatch(0, u) {
		t.Fatal("dispatch failed")
	}
	if q.Len() != 1 {
		t.Fatal("len")
	}
	// Cycle 1: head row drains to the buffer; not issuable that cycle.
	q.BeginCycle(1)
	if got := q.Issue(1, 8, always); len(got) != 0 {
		t.Fatal("issued in the buffer-arrival cycle")
	}
	q.BeginCycle(2)
	if got := q.Issue(2, 8, always); len(got) != 1 || got[0] != u {
		t.Fatalf("issue = %v", got)
	}
	if q.Len() != 0 {
		t.Error("len after issue")
	}
}

func TestDependentPlacedInLaterRow(t *testing.T) {
	q := MustNew(Config{Lines: 16, LineWidth: 12, IssueBuffer: 32, PredictedLoadLatency: 4})
	q.BeginCycle(0)
	ld := load(0, 1)
	q.Dispatch(0, ld)
	con := alu(1, 1, isa.RegNone, 2)
	con.Prod[0] = ld
	q.Dispatch(0, con)
	// Load predicted available at 0+0+1+4 = 5: consumer goes to row
	// offset 5. Drive the protocol; the consumer must not reach the
	// buffer before ~5 cycles have elapsed.
	reachedBuf := int64(-1)
	for cycle := int64(1); cycle <= 10; cycle++ {
		q.BeginCycle(cycle)
		for _, e := range q.buf {
			if e.u == con && reachedBuf < 0 {
				reachedBuf = cycle
			}
		}
		q.Issue(cycle, 8, always)
		// Let the load complete right after issue with its predicted hit
		// latency so the consumer is ready when it arrives.
		if ld.IssueCycle != uop.NotYet && ld.Complete == uop.NotYet {
			ld.Complete = ld.IssueCycle + 4
		}
	}
	if reachedBuf < 5 {
		t.Errorf("consumer reached the buffer at cycle %d, want >= 5", reachedBuf)
	}
	if con.IssueCycle == uop.NotYet {
		t.Error("consumer never issued")
	}
}

func TestMispredictedLoadCampsInBuffer(t *testing.T) {
	// A load that misses leaves its dependent sitting unready in the
	// issue buffer — the weakness the paper attributes to prescheduling.
	q := MustNew(Config{Lines: 16, LineWidth: 12, IssueBuffer: 32, PredictedLoadLatency: 4})
	q.BeginCycle(0)
	ld := load(0, 1)
	q.Dispatch(0, ld)
	con := alu(1, 1, isa.RegNone, 2)
	con.Prod[0] = ld
	q.Dispatch(0, con)

	inBufUnready := 0
	for cycle := int64(1); cycle <= 30; cycle++ {
		q.BeginCycle(cycle)
		q.Issue(cycle, 8, always)
		// The load misses: data not back until cycle 25.
		if ld.IssueCycle != uop.NotYet && ld.Complete == uop.NotYet {
			ld.Complete = 25
			q.NotifyLoadMiss(cycle, ld) // no-op by design
		}
		for _, e := range q.buf {
			if u := e.u; u == con && !u.Ready(cycle) {
				inBufUnready++
			}
		}
	}
	if inBufUnready < 10 {
		t.Errorf("dependent camped unready for %d cycles, expected many", inBufUnready)
	}
	if con.IssueCycle == uop.NotYet || con.IssueCycle < 25 {
		t.Errorf("consumer issued at %d, want >= 25", con.IssueCycle)
	}
}

func TestRowOverflowFallsToLaterRows(t *testing.T) {
	q := MustNew(Config{Lines: 4, LineWidth: 2, IssueBuffer: 4, PredictedLoadLatency: 4})
	q.BeginCycle(0)
	// Fill row 0 (two ready instructions), third spills to row 1.
	for i := int64(0); i < 3; i++ {
		if !q.Dispatch(0, alu(i, isa.RegNone, isa.RegNone, 1)) {
			t.Fatalf("dispatch %d failed", i)
		}
	}
	row0 := q.lines[q.head%q.cfg.Lines]
	row1 := q.lines[(q.head+1)%q.cfg.Lines]
	if len(row0) != 2 || len(row1) != 1 {
		t.Fatalf("row fill = %d/%d", len(row0), len(row1))
	}
}

func TestDispatchStallWhenArrayFull(t *testing.T) {
	q := MustNew(Config{Lines: 2, LineWidth: 1, IssueBuffer: 2, PredictedLoadLatency: 4})
	q.BeginCycle(0)
	if !q.Dispatch(0, alu(0, isa.RegNone, isa.RegNone, 1)) ||
		!q.Dispatch(0, alu(1, isa.RegNone, isa.RegNone, 1)) {
		t.Fatal("fills failed")
	}
	if q.Dispatch(0, alu(2, isa.RegNone, isa.RegNone, 1)) {
		t.Fatal("dispatch into full array accepted")
	}
	s := stats.NewSet()
	q.CollectStats(s)
	if s.MustGet("iq_stall_full") != 1 {
		t.Error("stall not counted")
	}
}

func TestBufferStallsArray(t *testing.T) {
	// Rows cannot drain while the buffer is full of unready campers.
	q := MustNew(Config{Lines: 8, LineWidth: 2, IssueBuffer: 2, PredictedLoadLatency: 4})
	ghost := load(99, 9)
	q.BeginCycle(0)
	for i := int64(0); i < 4; i++ {
		u := alu(i, 9, isa.RegNone, 1)
		u.Prod[0] = ghost // never ready
		q.Dispatch(0, u)
	}
	for cycle := int64(1); cycle <= 6; cycle++ {
		q.BeginCycle(cycle)
		q.Issue(cycle, 8, always)
	}
	if len(q.buf) != 2 {
		t.Fatalf("buffer holds %d, want 2 campers", len(q.buf))
	}
	if q.Len() != 4 {
		t.Fatalf("len = %d; array must retain the remainder", q.Len())
	}
	// Once the ghost completes, everything drains. The writeback call
	// delivers the wakeup, as the pipeline would for a real producer.
	ghost.Complete = 7
	q.Writeback(7, ghost)
	for cycle := int64(7); cycle <= 14; cycle++ {
		q.BeginCycle(cycle)
		q.Issue(cycle, 8, always)
	}
	if q.Len() != 0 {
		t.Fatalf("len = %d after drain", q.Len())
	}
}

func TestAvailabilityTableUsesResolvedTimes(t *testing.T) {
	q := MustNew(Config{Lines: 16, LineWidth: 12, IssueBuffer: 32, PredictedLoadLatency: 4})
	q.BeginCycle(0)
	ld := load(0, 1)
	q.Dispatch(0, ld)
	// The load resolves late (a miss), before the consumer dispatches:
	// the consumer must be scheduled with the real completion time.
	ld.Complete = 20
	con := alu(1, 1, isa.RegNone, 2)
	con.Prod[0] = ld
	q.BeginCycle(1)
	q.Dispatch(1, con)
	// Predicted ready = 20 → row offset 19, clamped to Lines-1 = 15.
	found := -1
	for k := 0; k < q.cfg.Lines; k++ {
		for _, u := range q.lines[(q.head+k)%q.cfg.Lines] {
			if u == con {
				found = k // head-relative row offset
			}
		}
	}
	if found < 10 {
		t.Errorf("consumer in row offset %d; resolved miss latency should push it deep", found)
	}
}

func TestWritebackReleasesAvailRow(t *testing.T) {
	q := MustNew(DefaultConfig(128))
	q.BeginCycle(0)
	ld := load(0, 1)
	q.Dispatch(0, ld)
	if !q.avail[1].valid {
		t.Fatal("avail row not set")
	}
	// Younger producer of the same register.
	ld2 := load(1, 1)
	q.Dispatch(0, ld2)
	q.Writeback(5, ld)
	if !q.avail[1].valid || q.avail[1].producer != ld2 {
		t.Fatal("younger row clobbered")
	}
	q.Writeback(6, ld2)
	if q.avail[1].valid {
		t.Fatal("row not released")
	}
	// Writeback of a destination-less op is a no-op.
	st := uop.New(2, isa.Inst{Class: isa.Store, Src1: 1, Src2: 2, Size: 8})
	q.Writeback(7, st)
}

func TestStatsComplete(t *testing.T) {
	q := MustNew(DefaultConfig(128))
	q.BeginCycle(0)
	q.Dispatch(0, alu(0, isa.RegNone, isa.RegNone, 1))
	q.BeginCycle(1)
	q.Issue(1, 8, always)
	s := stats.NewSet()
	q.CollectStats(s)
	for _, name := range []string{
		"iq_dispatched", "iq_issued", "iq_stall_full",
		"presched_buf_occupancy_avg", "presched_buf_unready_avg",
		"presched_array_occupancy_avg",
	} {
		if _, ok := s.Get(name); !ok {
			t.Errorf("missing stat %q", name)
		}
	}
	// No-op notifications must not panic.
	q.NotifyLoadMiss(0, nil)
	q.NotifyLoadComplete(0, nil)
	q.EndCycle(0, false)
}
