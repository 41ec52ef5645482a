package main

import (
	"fmt"
	"time"

	iqsim "repro"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/uop"
)

// replayDesigns are the queue designs the replay times, named by their
// package: the segmented and ideal queues at 512 entries, and the other
// three at the sizes the "smt" grid runs them.
var replayDesigns = []struct {
	layer string
	cfg   sim.Config
}{
	{"core", iqsim.Segmented(512, 128, true, true)},
	{"iq", iqsim.Ideal(512)},
	{"presched", iqsim.Prescheduled(320)},
	{"fifoiq", iqsim.FIFOBased(256)},
	{"distiq", iqsim.Distance(320)},
}

// replayInsts is the length of the instruction prefix a replay runs.
const replayInsts = 20_000

// replayTimes is one replay's host time per iq.Queue call site, summed
// over its cycles.
type replayTimes struct {
	cycles                            int64
	writeback, begin, issue, dispatch time.Duration
}

// perCycleNS returns the mean host nanoseconds per simulated cycle of d.
func (r replayTimes) perCycleNS(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / float64(r.cycles)
}

// replay drives the queue sim.NewEngine builds for cfg through the
// iq.Queue protocol over a fixed instruction sequence, with the rest of
// the machine reduced to a fixed latency per class: producers are linked
// by last writer, every function unit is free, and every load hits the
// L1. All uops are allocated before the clock starts, so the times are
// the queue's own. The engine is built over s only to obtain its queue;
// it is never stepped, so s is not read.
func replay(cfg sim.Config, insts []isa.Inst, s trace.Stream) (replayTimes, error) {
	e, err := sim.NewEngine(cfg, []trace.Stream{s})
	if err != nil {
		return replayTimes{}, err
	}
	q := e.Queue()
	loadLat := int64(cfg.Memory.L1D.HitLatency)

	uops := make([]*uop.UOp, len(insts))
	prods := make([][2]*uop.UOp, len(insts))
	var last [isa.NumRegs]*uop.UOp
	for i, in := range insts {
		u := uop.New(int64(i), in)
		for j := 0; j < 2; j++ {
			if r := u.Src(j); r != isa.RegNone && r != isa.RegZero {
				prods[i][j] = last[r]
			}
		}
		if in.HasDest() {
			last[in.Dest] = u
		}
		uops[i] = u
	}

	// Completions land in a wheel of per-cycle buckets; the longest
	// latency (a load's address cycle plus its hit) fits well inside it.
	const wheel = 64
	var due [wheel][]*uop.UOp
	inFlight := 0
	always := func(*uop.UOp) bool { return true }

	var rt replayTimes
	next := 0
	limit := int64(len(insts))*100 + 10_000
	for c := int64(1); next < len(uops) || inFlight > 0 || q.Len() > 0; c++ {
		if c > limit {
			return rt, fmt.Errorf("replay of %s stuck at cycle %d (%d/%d dispatched)", q.Name(), c, next, len(uops))
		}
		t0 := time.Now()
		for _, u := range due[c%wheel] {
			inFlight--
			if u.IsLoad() {
				u.Complete = c
				u.MemKind = uop.MemHit
				q.NotifyLoadComplete(c, u)
			} else if u.IsStore() {
				u.Complete = c
			}
			q.Writeback(c, u)
		}
		due[c%wheel] = due[c%wheel][:0]
		t1 := time.Now()
		q.BeginCycle(c)
		t2 := time.Now()
		issued := q.Issue(c, cfg.IssueWidth, always)
		t3 := time.Now()
		for _, u := range issued {
			u.IssueCycle = c
			at := c + int64(u.Latency())
			switch {
			case u.IsLoad():
				u.EADone = at
				at += loadLat
			case u.IsStore():
				u.EADone = at
			default:
				u.Complete = at
			}
			due[at%wheel] = append(due[at%wheel], u)
			inFlight++
		}
		t4 := time.Now()
		for w := 0; w < cfg.DispatchWidth && next < len(uops); w++ {
			u := uops[next]
			if !u.Renamed {
				u.Renamed = true
				for j, p := range prods[next] {
					if p != nil && (p.Complete == uop.NotYet || p.Complete > c) {
						u.Prod[j] = p
					}
				}
			}
			if !q.Dispatch(c, u) {
				break
			}
			next++
		}
		t5 := time.Now()
		q.EndCycle(c, inFlight > 0)
		rt.cycles++
		rt.writeback += t1.Sub(t0)
		rt.begin += t2.Sub(t1)
		rt.issue += t3.Sub(t2)
		rt.dispatch += t5.Sub(t4)
	}
	return rt, nil
}
