package experiments

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// The §7 power discussion: "Copying an instruction from segment to
// segment consumes more dynamic power than keeping the instruction in a
// single storage location between dispatch and issue; whether the
// performance benefit of the segmented IQ justifies this power
// consumption will depend on the detailed design."
//
// This experiment quantifies that trade with a first-order event-energy
// proxy. Costs are in arbitrary units per event, chosen by circuit
// intuition (a CAM search across an entry costs about what an SRAM entry
// move costs; a one-hot wire assertion across one segment is far
// cheaper):
//
//	wakeup search     1 per searched-entry-cycle (CAM tag comparison)
//	entry write/move  4 per dispatch and per inter-segment copy
//	chain wire        0.25 per assertion per segment traversed
//	issue read        2 per issued instruction
//
// The monolithic queue searches its whole occupancy every cycle; the
// segmented queue searches only segment 0 but pays for promotion copies
// and chain wires. The proxy is deliberately simple — the point is the
// *structure* of the comparison, not watts.

// The proxy's per-event costs, as tabulated above.
const (
	wakeupPerEntryCycle = 1
	entryWrite          = 4
	wirePerSegment      = 0.25
	issueRead           = 2
)

// powerSize is the capacity of both compared queues.
const powerSize = 512

// PowerResult compares the energy proxy of the ideal and segmented
// queues at equal capacity.
type PowerResult struct {
	Benchmarks []string
	// EnergyPerInst[design][bench]: proxy units per committed instruction.
	EnergyPerInst map[string]map[string]float64
	// IPC[design][bench] for the performance side of the trade.
	IPC map[string]map[string]float64
}

// powerJobs enumerates the §7 energy-proxy comparison's grid.
func powerJobs(o Options) []job {
	var jobs []job
	for _, wl := range o.benchmarks() {
		jobs = append(jobs,
			job{key: "ideal/" + wl, cfg: sim.DefaultConfig(sim.QueueIdeal, powerSize), wl: wl},
			job{key: "segmented/" + wl, cfg: sim.SegmentedConfig(powerSize, 128, true, true), wl: wl},
		)
	}
	return jobs
}

// PowerFrom assembles the §7 energy-proxy comparison from
// already-computed results.
func PowerFrom(o Options, res map[string]*sim.Result) (*PowerResult, error) {
	benches := o.benchmarks()
	if err := requireResults(res, powerJobs(o)); err != nil {
		return nil, err
	}
	const segs = powerSize / 32

	out := &PowerResult{
		Benchmarks:    benches,
		EnergyPerInst: map[string]map[string]float64{"ideal": {}, "segmented": {}},
		IPC:           map[string]map[string]float64{"ideal": {}, "segmented": {}},
	}
	for _, wl := range benches {
		ideal := res["ideal/"+wl]
		seg := res["segmented/"+wl]
		out.IPC["ideal"][wl] = ideal.IPC
		out.IPC["segmented"][wl] = seg.IPC

		// Monolithic: whole-occupancy CAM search every cycle, one write at
		// dispatch, one read at issue.
		iCycles := ideal.Stats.MustGet("cycles")
		iOcc := ideal.Stats.MustGet("iq_occupancy_avg")
		iDisp := ideal.Stats.MustGet("iq_dispatched")
		iIss := ideal.Stats.MustGet("iq_issued")
		iEnergy := wakeupPerEntryCycle*iOcc*iCycles + entryWrite*iDisp + issueRead*iIss
		out.EnergyPerInst["ideal"][wl] = iEnergy / float64(ideal.Instructions)

		// Segmented: segment-0 CAM search only, writes at dispatch and per
		// promotion/pushdown copy, chain wires pipelined across segments
		// (approximate each assertion as traversing half the queue).
		sCycles := seg.Stats.MustGet("cycles")
		sSeg0 := seg.Stats.MustGet("seg0_occupancy_avg")
		sDisp := seg.Stats.MustGet("iq_dispatched")
		sIss := seg.Stats.MustGet("iq_issued")
		sMoves := seg.Stats.MustGet("iq_promotions") + seg.Stats.MustGet("iq_pushdowns")
		sWires := seg.Stats.MustGet("chain_wire_assertions")
		sEnergy := wakeupPerEntryCycle*sSeg0*sCycles +
			entryWrite*(sDisp+sMoves) +
			wirePerSegment*sWires*float64(segs)/2 +
			issueRead*sIss
		out.EnergyPerInst["segmented"][wl] = sEnergy / float64(seg.Instructions)
	}
	return out, nil
}

// Table renders the comparison: energy proxy per instruction and the
// accompanying IPC, per design.
func (p *PowerResult) Table() *stats.Table {
	t := stats.NewTable("metric", p.Benchmarks...)
	rows := []struct {
		label  string
		values func(wl string) string
	}{
		{"ideal E/inst", func(wl string) string { return fmt.Sprintf("%.0f", p.EnergyPerInst["ideal"][wl]) }},
		{"seg E/inst", func(wl string) string { return fmt.Sprintf("%.0f", p.EnergyPerInst["segmented"][wl]) }},
		{"seg/ideal E", func(wl string) string {
			return fmt.Sprintf("%.2fx", p.EnergyPerInst["segmented"][wl]/p.EnergyPerInst["ideal"][wl])
		}},
		{"seg/ideal IPC", func(wl string) string {
			return fmt.Sprintf("%.2f", p.IPC["segmented"][wl]/p.IPC["ideal"][wl])
		}},
	}
	for _, r := range rows {
		cells := make(map[string]string)
		for _, wl := range p.Benchmarks {
			cells[wl] = r.values(wl)
		}
		t.AddRow(r.label, cells)
	}
	return t
}
