package experiments

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// RelatedResult compares the three dependence-based designs discussed in
// the paper's §2 at equal capacity: Palacharla et al.'s FIFOs, Michaud &
// Seznec's prescheduling array, and the segmented chain queue, with the
// ideal queue as the upper bound. Michaud & Seznec report prescheduling
// outperforming the FIFOs; the paper reports the segmented queue
// outperforming prescheduling; the three-way comparison closes the loop.
type RelatedResult struct {
	Benchmarks []string
	// IPC[design][bench].
	IPC map[string]map[string]float64
}

// relatedSize is the total queue capacity every design gets.
const relatedSize = 256

// RelatedDesigns lists the compared designs in report order.
var RelatedDesigns = []string{"ideal", "fifos", "distance", "prescheduled", "segmented"}

// relatedJobs enumerates the §2 comparison's grid.
func relatedJobs(o Options) []job {
	cfgs := []sim.Config{ // in RelatedDesigns order
		sim.DefaultConfig(sim.QueueIdeal, relatedSize),
		sim.FIFOConfig(relatedSize),
		sim.DistanceConfig(relatedSize),
		sim.PrescheduledConfig(relatedSize),
		sim.SegmentedConfig(relatedSize, 128, true, true),
	}
	var jobs []job
	for _, wl := range o.benchmarks() {
		for i, name := range RelatedDesigns {
			jobs = append(jobs, job{key: name + "/" + wl, cfg: cfgs[i], wl: wl})
		}
	}
	return jobs
}

// RelatedFrom assembles the §2 comparison from already-computed results.
func RelatedFrom(o Options, res map[string]*sim.Result) (*RelatedResult, error) {
	benches := o.benchmarks()
	if err := requireResults(res, relatedJobs(o)); err != nil {
		return nil, err
	}
	out := &RelatedResult{Benchmarks: benches, IPC: make(map[string]map[string]float64)}
	for _, name := range RelatedDesigns {
		out.IPC[name] = make(map[string]float64)
		for _, wl := range benches {
			out.IPC[name][wl] = res[name+"/"+wl].IPC
		}
	}
	return out, nil
}

// Table renders the comparison.
func (r *RelatedResult) Table() *stats.Table {
	t := stats.NewTable(fmt.Sprintf("design@%d", relatedSize), r.Benchmarks...)
	for _, name := range RelatedDesigns {
		cells := make(map[string]string)
		for _, wl := range r.Benchmarks {
			cells[wl] = fmt.Sprintf("%.3f", r.IPC[name][wl])
		}
		t.AddRow(name, cells)
	}
	return t
}
