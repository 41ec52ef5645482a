package experiments

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
)

// The SMT scenario matrix: co-scheduled workload sets contending for one
// shared instruction queue — the evaluation the paper's §7 sketches but
// never ran. Each grid point is a multi-context machine (checkpointed
// per context set, forked per queue design) running a pinned pair of
// workload characteristics at 2 and 4 hardware contexts.

// SMTPairs are the default co-scheduled context sets, chosen to maximise
// contention along different axes: a cache-streaming FP workload against
// an integer pointer-chaser, and a high-ILP stencil against a branchy
// high-mispredict workload.
var SMTPairs = []string{"swim+twolf", "mgrid+gcc"}

// SMTContextCounts are the hardware-context counts of the grid. A
// four-context point co-schedules the pair twice (a+b+a+b), with
// distinct per-context seeds.
var SMTContextCounts = []int{2, 4}

// SMTDesigns are the queue designs of the grid, one pinned machine per
// design (shared Table 1 geometry, so all designs fork from one
// checkpoint per context set).
var SMTDesigns = []string{"ideal", "segmented", "prescheduled", "fifos", "distance"}

func smtDesignConfig(name string) sim.Config {
	switch name {
	case "ideal":
		return sim.DefaultConfig(sim.QueueIdeal, 256)
	case "segmented":
		return sim.SegmentedConfig(256, 64, true, true)
	case "prescheduled":
		return sim.PrescheduledConfig(320)
	case "fifos":
		return sim.FIFOConfig(256)
	case "distance":
		return sim.DistanceConfig(320)
	}
	panic("experiments: unknown SMT design " + name)
}

// smtSets returns the base context sets of the grid: the -benchmarks
// entries when given (each a workload or "+"-joined set), the pinned
// pairs otherwise.
func (o Options) smtSets() []string {
	if len(o.Benchmarks) > 0 {
		return o.Benchmarks
	}
	return SMTPairs
}

// smtSet builds the n-context set from a base set by cycling its
// elements: swim+twolf at 4 contexts is swim+twolf+swim+twolf.
func smtSet(base string, n int) string {
	parts := strings.Split(base, "+")
	out := make([]string, n)
	for i := range out {
		out[i] = parts[i%len(parts)]
	}
	return strings.Join(out, "+")
}

// smtJobs enumerates the SMT grid: base sets × context counts × designs.
func smtJobs(o Options) []job {
	var jobs []job
	for _, base := range o.smtSets() {
		for _, nctx := range SMTContextCounts {
			wl := smtSet(base, nctx)
			for _, d := range SMTDesigns {
				jobs = append(jobs, job{
					key: fmt.Sprintf("%s/%dctx/%s", d, nctx, base),
					cfg: smtDesignConfig(d),
					wl:  wl,
				})
			}
		}
	}
	return jobs
}

// SMTResult holds the SMT matrix: per design, per context count, per
// base set, aggregate IPC and the per-context committed-instruction
// split (fairness: a design that starves one context shows it here).
type SMTResult struct {
	Sets     []string
	Contexts []int
	Designs  []string
	// IPC[design][nctx][set] is the machine's aggregate IPC.
	IPC map[string]map[int]map[string]float64
	// Committed[design][nctx][set][i] is context i's retired instructions.
	Committed map[string]map[int]map[string][]int64
}

// SMTFrom assembles the SMT matrix from already-computed results (a
// local batch or a merged sharded sweep).
func SMTFrom(o Options, res map[string]*sim.Result) (*SMTResult, error) {
	if err := requireResults(res, smtJobs(o)); err != nil {
		return nil, err
	}
	out := &SMTResult{
		Sets:      o.smtSets(),
		Contexts:  SMTContextCounts,
		Designs:   SMTDesigns,
		IPC:       make(map[string]map[int]map[string]float64),
		Committed: make(map[string]map[int]map[string][]int64),
	}
	for _, d := range SMTDesigns {
		out.IPC[d] = make(map[int]map[string]float64)
		out.Committed[d] = make(map[int]map[string][]int64)
		for _, nctx := range SMTContextCounts {
			out.IPC[d][nctx] = make(map[string]float64)
			out.Committed[d][nctx] = make(map[string][]int64)
			for _, base := range out.Sets {
				r := res[fmt.Sprintf("%s/%dctx/%s", d, nctx, base)]
				out.IPC[d][nctx][base] = r.IPC
				per := make([]int64, nctx)
				for i := range per {
					per[i] = int64(r.Stats.MustGet(fmt.Sprintf("thread%d_committed", i)))
				}
				out.Committed[d][nctx][base] = per
			}
		}
	}
	return out, nil
}

// Table renders the matrix: one row per design × context count, one
// column per base set showing aggregate IPC and the per-context split.
func (r *SMTResult) Table() *stats.Table {
	t := stats.NewTable("design", r.Sets...)
	for _, d := range r.Designs {
		for _, nctx := range r.Contexts {
			cells := make(map[string]string, len(r.Sets))
			for _, base := range r.Sets {
				var parts []string
				for _, c := range r.Committed[d][nctx][base] {
					parts = append(parts, fmt.Sprintf("%d", c))
				}
				cells[base] = fmt.Sprintf("%.3f (%s)", r.IPC[d][nctx][base], strings.Join(parts, "/"))
			}
			t.AddRow(fmt.Sprintf("%s/%dctx", d, nctx), cells)
		}
	}
	return t
}
