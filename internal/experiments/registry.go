package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
)

// The experiment registry is the one place an experiment is wired in.
// Each entry names a grid, says whether `iqbench -experiment all` runs
// it, enumerates its jobs and renders its text from a complete result
// set. Every consumer reads this table: RunShard, GridPlan and RunJobs
// (and through them the coordinator and its workers), iqbench's
// -experiment flag, its direct runs and its -merge output. Adding an
// experiment costs one entry.

// experiment is one registered grid.
type experiment struct {
	name string
	// inAll marks the experiments `-experiment all` runs: the paper's
	// evaluation and its extensions, but not the SMT matrix, which goes
	// beyond the paper and runs only when asked for.
	inAll  bool
	jobs   func(Options) []job
	render func(Options, map[string]*sim.Result) (string, error)
}

var registry = []experiment{
	{"fig2", true, fig2Jobs,
		titled("Figure 2: 512-entry segmented IQ relative to ideal 512-entry IQ", Fig2From, tableText[*Fig2Result])},
	{"table2", true, table2Jobs,
		titled("Table 2: chain usage, 512-entry segmented IQ, unlimited chains", Table2From, tableText[*Table2Result])},
	{"fig3", true, fig3Jobs,
		titled("Figure 3: IPC across IQ sizes (prescheduled cells show their own capacity)", Fig3From,
			func(r *Fig3Result) string {
				var b strings.Builder
				tabs := r.Tables()
				for _, wl := range r.Benchmarks {
					b.WriteString(tabs[wl].String() + "\n")
				}
				return b.String()
			})},
	{"intext", true, inTextJobs,
		titled("In-text measurements (§4.3, §4.4, §4.5, §6.1)", InTextFrom,
			func(r map[string]*InTextResult) string { return InTextTable(r).String() })},
	{"related", true, relatedJobs,
		titled(fmt.Sprintf("Related work (§2): dependence-based designs at %d slots", relatedSize), RelatedFrom, tableText[*RelatedResult])},
	{"power", true, powerJobs,
		titled(fmt.Sprintf("Power proxy (§7): %d-entry queues, event-energy units per instruction", powerSize), PowerFrom, tableText[*PowerResult])},
	{"ablations", true, ablationJobs,
		titled("Design ablations: IPC at 512 entries, 128 chains, HMP+LRP", AblationsFrom, tableText[*AblationResult])},
	{"smt", false, smtJobs,
		titled("SMT matrix (§7): aggregate IPC (per-context committed) per queue design and context count", SMTFrom, tableText[*SMTResult])},
}

// titled builds a render step: assemble the typed result, then print
// its text under a title line.
func titled[R any](title string, assemble func(Options, map[string]*sim.Result) (R, error), text func(R) string) func(Options, map[string]*sim.Result) (string, error) {
	return func(o Options, res map[string]*sim.Result) (string, error) {
		r, err := assemble(o, res)
		if err != nil {
			return "", err
		}
		return title + "\n" + text(r), nil
	}
}

func tableText[R interface{ Table() *stats.Table }](r R) string { return r.Table().String() }

// Experiments lists every registered experiment by name, in report order.
var Experiments = func() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}()

func lookup(name string) (*experiment, error) {
	for i := range registry {
		if registry[i].name == name {
			return &registry[i], nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)",
		name, strings.Join(Experiments, ", "))
}

// Select resolves an `iqbench -experiment` argument to the experiments
// it runs, in report order: "all" names every entry marked for it, any
// other argument must name one registered experiment.
func Select(name string) ([]string, error) {
	if name != "all" {
		if _, err := lookup(name); err != nil {
			return nil, err
		}
		return []string{name}, nil
	}
	var names []string
	for _, e := range registry {
		if e.inAll {
			names = append(names, e.name)
		}
	}
	return names, nil
}

// experimentJobs returns the named experiment's full grid, sorted by key
// so every process derives the identical order.
func experimentJobs(name string, o Options) ([]job, error) {
	e, err := lookup(name)
	if err != nil {
		return nil, err
	}
	if err := o.validateBenchmarks(); err != nil {
		return nil, err
	}
	jobs := e.jobs(o)
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].key < jobs[k].key })
	return jobs, nil
}

// Render prints a complete result set — a single-process run or a
// merged sweep — as its experiment's tables. A direct run and the merge
// of its shards render byte-identically, because both are this call on
// byte-identical files.
func Render(sf *ShardFile) (string, error) {
	e, err := lookup(sf.Experiment)
	if err != nil {
		return "", err
	}
	return e.render(sf.Options(), sf.SimResults())
}
