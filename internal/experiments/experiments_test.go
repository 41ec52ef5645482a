package experiments

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// tinyOptions keeps the harness tests fast while still exercising every
// configuration each experiment launches.
func tinyOptions(benches ...string) Options {
	o := DefaultOptions()
	o.Instructions = 1500
	o.Warmup = 20_000
	o.Benchmarks = benches
	return o
}

// runGrid runs the named experiment's whole grid in one process, as a
// direct `iqbench -experiment` run does.
func runGrid(t *testing.T, o Options, name string) *ShardFile {
	t.Helper()
	sf, err := RunShard(o, name, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sf
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if o.Instructions <= 0 || o.Warmup <= 0 || o.Seed == 0 {
		t.Fatalf("defaults implausible: %+v", o)
	}
	if got := o.benchmarks(); len(got) != 8 {
		t.Fatalf("default benchmark set = %v", got)
	}
	if o.parallel() < 1 {
		t.Fatal("parallelism must be positive")
	}
	o.Parallel = 3
	if o.parallel() != 3 {
		t.Fatal("explicit parallelism ignored")
	}
}

func TestFig2Shape(t *testing.T) {
	o := tinyOptions("vortex")
	r, err := Fig2From(o, runGrid(t, o, "fig2").SimResults())
	if err != nil {
		t.Fatal(err)
	}
	if r.IdealIPC["vortex"] <= 0 {
		t.Fatal("ideal IPC missing")
	}
	for _, cl := range []string{"unlimited", "128 chains", "64 chains"} {
		for _, v := range []string{"base", "hmp", "lrp", "comb"} {
			rel := r.Relative["vortex"][cl][v]
			if rel <= 0 || rel > 1.3 {
				t.Errorf("%s/%s relative = %v", cl, v, rel)
			}
		}
	}
	tab := r.Table().String()
	if !strings.Contains(tab, "unlimited/base") || !strings.Contains(tab, "average") {
		t.Errorf("table rendering:\n%s", tab)
	}
}

func TestTable2Shape(t *testing.T) {
	o := tinyOptions("equake", "vortex")
	r, err := Table2From(o, runGrid(t, o, "table2").SimResults())
	if err != nil {
		t.Fatal(err)
	}
	// equake (indirect loads everywhere) must demand far more chains than
	// vortex, and every predictor must reduce the base configuration's
	// usage — the paper's Table 2 structure.
	if r.Average["base"]["equake"] <= r.Average["base"]["vortex"] {
		t.Errorf("equake chains %.1f should exceed vortex %.1f",
			r.Average["base"]["equake"], r.Average["base"]["vortex"])
	}
	if r.Average["comb"]["equake"] > r.Average["base"]["equake"] {
		t.Error("combined predictors should not increase chain usage")
	}
	for _, v := range []string{"base", "hmp", "lrp", "comb"} {
		for _, wl := range r.Benchmarks {
			if r.Peak[v][wl] < r.Average[v][wl] {
				t.Errorf("%s/%s peak %.1f below average %.1f", v, wl, r.Peak[v][wl], r.Average[v][wl])
			}
		}
	}
	if !strings.Contains(r.Table().String(), "base-avg") {
		t.Error("table rendering")
	}
}

func TestFig3Shape(t *testing.T) {
	o := tinyOptions("gcc")
	r, err := Fig3From(o, runGrid(t, o, "fig3").SimResults())
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range Fig3Series {
		pts := r.IPC[series]["gcc"]
		want := len(Fig3Sizes)
		if series == "prescheduled" {
			want = len(Fig3PreschedSlots)
		}
		if len(pts) != want {
			t.Fatalf("%s has %d points, want %d", series, len(pts), want)
		}
		for _, v := range pts {
			if v <= 0 {
				t.Fatalf("%s has non-positive IPC %v", series, pts)
			}
		}
	}
	tabs := r.Tables()
	if !strings.Contains(tabs["gcc"].String(), "comb-128chains") {
		t.Error("table rendering")
	}
}

func TestInTextShape(t *testing.T) {
	o := tinyOptions("mgrid")
	r, err := InTextFrom(o, runGrid(t, o, "intext").SimResults())
	if err != nil {
		t.Fatal(err)
	}
	m := r["mgrid"]
	if m.HitRate <= 0 || m.HitRate > 1 {
		t.Errorf("hit rate %v", m.HitRate)
	}
	if m.HMPAccuracy < 0 || m.HMPAccuracy > 1 || m.HMPCoverage < 0 || m.HMPCoverage > 1 {
		t.Errorf("hmp stats %v/%v", m.HMPAccuracy, m.HMPCoverage)
	}
	if m.TwoChainFraction < 0 || m.TwoChainFraction > 1 {
		t.Errorf("two-chain fraction %v", m.TwoChainFraction)
	}
	if m.ReadySeg0 < 0 || m.ReadySeg0Share < 0 || m.ReadySeg0Share > 1 {
		t.Errorf("seg0 stats %v/%v", m.ReadySeg0, m.ReadySeg0Share)
	}
	if !strings.Contains(InTextTable(r).String(), "hmp-acc") {
		t.Error("table rendering")
	}
}

func TestAblationsShape(t *testing.T) {
	o := tinyOptions("vortex")
	r, err := AblationsFrom(o, runGrid(t, o, "ablations").SimResults())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range AblationConfigs {
		if r.IPC[name]["vortex"] <= 0 {
			t.Errorf("%s missing", name)
		}
	}
	if !strings.Contains(r.Table().String(), "no-pushdown") {
		t.Error("table rendering")
	}
}

func TestRunAllPropagatesErrors(t *testing.T) {
	o := tinyOptions("vortex")
	_, err := o.runAll([]job{{key: "bad", cfg: sim.Config{}, wl: "vortex"}})
	if err == nil || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("invalid config should fail the batch with its key, got %v", err)
	}
	// An unknown workload also surfaces.
	if _, err := o.runAll([]job{{key: "w", cfg: sim.DefaultConfig(sim.QueueIdeal, 32), wl: "nope"}}); err == nil {
		t.Fatal("unknown workload should fail the batch")
	}
}

func TestRelatedWorkShape(t *testing.T) {
	o := tinyOptions("vortex")
	r, err := RelatedFrom(o, runGrid(t, o, "related").SimResults())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range RelatedDesigns {
		if r.IPC[d]["vortex"] <= 0 {
			t.Errorf("%s missing", d)
		}
	}
	if !strings.Contains(r.Table().String(), "design@256") {
		t.Error("table rendering")
	}
}

func TestPowerShape(t *testing.T) {
	o := tinyOptions("vortex")
	r, err := PowerFrom(o, runGrid(t, o, "power").SimResults())
	if err != nil {
		t.Fatal(err)
	}
	ideal := r.EnergyPerInst["ideal"]["vortex"]
	seg := r.EnergyPerInst["segmented"]["vortex"]
	if ideal <= 0 || seg <= 0 {
		t.Fatalf("energies: ideal %v seg %v", ideal, seg)
	}
	// At equal capacity the monolithic queue's whole-occupancy CAM search
	// dominates the proxy; the segmented queue must be cheaper.
	if seg >= ideal {
		t.Errorf("segmented proxy %v should undercut monolithic %v", seg, ideal)
	}
	if !strings.Contains(r.Table().String(), "seg/ideal E") {
		t.Error("table rendering")
	}
}
