package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
)

// coordTestOptions is the smallest interesting grid: table2 over swim
// alone is 4 single-context jobs (one per queue variant).
func coordTestOptions() experiments.Options {
	return experiments.Options{
		Instructions: 2000,
		Warmup:       10_000,
		Seed:         1,
		Benchmarks:   []string{"swim"},
	}
}

// singleProcessBytes is the reference every coordinator run must
// reproduce byte-for-byte: a plain RunShard(0,1) of the same grid.
func singleProcessBytes(t *testing.T, o experiments.Options, experiment string) []byte {
	t.Helper()
	sf, err := experiments.RunShard(o, experiment, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sf.MarshalPretty()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fakeClock is a mutex-guarded manual clock for driving lease expiry
// deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// logBuffer collects coordinator log lines for assertions.
type logBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (lb *logBuffer) Logf(format string, args ...any) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	lb.lines = append(lb.lines, fmt.Sprintf(format, args...))
}

func (lb *logBuffer) Contains(sub string) bool {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	for _, l := range lb.lines {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return false
}

func postJSON(t *testing.T, url string, req, into any) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		t.Fatalf("POST %s: %s", url, resp.Status)
	}
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}
}

func leaseJobs(t *testing.T, base, worker string, max int) LeaseResponse {
	t.Helper()
	var resp LeaseResponse
	postJSON(t, base+"/jobs/lease", LeaseRequest{Worker: worker, Max: max}, &resp)
	return resp
}

// completeJobs simulates the named jobs like a worker would and posts
// the fragment, recording each simulated key in simCount.
func completeJobs(t *testing.T, base string, o experiments.Options, experiment, worker string, keys []string, simCount map[string]int) CompleteResponse {
	t.Helper()
	frag, err := experiments.RunJobs(o, experiment, keys)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		simCount[k]++
	}
	body, err := json.Marshal(frag)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/jobs/complete?worker="+worker, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		t.Fatalf("complete: %s", resp.Status)
	}
	var ack CompleteResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	return ack
}

// TestCoordinatorEndToEnd is the acceptance scenario from the issue:
// two workers plus a crashed one, a lease expiry, and a coordinator
// restart must still produce a merged file byte-identical to a
// single-process RunShard(0,1) run, with zero completed jobs
// re-simulated after the restart.
func TestCoordinatorEndToEnd(t *testing.T) {
	o := coordTestOptions()
	const experiment = "table2"
	want := singleProcessBytes(t, o, experiment)

	clk := newFakeClock()
	spool := t.TempDir()
	logs := &logBuffer{}
	cfg := Config{
		Experiment: experiment,
		Options:    o,
		SpoolDir:   spool,
		LeaseTTL:   time.Minute,
		Now:        clk.Now,
		Logf:       logs.Logf,
	}
	s1, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	simCount := make(map[string]int)

	// A worker leases one job and crashes: it never completes and never
	// renews.
	crashed := leaseJobs(t, ts1.URL, "crasher", 1)
	if len(crashed.Jobs) != 1 {
		t.Fatalf("crasher leased %v, want 1 job", crashed.Jobs)
	}

	// Two live workers drain the rest of the queue.
	w1 := leaseJobs(t, ts1.URL, "w1", 2)
	if len(w1.Jobs) != 2 {
		t.Fatalf("w1 leased %v, want 2 jobs", w1.Jobs)
	}
	completeJobs(t, ts1.URL, o, experiment, "w1", w1.Jobs, simCount)
	w2 := leaseJobs(t, ts1.URL, "w2", 4)
	if len(w2.Jobs) != 1 {
		t.Fatalf("w2 leased %v, want the 1 remaining job", w2.Jobs)
	}
	completeJobs(t, ts1.URL, o, experiment, "w2", w2.Jobs, simCount)

	// Everything is done except the crashed worker's job, which is still
	// leased: a lease request for more work comes back empty.
	if got := leaseJobs(t, ts1.URL, "w1", 4); len(got.Jobs) != 0 || got.Done {
		t.Fatalf("lease while crasher holds its job = %+v, want empty and not done", got)
	}

	// The lease expires; the job goes back into the queue.
	clk.Advance(cfg.LeaseTTL + time.Second)
	var prog Progress
	resp, err := http.Get(ts1.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&prog)
	resp.Body.Close()
	if prog.Pending != 1 || prog.Leased != 0 || prog.Done != 3 {
		t.Fatalf("progress after expiry = %+v, want 1 pending, 0 leased, 3 done", prog)
	}
	if !logs.Contains("re-leased") {
		t.Fatal("expiry did not log a re-leased line")
	}

	// The coordinator dies before the last job completes. A new one over
	// the same spool directory recovers all three finished jobs.
	ts1.Close()
	s2, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if got := len(s2.Merged().Results); got != 3 {
		t.Fatalf("restarted coordinator recovered %d jobs, want 3", got)
	}

	// Only the crashed worker's job is handed out again; completed work
	// is never re-simulated.
	preRestart := make(map[string]int, len(simCount))
	for k, n := range simCount {
		preRestart[k] = n
	}
	last := leaseJobs(t, ts2.URL, "w2", 4)
	if len(last.Jobs) != 1 || last.Jobs[0] != crashed.Jobs[0] {
		t.Fatalf("restarted coordinator leased %v, want exactly the crashed job %v", last.Jobs, crashed.Jobs)
	}
	ack := completeJobs(t, ts2.URL, o, experiment, "w2", last.Jobs, simCount)
	if ack.Accepted != 1 || !ack.Done {
		t.Fatalf("final completion ack = %+v, want 1 accepted and done", ack)
	}
	for k, n := range preRestart {
		if simCount[k] != n {
			t.Fatalf("job %s re-simulated after restart", k)
		}
	}
	for _, n := range simCount {
		if n != 1 {
			t.Fatalf("simulation counts %v, want every job exactly once", simCount)
		}
	}

	select {
	case <-s2.Done():
	default:
		t.Fatal("grid complete but Done not closed")
	}

	// The assembled file is byte-identical to the single-process run,
	// both in memory and over GET /merged.
	got, err := s2.Merged().MarshalPretty()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("coordinator merge differs from single-process RunShard(0,1):\ncoord:\n%s\nsingle:\n%s", got, want)
	}
	mresp, err := http.Get(ts2.URL + "/merged")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	served := new(bytes.Buffer)
	served.ReadFrom(mresp.Body)
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /merged: %s", mresp.Status)
	}
	if !bytes.Equal(served.Bytes(), want) {
		t.Fatal("GET /merged differs from single-process bytes")
	}
}

// TestCoordinatorDoubleCompletion: completing the same jobs twice is
// idempotent — the first result wins and the second upload counts only
// duplicates.
func TestCoordinatorDoubleCompletion(t *testing.T) {
	o := coordTestOptions()
	const experiment = "table2"
	s, err := NewServer(Config{Experiment: experiment, Options: o, SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	lease := leaseJobs(t, ts.URL, "w1", 4)
	if len(lease.Jobs) != 4 {
		t.Fatalf("leased %v, want all 4 jobs", lease.Jobs)
	}
	frag, err := experiments.RunJobs(o, experiment, lease.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(frag)
	if err != nil {
		t.Fatal(err)
	}
	post := func() CompleteResponse {
		resp, err := http.Post(ts.URL+"/jobs/complete?worker=w1", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ack CompleteResponse
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			t.Fatal(err)
		}
		return ack
	}
	first := post()
	if first.Accepted != 4 || first.Duplicates != 0 || !first.Done {
		t.Fatalf("first completion = %+v, want 4 accepted, done", first)
	}
	before, err := s.Merged().MarshalPretty()
	if err != nil {
		t.Fatal(err)
	}
	second := post()
	if second.Accepted != 0 || second.Duplicates != 4 || !second.Done {
		t.Fatalf("second completion = %+v, want 0 accepted, 4 duplicates", second)
	}
	after, err := s.Merged().MarshalPretty()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("duplicate completion changed the merged file")
	}
	if want := singleProcessBytes(t, o, experiment); !bytes.Equal(after, want) {
		t.Fatal("merged file differs from single-process RunShard(0,1)")
	}
}

// TestWorkerLoop drives the real Worker pull loop: two concurrent
// workers drain the grid against a live coordinator and the result is
// byte-identical to the single-process run.
func TestWorkerLoop(t *testing.T) {
	o := coordTestOptions()
	const experiment = "table2"
	s, err := NewServer(Config{
		Experiment: experiment,
		Options:    o,
		SpoolDir:   t.TempDir(),
		LeaseTTL:   30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &Worker{
				URL:  ts.URL,
				Name: fmt.Sprintf("w%d", i),
				Poll: 10 * time.Millisecond,
				Logf: t.Logf,
			}
			errs[i] = w.Run()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	select {
	case <-s.Done():
	default:
		t.Fatal("workers exited but the grid is not done")
	}
	got, err := s.Merged().MarshalPretty()
	if err != nil {
		t.Fatal(err)
	}
	if want := singleProcessBytes(t, o, experiment); !bytes.Equal(got, want) {
		t.Fatal("worker-driven merge differs from single-process RunShard(0,1)")
	}
}

// TestQueueCostOrder: the queue is longest-processing-time ordered,
// each job priced at instructions × contexts with ties broken by key —
// every 4-context SMT job precedes every 2-context one, and the order
// depends only on the grid.
func TestQueueCostOrder(t *testing.T) {
	o := coordTestOptions()
	o.Benchmarks = []string{"swim+gcc"}
	s, err := NewServer(Config{
		Experiment: "smt",
		Options:    o,
		SpoolDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	q := s.Queue()
	if len(q) != 10 {
		t.Fatalf("queue has %d jobs, want 10", len(q))
	}
	for i, jc := range q {
		ctx := 2
		if i < 5 {
			ctx = 4
		}
		if want := float64(o.Instructions) * float64(ctx); jc.Cost != want || !strings.Contains(jc.Key, fmt.Sprintf("/%dctx/", ctx)) {
			t.Fatalf("queue position %d is %s at cost %v; want a %d-context job at %v: %v", i, jc.Key, jc.Cost, ctx, want, q)
		}
		if i > 0 && jc.Cost == q[i-1].Cost && jc.Key <= q[i-1].Key {
			t.Fatalf("equal-cost jobs not in key order at %d: %v", i, q)
		}
	}
}

// TestRecoverSpoolQuarantine: a damaged or incompatible spool file is
// renamed aside, not trusted and not fatal.
func TestRecoverSpoolQuarantine(t *testing.T) {
	o := coordTestOptions()
	spool := t.TempDir()
	bad := filepath.Join(spool, "frag_000000.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o666); err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(Config{Experiment: "table2", Options: o, SpoolDir: spool})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(bad + ".bad"); err != nil {
		t.Fatalf("damaged fragment not quarantined: %v", err)
	}
	if got := len(s.Queue()); got != 4 {
		t.Fatalf("queue after quarantine has %d jobs, want the full 4", got)
	}
}

// TestServerRequiresSpoolDir: durability is not optional.
func TestServerRequiresSpoolDir(t *testing.T) {
	if _, err := NewServer(Config{Experiment: "table2", Options: coordTestOptions()}); err == nil {
		t.Fatal("NewServer accepted an empty SpoolDir")
	}
}
