package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

// Worker is the pull loop behind `iqbench -worker -coord-url`: fetch
// the coordinator's spec once, then lease → simulate → complete until
// the grid is done. A heartbeat goroutine renews the current lease
// while a batch simulates, so a slow batch is not mistaken for a dead
// worker; a worker that really dies simply stops renewing and its
// jobs re-queue at the coordinator after the lease TTL. Each worker
// warms its own checkpoints in memory.
type Worker struct {
	// URL is the coordinator's base URL, e.g. "http://host:8377".
	URL string
	// Name identifies this worker in leases and /progress. Empty picks
	// "host:pid".
	Name string
	// BatchSize is how many jobs to lease at once; the coordinator caps
	// it. Zero means 1 — the finest-grained balancing, which is what
	// makes cost-ordered assignment shrink stragglers.
	BatchSize int
	// Parallel bounds concurrent simulations within a batch (0 =
	// GOMAXPROCS).
	Parallel int
	// Client performs the requests; nil uses a 5-minute-timeout client
	// (a fragment upload can be large).
	Client *http.Client
	// Poll is how long to wait when all remaining work is leased to
	// other workers; zero means 2 s.
	Poll time.Duration
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return &http.Client{Timeout: 5 * time.Minute}
}

func (w *Worker) name() string {
	if w.Name != "" {
		return w.Name
	}
	host, _ := os.Hostname()
	if host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s:%d", host, os.Getpid())
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) poll() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return 2 * time.Second
}

// Run executes the pull loop until the coordinator reports the grid
// complete. Simulation errors abort the worker (the lease TTL returns
// its jobs to the queue); transient coordinator unavailability is
// retried a few times before giving up.
func (w *Worker) Run() error {
	spec, err := w.fetchSpec()
	if err != nil {
		return err
	}
	o := experiments.Options{
		Instructions: spec.Instructions,
		Warmup:       spec.Warmup,
		Seed:         spec.Seed,
		Benchmarks:   spec.Benchmarks,
		Parallel:     w.Parallel,
	}
	ttl := time.Duration(spec.LeaseTTLMs) * time.Millisecond
	name := w.name()
	w.logf("[worker %s: %s grid from %s (n=%d warm=%d lease %s)]",
		name, spec.Experiment, w.URL, spec.Instructions, spec.Warmup, ttl)
	batch := w.BatchSize
	if batch <= 0 {
		batch = 1
	}
	for {
		var lease LeaseResponse
		if err := w.postRetry("/jobs/lease", LeaseRequest{Worker: name, Max: batch}, &lease); err != nil {
			return err
		}
		if len(lease.Jobs) == 0 {
			if lease.Done {
				w.logf("[worker %s: grid complete, exiting]", name)
				return nil
			}
			// Everything left is leased elsewhere; poll for expiries.
			time.Sleep(w.poll())
			continue
		}
		if err := w.runBatch(o, spec.Experiment, name, lease.Jobs, ttl); err != nil {
			return err
		}
	}
}

// runBatch simulates one leased batch under a heartbeat and uploads
// the fragment.
func (w *Worker) runBatch(o experiments.Options, experiment, name string, jobs []string, ttl time.Duration) error {
	stop := make(chan struct{})
	defer close(stop)
	if ttl > 0 {
		go w.heartbeat(name, jobs, ttl, stop)
	}
	w.logf("[worker %s: simulating %d jobs: %s]", name, len(jobs), strings.Join(jobs, ", "))
	frag, err := experiments.RunJobs(o, experiment, jobs)
	if err != nil {
		return fmt.Errorf("coord worker: jobs %v: %w", jobs, err)
	}
	body, err := json.Marshal(frag)
	if err != nil {
		return err
	}
	var ack CompleteResponse
	if err := w.postBody("/jobs/complete?worker="+url.QueryEscape(name), body, &ack); err != nil {
		return err
	}
	w.logf("[worker %s: completed %d jobs (%d duplicate)]", name, ack.Accepted, ack.Duplicates)
	return nil
}

// heartbeat renews the lease at a third of its TTL until stopped. A
// renewal that reports every job lost means the coordinator restarted
// or expired us; the batch keeps running — completion is idempotent
// and the first uploaded result wins.
func (w *Worker) heartbeat(name string, jobs []string, ttl time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(ttl / 3)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			var resp RenewResponse
			if err := w.post("/jobs/renew", RenewRequest{Worker: name, Jobs: jobs}, &resp); err != nil {
				w.logf("[worker %s: heartbeat failed: %v]", name, err)
				continue
			}
			if len(resp.Lost) > 0 {
				w.logf("[worker %s: lease lost on %v (completion will be idempotent)]", name, resp.Lost)
			}
		}
	}
}

func (w *Worker) fetchSpec() (*Spec, error) {
	var spec Spec
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			time.Sleep(w.poll())
		}
		if lastErr = w.get("/spec", &spec); lastErr == nil {
			return &spec, nil
		}
	}
	return nil, fmt.Errorf("coord worker: cannot fetch spec from %s: %w", w.URL, lastErr)
}

func (w *Worker) get(path string, into any) error {
	resp, err := w.client().Get(strings.TrimRight(w.URL, "/") + path)
	if err != nil {
		return err
	}
	return decodeResponse(resp, into)
}

// postRetry retries a request through brief coordinator
// unavailability (a restart, a network blip) before giving up.
func (w *Worker) postRetry(path string, req, into any) error {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			w.logf("[worker: retrying %s after: %v]", path, lastErr)
			time.Sleep(w.poll())
		}
		if lastErr = w.post(path, req, into); lastErr == nil {
			return nil
		}
	}
	return lastErr
}

func (w *Worker) post(path string, req, into any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return w.postBody(path, body, into)
}

func (w *Worker) postBody(path string, body []byte, into any) error {
	resp, err := w.client().Post(strings.TrimRight(w.URL, "/")+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	return decodeResponse(resp, into)
}

func decodeResponse(resp *http.Response, into any) error {
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("coord worker: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	if into == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(into)
}
