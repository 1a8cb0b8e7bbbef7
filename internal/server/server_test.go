package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"sunstone/internal/core"
	"sunstone/internal/serde"
)

// tinyConv is a submission that searches in well under a millisecond.
const tinyConv = `{"tenant":%q,"arch":"tiny","conv":{"K":1,"C":1,"P":1,"Q":1,"R":1,"S":1}}`

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.StallTimeout == 0 {
		cfg.StallTimeout = -1 // most tests do not want watchdog timing in play
	}
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
	})
	return s
}

func do(t *testing.T, s *Server, method, path, body string) (*httptest.ResponseRecorder, JobStatus) {
	t.Helper()
	var rd *bytes.Reader
	if body == "" {
		rd = bytes.NewReader(nil)
	} else {
		rd = bytes.NewReader([]byte(body))
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var st JobStatus
	if rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("%s %s: bad JSON response %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec, st
}

func submit(t *testing.T, s *Server, body string) JobStatus {
	t.Helper()
	rec, st := do(t, s, "POST", "/v1/jobs", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", rec.Code, rec.Body.String())
	}
	return st
}

// waitTerminal polls a job until it leaves the live states.
func waitTerminal(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		rec, st := do(t, s, "GET", "/v1/jobs/"+id, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("poll %s: status %d", id, rec.Code)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobStatus{}
}

// mustValidMapping decodes a terminal job's mapping against the problem it
// was scheduled for — the drain/deadline guarantee is not "some bytes came
// back" but "a valid mapping came back" (DecodeMapping re-validates every
// loop nest against the workload and architecture).
func mustValidMapping(t *testing.T, s *Server, st JobStatus) {
	t.Helper()
	if len(st.Mapping) == 0 {
		t.Fatalf("job %s (%s): no mapping", st.ID, st.State)
	}
	s.mu.Lock()
	j := s.jobs[st.ID]
	s.mu.Unlock()
	if j == nil {
		t.Fatalf("job %s: record evicted", st.ID)
	}
	if _, err := serde.DecodeMapping(st.Mapping, j.w, j.a); err != nil {
		t.Fatalf("job %s: mapping does not validate: %v", st.ID, err)
	}
}

func TestSubmitRunsToDone(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	st := submit(t, s, fmt.Sprintf(tinyConv, "acme"))
	// The 202 body is the job's status after it was queued; a worker may have
	// finished a job this small by then (a warm-sized search is under a
	// millisecond), so done is a legitimate fresh state too.
	if st.State != JobQueued && st.State != JobRunning && st.State != JobDone {
		t.Fatalf("fresh job state = %q", st.State)
	}
	if st.DeadlineMS <= st.SubmittedMS {
		t.Fatalf("deadline %d not after submission %d", st.DeadlineMS, st.SubmittedMS)
	}
	fin := waitTerminal(t, s, st.ID)
	if fin.State != JobDone {
		t.Fatalf("state = %q (error %q)", fin.State, fin.Error)
	}
	if fin.Stopped != "complete" {
		t.Errorf("stopped = %q, want complete", fin.Stopped)
	}
	if fin.EDP <= 0 {
		t.Errorf("EDP = %v, want > 0", fin.EDP)
	}
	mustValidMapping(t, s, fin)
	stats := s.Stats()
	if stats.Counters["srv.jobs.admitted"] != 1 || stats.Counters["srv.jobs.done"] != 1 {
		t.Errorf("counters = %v", stats.Counters)
	}
	if stats.Search.Generated == 0 || stats.Search.Evaluated == 0 {
		t.Errorf("cumulative search flow not accumulated: %+v", stats.Search)
	}
}

func TestSubmitDescribeForm(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	body := `{"arch":"tiny","describe":"dimensions = {K:2, C:2, P:3, R:2}\ntensor_description = {\n in = [C, (P, R)],\n w = [K, C, R],\n output = [K, P]\n}"}`
	st := submit(t, s, body)
	fin := waitTerminal(t, s, st.ID)
	if fin.State != JobDone {
		t.Fatalf("state = %q (error %q)", fin.State, fin.Error)
	}
	mustValidMapping(t, s, fin)
}

func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name, body string
	}{
		{"empty body", `{}`},
		{"two workload forms", `{"describe":"x","conv":{"K":1,"C":1,"P":1,"Q":1,"R":1,"S":1}}`},
		{"bad conv dims", `{"conv":{"K":0,"C":1,"P":1,"Q":1,"R":1,"S":1}}`},
		{"unknown arch", `{"conv":{"K":1,"C":1,"P":1,"Q":1,"R":1,"S":1},"arch":"tpu"}`},
		{"arch and arch_json", `{"conv":{"K":1,"C":1,"P":1,"Q":1,"R":1,"S":1},"arch":"tiny","arch_json":{}}`},
		{"unknown objective", `{"conv":{"K":1,"C":1,"P":1,"Q":1,"R":1,"S":1},"options":{"objective":"speed"}}`},
		{"unknown direction", `{"conv":{"K":1,"C":1,"P":1,"Q":1,"R":1,"S":1},"options":{"direction":"sideways"}}`},
		{"negative timeout", `{"conv":{"K":1,"C":1,"P":1,"Q":1,"R":1,"S":1},"timeout_ms":-5}`},
		{"negative threads", `{"conv":{"K":1,"C":1,"P":1,"Q":1,"R":1,"S":1},"options":{"threads":-1}}`},
		{"threads above maximum", `{"conv":{"K":1,"C":1,"P":1,"Q":1,"R":1,"S":1},"options":{"threads":5000}}`},
		{"unknown field", `{"conv":{"K":1,"C":1,"P":1,"Q":1,"R":1,"S":1},"wrokload":"typo"}`},
		{"not json", `not json at all`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, _ := do(t, s, "POST", "/v1/jobs", tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
			}
			if !strings.Contains(rec.Body.String(), "error") {
				t.Fatalf("no error payload: %s", rec.Body.String())
			}
		})
	}
	if got := s.Stats().Counters["srv.jobs.admitted"]; got != 0 {
		t.Errorf("validation failures admitted %d jobs", got)
	}
}

// TestSubmitRejectsStudyFields: the Table VI direction and the polish and
// analytical-layer ablations are not job options. A submission that still
// carries one is a client error naming the field, and nothing is admitted.
func TestSubmitRejectsStudyFields(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	for _, field := range []string{
		`"direction":"top-down"`, `"no_polish":true`, `"analytical_seed":false`, `"analytical_bounds":false`,
	} {
		name := strings.Split(field, `"`)[1]
		t.Run(name, func(t *testing.T) {
			rec, _ := do(t, s, "POST", "/v1/jobs", `{"arch":"tiny","conv":{"K":1,"C":1,"P":1,"Q":1,"R":1,"S":1},"options":{`+field+`}}`)
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `unknown field \"`+name+`\"`) {
				t.Fatalf("status %d, body %s; want 400 naming %q", rec.Code, rec.Body.String(), name)
			}
		})
	}
	if got := s.Stats().Counters["srv.jobs.admitted"]; got != 0 {
		t.Errorf("study fields admitted %d jobs", got)
	}
}

// TestSubmitThreads pins the per-job thread contract: a bounded threads
// request is accepted and runs to done, and the effective pool size honors
// a smaller request while capping larger (or zero) ones at the per-job fair
// share — one tenant cannot oversubscribe the box.
func TestSubmitThreads(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	st := submit(t, s, `{"arch":"tiny","conv":{"K":1,"C":1,"P":1,"Q":1,"R":1,"S":1},"options":{"threads":2}}`)
	if fin := waitTerminal(t, s, st.ID); fin.State != JobDone {
		t.Fatalf("state %s, want done (error %q)", fin.State, fin.Error)
	}

	share := runtime.GOMAXPROCS(0) / 2
	if share < 1 {
		share = 1
	}
	if got := s.jobThreads(0); got != share {
		t.Errorf("jobThreads(0) = %d, want fair share %d", got, share)
	}
	if got := s.jobThreads(1); got != 1 {
		t.Errorf("jobThreads(1) = %d, want 1", got)
	}
	if got := s.jobThreads(core.MaxThreads); got != share {
		t.Errorf("jobThreads(%d) = %d, want capped at share %d", core.MaxThreads, got, share)
	}
}

// TestQueueFullSheds pins the load-shedding guarantee: with one worker
// blocked and the one-slot queue occupied, further submissions are shed
// with 429 + Retry-After while both accepted jobs still run to done.
func TestQueueFullSheds(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	s.hookRunning = func(ctx context.Context, j *job) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}

	a := submit(t, s, fmt.Sprintf(tinyConv, "t1"))
	// Wait until the worker owns job A so the queue slot is truly free.
	for {
		_, st := do(t, s, "GET", "/v1/jobs/"+a.ID, "")
		if st.State == JobRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	b := submit(t, s, fmt.Sprintf(tinyConv, "t2")) // occupies the queue slot

	rec, _ := do(t, s, "POST", "/v1/jobs", fmt.Sprintf(tinyConv, "t3"))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow submission: status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	close(release)
	for _, id := range []string{a.ID, b.ID} {
		fin := waitTerminal(t, s, id)
		if fin.State != JobDone {
			t.Errorf("job %s: state %q (error %q)", id, fin.State, fin.Error)
		}
		mustValidMapping(t, s, fin)
	}
	stats := s.Stats()
	if stats.Counters["srv.shed.queue-full"] != 1 {
		t.Errorf("shed.queue-full = %d, want 1", stats.Counters["srv.shed.queue-full"])
	}
	if stats.Counters["srv.jobs.admitted"] != 2 {
		t.Errorf("admitted = %d, want 2", stats.Counters["srv.jobs.admitted"])
	}
}

func TestTenantRateSheds(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, TenantRate: 0.01, TenantBurst: 1})
	submit(t, s, fmt.Sprintf(tinyConv, "greedy"))
	rec, _ := do(t, s, "POST", "/v1/jobs", fmt.Sprintf(tinyConv, "greedy"))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second submission: status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// Another tenant is unaffected by greedy's empty bucket.
	submit(t, s, fmt.Sprintf(tinyConv, "patient"))
	if got := s.Stats().Counters["srv.shed.tenant-rate"]; got != 1 {
		t.Errorf("shed.tenant-rate = %d, want 1", got)
	}
}

// TestDrainReturnsBestSoFar pins the drain guarantee: SIGTERM-style Drain
// with a running job and a queued job completes both with audit-passing
// mappings (the running search is cut at the grace deadline and degrades to
// best-so-far), readiness flips, new submissions get 503 — and no server
// goroutines outlive the drain.
func TestDrainReturnsBestSoFar(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{Workers: 1, QueueDepth: 4, DrainGrace: 30 * time.Millisecond, StallTimeout: -1})
	s.hookRunning = func(ctx context.Context, j *job) {
		<-ctx.Done() // hold the search until drain-grace cancels it
	}
	running := submit(t, s, fmt.Sprintf(tinyConv, "a"))
	queued := submit(t, s, fmt.Sprintf(tinyConv, "b"))

	if rec, _ := do(t, s, "GET", "/readyz", ""); rec.Code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", rec.Code)
	}

	drainErr := make(chan error, 1)
	go func() { drainErr <- s.Drain(context.Background()) }()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	if rec, _ := do(t, s, "GET", "/readyz", ""); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: %d, want 503", rec.Code)
	}
	rec, _ := do(t, s, "POST", "/v1/jobs", fmt.Sprintf(tinyConv, "late"))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("submission while draining: %d, want 503", rec.Code)
	}

	select {
	case err := <-drainErr:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain never returned")
	}

	// Every accepted job is terminal with an audit-passing mapping, even
	// though the running one was canceled mid-search by the grace timer.
	for _, id := range []string{running.ID, queued.ID} {
		_, fin := do(t, s, "GET", "/v1/jobs/"+id, "")
		if !fin.State.Terminal() {
			t.Fatalf("job %s not terminal after drain: %q", id, fin.State)
		}
		if fin.State != JobDone {
			t.Errorf("job %s: state %q (error %q), want done with best-so-far", id, fin.State, fin.Error)
		}
		mustValidMapping(t, s, fin)
	}
	if got := s.Stats().Counters["srv.shed.draining"]; got == 0 {
		t.Error("shed.draining counter never moved")
	}

	// Drained means drained: the worker pool and watchdogs are gone.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after drain", before, runtime.NumGoroutine())
}

// TestDeadlinePropagation: a submission's timeout_ms becomes the search's
// end-to-end budget; expiry yields a done job whose Stopped records the
// deadline, still with a valid mapping (anytime contract).
func TestDeadlinePropagation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	body := `{"arch":"conventional","timeout_ms":60,"conv":{"N":1,"K":64,"C":64,"P":28,"Q":28,"R":3,"S":3}}`
	st := submit(t, s, body)
	fin := waitTerminal(t, s, st.ID)
	if fin.State != JobDone {
		t.Fatalf("state = %q (error %q)", fin.State, fin.Error)
	}
	mustValidMapping(t, s, fin)
	if fin.FinishedMS-fin.SubmittedMS > 20_000 {
		t.Errorf("60ms-deadline job took %dms", fin.FinishedMS-fin.SubmittedMS)
	}
}

// TestWatchdogCutsStalledSearch: a search that stops emitting progress is
// canceled by the watchdog and lands terminal with the watchdog cause
// recorded — never hung.
func TestWatchdogCutsStalledSearch(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, StallTimeout: 40 * time.Millisecond})
	s.hookRunning = func(ctx context.Context, j *job) {
		<-ctx.Done() // stall silently: no beats until canceled
	}
	st := submit(t, s, fmt.Sprintf(tinyConv, "stuck"))
	fin := waitTerminal(t, s, st.ID)
	if !fin.WatchdogFired {
		t.Fatalf("watchdog did not fire (state %q, cause %q)", fin.State, fin.Cause)
	}
	if fin.Cause != core.CauseWatchdog {
		t.Errorf("cause = %q, want %q", fin.Cause, core.CauseWatchdog)
	}
	if fin.State != JobDone {
		t.Errorf("state = %q, want done with best-so-far", fin.State)
	}
	mustValidMapping(t, s, fin)
	if got := s.Stats().Counters["srv.watchdog.fired"]; got != 1 {
		t.Errorf("watchdog.fired = %d, want 1", got)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	release := make(chan struct{})
	s.hookRunning = func(ctx context.Context, j *job) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	run := submit(t, s, fmt.Sprintf(tinyConv, "a"))
	for {
		_, st := do(t, s, "GET", "/v1/jobs/"+run.ID, "")
		if st.State == JobRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	que := submit(t, s, fmt.Sprintf(tinyConv, "a"))

	// Cancel the queued job: it must go terminal without ever running.
	do(t, s, "DELETE", "/v1/jobs/"+que.ID, "")
	// Cancel the running job: its search context ends, the hook returns,
	// and the resilient search degrades under the canceled context.
	do(t, s, "DELETE", "/v1/jobs/"+run.ID, "")

	finRun := waitTerminal(t, s, run.ID)
	finQue := waitTerminal(t, s, que.ID)
	if finRun.State != JobCanceled {
		t.Errorf("running job: state %q, want canceled", finRun.State)
	}
	if finQue.State != JobCanceled {
		t.Errorf("queued job: state %q, want canceled", finQue.State)
	}
	if finQue.StartedMS != 0 {
		t.Errorf("queued job ran anyway (started_ms %d)", finQue.StartedMS)
	}
	if got := s.Stats().Counters["srv.jobs.canceled"]; got != 2 {
		t.Errorf("canceled = %d, want 2", got)
	}
	// A second cancel of a terminal job is a harmless no-op.
	rec, st := do(t, s, "DELETE", "/v1/jobs/"+run.ID, "")
	if rec.Code != http.StatusAccepted || st.State != JobCanceled {
		t.Errorf("re-cancel: %d %q", rec.Code, st.State)
	}
}

// TestMultiTenantSharedEngine drives concurrent submissions of the same
// problem from many tenants through one Engine and checks the warm-cache
// effect: far fewer compilations than jobs, visible cache hits. Run under
// -race this is also the service's central concurrency test.
func TestMultiTenantSharedEngine(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, QueueDepth: 32})
	const jobs = 12
	ids := make([]string, 0, jobs)
	for i := range jobs {
		st := submit(t, s, fmt.Sprintf(tinyConv, fmt.Sprintf("tenant-%d", i%3)))
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		fin := waitTerminal(t, s, id)
		if fin.State != JobDone {
			t.Fatalf("job %s: state %q (error %q)", id, fin.State, fin.Error)
		}
		mustValidMapping(t, s, fin)
	}
	es := s.Engine().Stats()
	if es.Hits == 0 {
		t.Errorf("no warm-cache hits across %d identical jobs: %+v", jobs, es)
	}
	if es.Compiles >= jobs {
		t.Errorf("compiles = %d for %d identical jobs; cache not shared", es.Compiles, jobs)
	}
	rec, _ := do(t, s, "GET", "/v1/jobs?tenant=tenant-0", "")
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(list.Jobs) != 4 {
		t.Errorf("tenant-0 list has %d jobs, want 4", len(list.Jobs))
	}
}

// TestEventsStream reads the SSE feed end to end: status snapshot first,
// then a terminal "done" event whose embedded job carries the mapping.
func TestEventsStream(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	st := submit(t, s, fmt.Sprintf(tinyConv, "sse"))
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}
	var event, data string
	var terminal *Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && event == "done":
			var ev Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("terminal event: %v (%s)", err, data)
			}
			terminal = &ev
		}
		if terminal != nil {
			break
		}
	}
	if terminal == nil {
		t.Fatalf("stream ended without a done event (scan err %v)", sc.Err())
	}
	if terminal.Job == nil || !terminal.Job.State.Terminal() {
		t.Fatalf("terminal event job = %+v", terminal.Job)
	}
	if terminal.Job.State == JobDone {
		mustValidMapping(t, s, *terminal.Job)
	}
}

// TestHandlerPanicIsContained: a panicking handler yields a structured 500
// and moves the panic counter; the server keeps serving.
func TestHandlerPanicIsContained(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	s.mux.HandleFunc("GET /boom", s.guard(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	rec, _ := do(t, s, "GET", "/boom", "")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "kaboom") {
		t.Errorf("panic detail lost: %s", rec.Body.String())
	}
	if got := s.Stats().Counters["srv.panics.recovered"]; got != 1 {
		t.Errorf("panics.recovered = %d, want 1", got)
	}
	// Still alive.
	if rec, _ := do(t, s, "GET", "/healthz", ""); rec.Code != http.StatusOK {
		t.Errorf("healthz after panic: %d", rec.Code)
	}
}

func TestUnknownJob404(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/events"} {
		rec, _ := do(t, s, "GET", path, "")
		if rec.Code != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, rec.Code)
		}
	}
	if rec, _ := do(t, s, "DELETE", "/v1/jobs/nope", ""); rec.Code != http.StatusNotFound {
		t.Errorf("DELETE: %d, want 404", rec.Code)
	}
}

// TestTerminalJobEviction: past MaxJobs the oldest terminal records go away
// but live jobs are untouchable.
func TestTerminalJobEviction(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2, MaxJobs: 4})
	// MaxJobs is floored at QueueDepth+Workers+1 = 4.
	var first JobStatus
	for i := range 8 {
		st := submit(t, s, fmt.Sprintf(tinyConv, "evict"))
		if i == 0 {
			first = st
		}
		waitTerminal(t, s, st.ID)
	}
	rec, _ := do(t, s, "GET", "/v1/jobs/"+first.ID, "")
	if rec.Code != http.StatusNotFound {
		t.Errorf("oldest terminal job still present: %d", rec.Code)
	}
	if got := s.Stats().Jobs; got > 4 {
		t.Errorf("retained jobs = %d, want <= 4", got)
	}
}

func TestDebugHandler(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	st := submit(t, s, fmt.Sprintf(tinyConv, "dbg"))
	waitTerminal(t, s, st.ID)
	dh := s.DebugHandler()
	rec := httptest.NewRecorder()
	dh.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/vars: %d", rec.Code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("expvar JSON: %v", err)
	}
	var stats Stats
	if err := json.Unmarshal(vars["sunstone"], &stats); err != nil {
		t.Fatalf("sunstone expvar: %v", err)
	}
	if stats.Counters["srv.jobs.done"] != 1 {
		t.Errorf("expvar counters = %v", stats.Counters)
	}
	if stats.Engine.Compiles == 0 {
		t.Errorf("expvar engine stats empty: %+v", stats.Engine)
	}
	rec = httptest.NewRecorder()
	dh.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: %d", rec.Code)
	}
}
