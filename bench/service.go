package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sunstone/internal/journal"
	"sunstone/internal/obs"
	"sunstone/internal/serde"
	"sunstone/internal/server"
)

// service is one in-process sunstoned behind a loopback listener, as the
// service workloads drive it.
type service struct {
	srv    *server.Server
	jr     *journal.Journal
	dir    string // journal directory ("" without durability)
	ts     *httptest.Server
	client *http.Client
}

// startService builds the server the way cmd/sunstoned does with default
// flags: Config{} defaults, plus the journal with default options when
// journalDir is set. progTrace, when non-nil, turns on the program's own
// per-job spans (traced runs only).
func startService(journalDir string, progTrace *obs.Trace) (*service, error) {
	s := &service{dir: journalDir}
	cfg := server.Config{Trace: progTrace}
	if journalDir != "" {
		jr, err := journal.Open(journal.Options{Dir: journalDir})
		if err != nil {
			return nil, fmt.Errorf("open journal: %w", err)
		}
		s.jr, cfg.Journal = jr, jr
	}
	s.srv = server.New(cfg)
	s.ts = httptest.NewServer(s.srv)
	tp := &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64}
	s.client = &http.Client{Transport: tp}
	return s, nil
}

// stop closes the listener, the server and the journal, in that order. The
// journal's directory stays, for a reopen; removeJournal deletes it.
func (s *service) stop() error {
	s.client.CloseIdleConnections()
	s.ts.Close()
	err := s.srv.Close()
	if s.jr != nil {
		if cerr := s.jr.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

func (s *service) removeJournal() {
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// openService is a service workload's set-up: start the server (on a fresh
// journal directory under workdir for the durable workload) and warm the
// hot set. The caller stops the service and removes its journal.
func openService(p *svcPlan, workdir string, progTrace *obs.Trace) (*service, error) {
	dir := ""
	if p.Workload == wlServiceDurable {
		if err := os.MkdirAll(workdir, 0o755); err != nil {
			return nil, err
		}
		var err error
		if dir, err = os.MkdirTemp(workdir, "journal-"); err != nil {
			return nil, err
		}
	}
	s, err := startService(dir, progTrace)
	if err == nil {
		if err = s.warmHotSet(p); err == nil {
			return s, nil
		}
		s.stop()
	}
	if dir != "" {
		os.RemoveAll(dir)
	}
	return nil, err
}

// jobOutcome is what a client saw of one job.
type jobOutcome struct {
	sample
	id     string
	status *server.JobStatus
}

// runJob plays one client: POST the submission, read the 202, then follow
// the job's SSE stream to its terminal frame. All three latencies count
// from just before the POST.
func (s *service) runJob(job *svcJob, tr *tracer, op int) jobOutcome {
	out := jobOutcome{sample: sample{row: job.Row}}
	body, err := json.Marshal(&job.Req)
	if err != nil {
		out.failedWhy = err.Error()
		return out
	}
	sp := tr.begin(op, "server.submit", 1)
	t0 := time.Now()
	resp, err := s.client.Post(s.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		tr.end(sp)
		out.failedWhy = "POST: " + err.Error()
		return out
	}
	ackBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.ackMS = msSince(t0)
	tr.end(sp)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		out.failedWhy = fmt.Sprintf("POST: status %d: %s (%v)", resp.StatusCode, bytes.TrimSpace(ackBody), err)
		return out
	}
	var acked server.JobStatus
	if err := json.Unmarshal(ackBody, &acked); err != nil || acked.ID == "" {
		out.failedWhy = fmt.Sprintf("202 body: %v", err)
		return out
	}
	out.id = acked.ID

	sp = tr.begin(op, "server.events", 1)
	defer tr.end(sp)
	resp, err = s.client.Get(s.ts.URL + "/v1/jobs/" + acked.ID + "/events")
	if err != nil {
		out.failedWhy = "GET events: " + err.Error()
		return out
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		out.failedWhy = fmt.Sprintf("GET events: status %d", resp.StatusCode)
		return out
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data := line[len("data: "):]
			switch event {
			case "progress":
				out.frames++
				if out.firstMS == 0 && strings.Contains(data, `"kind":"incumbent-improved"`) {
					out.firstMS = msSince(t0)
				}
			case "done":
				out.frames++
				out.termMS = msSince(t0)
				var ev server.Event
				if err := json.Unmarshal([]byte(data), &ev); err != nil || ev.Job == nil {
					out.failedWhy = fmt.Sprintf("terminal frame: %v", err)
					return out
				}
				out.status = ev.Job
			}
		}
	}
	if out.status == nil {
		out.failedWhy = fmt.Sprintf("stream ended without a terminal frame (%v)", sc.Err())
		return out
	}
	if out.firstMS == 0 {
		out.firstMS = out.termMS
	}
	st := out.status
	out.edp = st.EDP
	out.queueMS = float64(st.StartedMS - st.SubmittedMS)
	out.runMS = float64(st.FinishedMS - st.StartedMS)
	out.fallback = st.FallbackUsed != ""
	return out
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }

// serviceClients is the closed loop's client count: compilers that each
// wait for a layer before sending the next.
func serviceClients() int {
	n := runtime.GOMAXPROCS(0)
	if n > 4 {
		n = 4
	}
	return n
}

// warmHotSet submits the hot set once and waits for each job, so the
// engine holds their compiled problems before the clock starts.
func (s *service) warmHotSet(p *svcPlan) error {
	for i := range p.Hot {
		if out := s.runJob(&p.Hot[i], nil, -1); out.failedWhy != "" {
			return fmt.Errorf("warm %s: %s", p.Hot[i].Row, out.failedWhy)
		}
	}
	return nil
}

// drive runs the job sequence through a closed loop of `clients` clients
// that pull the next job as soon as their last one reached its terminal
// frame. Results come back in job order; checks run after the clock stops.
func (s *service) drive(p *svcPlan, clients int, tr *tracer) (*outcome, []jobOutcome) {
	results := make([]jobOutcome, len(p.Jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(p.Jobs) {
					return
				}
				op := tr.newOp("job " + p.Jobs[i].Row)
				results[i] = s.runJob(&p.Jobs[i], tr, op)
				tr.end(op)
			}
		}()
	}
	wg.Wait()
	o := &outcome{timedSec: time.Since(t0).Seconds()}
	for i := range results {
		r := &results[i]
		if r.failedWhy == "" {
			op := tr.newOp("check " + p.Jobs[i].Row)
			tr.call(op, "bench.verify", func() { r.failedWhy = checkJobStatus(&p.Jobs[i], r.status) })
			tr.end(op)
		}
		o.samples = append(o.samples, r.sample)
	}
	return o, results
}

// verifyServiceTwins submits the conv twin on each machine the jobs use and
// runs the returned mapping on the reference interpreter.
func (s *service) verifyServiceTwins(p *svcPlan, o *outcome, tr *tracer) {
	seen := map[string]bool{}
	for _, j := range p.Jobs {
		if j.Req.Conv == nil || seen[j.Req.Arch] {
			continue
		}
		seen[j.Req.Arch] = true
		name := "twin " + famConvInf + "@" + j.Req.Arch
		spec := twinConvSpec
		job := svcJob{Kind: "twin", Row: name, Req: server.SubmitRequest{Tenant: "bench", Arch: j.Req.Arch, Conv: &spec}}
		op := tr.newOp(name)
		out := s.runJob(&job, tr, op)
		if out.failedWhy == "" {
			out.failedWhy = checkJobStatus(&job, out.status)
		}
		if out.failedWhy != "" {
			o.failf("%s: %s", name, out.failedWhy)
		} else {
			w, a := jobWorkload(&job.Req)
			m, err := serde.DecodeMapping(out.status.Mapping, w, a)
			if err != nil {
				o.failf("%s: %v", name, err)
			} else if why := verifyExec(tr, op, name, m); why != "" {
				o.failf("%s", why)
			}
		}
		tr.end(op)
	}
}

// verifyDurable closes the server, reopens the journal into a new Server
// and checks that every acked job is back as a terminal record with the EDP
// the client was given. It returns the replay time (journal open + server
// recovery) and the journal's statistics at close.
func (s *service) verifyDurable(results []jobOutcome, o *outcome, tr *tracer) (replayMS float64, stats journal.Stats, err error) {
	stats = s.jr.Stats()
	if err := s.stop(); err != nil {
		return 0, stats, fmt.Errorf("close server: %w", err)
	}
	op := tr.newOp("durable reopen")
	defer tr.end(op)
	var jr *journal.Journal
	var srv *server.Server
	t0 := time.Now()
	tr.call(op, "journal.Open", func() { jr, err = journal.Open(journal.Options{Dir: s.dir}) })
	if err != nil {
		return 0, stats, fmt.Errorf("reopen journal: %w", err)
	}
	tr.call(op, "server.New(recover)", func() { srv = server.New(server.Config{Journal: jr}) })
	replayMS = msSince(t0)
	defer func() {
		srv.Close()
		jr.Close()
	}()
	for i := range results {
		r := &results[i]
		if r.id == "" {
			continue // never acked
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+r.id, nil))
		var st server.JobStatus
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
			o.failf("durable: acked job %s lost after reopen (status %d)", r.id, rec.Code)
			continue
		}
		if !st.State.Terminal() {
			o.failf("durable: job %s came back %s, not terminal", r.id, st.State)
		} else if r.status != nil && st.EDP != r.status.EDP {
			o.failf("durable: job %s EDP %v after reopen, %v before", r.id, st.EDP, r.status.EDP)
		}
	}
	return replayMS, stats, nil
}

// runService runs a service workload end to end: start, warm, drive, check.
func runService(p *svcPlan, workdir string, tr *tracer, progTrace *obs.Trace) (*outcome, *serviceFacts, []jobOutcome, error) {
	s, err := openService(p, workdir, progTrace)
	if err != nil {
		return nil, nil, nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			s.stop()
		}
		s.removeJournal()
	}()
	o, results := s.drive(p, serviceClients(), tr)
	s.verifyServiceTwins(p, o, tr)
	facts := &serviceFacts{stats: s.srv.Stats(), jobs: len(p.Jobs)}
	if s.jr != nil {
		stopped = true
		facts.replayMS, facts.journal, err = s.verifyDurable(results, o, tr)
		if err != nil {
			return nil, nil, nil, err
		}
		facts.durable = true
	}
	return o, facts, results, nil
}

// serviceFacts are the counters a service pass leaves behind, read by the
// per-layer report.
type serviceFacts struct {
	stats    server.Stats
	jobs     int
	durable  bool
	journal  journal.Stats
	replayMS float64
}
