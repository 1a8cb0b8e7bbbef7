package server

// This file is the server side of the -data-dir durability subsystem: the
// journal payload schemas, boot-time recovery (restore terminal jobs,
// re-admit unfinished ones with a checkpoint warm start), the rate-limited
// incumbent checkpoint writer, the checkpoint-promotion guarantee, and the
// compaction live-set snapshot. See internal/journal for the on-disk
// format and docs/DESIGN.md "Durability & crash recovery" for the
// contracts.

import (
	"encoding/json"
	"fmt"
	"time"

	"sunstone/internal/core"
	"sunstone/internal/cost"
	"sunstone/internal/journal"
	"sunstone/internal/mapping"
	"sunstone/internal/obs"
	"sunstone/internal/serde"
)

// submitRecord is the journal payload of a KindSubmit record: enough to
// re-admit the job byte-identically — the client's raw request body plus
// the admission-time facts that are not in it.
type submitRecord struct {
	Tenant      string          `json:"tenant,omitempty"`
	IdemKey     string          `json:"idem_key,omitempty"`
	SubmittedMS int64           `json:"submitted_ms"`
	DeadlineMS  int64           `json:"deadline_ms"`
	Request     json.RawMessage `json:"request"`
}

// stateRecord is the journal payload of a KindState record.
type stateRecord struct {
	State string `json:"state"`
	MS    int64  `json:"ms,omitempty"`
}

const (
	// stateRunning marks the queued → running transition (informational).
	stateRunning = "running"
	// stateAbandoned marks a job whose submit record reached the journal
	// but whose client was never acknowledged (post-journal shed); recovery
	// must not resurrect it.
	stateAbandoned = "abandoned"
)

// recover replays the journal into the job table. Terminal jobs come back
// as read-only restored records; unfinished jobs are returned for
// re-admission, each warm-started from its latest decodable checkpoint and
// keeping its original absolute deadline (an already-expired deadline
// resolves to the warm-start incumbent via the anytime contract — the
// job still terminates with an audit-passing mapping, never silently
// disappears). Runs before the worker pool exists, so no locking beyond
// the shared maps' own invariants is needed; it still takes the locks the
// running system would, to keep the lock-order story uniform.
func (s *Server) recover() []*job {
	if s.jr == nil {
		return nil
	}
	type replayed struct {
		submit    *submitRecord
		submitRaw json.RawMessage
		ckpt      json.RawMessage
		result    json.RawMessage
		abandoned bool
	}
	byID := make(map[string]*replayed)
	var order []string
	var maxSeq int64
	for _, rec := range s.jr.TakeReplayed() {
		if rec.Job == "" {
			continue
		}
		r := byID[rec.Job]
		if r == nil {
			r = &replayed{}
			byID[rec.Job] = r
			order = append(order, rec.Job)
			var n int64
			if _, err := fmt.Sscanf(rec.Job, "j%06d", &n); err == nil && n > maxSeq {
				maxSeq = n
			}
		}
		switch rec.Kind {
		case journal.KindSubmit:
			var sr submitRecord
			if json.Unmarshal(rec.Payload, &sr) == nil {
				r.submit = &sr
				r.submitRaw = rec.Payload
			}
		case journal.KindCheckpoint:
			r.ckpt = rec.Payload // later records supersede: keep the last
		case journal.KindResult:
			r.result = rec.Payload
		case journal.KindState:
			var st stateRecord
			if json.Unmarshal(rec.Payload, &st) == nil && st.State == stateAbandoned {
				r.abandoned = true
			}
		}
	}
	// New ids start past everything the journal ever named, so a recovered
	// id can never be reissued to a new submission.
	if maxSeq > s.seq.Load() {
		s.seq.Store(maxSeq)
	}

	var pending []*job
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range order {
		r := byID[id]
		if r.abandoned {
			continue
		}
		var j *job
		switch {
		case r.result != nil:
			var st JobStatus
			if json.Unmarshal(r.result, &st) != nil {
				continue
			}
			st.ID = id
			j = restoredJob(st)
			j.submitRec = r.submitRaw
			j.resultRec = r.result
		case r.submit != nil:
			j = s.readmit(id, r.submit, r.submitRaw, r.ckpt)
			if j.restored == nil {
				pending = append(pending, j)
			}
		default:
			continue // stray checkpoint/state records with no submit
		}
		if r.submit != nil && r.submit.IdemKey != "" {
			tenant := r.submit.Tenant
			if tenant == "" {
				tenant = "default"
			}
			key := tenant + "\x00" + r.submit.IdemKey
			j.idemKey = key
			s.idem[key] = id
		}
		s.jobs[id] = j
		s.order = append(s.order, id)
		s.metrics.recovered.Inc()
	}
	return pending
}

// readmit rebuilds one unfinished job from its journaled submission. A
// request that no longer builds (a quarantined segment can lose part of
// it) must still not lose the job: it comes back as a terminal failure
// record instead. Checkpoint decoding is best-effort — a bad checkpoint
// degrades to a cold re-run of the job, never to a lost one.
func (s *Server) readmit(id string, sr *submitRecord, raw, ckpt json.RawMessage) *job {
	tenant := sr.Tenant
	if tenant == "" {
		tenant = "default"
	}
	fail := func(err error) *job {
		j := restoredJob(JobStatus{
			ID: id, Tenant: tenant, State: JobFailed,
			SubmittedMS: sr.SubmittedMS, DeadlineMS: sr.DeadlineMS,
			Error: "crash recovery could not rebuild the job: " + err.Error(),
		})
		j.submitRec = raw
		return j
	}
	var req SubmitRequest
	if err := json.Unmarshal(sr.Request, &req); err != nil {
		return fail(err)
	}
	wl, netw, a, opt, fopt, err := req.build()
	if err != nil {
		return fail(err)
	}
	j := newJob(id, tenant, wl, a, opt, time.UnixMilli(sr.DeadlineMS), time.UnixMilli(sr.SubmittedMS))
	j.recovered = true
	j.submitRec = raw
	if netw != nil {
		j.net = netw
		j.fused = req.Network.Fused
		j.fopt = fopt
	}
	if len(ckpt) > 0 && wl != nil {
		if cp, m, cerr := serde.DecodeCheckpoint(ckpt, wl, a); cerr == nil {
			j.opt.WarmStart = m
			j.ckpt = checkpoint{
				payload: ckpt, score: cp.Score,
				edp: cp.EDP, energyPJ: cp.EnergyPJ, cycles: cp.Cycles,
			}
		}
	}
	return j
}

// writeCheckpoint journals the search's new best-so-far. Lossy by design
// (plain append, rate-limited by the caller); a checkpoint that is not
// strictly better than the one already held is skipped, so the journaled
// checkpoint only ever improves — a resilient-path retry restarting from
// scratch cannot regress it.
func (s *Server) writeCheckpoint(j *job, m *mapping.Mapping, ev obs.ProgressEvent) {
	edp := ev.EnergyPJ * ev.Cycles
	j.mu.Lock()
	stale := j.ckpt.payload != nil && ev.Score >= j.ckpt.score
	j.mu.Unlock()
	if stale {
		return
	}
	payload, err := serde.EncodeCheckpoint(j.id, m, ev.Score, edp, ev.EnergyPJ, ev.Cycles)
	if err != nil {
		return
	}
	j.mu.Lock()
	j.ckpt = checkpoint{payload: payload, score: ev.Score, edp: edp, energyPJ: ev.EnergyPJ, cycles: ev.Cycles}
	j.mu.Unlock()
	if s.jr.Append(journal.Record{Kind: journal.KindCheckpoint, Job: j.id, Payload: payload}) == nil {
		s.metrics.checkpoints.Inc()
	}
}

// promoteCheckpoint enforces the durability contract at finalize: a job
// that ever journaled a checkpoint finishes no worse than that checkpoint.
// When the final result is missing, failed, or strictly worse (chaos can
// degrade the resilient chain past the journaled best; a resumed job's
// deadline may already be spent), the checkpoint mapping is decoded,
// re-evaluated from scratch (panic-contained), and substituted. The
// substitution is honest: the mapping re-passes full validation and the
// reported figures come from the fresh evaluation, with FallbackUsed
// naming the journal as the source.
func (s *Server) promoteCheckpoint(j *job, res core.Result, err error) (core.Result, error) {
	if s.jr == nil || j.w == nil {
		return res, err
	}
	j.mu.Lock()
	ck := j.ckpt
	j.mu.Unlock()
	if ck.payload == nil || ck.edp <= 0 {
		return res, err
	}
	if err == nil && res.Mapping != nil && res.Report.EDP <= ck.edp {
		return res, err
	}
	var rep cost.Report
	var m *mapping.Mapping
	ok := func() (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, mm, derr := serde.DecodeCheckpoint(ck.payload, j.w, j.a)
		if derr != nil {
			return false
		}
		rep = j.opt.Model.Evaluate(mm)
		if !rep.Valid {
			return false
		}
		m = mm
		return true
	}()
	if !ok {
		return res, err
	}
	if err == nil && res.Mapping != nil && res.Report.EDP <= rep.EDP {
		return res, err // the final result already beats the re-evaluated checkpoint
	}
	res.Mapping = m
	res.Report = rep
	res.FallbackUsed = "journal-checkpoint"
	return res, nil
}

// journalLiveSet is the compaction snapshot: the minimal record set that
// reproduces the current job table on replay — each job's submission,
// then its terminal result (terminal jobs) or its latest checkpoint
// (live jobs). Runs under the journal's internal lock (see the lock-order
// note on Server.jr), so it must not append.
func (s *Server) journalLiveSet() []journal.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []journal.Record
	for _, id := range s.order {
		j := s.jobs[id]
		if j == nil {
			continue
		}
		j.mu.Lock()
		if j.submitRec != nil {
			out = append(out, journal.Record{Kind: journal.KindSubmit, Job: id, Payload: j.submitRec})
		}
		switch {
		case j.resultRec != nil:
			out = append(out, journal.Record{Kind: journal.KindResult, Job: id, Payload: j.resultRec})
		case j.ckpt.payload != nil:
			out = append(out, journal.Record{Kind: journal.KindCheckpoint, Job: id, Payload: j.ckpt.payload})
		}
		j.mu.Unlock()
	}
	return out
}
