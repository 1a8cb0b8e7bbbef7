package sunstone

import (
	"sunstone/internal/journal"
	"sunstone/internal/server"
)

// Scheduler service: re-exports of the overload-protected HTTP job service
// (see internal/server and DESIGN.md "Scheduler service & overload
// protection"). The service front-ends one shared Engine with per-tenant
// admission control, bounded queueing with load shedding, end-to-end
// deadline propagation, a per-job stall watchdog, and graceful drain —
// every job accepted before a drain still ends with a valid mapping.

type (
	// Server is the scheduler service: an http.Handler exposing job
	// submission, status polling, SSE progress streaming, cancellation,
	// and health/readiness/stats endpoints. Create with (*Engine).NewServer;
	// call Drain (or Close) exactly once on the way out.
	Server = server.Server
	// ServerConfig parameterizes (*Engine).NewServer; the zero value of
	// every field selects a production-sane default. Leave the Engine field
	// nil: NewServer sets it to the receiver's compile cache.
	ServerConfig = server.Config
	// ServerStats is the /statz document: engine-cache stats, the srv.*
	// service counters, cumulative search-flow totals, and queue gauges.
	ServerStats = server.Stats
	// JobState is a job's lifecycle position (queued, running, done,
	// failed, canceled).
	JobState = server.JobState
	// JobStatus is the wire view of a job returned by the status, list,
	// and submit endpoints and by the terminal SSE event.
	JobStatus = server.JobStatus
	// SubmitRequest is the POST /v1/jobs body: one workload form
	// (serde JSON, textual description, or inline conv geometry), an
	// architecture preset or document, optimizer knobs, and the
	// end-to-end deadline.
	SubmitRequest = server.SubmitRequest
	// ConvSpec is SubmitRequest's inline convolution geometry.
	ConvSpec = server.ConvSpec
	// SubmitOptions is SubmitRequest's optimizer-knob subset.
	SubmitOptions = server.SubmitOptions
	// JobEvent is one SSE frame of GET /v1/jobs/{id}/events.
	JobEvent = server.Event
	// Journal is the durable write-ahead job log behind sunstoned's
	// -data-dir mode: crash-safe record of submissions, best-so-far search
	// checkpoints, and terminal results. Open with OpenJournal and hand it
	// to ServerConfig.Journal; the server replays it on construction and
	// re-admits unfinished jobs.
	Journal = journal.Journal
	// JournalOptions parameterizes OpenJournal (directory, segment size,
	// fsync policy).
	JournalOptions = journal.Options
	// JournalStats is the journal health block surfaced under /statz.
	JournalStats = journal.Stats
)

// Journal fsync policies for JournalOptions.Fsync.
const (
	FsyncAlways   = journal.FsyncAlways
	FsyncInterval = journal.FsyncInterval
	FsyncNever    = journal.FsyncNever
)

// OpenJournal opens (or creates) the write-ahead journal directory in
// o.Dir, replaying any existing segments: torn or corrupt tails are
// truncated, mid-file corruption is quarantined and counted, and the
// surviving records are held for the next server built on it to recover
// from.
func OpenJournal(o JournalOptions) (*Journal, error) { return journal.Open(o) }

// Job lifecycle states.
const (
	JobQueued   = server.JobQueued
	JobRunning  = server.JobRunning
	JobDone     = server.JobDone
	JobFailed   = server.JobFailed
	JobCanceled = server.JobCanceled
)

// NewServer builds a scheduler service from cfg (zero fields defaulted)
// sharing this Engine's compilation cache: identical problems submitted by
// any tenant compile once for the whole service (and for any direct Solve
// calls on the same Engine). The worker pool starts immediately.
func (e *Engine) NewServer(cfg ServerConfig) *Server {
	cfg.Engine = e.core
	return server.New(cfg)
}
