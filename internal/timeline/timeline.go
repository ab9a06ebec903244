// Package timeline records the per-resource event timeline of a draining
// episode: one interval per reservation placed on the NVM banks, the
// command bus and the AES/MAC engines, labelled with the operation and the
// drain stage in flight. On top of the raw interval set it provides a
// Chrome trace-event exporter (chrome.go) so any episode can be opened in
// chrome://tracing or Perfetto, and a critical-path analyzer (analyze.go)
// that attributes every picosecond of drain time to its binding resource.
//
// The Recorder mirrors the obs.Registry nil-safety contract: every method
// is a no-op on a nil receiver, and a detached simulator pays exactly one
// pointer check per reservation (see sim.Tracer and
// BenchmarkTimelineDisabledOverhead).
package timeline

import "repro/internal/sim"

// DefaultEventLimit bounds a recorder built with NewRecorder(0). At Table I
// scale a Horus drain emits roughly five events per drained block, so the
// default comfortably holds a full paper-scale episode.
const DefaultEventLimit = 4_000_000

// Event is one reservation on a simulated resource.
type Event struct {
	// Track is the resource's diagnostic name ("bank03", "membus", "aes").
	Track string
	// Kind classifies the resource for attribution: "bank", "bus", "aes",
	// "mac".
	Kind string
	// Op is the operation that placed the reservation ("read", "write",
	// "aes", "mac").
	Op string
	// Label refines the operation: the memory-access category ("chv-data",
	// "counter", ...) or the MAC category ("verify", "chv-data-mac", ...).
	Label string
	// Stage is the drain-pipeline stage in flight ("drain:blocks",
	// "drain:chv-stream", ...), empty outside a marked stage.
	Stage string
	// Addr is the NVM block address of a memory access (bank and bus
	// events); engine events carry 0.
	Addr uint64
	// Ready is when the operation could first have used the resource;
	// Start/End bound the reservation actually placed ([Start, End) never
	// overlaps another event on the same Track); Done is the operation's
	// completion. For single-server resources End == Done; for pipelined
	// engines End is the issue slot (Start + II) and Done is Start +
	// latency.
	Ready, Start, End, Done sim.Time
}

// Recorder is a bounded, allocation-light event recorder implementing
// sim.Tracer. It is single-threaded, like the simulator that feeds it:
// episodes running in parallel each get their own recorder (the sweep
// engine enforces this, mirroring its per-episode metrics registries).
type Recorder struct {
	limit   int
	events  []Event
	dropped int64

	episode string
	total   sim.Time

	// op/label/stage/addr are the labels stamped on the next events; the
	// controllers set them immediately before issuing reservations.
	op, label, stage string
	addr             uint64
}

// NewRecorder returns a recorder retaining at most limit events (0 selects
// DefaultEventLimit; negative means unlimited). Events beyond the limit are
// counted in Dropped rather than retained.
func NewRecorder(limit int) *Recorder {
	if limit == 0 {
		limit = DefaultEventLimit
	}
	// Pre-size the event buffer so a recording episode starts with a few
	// thousand slots instead of doubling up from one; the cap stays well
	// under the limit so tiny bounded recorders don't over-allocate.
	pre := 4096
	if limit > 0 && limit < pre {
		pre = limit
	}
	return &Recorder{limit: limit, events: make([]Event, 0, pre)}
}

// OnReserve implements sim.Tracer: it appends one event stamped with the
// current op/label/stage.
func (r *Recorder) OnReserve(name, kind string, ready, start, end, done sim.Time) {
	if r == nil {
		return
	}
	if r.limit > 0 && len(r.events) >= r.limit {
		r.dropped++
		return
	}
	r.events = append(r.events, Event{
		Track: name, Kind: kind,
		Op: r.op, Label: r.label, Stage: r.stage, Addr: r.addr,
		Ready: ready, Start: start, End: end, Done: done,
	})
}

// SetOp stamps the operation and its refining label onto subsequent events,
// with no address.
func (r *Recorder) SetOp(op, label string) {
	r.SetAccess(op, label, 0)
}

// SetAccess stamps a memory access (op "read" or "write", its category and
// block address) onto subsequent events.
func (r *Recorder) SetAccess(op, label string, addr uint64) {
	if r == nil {
		return
	}
	r.op, r.label, r.addr = op, label, addr
}

// SetStage stamps the drain-pipeline stage onto subsequent events.
func (r *Recorder) SetStage(stage string) {
	if r == nil {
		return
	}
	r.stage = stage
}

// BeginEpisode clears the recorded events and names the episode; the
// drainer calls it when a measured drain starts, so a recorder attached
// across warm-up and fill captures exactly the drain window.
func (r *Recorder) BeginEpisode(label string) {
	if r == nil {
		return
	}
	r.events = r.events[:0]
	r.dropped = 0
	r.episode = label
	r.total = 0
	r.stage = ""
}

// EndEpisode records the episode's measured span (the drain time); the
// analyzer attributes exactly this much time across resources.
func (r *Recorder) EndEpisode(total sim.Time) {
	if r == nil {
		return
	}
	r.total = total
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Dropped returns how many events were discarded over the limit.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Limit returns the configured event limit.
func (r *Recorder) Limit() int {
	if r == nil {
		return 0
	}
	return r.limit
}

// Recording is an immutable snapshot of one recorded episode.
type Recording struct {
	// Episode names the episode (the drain scheme, e.g. "Horus-SLM").
	Episode string
	// Total is the episode's measured span. If the recorder never saw
	// EndEpisode (e.g. a run-phase-only trace) it falls back to the latest
	// event completion, so exports and attribution still cover the events.
	Total sim.Time
	// Dropped counts events lost to the recorder limit; attribution over a
	// clipped recording is labelled rather than silently wrong.
	Dropped int64
	// Events in record order.
	Events []Event
}

// Recording snapshots the recorder's current episode.
func (r *Recorder) Recording() *Recording {
	if r == nil {
		return nil
	}
	rec := &Recording{
		Episode: r.episode,
		Total:   r.total,
		Dropped: r.dropped,
		Events:  append([]Event(nil), r.events...),
	}
	if rec.Total == 0 {
		for _, e := range rec.Events {
			rec.Total = sim.MaxTime(rec.Total, e.Done)
		}
	}
	return rec
}

// Tracks returns the distinct track names in deterministic order: known
// kinds first (bank, bus, aes, mac), names sorted within a kind.
func (rec *Recording) Tracks() []string {
	if rec == nil {
		return nil
	}
	seen := map[string]string{} // track -> kind
	for _, e := range rec.Events {
		seen[e.Track] = e.Kind
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sortTracks(names, seen)
	return names
}
