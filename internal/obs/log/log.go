// Package obslog is Gallery's unified structured-logging pillar: a
// leveled, trace-correlated slog.Handler over a bounded in-memory ring.
// Every log line a process emits — the HTTP access log, ad-hoc subsystem
// errors — flows through one pipeline that stamps the active trace ID, so
// log lines, audit events, and traces all join on the same key. The ring
// is served at GET /v1/debug/logs with level/since filters.
//
// When a level is disabled the handler's only cost is the Enabled check:
// slog builds no record and the handler allocates nothing.
package obslog

import (
	"context"
	"io"
	"log/slog"
	"strings"
	"sync"
	"time"

	"gallery/internal/obs/trace"
)

// Entry is one captured log line.
type Entry struct {
	Seq     uint64            `json:"seq"`
	Time    time.Time         `json:"time"`
	Level   string            `json:"level"`
	Msg     string            `json:"msg"`
	TraceID string            `json:"trace_id,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// DefaultCapacity bounds the ring when NewRing is given 0.
const DefaultCapacity = 1024

// Ring is a bounded, concurrency-safe buffer of the newest log entries.
// Sequence numbers are monotonic for the life of the process, so a reader
// polling with "after seq" never re-reads or misses a retained line.
type Ring struct {
	mu    sync.Mutex
	buf   []Entry // ring storage, len == cap once full
	size  int     // capacity
	next  uint64  // seq assigned to the next entry
	count int     // entries stored so far, saturating at size
}

// NewRing returns a ring retaining up to capacity entries.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Ring{buf: make([]Entry, capacity), size: capacity}
}

func (r *Ring) append(e Entry) {
	r.mu.Lock()
	e.Seq = r.next
	r.buf[int(r.next)%r.size] = e
	r.next++
	if r.count < r.size {
		r.count++
	}
	r.mu.Unlock()
}

// Filter selects entries from a snapshot read.
type Filter struct {
	// MinLevel drops entries below this level.
	MinLevel slog.Level
	// Since drops entries logged before this instant (zero = no bound).
	Since time.Time
	// AfterSeq drops entries with Seq <= AfterSeq; pass the NextSeq of a
	// previous read to poll for new lines only.
	AfterSeq uint64
	// HasAfterSeq distinguishes "AfterSeq 0" from "no seq bound".
	HasAfterSeq bool
	// Limit keeps the newest N matches (0 = all retained).
	Limit int
}

// Entries returns retained entries matching f, oldest first, plus the
// sequence number a follow-up poll should pass as AfterSeq.
func (r *Ring) Entries(f Filter) (entries []Entry, nextSeq uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	start := int(r.next) - r.count
	for i := start; i < int(r.next); i++ {
		e := r.buf[i%r.size]
		if parseLevelName(e.Level) < f.MinLevel {
			continue
		}
		if !f.Since.IsZero() && e.Time.Before(f.Since) {
			continue
		}
		if f.HasAfterSeq && e.Seq <= f.AfterSeq {
			continue
		}
		entries = append(entries, e)
	}
	if f.Limit > 0 && len(entries) > f.Limit {
		entries = entries[len(entries)-f.Limit:]
	}
	if r.next == 0 {
		return entries, 0
	}
	return entries, r.next - 1
}

// Len reports how many entries are currently retained.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// ParseLevel converts a level name ("debug", "info", "warn", "error") to
// a slog.Level, defaulting to info for unknown names.
func ParseLevel(s string) slog.Level {
	return parseLevelName(s)
}

func parseLevelName(s string) slog.Level {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug
	case "warn", "warning":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}

// Handler is a slog.Handler that captures records into a Ring and
// optionally tees them to a downstream handler (e.g. a JSON handler on
// stderr). The trace ID is taken from the record's context — or from an
// explicit "trace_id" attribute for call sites that pass no context.
type Handler struct {
	ring   *Ring
	level  slog.Leveler
	next   slog.Handler
	attrs  []slog.Attr
	prefix string // flattened group path, "a.b."
}

// NewHandler builds a Handler over ring. level nil means LevelInfo; next
// nil disables the tee.
func NewHandler(ring *Ring, level slog.Leveler, next slog.Handler) *Handler {
	if ring == nil {
		ring = NewRing(0)
	}
	if level == nil {
		level = slog.LevelInfo
	}
	return &Handler{ring: ring, level: level, next: next}
}

// NewLogger is the one log pipeline both daemons run: records at or above
// level land in ring (served at /v1/debug/logs) and, when tee is non-nil,
// are also written to it as JSON lines.
func NewLogger(ring *Ring, level slog.Level, tee io.Writer) *slog.Logger {
	var next slog.Handler
	if tee != nil {
		next = slog.NewJSONHandler(tee, nil)
	}
	return slog.New(NewHandler(ring, level, next))
}

// Ring exposes the handler's buffer for the /v1/debug/logs endpoint.
func (h *Handler) Ring() *Ring { return h.ring }

// Enabled implements slog.Handler; it allocates nothing, so disabled
// levels cost exactly this comparison.
func (h *Handler) Enabled(_ context.Context, l slog.Level) bool {
	return l >= h.level.Level()
}

// Handle implements slog.Handler.
func (h *Handler) Handle(ctx context.Context, r slog.Record) error {
	e := Entry{Time: r.Time, Level: levelName(r.Level), Msg: r.Message}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	n := len(h.attrs) + r.NumAttrs()
	if n > 0 {
		e.Attrs = make(map[string]string, n)
	}
	for _, a := range h.attrs {
		addAttr(&e, "", a)
	}
	r.Attrs(func(a slog.Attr) bool {
		addAttr(&e, h.prefix, a)
		return true
	})
	if e.TraceID == "" {
		e.TraceID = trace.FromContext(ctx).TraceIDString()
	}
	h.ring.append(e)
	if h.next != nil && h.next.Enabled(ctx, r.Level) {
		return h.next.Handle(ctx, r)
	}
	return nil
}

// WithAttrs implements slog.Handler.
func (h *Handler) WithAttrs(attrs []slog.Attr) slog.Handler {
	if len(attrs) == 0 {
		return h
	}
	c := *h
	c.attrs = make([]slog.Attr, 0, len(h.attrs)+len(attrs))
	c.attrs = append(c.attrs, h.attrs...)
	for _, a := range attrs {
		a.Key = h.prefix + a.Key
		c.attrs = append(c.attrs, a)
	}
	if h.next != nil {
		c.next = h.next.WithAttrs(attrs)
	}
	return &c
}

// WithGroup implements slog.Handler; groups flatten into dotted keys.
func (h *Handler) WithGroup(name string) slog.Handler {
	if name == "" {
		return h
	}
	c := *h
	c.prefix = h.prefix + name + "."
	if h.next != nil {
		c.next = h.next.WithGroup(name)
	}
	return &c
}

func addAttr(e *Entry, prefix string, a slog.Attr) {
	if a.Value.Kind() == slog.KindGroup {
		for _, g := range a.Value.Group() {
			addAttr(e, prefix+a.Key+".", g)
		}
		return
	}
	key := prefix + a.Key
	val := a.Value.Resolve().String()
	if key == "trace_id" && e.TraceID == "" {
		e.TraceID = val
	}
	e.Attrs[key] = val
}

func levelName(l slog.Level) string {
	switch {
	case l >= slog.LevelError:
		return "error"
	case l >= slog.LevelWarn:
		return "warn"
	case l >= slog.LevelInfo:
		return "info"
	default:
		return "debug"
	}
}
