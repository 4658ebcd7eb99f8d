package server

// This file holds the audit-trail and debug-log endpoints: the query side
// of the lifecycle audit trail (internal/audit) and the process's
// structured-log ring (internal/obs/log). Events are written by the
// mutation paths themselves — these handlers only search, ingest external
// emitters' events, and serve the ring.

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"gallery/internal/api"
	"gallery/internal/audit"
	"gallery/internal/core"
	"gallery/internal/obs"
	"gallery/internal/relstore"
)

// withActor stamps every request's context with the audit actor from the
// X-Gallery-Actor header, so audit events written while handling the
// request name who asked for the mutation. Requests that declare no
// identity are recorded as "anonymous" — distinguishable from any real
// caller — and counted, so an instance can see how much of its mutation
// traffic is unattributed. This chain only runs with auth disabled; under
// auth the verified token identity is stamped instead and this header is
// ignored entirely.
func withActor(next http.Handler, anonymous *obs.Counter) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		actor := r.Header.Get("X-Gallery-Actor")
		if actor == "" {
			actor = "anonymous"
			anonymous.Inc()
		}
		next.ServeHTTP(w, r.WithContext(audit.WithActor(r.Context(), actor)))
	})
}

// handleListAudit is GET /v1/audit: field-filtered search over the audit
// trail. Simple filters ride dedicated query parameters (entity, model,
// action, actor, trace, since, until, limit, order); arbitrary predicates
// ride repeated where=field:op:value parameters using the same operator
// names as POST /v1/search.
func (s *Server) handleListAudit(w http.ResponseWriter, r *http.Request) {
	qp := r.URL.Query()
	q := audit.Query{
		EntityID: qp.Get("entity"),
		ModelID:  qp.Get("model"),
		Action:   qp.Get("action"),
		Actor:    qp.Get("actor"),
		TraceID:  qp.Get("trace"),
		Desc:     qp.Get("order") != "asc",
		Limit:    100,
	}
	if v := qp.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, fmt.Errorf("%w: bad limit %q", core.ErrBadSpec, v))
			return
		}
		q.Limit = n
	}
	var err error
	if q.Since, err = parseAuditTime(qp.Get("since")); err != nil {
		writeErr(w, err)
		return
	}
	if q.Until, err = parseAuditTime(qp.Get("until")); err != nil {
		writeErr(w, err)
		return
	}
	for _, raw := range qp["where"] {
		c, err := parseAuditWhere(raw)
		if err != nil {
			writeErr(w, err)
			return
		}
		q.Where = append(q.Where, c)
	}
	evs, err := s.reg.Audit().Events(q)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, api.AuditEventsResponse{Events: auditDTOs(evs)})
}

// handleEntityTimeline is GET /v1/audit/entity/{id}: the lineage timeline
// of one entity — events naming it directly plus, for a model, events on
// its instances and versions (joined through model_id) — in write order.
func (s *Server) handleEntityTimeline(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	limit := 100
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, fmt.Errorf("%w: bad limit %q", core.ErrBadSpec, v))
			return
		}
		limit = n
	}
	evs, err := s.reg.Audit().EntityTimeline(id, limit)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, api.AuditEventsResponse{Events: auditDTOs(evs)})
}

// handleIngestAudit is POST /v1/audit: external emitters without their own
// audit store — serving gateways reporting hot swaps — ship the events
// they witnessed. The trail stamps ID, sequence and (when missing) time;
// actor and trace ID are trusted from the sender, falling back to the
// request's own when absent.
func (s *Server) handleIngestAudit(w http.ResponseWriter, r *http.Request) {
	var req api.RecordAuditRequest
	if err := s.decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	resp := api.RecordAuditResponse{}
	for _, ev := range req.Events {
		err := s.reg.Audit().Record(r.Context(), audit.Event{
			Time:       ev.Time,
			Actor:      ev.Actor,
			Action:     ev.Action,
			EntityType: ev.EntityType,
			EntityID:   ev.EntityID,
			ModelID:    ev.ModelID,
			Before:     ev.Before,
			After:      ev.After,
			Detail:     ev.Detail,
			TraceID:    ev.TraceID,
		})
		if err != nil {
			resp.Rejected++
			continue
		}
		resp.Accepted++
	}
	status := http.StatusAccepted
	if resp.Accepted == 0 && resp.Rejected > 0 {
		status = http.StatusBadRequest
	}
	writeJSON(w, status, resp)
}

// parseAuditTime accepts an absolute RFC3339 instant or a relative
// duration ("15m" means that long ago).
func parseAuditTime(v string) (time.Time, error) {
	if v == "" {
		return time.Time{}, nil
	}
	if d, err := time.ParseDuration(v); err == nil {
		return time.Now().Add(-d), nil
	}
	t, err := time.Parse(time.RFC3339, v)
	if err != nil {
		return time.Time{}, fmt.Errorf("%w: bad time %q (want RFC3339 or a duration like 15m)", core.ErrBadSpec, v)
	}
	return t, nil
}

// parseAuditWhere turns one "field:op:value" parameter into a relstore
// constraint, reusing the wire operator names of POST /v1/search.
func parseAuditWhere(raw string) (relstore.Constraint, error) {
	parts := strings.SplitN(raw, ":", 3)
	if len(parts) != 3 || parts[0] == "" {
		return relstore.Constraint{}, fmt.Errorf("%w: bad where %q (want field:op:value)", core.ErrBadSpec, raw)
	}
	op, err := relstore.ParseOp(parts[1])
	if err != nil {
		return relstore.Constraint{}, fmt.Errorf("%w: %v", core.ErrBadSpec, err)
	}
	field, val := parts[0], parts[2]
	switch field {
	case "seq":
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return relstore.Constraint{}, fmt.Errorf("%w: bad seq value %q", core.ErrBadSpec, val)
		}
		return relstore.Constraint{Field: field, Op: op, Value: relstore.Int(n)}, nil
	case "created":
		t, err := parseAuditTime(val)
		if err != nil {
			return relstore.Constraint{}, err
		}
		return relstore.Constraint{Field: field, Op: op, Value: relstore.Time(t)}, nil
	default:
		return relstore.Constraint{Field: field, Op: op, Value: relstore.String(val)}, nil
	}
}

func auditDTOs(evs []audit.Event) []api.AuditEvent {
	out := make([]api.AuditEvent, len(evs))
	for i, ev := range evs {
		out[i] = api.AuditEvent{
			ID:         ev.ID,
			Seq:        ev.Seq,
			Time:       ev.Time,
			Actor:      ev.Actor,
			Action:     ev.Action,
			EntityType: ev.EntityType,
			EntityID:   ev.EntityID,
			ModelID:    ev.ModelID,
			Before:     ev.Before,
			After:      ev.After,
			Detail:     ev.Detail,
			TraceID:    ev.TraceID,
		}
	}
	return out
}
