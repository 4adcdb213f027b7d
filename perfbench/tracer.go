package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cloversim/internal/store"
	"cloversim/internal/sweep"
	"cloversim/internal/workload"
)

// span is one timed call across a layer boundary. Spans of one
// operation share Op; Parent is the span that caused this one (0 for
// a root). Tag and N carry what the boundary observed: a cache hit,
// an error, a status code, a byte count.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Tag    string `json:"tag,omitempty"`
	N      int64  `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. Wrappers around
// the layers' seams record into it only while it is on, and parent
// their spans on the operation, campaign or backend span the traced
// operation is in.
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu       sync.Mutex
	spans    []span
	op       int // current operation
	campaign int // its sweep.campaign span
	backend  int // its backend span (sweep.backend or dispatch.execute)
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, op int) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: start, End: start})
	return len(t.spans)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) { t.finish(id, "", 0) }

// finish closes a span and records what its boundary observed.
func (t *tracer) finish(id int, tag string, n int64) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.Tag, s.N = end, tag, n
}

// setScope records where the current operation is, for wrappers that
// cannot be handed their parent span.
func (t *tracer) setScope(op, campaign, backend int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op, t.campaign, t.backend = op, campaign, backend
}

func (t *tracer) scope() (op, campaign, backend int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.op, t.campaign, t.backend
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTime is a span's duration minus the part of it its child spans
// cover.
func selfTime(s span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, reach := int64(0), s.Start
	for _, v := range ivs {
		if v.b <= reach {
			continue
		}
		covered += v.b - max(v.a, reach)
		reach = v.b
	}
	return s.dur() - time.Duration(covered)
}

// selfTimes returns every span's self time, by span ID.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = selfTime(s, children[s.ID])
	}
	return out
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedRunner wraps the engine's RunnerContext seam: one span per
// simulated cell, named after its workload, under the backend span.
func (t *tracer) tracedRunner(next sweep.RunnerContext) sweep.RunnerContext {
	return func(ctx context.Context, s sweep.Scenario) (sweep.Metrics, error) {
		if !t.on.Load() {
			return next(ctx, s)
		}
		name := s.Workload
		if name == "" {
			name = workload.DefaultName
		}
		op, _, backend := t.scope()
		id := t.begin("workload."+name+".run", backend, op)
		m, err := next(ctx, s)
		t.finish(id, errTag(err), 0)
		return m, err
	}
}

// tracedCache wraps the engine's Cache seam (the client-side store).
type tracedCache struct {
	c  sweep.Cache
	tr *tracer
}

func (c *tracedCache) Get(s sweep.Scenario) (sweep.Metrics, bool) {
	op, campaign, _ := c.tr.scope()
	id := c.tr.begin("store.get", campaign, op)
	m, ok := c.c.Get(s)
	c.tr.finish(id, hitTag(ok), 0)
	return m, ok
}

func (c *tracedCache) Put(s sweep.Scenario, m sweep.Metrics) error {
	op, campaign, _ := c.tr.scope()
	id := c.tr.begin("store.put", campaign, op)
	err := c.c.Put(s, m)
	c.tr.finish(id, errTag(err), 0)
	return err
}

// tracedBackend wraps the engine's Backend seam.
type tracedBackend struct {
	b    sweep.Backend
	tr   *tracer
	name string
}

func (b *tracedBackend) Execute(ctx context.Context, scenarios []sweep.Scenario, report sweep.ReportFunc) {
	op, campaign, _ := b.tr.scope()
	id := b.tr.begin(b.name, campaign, op)
	b.tr.setScope(op, campaign, id)
	b.b.Execute(ctx, scenarios, report)
	b.tr.finish(id, "", int64(len(scenarios)))
}

// daemonStore is a sweepd daemon's store with its Get seam traced; N
// of its spans is the daemon's number, so cells per worker can be
// counted.
type daemonStore struct {
	*store.Store
	tr     *tracer
	worker int
}

func (s daemonStore) Get(sc sweep.Scenario) (sweep.Metrics, bool) {
	if s.tr == nil || !s.tr.on.Load() {
		return s.Store.Get(sc)
	}
	op, _, backend := s.tr.scope()
	id := s.tr.begin("store.get", backend, op)
	m, ok := s.Store.Get(sc)
	s.tr.finish(id, hitTag(ok), int64(s.worker))
	return m, ok
}

// tracedHandler wraps a sweepd daemon's http.Handler: one span per
// request, tagged with its status and counting response bytes.
func (t *tracer) tracedHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		op, _, backend := t.scope()
		id := t.begin("sweepd.handle", backend, op)
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		// The handler works for the operation: label it for the CPU
		// profile.
		pprof.Do(r.Context(), pprof.Labels(opLabel, strconv.Itoa(op)), func(context.Context) {
			next.ServeHTTP(cw, r)
		})
		t.finish(id, strconv.Itoa(cw.status), cw.n)
	})
}

// countingWriter records a response's status and size. Unwrap lets
// http.ResponseController reach the real writer's Flush, which the
// NDJSON expand stream needs.
type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func hitTag(ok bool) string {
	if ok {
		return "hit"
	}
	return "miss"
}

func errTag(err error) string {
	if err != nil {
		return "err"
	}
	return ""
}
