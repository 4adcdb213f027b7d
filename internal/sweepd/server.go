// Package sweepd is the campaign result server behind cmd/sweepd: it
// exposes one persistent content-addressed store (internal/store) to
// many concurrent HTTP clients — listing stored scenarios, serving
// results by config hash, and expanding whole campaign grids where
// warm cells come straight from the store and cold cells are simulated
// on a bounded worker pool and written through.
//
// API (all JSON):
//
//	GET  /v1/healthz           liveness, store occupancy, simulation capacity
//	GET  /v1/scenarios         every stored record, deterministic key order
//	GET  /v1/results/{id}      one record by scenario config hash
//	POST /v1/expand            expand a grid: warm from store, simulate cold
//	GET  /v1/sync              stream records a peer is missing (replication)
//	POST /v1/admin/compact     merge the store's segments into one
//
// An expand body is either a grid (axes by name, the cross product is
// executed) or an explicit scenario list (canonical scenario keys, the
// dispatch protocol's form — the worker executes cells it has never
// seen). By default the grid form responds with the exact campaign
// JSON format cmd/sweep writes to campaign.json, so clients can treat
// the daemon as a remote sweep; a partial campaign is flagged with an
// X-Expand-Incomplete header and a durability loss with X-Store-Error.
//
// The explicit form always responds with an NDJSON stream, whatever
// the Accept header says; the grid form does too when asked with
// "Accept: application/x-ndjson". The stream carries one JSON object
// per line, emitting each cell's result the moment it finalizes with
// its metrics as bit-exact IEEE-754 bits (so a dispatcher can merge
// fleet results into a byte-identical campaign), framed as a tagged
// union:
//
//	{"stream":{...}}    first line: physics + scenario count
//	{"result":{...}}    one per cell, completion order
//	{"summary":{...}}   last line: counts + incomplete/store status
//
// Because headers leave with the first flushed frame, the incomplete
// and store-error signals ride in the terminal summary frame instead.
// A stream that ends without a summary line was truncated and must not
// be trusted.
//
// Healthz reports the daemon's simulation capacity (worker slots), the
// number of in-flight expand requests, and the physics version, so a
// dispatcher can weight shards by capacity and refuse mixed-physics
// fleets.
//
// Expands are cancellation-correct: each runs under its request
// context (plus the optional Server.ExpandTimeout deadline), so a
// client that disconnects mid-expand stops the server scheduling that
// grid's remaining cold cells and releases its global simulation
// slots immediately; cells already simulating complete and are
// written through, cells never started come back as errors wrapping
// sweep.ErrUnstarted. The store is synced before a campaign JSON
// response and before a stream's summary frame, so results the client
// has been acknowledged survive a daemon crash.
package sweepd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"cloversim/internal/store"
	"cloversim/internal/sweep"
	"cloversim/internal/workload"
)

// DefaultMaxCells bounds one expand request when Server.MaxCells is
// unset, so a typo'd grid cannot wedge the daemon behind a million
// simulations.
const DefaultMaxCells = 4096

// ResultStore is the slice of *store.Store the server depends on,
// lifted to an interface so tests can inject durability failures
// (failed Sync) without a real broken filesystem. *store.Store
// implements it.
type ResultStore interface {
	sweep.Cache
	Lookup(id string) (store.Record, bool)
	Records() []store.Record
	Len() int
	Stats() store.Stats
	Physics() string
	Sync() error
	// Replication and maintenance surface (see sync.go): Epoch and
	// IDsSince drive /v1/sync watermarks, Compact backs the admin
	// compaction endpoint.
	Epoch() string
	IDsSince(since uint64) (ids []string, watermark uint64)
	Compact() (store.CompactStats, error)
}

var _ ResultStore = (*store.Store)(nil)

// Server serves one store. Create with New; safe for concurrent use.
// The exported fields are optional configuration: set them before the
// Handler serves traffic.
type Server struct {
	// ExpandTimeout, when positive, bounds each expand request: the
	// campaign context expires after this long, unstarted cells come
	// back as errors, and the partial response is flagged incomplete
	// (X-Expand-Incomplete header, or the stream summary). Zero means
	// no server-side deadline (client disconnect still cancels).
	ExpandTimeout time.Duration
	// ErrorLog receives response-write failures (broken pipes, encode
	// bugs) that cannot reach the client anymore. Nil means
	// log.Default().
	ErrorLog *log.Logger
	// MaxCells caps the cell count of one expand request, grid or
	// explicit form. Zero means DefaultMaxCells. The cap is advertised
	// in /v1/healthz as max_cells so dispatchers can clamp their chunk
	// sizes up front instead of discovering the limit through 400s.
	MaxCells int

	st       ResultStore
	eng      *sweep.Engine
	runner   sweep.RunnerContext
	sem      chan struct{}
	inflight atomic.Int64 // expand requests currently being served
}

// New wires a server onto an open store. The runner simulates cold
// cells; workers bounds simulation concurrency globally across all
// in-flight expand requests (<= 0 means GOMAXPROCS). Results of cold
// simulations are written through to the store.
func New(st ResultStore, runner sweep.RunnerContext, workers int) *Server {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Server{st: st, sem: make(chan struct{}, workers)}
	s.eng = sweep.NewEngine(workers)
	s.eng.Cache = st
	// The engine bounds workers per campaign; the semaphore bounds the
	// whole daemon, so concurrent expand requests share one simulation
	// budget instead of multiplying it. The acquire selects on the
	// request context: a cell whose client already disconnected (or
	// whose deadline passed) releases its claim on the global budget
	// immediately instead of simulating into the void.
	s.runner = func(ctx context.Context, sc sweep.Scenario) (sweep.Metrics, error) {
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			// The cell never simulated: report it with the engine's
			// distinguished unstarted error, not as a genuine failure.
			return nil, fmt.Errorf("sweepd: waiting for a simulation slot: %w: %w", sweep.ErrUnstarted, ctx.Err())
		}
		defer func() { <-s.sem }()
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sweepd: simulation slot acquired after cancellation: %w: %w", sweep.ErrUnstarted, err)
		}
		return runner(ctx, sc)
	}
	return s
}

// maxCells resolves the per-expand cell cap.
func (s *Server) maxCells() int {
	if s.MaxCells > 0 {
		return s.MaxCells
	}
	return DefaultMaxCells
}

// logf reports server-side failures that have no client to return to.
func (s *Server) logf(format string, args ...any) {
	l := s.ErrorLog
	if l == nil {
		l = log.Default()
	}
	l.Printf(format, args...)
}

// Handler returns the daemon's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("GET /v1/results/{id}", s.handleResult)
	mux.HandleFunc("POST /v1/expand", s.handleExpand)
	mux.HandleFunc("GET /v1/sync", s.handleSync)
	mux.HandleFunc("POST /v1/admin/compact", s.handleCompact)
	return mux
}

// writeJSON encodes one response body. Encode failures (typically a
// client that hung up mid-body, occasionally a genuine encoding bug)
// cannot be reported to the client — the status line is gone — so
// they are logged instead of swallowed.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.logf("sweepd: %s %s: writing response: %v", r.Method, r.URL.Path, err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	s.writeJSON(w, r, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Health is the /v1/healthz response. Capacity and InFlight are what a
// dispatcher shards by: Capacity is the daemon's global simulation
// worker-slot count (the most cold cells it will run concurrently),
// InFlight the number of expand requests currently being served.
// Physics lets a dispatcher refuse mixed-physics fleets — results
// simulated under different physics versions must never merge into one
// campaign. MaxCells is the largest expand this daemon accepts, so a
// dispatcher clamps its chunk sizes instead of tripping 400s.
type Health struct {
	OK       bool   `json:"ok"`
	Physics  string `json:"physics"`
	Records  int    `json:"records"`
	Stats    string `json:"stats"`
	Capacity int    `json:"capacity"`
	InFlight int    `json:"inflight"`
	MaxCells int    `json:"max_cells"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, http.StatusOK, Health{
		OK:       true,
		Physics:  s.st.Physics(),
		Records:  s.st.Len(),
		Stats:    s.st.Stats().String(),
		Capacity: cap(s.sem),
		InFlight: int(s.inflight.Load()),
		MaxCells: s.maxCells(),
	})
}

// jsonMetric/jsonRecord mirror the store's wire form: decimal value
// for humans, IEEE-754 bits for clients that need the exact float.
// The decimal mirror is best-effort — JSON cannot carry NaN/Inf, so
// exactly those drop the value field (a pointer, so finite zeros stay)
// and the bits alone are authoritative; encoding NaN as a number would
// abort the whole response encode mid-body.
type jsonMetric struct {
	Name  string   `json:"name"`
	Value *float64 `json:"value,omitempty"`
	Bits  string   `json:"bits"`
}

// toJSONMetrics renders metrics in the shared wire form used by both
// /v1/results and the expand stream's result frames, so the two
// surfaces cannot drift.
func toJSONMetrics(ms sweep.Metrics) []jsonMetric {
	out := make([]jsonMetric, 0, len(ms))
	for _, m := range ms {
		jm := jsonMetric{
			Name: m.Name,
			Bits: fmt.Sprintf("%016x", math.Float64bits(m.Value)),
		}
		if v := m.Value; !math.IsNaN(v) && !math.IsInf(v, 0) {
			jm.Value = &v
		}
		out = append(out, jm)
	}
	return out
}

type jsonRecord struct {
	ID       string       `json:"id"`
	Key      string       `json:"key"`
	Machine  string       `json:"machine"`
	Workload string       `json:"workload,omitempty"`
	Mode     string       `json:"mode"`
	Ranks    int          `json:"ranks"`
	Mesh     string       `json:"mesh"`
	Threads  int          `json:"threads"`
	Seed     uint64       `json:"seed"`
	Metrics  []jsonMetric `json:"metrics,omitempty"`
}

func toJSONRecord(rec store.Record) jsonRecord {
	jr := jsonRecord{
		ID:       rec.ID,
		Key:      rec.Scenario.Key(),
		Machine:  rec.Scenario.Machine,
		Workload: rec.Scenario.Workload,
		Mode:     rec.Scenario.Mode.Name,
		Ranks:    rec.Scenario.Ranks,
		Mesh:     rec.Scenario.Mesh.String(),
		Threads:  rec.Scenario.Threads,
		Seed:     rec.Scenario.Seed,
	}
	jr.Metrics = toJSONMetrics(rec.Metrics)
	return jr
}

type scenariosResponse struct {
	Physics   string       `json:"physics"`
	Count     int          `json:"count"`
	Scenarios []jsonRecord `json:"scenarios"`
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	recs := s.st.Records()
	resp := scenariosResponse{
		Physics:   s.st.Physics(),
		Count:     len(recs),
		Scenarios: make([]jsonRecord, 0, len(recs)),
	}
	for _, rec := range recs {
		resp.Scenarios = append(resp.Scenarios, toJSONRecord(rec))
	}
	s.writeJSON(w, r, http.StatusOK, resp)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.st.Lookup(id)
	if !ok {
		s.writeError(w, r, http.StatusNotFound, "no stored result for config hash %q under physics %s", id, s.st.Physics())
		return
	}
	s.writeJSON(w, r, http.StatusOK, toJSONRecord(rec))
}

// GridSpec is the expand request body: the same axes cmd/sweep's flags
// declare, with modes and meshes by name — or, in its explicit form,
// canonical scenario keys to execute verbatim. It is the shared
// sweep.GridSpec, so the CLI and the HTTP API validate grids through
// one code path.
type GridSpec = sweep.GridSpec

func (s *Server) handleExpand(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	var spec GridSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.writeError(w, r, http.StatusBadRequest, "bad grid spec: %v", err)
		return
	}
	var scenarios []sweep.Scenario
	explicit := spec.IsExplicit()
	if explicit {
		// Explicit form: the dispatch protocol hands this worker cells
		// it has never seen, as canonical keys. Malformed keys and
		// mixed-form specs are client errors; per-scenario resolution
		// failures (unknown machine, bad ranks) surface as per-cell
		// results, exactly as in a grid expand.
		var err error
		if scenarios, err = spec.Explicit(); err != nil {
			s.writeError(w, r, http.StatusBadRequest, "%v", err)
			return
		}
	} else {
		grid, err := spec.Resolve(workload.ValidateAxes)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, "%v", err)
			return
		}
		if n, limit := grid.Size(), s.maxCells(); n > limit {
			s.writeError(w, r, http.StatusBadRequest, "grid has %d cells, limit %d", n, limit)
			return
		}
		scenarios = grid.Expand()
	}
	if n, limit := len(scenarios), s.maxCells(); n > limit {
		s.writeError(w, r, http.StatusBadRequest, "%d scenarios, limit %d", n, limit)
		return
	}
	// The campaign runs under the request context: a client that
	// disconnects mid-expand stops cold-cell scheduling instead of
	// simulating the rest of the grid into a dead socket, and the
	// per-request deadline (when configured) bounds how long one grid
	// may hold simulation slots.
	ctx := r.Context()
	if s.ExpandTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.ExpandTimeout)
		defer cancel()
	}
	if explicit || acceptsNDJSON(r.Header.Get("Accept")) {
		s.expandStream(w, ctx, scenarios)
		return
	}
	c := s.eng.RunScenariosContextProgress(ctx, scenarios, s.runner, nil)
	storeErr := s.persist(c)
	w.Header().Set("Content-Type", "application/json")
	if storeErr != nil {
		// The campaign is correct — the durability loss is server-side.
		// Discarding computed results would only force clients into a
		// re-simulation loop, so serve them and flag the loss in a
		// header (headers must precede the body).
		s.logf("sweepd: POST /v1/expand: store: %v", storeErr)
		w.Header().Set("X-Store-Error", "store writes failed; results not persisted")
	}
	if reason := incomplete(ctx, c); reason != "" {
		// Cancelled mid-grid (deadline hit, or client gone — then
		// nobody reads this): the body is a partial campaign whose
		// unstarted cells carry errors. Flag it so clients distinguish
		// "incomplete" from "simulation failed".
		w.Header().Set("X-Expand-Incomplete", reason)
	}
	w.WriteHeader(http.StatusOK)
	if err := (sweep.JSONEmitter{Indent: true}).Emit(w, c); err != nil {
		s.logf("sweepd: POST /v1/expand: writing campaign: %v", err)
	}
}

// incomplete names why a campaign was cut short, or "" when every cell
// ran. It is keyed on the campaign, not ctx.Err(): a deadline that
// fires after the last cell finalized did not cost the client
// anything.
func incomplete(ctx context.Context, c sweep.Campaign) string {
	if !c.Interrupted() {
		return ""
	}
	if err := ctx.Err(); err != nil {
		return err.Error()
	}
	return "campaign cancelled"
}

// persist enforces durability before acknowledgement: a response
// without a store-error signal asserts every result in it is durable.
// The engine memoizer can serve results whose write-through failed —
// in this request (CacheErr) or an earlier one — so verify each
// successful cell is indexed and, since the metrics are in hand,
// repair misses by retrying the Put (a transient disk-full must not
// condemn the cell to a store error, let alone for the daemon's
// lifetime). Post-repair verification subsumes CacheErr: only a cell
// that is STILL not persistable flags the loss. The Sync runs after
// the repairs so they ride the same pre-response fsync; it is free on
// a clean store (the all-warm steady state) and re-attempts a fsync an
// earlier request failed rather than vouching for it.
func (s *Server) persist(c sweep.Campaign) error {
	var storeErr error
	for _, res := range c.Results {
		if res.Err != nil {
			continue
		}
		if _, ok := s.st.Lookup(res.ID); ok {
			continue
		}
		if perr := s.st.Put(res.Scenario, res.Metrics); perr != nil {
			storeErr = errors.Join(storeErr, fmt.Errorf("sweepd: result %s served from memory but not persistable: %w", res.ID, perr))
		}
	}
	if err := s.st.Sync(); err != nil {
		storeErr = errors.Join(storeErr, err)
	}
	if c.CacheErr != nil {
		// Worth a trace even when repaired: write-throughs failing at
		// all is an operational smell.
		s.logf("sweepd: POST /v1/expand: write-through: %v", c.CacheErr)
	}
	return storeErr
}

// acceptsNDJSON reports whether an Accept header asks for a streaming
// grid expand. Deliberately an exact media-type match per
// comma-separated entry: */* or application/* keep the grid form's
// campaign JSON default — streaming a grid is opt-in, never inferred.
func acceptsNDJSON(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt, _, _ := strings.Cut(part, ";")
		if strings.EqualFold(strings.TrimSpace(mt), "application/x-ndjson") {
			return true
		}
	}
	return false
}

// streamFrame is one NDJSON line of a streaming expand: exactly one
// of the fields is set, making each line self-describing.
type streamFrame struct {
	Stream  *streamHeader  `json:"stream,omitempty"`
	Result  *executeResult `json:"result,omitempty"`
	Summary *streamSummary `json:"summary,omitempty"`
}

// streamHeader opens the stream before any cell has finished, letting
// clients fail fast on a physics mismatch instead of discovering it
// after the last cell.
type streamHeader struct {
	Physics   string `json:"physics"`
	Scenarios int    `json:"scenarios"`
}

// streamSummary closes the stream. It carries what a campaign JSON
// response puts in headers — headers left with the first flushed
// frame, so completion and durability status can only ride here. ok + failed +
// unstarted == scenarios; unstarted cells (cancelled before they ran)
// are not failures. Incomplete and StoreError mirror the
// X-Expand-Incomplete and X-Store-Error header values.
type streamSummary struct {
	Scenarios  int    `json:"scenarios"`
	OK         int    `json:"ok"`
	Failed     int    `json:"failed"`
	Unstarted  int    `json:"unstarted"`
	Incomplete string `json:"incomplete,omitempty"`
	StoreError string `json:"store_error,omitempty"`
}

// expandStream serves one expand as NDJSON frames, emitting each cell
// the moment the engine finalizes it. Results stream before the
// durability repair can run, so — unlike a campaign JSON response — a frame
// is not an acknowledgement of persistence; the summary's store_error
// is. The engine serializes a campaign's progress callbacks, so
// writeFrame needs no lock of its own.
func (s *Server) expandStream(w http.ResponseWriter, ctx context.Context, scenarios []sweep.Scenario) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	var writeErr error
	writeFrame := func(f streamFrame) {
		if writeErr != nil {
			return
		}
		b, err := json.Marshal(f)
		if err == nil {
			b = append(b, '\n')
			_, err = w.Write(b)
		}
		if err == nil {
			// Flush per frame: the point of the stream is that the
			// client sees a cell the moment it completes, not when the
			// buffer happens to fill. A writer without flush support
			// (a proxy that holds the body back) still gets correct bytes.
			if ferr := rc.Flush(); ferr != nil && !errors.Is(ferr, http.ErrNotSupported) {
				err = ferr
			}
		}
		if err != nil {
			// The client is gone (or the connection broke): remember
			// the first failure and stop writing. The campaign itself
			// keeps running under its own context — cancellation is the
			// request context's job, not the response writer's.
			writeErr = err
		}
	}
	writeFrame(streamFrame{Stream: &streamHeader{Physics: s.st.Physics(), Scenarios: len(scenarios)}})
	c := s.eng.RunScenariosContextProgress(ctx, scenarios, s.runner,
		func(done, total int, res sweep.Result) {
			er := toExecuteResult(res)
			writeFrame(streamFrame{Result: &er})
		})
	storeErr := s.persist(c)
	sum := streamSummary{Scenarios: len(c.Results)}
	for _, res := range c.Results {
		switch {
		case res.Err == nil:
			sum.OK++
		case errors.Is(res.Err, sweep.ErrUnstarted):
			sum.Unstarted++
		default:
			sum.Failed++
		}
	}
	sum.Incomplete = incomplete(ctx, c)
	if storeErr != nil {
		s.logf("sweepd: POST /v1/expand: store: %v", storeErr)
		sum.StoreError = "store writes failed; results not persisted"
	}
	writeFrame(streamFrame{Summary: &sum})
	if writeErr != nil {
		s.logf("sweepd: POST /v1/expand: writing stream: %v", writeErr)
	}
}

// executeResult is one cell of a result frame. Metric values carry
// their IEEE-754 bits so the dispatcher's merged campaign is bit-exact
// with a local run; Unstarted distinguishes cells this worker was
// cancelled out of (re-dispatchable) from genuine simulation failures
// (final).
type executeResult struct {
	ID        string       `json:"id"`
	Key       string       `json:"key"`
	Unstarted bool         `json:"unstarted,omitempty"`
	Error     string       `json:"error,omitempty"`
	Metrics   []jsonMetric `json:"metrics,omitempty"`
}

// toExecuteResult renders one finalized cell in the exact-bits wire
// form.
func toExecuteResult(res sweep.Result) executeResult {
	er := executeResult{ID: res.ID, Key: res.Scenario.Key()}
	if res.Err != nil {
		er.Error = res.Err.Error()
		er.Unstarted = errors.Is(res.Err, sweep.ErrUnstarted)
	} else {
		er.Metrics = toJSONMetrics(res.Metrics)
	}
	return er
}
