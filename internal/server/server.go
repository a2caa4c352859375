package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"light"
)

// Config configures a Server. The zero value serves with a
// GOMAXPROCS-slot governor, no memory budget, no default deadline, and
// a 1024-entry result cache.
type Config struct {
	// Slots is the size of the governor's worker pool shared by all
	// concurrent queries, and how many it admits at once
	// (0 = GOMAXPROCS).
	Slots int
	// MemoryBudget caps candidate-arena bytes across all queries
	// (0 = unlimited).
	MemoryBudget int64
	// AdmissionTimeout bounds every query's wait for a run place;
	// past it the query fails with 429 (0 = wait until the
	// request context is done).
	AdmissionTimeout time.Duration
	// DefaultDeadline is applied to queries that set no timeout_ms
	// (0 = none); MaxDeadline clamps every per-query deadline
	// (0 = unclamped).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// CacheEntries bounds the result cache (0 = 1024; negative
	// disables caching).
	CacheEntries int
	// EnumerateRowLimit caps /enumerate streams that set no limit
	// (0 = 1000); MaxEnumerateRows clamps every stream (0 = 100000).
	EnumerateRowLimit int
	MaxEnumerateRows  int
	// Watchdog configures the governor's stall watchdog; zero values
	// keep the admission package defaults.
	StallInterval time.Duration
	StallPatience int
}

// Server is the lightd HTTP service: a graph registry, a result cache,
// and one process-wide governor, exposed through a stdlib ServeMux.
// Create with New; the handler from Handler is safe for concurrent use.
type Server struct {
	cfg   Config
	gov   *light.Governor
	reg   *Registry
	cache *Cache // nil when caching is disabled
	mux   *http.ServeMux
	start time.Time

	served  [endpointCount]atomic.Uint64
	errors  atomic.Uint64
	reports reportRing
}

// endpoint indexes the served-query counters.
type endpoint int

const (
	epQuery endpoint = iota
	epEnumerate
	epBatch
	endpointCount
)

var endpointNames = [endpointCount]string{"query", "enumerate", "batch"}

// New builds a Server from cfg, creating its governor, registry, and
// cache.
func New(cfg Config) *Server {
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 1024
	}
	if cfg.EnumerateRowLimit == 0 {
		cfg.EnumerateRowLimit = 1000
	}
	if cfg.MaxEnumerateRows == 0 {
		cfg.MaxEnumerateRows = 100000
	}
	s := &Server{
		cfg: cfg,
		gov: light.NewGovernor(light.GovernorConfig{
			Slots:         cfg.Slots,
			MemoryBudget:  cfg.MemoryBudget,
			StallInterval: cfg.StallInterval,
			StallPatience: cfg.StallPatience,
		}),
		reg:   NewRegistry(),
		start: time.Now(),
	}
	if cfg.CacheEntries > 0 {
		s.cache = NewCache(cfg.CacheEntries)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /graphs", s.handleListGraphs)
	s.mux.HandleFunc("POST /graphs", s.handleLoadGraph)
	s.mux.HandleFunc("DELETE /graphs/{name}", s.handleUnloadGraph)
	s.mux.HandleFunc("POST /graphs/{name}/edges", s.handleApplyEdges)
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /enumerate", s.handleEnumerate)
	s.mux.HandleFunc("POST /batch", s.handleBatch)
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the server's graph registry, for in-process
// registration (tests, smoke checks, preloading).
func (s *Server) Registry() *Registry { return s.reg }

// Governor returns the server's shared governor.
func (s *Server) Governor() *light.Governor { return s.gov }

// reportRing keeps the last few RunReports for /stats.
type reportRing struct {
	mu      sync.Mutex
	entries []ReportEntry
	next    int
}

// reportRingSize bounds how many recent reports /stats returns.
const reportRingSize = 16

// ReportEntry labels one retained RunReport with its query context.
type ReportEntry struct {
	// Endpoint is "query", "enumerate", or "batch"; Graph and Pattern
	// identify what ran; When is the completion time.
	Endpoint string    `json:"endpoint"`
	Graph    string    `json:"graph"`
	Pattern  string    `json:"pattern"`
	When     time.Time `json:"when"`
	// Report is the run's full metrics report.
	Report *light.RunReport `json:"report"`
}

func (r *reportRing) add(e ReportEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.entries) < reportRingSize {
		r.entries = append(r.entries, e)
		return
	}
	r.entries[r.next] = e
	r.next = (r.next + 1) % reportRingSize
}

// snapshot returns the retained entries, oldest first.
func (r *reportRing) snapshot() []ReportEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ReportEntry, 0, len(r.entries))
	out = append(out, r.entries[r.next:]...)
	out = append(out, r.entries[:r.next]...)
	return out
}

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	// Error is the human-readable failure; Status repeats the HTTP
	// status code for clients reading bodies off a stream.
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// writeJSON writes v as the response body with the given status: the
// JSON value alone, its length declared. No byte may follow the value
// (json.Encoder would add a newline): a client that decodes one value
// and closes the body — json.NewDecoder(resp.Body).Decode — reads such
// a byte only when it shares a read with the value's last one, and
// net/http's transport closes, instead of reusing, a connection whose
// body was not read to its end; at 513 bytes (the decoder reads 512
// first) that is every request. Content-Length keeps a body over 2 KiB
// from going out chunked, where reuse depends on whether the
// terminating chunk had arrived when the value was read.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		s.errors.Add(1)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		// The response is already committed; nothing to do but count it.
		s.errors.Add(1)
	}
}

// writeError maps err to its HTTP status and writes the error body.
func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.errors.Add(1)
	s.writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...), Status: status})
}

// handleHealthz reports liveness.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_ns": time.Since(s.start).Nanoseconds(),
	})
}

// StatsResponse is the GET /stats body.
type StatsResponse struct {
	// UptimeNS is time since server start.
	UptimeNS int64 `json:"uptime_ns"`
	// Governor carries the shared governor's gauges.
	Governor GovernorStats `json:"governor"`
	// Cache carries the result cache's gauges (absent when disabled).
	Cache *CacheStats `json:"cache,omitempty"`
	// Graphs lists the registered snapshots.
	Graphs []GraphInfo `json:"graphs"`
	// Served counts completed queries per endpoint; Errors counts
	// non-2xx responses.
	Served map[string]uint64 `json:"served"`
	Errors uint64            `json:"errors"`
	// LastReports holds the most recent RunReports, oldest first.
	LastReports []ReportEntry `json:"last_reports,omitempty"`
}

// GovernorStats is the /stats view of the shared governor.
type GovernorStats struct {
	// Slots is the shared pool's size; ActiveQueries the
	// currently admitted runs; MemoryInUse the bytes reserved against
	// the shared budget; AdmissionTimeouts the ErrOverloaded count.
	Slots             int    `json:"slots"`
	ActiveQueries     int    `json:"active_queries"`
	MemoryInUse       int64  `json:"memory_in_use_bytes"`
	AdmissionTimeouts uint64 `json:"admission_timeouts"`
}

// handleStats reports governor gauges, cache stats, registered graphs,
// and the last RunReports.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	resp := StatsResponse{
		UptimeNS: time.Since(s.start).Nanoseconds(),
		Governor: GovernorStats{
			Slots:             s.gov.Slots(),
			ActiveQueries:     s.gov.ActiveQueries(),
			MemoryInUse:       s.gov.MemoryInUse(),
			AdmissionTimeouts: s.gov.Timeouts(),
		},
		Graphs:      s.reg.List(),
		Served:      make(map[string]uint64, int(endpointCount)),
		Errors:      s.errors.Load(),
		LastReports: s.reports.snapshot(),
	}
	for ep := endpoint(0); ep < endpointCount; ep++ {
		resp.Served[endpointNames[ep]] = s.served[ep].Load()
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		resp.Cache = &cs
	}
	s.writeJSON(w, http.StatusOK, resp)
}
