package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"light"
	"light/internal/server"
	"light/internal/supervise"
)

const reqHeader = "X-Bench-Req"

// served is a booted lightd: the server, its loopback listener and the
// keep-alive client every load goroutine shares.
type served struct {
	g      *light.Graph
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	seed   int64
	// opClass tells which requests' latencies make up op_p50_ms, and
	// the class each is ranked in.
	opClass func(r *serveRequest) (class string, ok bool)

	// trace, when set, makes the handler wrapper record a span per
	// request that carries the request-id header.
	trace atomic.Pointer[serverTrace]
}

// serverTrace is the handler-side recorder of one traced measurement.
type serverTrace struct {
	epoch time.Time
	spans serverSpans
}

func bootServer(in graphInput, seed int64) (*served, error) {
	s := &served{g: light.NewGraph(in.N, in.Edges), seed: seed}
	// By default every /query is the operation, in one class.
	s.opClass = func(*serveRequest) (string, bool) { return "", true }
	s.srv = server.New(server.Config{Slots: runtime.NumCPU()})
	if _, err := s.srv.Registry().Add("g", s.g); err != nil {
		return nil, fmt.Errorf("registering graph: %w", err)
	}
	inner := s.srv.Handler()
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := s.trace.Load()
		id := r.Header.Get(reqHeader)
		if st == nil || id == "" {
			inner.ServeHTTP(w, r)
			return
		}
		start := int64(time.Since(st.epoch))
		inner.ServeHTTP(w, r)
		if req, err := strconv.ParseUint(id, 10, 64); err == nil {
			st.spans.record(req, start, int64(time.Since(st.epoch)))
		}
	}))
	tr := &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64}
	s.client = &http.Client{Transport: tr}
	return s, nil
}

func (s *served) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
}

// reply is the part of any response the clients read.
type reply struct {
	status int
	size   int
	query  server.QueryResponse
	batch  server.BatchResponse
	rows   int // /enumerate: data rows before the trailer
	done   bool
}

// do sends one prepared request and decodes the answer. The returned
// latency covers send, the server, and reading and decoding the reply:
// what a caller waits for before it holds the count.
func (s *served) do(r *serveRequest, reqID uint64, traced bool) (reply, time.Duration, error) {
	var rep reply
	start := time.Now()
	hr, err := http.NewRequest(http.MethodPost, s.ts.URL+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		return rep, 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if traced {
		hr.Header.Set(reqHeader, strconv.FormatUint(reqID, 10))
	}
	resp, err := s.client.Do(hr)
	if err != nil {
		return rep, 0, err
	}
	defer resp.Body.Close()
	rep.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		n, _ := io.Copy(io.Discard, resp.Body) // drain for keep-alive; the status already marks the failure
		rep.size = int(n)
		return rep, time.Since(start), nil
	}
	cr := &countingReader{r: resp.Body}
	switch r.Kind {
	case kindEnumerate:
		sc := bufio.NewScanner(cr)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		var last []byte
		for sc.Scan() {
			rep.rows++
			last = append(last[:0], sc.Bytes()...)
		}
		if err := sc.Err(); err != nil {
			return rep, 0, fmt.Errorf("reading stream: %w", err)
		}
		var trailer struct {
			Done  bool   `json:"done"`
			Rows  int    `json:"rows"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(last, &trailer); err != nil {
			return rep, 0, fmt.Errorf("decoding stream trailer: %w", err)
		}
		rep.rows-- // the trailer is not a row
		rep.done = trailer.Done && trailer.Error == "" && trailer.Rows == rep.rows
	case kindBatch:
		err = json.NewDecoder(cr).Decode(&rep.batch)
	case kindWrite:
		_, err = io.Copy(io.Discard, cr)
	default:
		err = json.NewDecoder(cr).Decode(&rep.query)
	}
	if err != nil {
		return rep, 0, fmt.Errorf("decoding %s reply: %w", r.Path, err)
	}
	rep.size = cr.n
	return rep, time.Since(start), nil
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// client is one closed-loop load goroutine's state.
type client struct {
	id  int
	seq uint64
	m   *measurement
	tr  *tracer
	// cycleStart is when the previous operation's reply was in hand: an
	// operation's root span runs from there, so drawing the request and
	// checking the reply count as the harness's own time.
	cycleStart int64
	// pending are the traced requests whose handler span is adopted
	// after the run: the handler wrapper may record it only after the
	// client has read the whole reply.
	pending []pendingSpan
}

type pendingSpan struct {
	http  int // index of the client-side span
	req   uint64
	durNS int64 // the run time the server reported, 0 for a cache hit
	rep   *light.RunReport
}

// adopt hangs the handler spans, and the run spans the replies
// reported, under the client-side spans.
func (c *client) adopt(handled map[uint64]serverSpan) {
	for _, p := range c.pending {
		sp, ok := handled[p.req]
		if !ok {
			continue
		}
		h := c.tr.add(span{Name: "server.Handler", Layer: "server", Parent: p.http, Req: p.req, Start: sp.start, End: sp.end})
		if p.durNS > 0 {
			c.tr.addRunSpans(c.tr.addReported("light.CountContext", "light", h, p.durNS), p.rep)
		}
	}
}

// send issues r as one operation: it records the operation's spans, its
// latency, and the transport-level outcome, and returns the reply for
// the caller to check. ok is false when the request already failed.
func (c *client) send(s *served, r *serveRequest) (rep reply, ok bool) {
	c.seq++
	reqID := uint64(c.id)<<40 | c.seq
	rep, lat, err := s.do(r, reqID, c.tr != nil)
	c.m.attempted++
	c.m.requests++
	if err != nil {
		c.m.fail("%s: %v", r.Path, err)
		return rep, false
	}
	if c.tr != nil {
		end := c.tr.now()
		root := c.tr.add(span{Name: "op", Layer: "harness", Parent: -1, Req: reqID, Start: c.cycleStart, End: end})
		c.cycleStart = end
		h := c.tr.add(span{Name: "POST " + r.Path, Layer: "http", Parent: root, Req: reqID, Start: end - int64(lat), End: end})
		c.pending = append(c.pending, pendingSpan{http: h, req: reqID, durNS: rep.query.DurationNS, rep: rep.query.Report})
	}
	c.m.respBytes += int64(rep.size)
	c.m.reqLat.add(float64(lat))
	switch {
	case rep.status == http.StatusTooManyRequests:
		c.m.status429++
	case rep.status >= 500:
		c.m.status5xx++
	}
	if rep.status != http.StatusOK {
		c.m.fail("%s: status %d", r.Path, rep.status)
		return rep, false
	}
	c.m.ops++
	switch r.Kind {
	case kindQueryNoCache, kindQueryCached:
		if class, ok := s.opClass(r); ok {
			c.m.addOp(class, lat)
		}
		if !rep.query.Cached {
			c.m.noteReport(rep.query.Report, int64(lat))
		}
	case kindEnumerate:
		c.m.enumRows += int64(rep.rows)
		c.m.enumSeconds += lat.Seconds()
	case kindWrite:
		c.m.mutateLat.add(float64(lat))
	}
	return rep, true
}

// runClients runs W closed-loop clients until the deadline and merges
// what they measured. loop is one client's request loop.
func (s *served) runClients(d time.Duration, traced bool, loop func(c *client, deadline time.Time)) (*measurement, error) {
	w := loadWorkers()
	epoch := time.Now()
	var st *serverTrace
	if traced {
		st = &serverTrace{epoch: epoch}
		s.trace.Store(st)
		defer s.trace.Store(nil)
	}
	clients := make([]*client, w)
	for i := range clients {
		clients[i] = &client{id: i, m: newMeasurement()}
		if traced {
			clients[i].tr = newTracer(epoch)
		}
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	start := time.Now()
	deadline := start.Add(d)
	for _, c := range clients {
		c := c
		supervise.Go(&wg, "benchmark client", func(err error) {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}, func() { loop(c, deadline) })
	}
	wg.Wait()
	wall := time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}
	total := newMeasurement()
	total.opSeconds = wall.Seconds()
	var tracers []*tracer
	var handled map[uint64]serverSpan
	if traced {
		handled = st.spans.byReq()
	}
	for _, c := range clients {
		total.merge(c.m)
		if traced {
			c.adopt(handled)
			tracers = append(tracers, c.tr)
		}
	}
	total.spans = mergeTracers(tracers)
	ratio, err := s.cacheHitRatio()
	if err != nil {
		return nil, err
	}
	total.cacheHitRatio = ratio
	return total, nil
}

// cacheHitRatio reads the result cache's lifetime hit ratio from /stats.
func (s *served) cacheHitRatio() (float64, error) {
	resp, err := s.client.Get(s.ts.URL + "/stats")
	if err != nil {
		return 0, fmt.Errorf("GET /stats: %w", err)
	}
	defer resp.Body.Close()
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("decoding /stats: %w", err)
	}
	if st.Cache == nil {
		return 0, nil
	}
	return ratio(float64(st.Cache.Hits), float64(st.Cache.Hits+st.Cache.Misses)), nil
}

// serveHot is the serve-hot instance.
type serveHot struct {
	*served
	keys []serveRequest
}

func setupServeHot(in graphInput, seed int64) (instance, error) {
	s, err := bootServer(in, seed)
	if err != nil {
		return nil, err
	}
	h := &serveHot{served: s, keys: hotKeys()}
	// Warm every key: the measured traffic must find all of them cached.
	warm := &client{m: newMeasurement()}
	for i := range h.keys {
		if _, ok := warm.send(s, &h.keys[i]); !ok {
			s.close()
			return nil, fmt.Errorf("warming key %d: %v", i, warm.m.failures)
		}
	}
	return h, nil
}

func (h *serveHot) measure(d time.Duration, traced bool) (*measurement, error) {
	return h.runClients(d, traced, func(c *client, deadline time.Time) {
		z := newZipf(rand.New(rand.NewSource(clientSeed(h.seed, c.id))), len(h.keys))
		for time.Now().Before(deadline) {
			r := &h.keys[z.Uint64()]
			rep, ok := c.send(h.served, r)
			if !ok {
				continue
			}
			if !rep.query.Cached {
				c.m.fail("%s: a warmed key missed the cache", r.Pattern)
			}
			c.m.observe(obsKey{State: "S0", Query: r.Pattern}, rep.query.Matches)
		}
	})
}

func (h *serveHot) finish(*measurement) error { return nil }

// serveMix is the serve-mix instance.
type serveMix struct {
	*served
	table mixTable
	// writes counts client 0's edge batches across measurements; the
	// graph is in state S0+E after an odd number of them.
	writes int
}

// mixEdgeSet draws E, the edge set the writer toggles.
func mixEdgeSet(g *light.Graph, seed int64) [][2]light.VertexID {
	rng := rand.New(rand.NewSource(clientSeed(seed, 99)))
	return hubBiasedEdges(g, newDegreeSampler(g), rng, mixEdgeSetSize, make(map[[2]light.VertexID]bool))
}

func setupServeMix(in graphInput, seed int64) (instance, error) {
	s, err := bootServer(in, seed)
	if err != nil {
		return nil, err
	}
	// The no-cache queries are the operation, ranked per pattern: their
	// latencies differ several-fold between patterns, and a median over
	// the mixture would sit on the steep flank between two of them.
	s.opClass = func(r *serveRequest) (string, bool) { return r.Pattern, r.Kind == kindQueryNoCache }
	m := &serveMix{served: s, table: buildMixTable(mixEdgeSet(s.g, seed))}
	// Warm-up: one no-cache query per pattern builds the planner's
	// statistics and grows the arenas, and one cacheable query per
	// pattern fills the cache for state S0.
	warm := &client{m: newMeasurement()}
	for _, kind := range []int{kindQueryNoCache, kindQueryCached} {
		for p := range queryList {
			if _, ok := warm.send(s, &m.table.reqs[kind*len(queryList)+p]); !ok {
				s.close()
				return nil, fmt.Errorf("warm-up %s %s: %v", kindNames[kind], queryList[p], warm.m.failures)
			}
		}
	}
	return m, nil
}

// state names the graph state after n writes.
func mixState(writes int) string {
	if writes%2 == 1 {
		return "S0+E"
	}
	return "S0"
}

func (x *serveMix) measure(d time.Duration, traced bool) (*measurement, error) {
	return x.runClients(d, traced, func(c *client, deadline time.Time) {
		stream := &mixStream{rng: rand.New(rand.NewSource(clientSeed(x.seed, c.id))), writer: c.id == 0}
		for time.Now().Before(deadline) {
			kind, p := stream.next()
			if kind != kindWrite {
				x.read(c, &x.table.reqs[kind*len(queryList)+p], "any")
				continue
			}
			// Only client 0 reaches here, so x.writes has one writer.
			idx := x.writes % 2 // add, then remove
			if (x.writes+1)%4 == 0 {
				idx = 2 // compact:true on every 4th batch
			}
			if _, ok := c.send(x.served, &x.table.reqs[x.table.writes[idx]]); !ok {
				continue
			}
			x.writes++
			// Read-after-write: the writer must see exactly its write.
			x.read(c, &x.table.reqs[kindQueryNoCache*len(queryList)+stream.rng.Intn(len(queryList))], mixState(x.writes))
		}
	})
}

// read sends a read request and records its answers for the oracle.
func (x *serveMix) read(c *client, r *serveRequest, state string) {
	rep, ok := c.send(x.served, r)
	if !ok {
		return
	}
	switch r.Kind {
	case kindBatch:
		if len(rep.batch.Queries) != batchMaxDegree+1 {
			c.m.fail("batch %s: %d results, want %d", r.Pattern, len(rep.batch.Queries), batchMaxDegree+1)
			return
		}
		for d, q := range rep.batch.Queries {
			c.m.observe(obsKey{State: state, Query: fmt.Sprintf("%s@d%d", r.Pattern, d)}, q.Matches)
		}
	case kindEnumerate:
		if !rep.done {
			c.m.fail("enumerate %s: stream ended without a clean trailer", r.Pattern)
			return
		}
		c.m.observe(obsKey{State: state, Query: r.Pattern, Rows: true}, uint64(rep.rows))
	default:
		c.m.observe(obsKey{State: state, Query: r.Pattern}, rep.query.Matches)
	}
}

func (x *serveMix) finish(*measurement) error { return nil }

// mixOracle returns the reference counts of serve-mix: every pattern,
// and every pattern restricted to vertices of degree >= d for the batch
// members, in state S0 and in state S0+E.
func mixOracle(in graphInput, seed int64) (map[string]uint64, error) {
	g := light.NewGraph(in.N, in.Edges)
	edges := mixEdgeSet(g, seed)
	out := make(map[string]uint64)
	patterns, err := catalogPatterns(queryList)
	if err != nil {
		return nil, err
	}
	for _, state := range []string{"S0", "S0+E"} {
		if state == "S0+E" {
			if _, err := g.ApplyEdges(edges, nil); err != nil {
				return nil, err
			}
		}
		for i, p := range patterns {
			for d := 0; d <= batchMaxDegree; d++ {
				opts := oracleOptions
				if d > 0 {
					d := d
					opts.Filter = func(_ int, v light.VertexID) bool { return g.Degree(v) >= d }
				}
				res, err := light.Count(g, p, opts)
				if err != nil {
					return nil, fmt.Errorf("oracle count %s in %s: %w", queryList[i], state, err)
				}
				out[fmt.Sprintf("%s/%s@d%d", state, queryList[i], d)] = res.Matches
				if d == 0 {
					out[state+"/"+queryList[i]] = res.Matches
				}
			}
		}
	}
	return out, nil
}
