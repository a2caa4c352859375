// Command lightd is the long-lived subgraph-enumeration service: it
// loads graph snapshots once, keeps them resident, and serves count,
// enumerate, and batch queries over HTTP — all sharing one resource
// governor and one result cache.
//
// Usage:
//
//	lightd -addr :8090 [-slots 8] [-mem-budget 2G] [-admission-timeout 5s]
//	       [-deadline 30s] [-max-deadline 5m] [-cache-entries 1024]
//	       [-load name=path ...]
//
// Endpoints:
//
//	GET  /healthz            liveness
//	GET  /stats              governor gauges, cache stats, last run reports
//	GET  /graphs             list loaded graphs
//	POST /graphs             {"name": ..., "path": ...} load a graph
//	DELETE /graphs/{name}    unload a graph (invalidates its cache entries)
//	POST /query              {"graph": ..., "pattern": ..., "options": {...}}
//	POST /enumerate          same body; streams matches as NDJSON rows
//	POST /batch              {"graph": ..., "queries": [...], "options": {...}}
//
// Governor pressure maps to HTTP statuses: admission overload is 429,
// a blown memory budget 507, a deadline or stall 504.
//
// -smoke boots the daemon on a loopback port, drives one count, one
// streamed enumeration, and one batch against a generated graph,
// checks the exact counts against the in-process library, and exits —
// the self-check verify.sh runs.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"light"
	"light/internal/server"
)

// loadList collects repeated -load name=path flags.
type loadList []string

// String renders the accumulated flags.
func (l *loadList) String() string { return strings.Join(*l, ",") }

// Set appends one -load value.
func (l *loadList) Set(v string) error {
	if !strings.Contains(v, "=") {
		return errors.New("want name=path")
	}
	*l = append(*l, v)
	return nil
}

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	slots := flag.Int("slots", 0, "governor worker pool shared by all queries, and queries admitted at once (0 = GOMAXPROCS)")
	memBudget := flag.String("mem-budget", "", "shared candidate-arena budget (bytes, or with K/M/G suffix; empty = unlimited)")
	admitTimeout := flag.Duration("admission-timeout", 5*time.Second, "fail queries with 429 if no run place is granted within this long (0 = wait)")
	deadline := flag.Duration("deadline", 0, "default per-query deadline for requests without timeout_ms (0 = none)")
	maxDeadline := flag.Duration("max-deadline", 0, "clamp every per-query deadline to at most this (0 = unclamped)")
	cacheEntries := flag.Int("cache-entries", 0, "result cache capacity (0 = 1024, negative disables)")
	rowLimit := flag.Int("row-limit", 0, "default /enumerate row limit (0 = 1000)")
	maxRows := flag.Int("max-rows", 0, "hard /enumerate row ceiling (0 = 100000)")
	smoke := flag.Bool("smoke", false, "boot on a loopback port, run the self-check, and exit")
	var loads loadList
	flag.Var(&loads, "load", "load a graph at startup, as name=path (repeatable)")
	flag.Parse()

	cfg := server.Config{
		Slots:             *slots,
		AdmissionTimeout:  *admitTimeout,
		DefaultDeadline:   *deadline,
		MaxDeadline:       *maxDeadline,
		CacheEntries:      *cacheEntries,
		EnumerateRowLimit: *rowLimit,
		MaxEnumerateRows:  *maxRows,
	}
	if *memBudget != "" {
		b, err := parseBytes(*memBudget)
		if err != nil {
			fatal(fmt.Errorf("-mem-budget: %w", err))
		}
		cfg.MemoryBudget = b
	}
	s := server.New(cfg)
	for _, nv := range loads {
		name, path, _ := strings.Cut(nv, "=")
		info, err := s.Registry().Load(name, path)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded %s: %d vertices, %d edges (%s)\n",
			info.Name, info.Vertices, info.Edges, info.Fingerprint)
	}

	if *smoke {
		if err := runSmoke(s); err != nil {
			fatal(fmt.Errorf("smoke: %w", err))
		}
		fmt.Println("smoke: PASS")
		return
	}

	serve(s, *addr)
}

// serve runs the HTTP server until SIGINT/SIGTERM, then shuts down
// gracefully, letting in-flight queries finish.
func serve(s *server.Server, addr string) {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	hs := &http.Server{Addr: addr, Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() {
		errCh <- hs.ListenAndServe()
	}()
	fmt.Printf("lightd listening on %s\n", addr)

	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
		fmt.Println("shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			fatal(err)
		}
		<-errCh // reap the serve goroutine's http.ErrServerClosed
	}
}

// runSmoke is the end-to-end self-check: boot on a loopback port, load
// a generated graph over the API, run one count, one streamed
// enumeration, and one batch, verify every number against the
// in-process library, and confirm a repeated query hits the cache.
func runSmoke(s *server.Server) error {
	g := light.GenerateBarabasiAlbert(500, 5, 23)
	dir, err := os.MkdirTemp("", "lightd-smoke")
	if err != nil {
		return err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = rerr
		}
	}()
	csr := filepath.Join(dir, "smoke.csr")
	if err := g.SaveCSR(csr); err != nil {
		return err
	}

	tri, err := light.PatternByName("triangle")
	if err != nil {
		return err
	}
	sq, err := light.PatternByName("square")
	if err != nil {
		return err
	}
	refTri, err := light.Count(g, tri, light.Options{})
	if err != nil {
		return err
	}
	refSq, err := light.Count(g, sq, light.Options{})
	if err != nil {
		return err
	}
	refBatch, err := light.CountBatch(g, []light.BatchQuery{{Pattern: tri}, {Pattern: sq}}, light.Options{})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() {
		errCh <- hs.Serve(ln)
	}()
	base := "http://" + ln.Addr().String()
	fmt.Printf("smoke: serving on %s\n", base)
	defer func() {
		if serr := hs.Close(); serr != nil && err == nil {
			err = serr
		}
		<-errCh // reap http.ErrServerClosed
	}()

	// Load the graph through the API, as a client would.
	var info struct {
		Vertices int `json:"vertices"`
	}
	if err := postJSON(base+"/graphs", map[string]string{"name": "smoke", "path": csr}, &info); err != nil {
		return fmt.Errorf("loading graph: %w", err)
	}
	if info.Vertices != g.NumVertices() {
		return fmt.Errorf("loaded %d vertices, want %d", info.Vertices, g.NumVertices())
	}

	// One count, checked exactly.
	type queryResp struct {
		Matches uint64 `json:"matches"`
		Cached  bool   `json:"cached"`
	}
	var q queryResp
	countBody := map[string]any{"graph": "smoke", "pattern": "triangle"}
	if err := postJSON(base+"/query", countBody, &q); err != nil {
		return fmt.Errorf("count: %w", err)
	}
	if q.Matches != refTri.Matches {
		return fmt.Errorf("count = %d, want %d", q.Matches, refTri.Matches)
	}
	fmt.Printf("smoke: count triangle = %d ok\n", q.Matches)

	// One streamed enumeration: the NDJSON row count must equal the count.
	rows, err := streamRows(base+"/enumerate", map[string]any{
		"graph": "smoke", "pattern": "triangle", "limit": 1000000})
	if err != nil {
		return fmt.Errorf("enumerate: %w", err)
	}
	if uint64(rows) != refTri.Matches {
		return fmt.Errorf("enumerate streamed %d rows, want %d", rows, refTri.Matches)
	}
	fmt.Printf("smoke: enumerate streamed %d rows ok\n", rows)

	// One batch, each member checked exactly.
	var b struct {
		Groups  int `json:"groups"`
		Queries []struct {
			Matches uint64 `json:"matches"`
		} `json:"queries"`
	}
	if err := postJSON(base+"/batch", map[string]any{
		"graph":   "smoke",
		"queries": []map[string]any{{"pattern": "triangle"}, {"pattern": "square"}},
	}, &b); err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	if len(b.Queries) != 2 ||
		b.Queries[0].Matches != refBatch.Queries[0].Matches ||
		b.Queries[1].Matches != refBatch.Queries[1].Matches ||
		b.Queries[1].Matches != refSq.Matches {
		return fmt.Errorf("batch = %+v, want %d and %d", b, refTri.Matches, refSq.Matches)
	}
	fmt.Printf("smoke: batch [%d %d] ok\n", b.Queries[0].Matches, b.Queries[1].Matches)

	// The repeated count must come from the result cache.
	if err := postJSON(base+"/query", countBody, &q); err != nil {
		return fmt.Errorf("cached count: %w", err)
	}
	if !q.Cached || q.Matches != refTri.Matches {
		return fmt.Errorf("repeat count cached=%t matches=%d, want cached %d", q.Cached, q.Matches, refTri.Matches)
	}
	var stats struct {
		Cache *struct {
			Hits uint64 `json:"hits"`
		} `json:"cache"`
	}
	if err := getJSON(base+"/stats", &stats); err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if stats.Cache == nil || stats.Cache.Hits == 0 {
		return errors.New("cache hit not visible in /stats")
	}
	fmt.Println("smoke: cache hit ok")
	return nil
}

// postJSON posts body as JSON and decodes the response, failing on any
// non-200 status.
func postJSON(url string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	return decodeResponse(resp, out)
}

// getJSON fetches url and decodes the JSON response.
func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	return decodeResponse(resp, out)
}

// decodeResponse checks the status and decodes the body into out.
func decodeResponse(resp *http.Response, out any) (err error) {
	defer func() {
		if cerr := resp.Body.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	raw := new(bytes.Buffer)
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, raw.String())
	}
	return json.Unmarshal(raw.Bytes(), out)
}

// streamRows posts an enumerate request and counts the NDJSON data
// rows, verifying the stream's trailer.
func streamRows(url string, body any) (int, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := resp.Body.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	rows := 0
	done := false
	for sc.Scan() {
		var trailer struct {
			Done  bool   `json:"done"`
			Rows  int    `json:"rows"`
			Error string `json:"error"`
		}
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"done"`)) {
			if err := json.Unmarshal(line, &trailer); err != nil {
				return rows, err
			}
			if trailer.Error != "" {
				return rows, errors.New(trailer.Error)
			}
			if trailer.Rows != rows {
				return rows, fmt.Errorf("trailer says %d rows, stream had %d", trailer.Rows, rows)
			}
			done = true
			continue
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		return rows, err
	}
	if !done {
		return rows, errors.New("stream ended without trailer")
	}
	return rows, nil
}

// parseBytes parses a byte count with an optional K/M/G (binary)
// suffix: "512", "64K", "512M", "2G".
func parseBytes(s string) (int64, error) {
	mult, digits := int64(1), s
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, digits = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, digits = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "G"), strings.HasSuffix(s, "g"):
		mult, digits = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(digits, 10, 64)
	if err != nil || n < 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("invalid byte count %q", s)
	}
	return n * mult, nil
}

// fatal prints err and exits non-zero.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lightd:", err)
	os.Exit(1)
}
