// Server-shaped soak: many client goroutines firing mixed /query,
// /batch, and /enumerate requests over real HTTP at one Server — one
// registry graph, one governor, one result cache — all under -race.
// Every response must carry the exact sequential count, and the
// process must settle back to its starting goroutine count.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"light"
)

// soakFixture builds the shared graph and the serial reference counts.
// -short shrinks the graph so verify.sh's quick pass stays fast.
func soakFixture(t *testing.T) (*light.Graph, []string, []uint64) {
	t.Helper()
	size := 2500
	if testing.Short() {
		size = 700
	}
	g := light.GenerateBarabasiAlbert(size, 6, 41)
	names := []string{"triangle", "square"}
	refs := make([]uint64, len(names))
	for i, name := range names {
		p, err := light.PatternByName(name)
		if err != nil {
			t.Fatalf("PatternByName(%s): %v", name, err)
		}
		res, err := light.Count(g, p, light.Options{})
		if err != nil {
			t.Fatalf("reference Count(%s): %v", name, err)
		}
		refs[i] = res.Matches
	}
	return g, names, refs
}

// settleGoroutines polls until the process goroutine count returns to
// at most base+slack, failing with a full stack dump if it never does.
func settleGoroutines(t *testing.T, base, slack int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines did not settle: %d now vs %d before\n%s", n, base, buf)
		}
		runtime.Gosched()
		time.Sleep(20 * time.Millisecond)
	}
}

// postJSON posts body to url and decodes the response into out,
// returning the status code. Non-2xx responses come back as errors
// carrying the server's error body.
func postJSON(client *http.Client, url string, body, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	raw := new(bytes.Buffer)
	_, err = raw.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("%s: %s", url, raw.String())
	}
	if out != nil {
		if derr := json.Unmarshal(raw.Bytes(), out); derr != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s response: %w", url, derr)
		}
	}
	return resp.StatusCode, nil
}

// TestServerSoakMixedTraffic is the lightd acceptance soak: 12 client
// goroutines, each issuing a mix of count, batch, and enumerate
// requests with clashing worker options, against one
// registered graph and a 4-slot governor. Exact counts, no races, no
// leaked goroutines, zero server-side errors.
func TestServerSoakMixedTraffic(t *testing.T) {
	g, names, refs := soakFixture(t)

	before := runtime.NumGoroutine()
	s := New(Config{
		Slots:         4,
		StallInterval: 20 * time.Millisecond,
		StallPatience: 3,
	})
	if _, err := s.Registry().Add("soak", g); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	client := ts.Client()

	const (
		clients = 12
		rounds  = 5
	)
	errCh := make(chan error, clients*rounds)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for rnd := 0; rnd < rounds; rnd++ {
				pi := (c + rnd) % len(names)
				opts := QueryOptions{
					Workers: 1 + c%3,
					Kernel:  "HybridBitmap",
					NoCache: c%4 == 0,
				}
				switch (c + rnd) % 3 {
				case 0: // single count
					var resp QueryResponse
					code, err := postJSON(client, ts.URL+"/query",
						queryRequest{Graph: "soak", Pattern: names[pi], Options: opts}, &resp)
					if err != nil || code != http.StatusOK {
						errCh <- fmt.Errorf("client %d round %d query: code %d err %v", c, rnd, code, err)
						return
					}
					if resp.Matches != refs[pi] {
						errCh <- fmt.Errorf("client %d round %d query %s: matches %d, want %d",
							c, rnd, names[pi], resp.Matches, refs[pi])
						return
					}
				case 1: // lane batch over both patterns
					var resp BatchResponse
					code, err := postJSON(client, ts.URL+"/batch", batchRequest{
						Graph: "soak",
						Queries: []batchQueryRequest{
							{Pattern: names[0]},
							{Pattern: names[1]},
						},
						Options: opts,
					}, &resp)
					if err != nil || code != http.StatusOK {
						errCh <- fmt.Errorf("client %d round %d batch: code %d err %v", c, rnd, code, err)
						return
					}
					for qi := range resp.Queries {
						if resp.Queries[qi].Matches != refs[qi] {
							errCh <- fmt.Errorf("client %d round %d batch[%d]: matches %d, want %d",
								c, rnd, qi, resp.Queries[qi].Matches, refs[qi])
							return
						}
					}
				case 2: // streamed enumeration with a row limit
					limit := 200
					b, err := json.Marshal(queryRequest{
						Graph: "soak", Pattern: names[pi], Limit: limit, Options: opts})
					if err != nil {
						errCh <- err
						return
					}
					resp, err := client.Post(ts.URL+"/enumerate", "application/json", bytes.NewReader(b))
					if err != nil {
						errCh <- fmt.Errorf("client %d round %d enumerate: %v", c, rnd, err)
						return
					}
					body := new(bytes.Buffer)
					if _, err := body.ReadFrom(resp.Body); err != nil {
						errCh <- err
						return
					}
					if err := resp.Body.Close(); err != nil {
						errCh <- err
						return
					}
					if resp.StatusCode != http.StatusOK {
						errCh <- fmt.Errorf("client %d round %d enumerate: code %d", c, rnd, resp.StatusCode)
						return
					}
					rows, trailer := scanStream(t, body.Bytes())
					want := int(refs[pi])
					if want > limit {
						want = limit
					}
					if rows != want || trailer.Error != "" {
						errCh <- fmt.Errorf("client %d round %d enumerate %s: rows %d (trailer %+v), want %d",
							c, rnd, names[pi], rows, trailer, want)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// The governor must be fully drained and /stats coherent.
	var stats StatsResponse
	if code, err := postStats(client, ts.URL+"/stats", &stats); err != nil || code != http.StatusOK {
		t.Fatalf("stats: code %d err %v", code, err)
	}
	if stats.Governor.ActiveQueries != 0 {
		t.Errorf("ActiveQueries = %d after soak, want 0", stats.Governor.ActiveQueries)
	}
	if stats.Governor.MemoryInUse != 0 {
		t.Errorf("MemoryInUse = %d after soak, want 0", stats.Governor.MemoryInUse)
	}
	if stats.Errors != 0 {
		t.Errorf("server errors = %d after soak, want 0", stats.Errors)
	}
	var total uint64
	for _, n := range stats.Served {
		total += n
	}
	if total != clients*rounds {
		t.Errorf("served = %d requests, want %d", total, clients*rounds)
	}
	if stats.Cache == nil || stats.Cache.Hits == 0 {
		t.Errorf("soak produced no cache hits: %+v", stats.Cache)
	}

	ts.Close()
	settleGoroutines(t, before, 3)
}

// postStats GETs url and decodes the JSON body into out.
func postStats(client *http.Client, url string, out any) (int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := resp.Body.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if derr := json.NewDecoder(resp.Body).Decode(out); derr != nil {
		return resp.StatusCode, derr
	}
	return resp.StatusCode, err
}
