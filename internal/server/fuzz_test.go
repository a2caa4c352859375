package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"light"
)

// FuzzQueryRequest sends arbitrary bodies to POST /query against a small
// graph registered as "g". Whatever the body, the reply is one of the
// statuses the API documents — 200, 400 for a malformed request, 404 for
// an unknown graph, 429, 504 past the deadline, 507 past a memory
// budget — with a JSON body, never a panic or a 500. A 200's count is
// the unbudgeted library count of the pattern the body names.
func FuzzQueryRequest(f *testing.F) {
	g := light.GenerateBarabasiAlbert(30, 3, 5)
	s := New(Config{Slots: 2, MaxDeadline: 20 * time.Millisecond})
	if _, err := s.Registry().Add("g", g); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		`{"graph":"g","pattern":"triangle","options":{"memory_budget_bytes":8}}`,
		`{"graph":"g","pattern":"P2","options":{"workers":-1}}`,
		`{"graph":"g","pattern_graph":{"name":"tri","n":3,"edges":[[0,1],[1,2],[0,2]]},"options":{"no_cache":true}}`,
		`{"graph":"g","pattern":"P1","options":{"kernel":"Merge","workers":2,"timeout_ms":1}}`,
		`{"graph":"h","pattern":"square"}`,
		`{"graph":"g"}`,
		`not json`,
		`{"grAph":"g","pAttern_grAph":{"n":3,"edges":[[0,1],[1,2],[0,2]]}}0`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/query", bytes.NewReader(body)))
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusTooManyRequests,
			http.StatusGatewayTimeout, http.StatusInsufficientStorage:
		default:
			t.Fatalf("body %q: status %d: %s", body, w.Code, w.Body.String())
		}
		if !json.Valid(w.Body.Bytes()) {
			t.Fatalf("body %q: status %d with a non-JSON reply %q", body, w.Code, w.Body.String())
		}
		if w.Code != http.StatusOK {
			return
		}
		// A served body is exactly one JSON value: Unmarshal refuses
		// anything but whitespace after it.
		var req queryRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("body %q answered 200 but does not decode: %v", body, err)
		}
		p, err := resolvePattern(req.Pattern, req.PatternGraph)
		if err != nil {
			t.Fatalf("body %q answered 200 with an unresolvable pattern: %v", body, err)
		}
		ref, err := light.Count(g, p, light.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var resp QueryResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Matches != ref.Matches {
			t.Fatalf("body %q: reply %s (%v), want %d matches", body, w.Body.String(), err, ref.Matches)
		}
	})
}
