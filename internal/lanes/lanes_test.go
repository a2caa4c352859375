package lanes

import (
	"testing"

	"light/internal/graph"
)

func TestNewSetValidation(t *testing.T) {
	if _, err := NewSet(10, nil); err == nil {
		t.Error("0 lanes accepted")
	}
	if _, err := NewSet(10, make([]Spec, 65)); err == nil {
		t.Error("65 lanes accepted")
	}
	if _, err := NewSet(10, []Spec{{Roots: []graph.VertexID{10}}}); err == nil {
		t.Error("out-of-range root accepted")
	}
	s, err := NewSet(10, make([]Spec, 64))
	if err != nil {
		t.Fatal(err)
	}
	if s.All() != ^uint64(0) || s.NumLanes() != 64 {
		t.Errorf("full word: all=%x n=%d", s.All(), s.NumLanes())
	}
}

// TestDegreeLadder pins the bit-parallel MinDegree evaluation: one
// ladder lookup must reproduce every lane's threshold comparison.
func TestDegreeLadder(t *testing.T) {
	specs := []Spec{{MinDegree: 0}, {MinDegree: 2}, {MinDegree: 2}, {MinDegree: 5}, {MinDegree: -3}}
	s, err := NewSet(100, specs)
	if err != nil {
		t.Fatal(err)
	}
	for deg := 0; deg <= 6; deg++ {
		var want uint64
		for lane, sp := range specs {
			if t := sp.MinDegree; t <= deg || t < 0 {
				want |= 1 << uint(lane)
			}
		}
		if got := s.MaskFor(deg); got != want {
			t.Errorf("deg=%d: mask %b, want %b", deg, got, want)
		}
	}
	// An empty root set is legal and means "no roots", not "all roots".
	s2, err := NewSet(4, []Spec{{}, {Roots: []graph.VertexID{}}})
	if err != nil {
		t.Fatal(err)
	}
	for v := graph.VertexID(0); v < 4; v++ {
		if m := s2.RootMask(v); m != 0b01 {
			t.Errorf("root %d: mask %b, want 01", v, m)
		}
	}
}
