package supervise

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"light/internal/engine"
	"light/internal/gen"
	"light/internal/intersect"
	"light/internal/pattern"
	"light/internal/plan"
)

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Fingerprint: 0xdeadbeefcafe,
		Cursor:      17,
		Base: engine.Result{
			Matches: 123,
			Nodes:   456,
			Comps:   78,
			Stats:   intersect.Stats{Intersections: 40, Galloping: 9, Elements: 8000, BitmapProbes: 11},
		},
		Done: []RootRange{{Lo: 0, Hi: 10}, {Lo: 14, Hi: 30}},
	}
}

// encodeV3 hand-encodes a valid version-3 checkpoint, CRC included: the
// v4 layout plus a frame section holding one donated frame, the format
// checkpoints had while runs still donated work.
func encodeV3() []byte {
	var b []byte
	u8 := func(x uint8) { b = append(b, x) }
	u32 := func(x uint32) { b = binary.LittleEndian.AppendUint32(b, x) }
	u64 := func(x uint64) { b = binary.LittleEndian.AppendUint64(b, x) }
	u32(ckptMagic)
	u32(3)
	u64(0xdeadbeefcafe) // fingerprint
	u64(17)             // cursor
	u8(0)               // complete
	for _, x := range []uint64{123, 456, 40, 9, 8000, 78, 11} {
		u64(x) // matches, nodes, intersections, galloping, elements, comps, bitmap probes
	}
	u32(0) // lanes
	u32(1) // done ranges
	u32(0)
	u32(10)
	u32(1)     // frames
	u32(2)     // σ index
	u32(0b101) // mat mask
	u32(3)     // assigned
	u32(7)
	u32(0)
	u32(9)
	u32(3) // cands: {4}, nil, nil
	u8(1)
	u32(1)
	u32(4)
	u8(0)
	u8(0)
	u32(2) // remaining
	u32(5)
	u32(6)
	u64(0) // lane mask
	u32(crc32.ChecksumIEEE(b))
	return b
}

func TestCheckpointSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	ck := sampleCheckpoint()
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != ck.Fingerprint || got.Cursor != ck.Cursor || got.Complete != ck.Complete {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.Base, ck.Base) {
		t.Fatalf("base mismatch: %+v vs %+v", got.Base, ck.Base)
	}
	if len(got.Done) != len(ck.Done) {
		t.Fatalf("done ranges: %v", got.Done)
	}
	for i, r := range ck.Done {
		if got.Done[i] != r {
			t.Fatalf("range %d: %v vs %v", i, got.Done[i], r)
		}
	}
}

func TestCheckpointCompleteFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "done.ckpt")
	ck := &Checkpoint{Complete: true, Base: engine.Result{Matches: 9}}
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Complete || got.Base.Matches != 9 {
		t.Fatalf("got %+v", got)
	}
}

// TestCheckpointRejectsCorruption flips every byte of a saved
// checkpoint in turn; the CRC trailer must reject each variant.
func TestCheckpointRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	if err := sampleCheckpoint().Save(path); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.ckpt")
	for pos := range orig {
		mut := append([]byte(nil), orig...)
		mut[pos] ^= 0x40
		if err := os.WriteFile(bad, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(bad); err == nil {
			t.Fatalf("flip at byte %d accepted", pos)
		}
	}
}

func TestCheckpointRejectsTruncation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	if err := sampleCheckpoint().Save(path); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.ckpt")
	for cut := 0; cut < len(orig); cut++ {
		if err := os.WriteFile(bad, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(bad); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}

func TestCheckpointRejectsTrailingGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	if err := sampleCheckpoint().Save(path); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Splice extra payload in before the CRC and fix the trailer so only
	// the length consistency check can catch it.
	if _, err := LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	grown := append(append([]byte(nil), orig...), 0, 0, 0, 0)
	if err := os.WriteFile(path, grown, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("grown checkpoint accepted")
	}
}

// TestCheckpointSaveIsAtomic: a failed save (unwritable directory) must
// leave an existing checkpoint untouched, and no temp files behind
// after a successful one.
func TestCheckpointSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	if err := sampleCheckpoint().Save(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sampleCheckpoint().Save(filepath.Join(dir, "no", "such", "dir.ckpt")); err == nil {
		t.Fatal("save into a missing directory succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed save disturbed the existing checkpoint")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("leftover temp files: %v", entries)
	}
}

// TestLoadCheckpointRejectsOtherVersions: a well-formed file of any
// version but 4 — a real v3 file with its frame section, or the v4
// layout under another version number, CRC resealed — fails with
// ErrCheckpointVersion, not as corruption and not as a resumable state.
func TestLoadCheckpointRejectsOtherVersions(t *testing.T) {
	dir := t.TempDir()
	files := map[string][]byte{"v3": encodeV3()}
	for _, v := range []uint32{0, 1, 2, 3, 5} {
		data := sampleCheckpoint().encode()
		payload := data[:len(data)-4]
		binary.LittleEndian.PutUint32(payload[4:], v)
		files[fmt.Sprintf("v4-layout-as-v%d", v)] = binary.LittleEndian.AppendUint32(payload, crc32.ChecksumIEEE(payload))
	}
	for name, data := range files {
		path := filepath.Join(dir, name+".ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(path); !errors.Is(err, ErrCheckpointVersion) {
			t.Errorf("%s: err = %v, want ErrCheckpointVersion", name, err)
		}
	}
}

// TestLoadCheckpointRejectsLaneSection: a version-4 file whose lane
// count is not 0 — the lane section earlier builds could carry — is
// refused as corrupt, CRC resealed, since no lane run checkpoints.
func TestLoadCheckpointRejectsLaneSection(t *testing.T) {
	data := sampleCheckpoint().encode()
	const lanesAt = 4 + 4 + 8 + 8 + 1 + 7*8 // magic, version, fingerprint, cursor, complete, base counters
	if n := binary.LittleEndian.Uint32(data[lanesAt:]); n != 0 {
		t.Fatalf("sample encodes %d lanes, want 0", n)
	}
	var payload []byte
	payload = append(payload, data[:lanesAt]...)
	payload = binary.LittleEndian.AppendUint32(payload, 1)
	for _, x := range []uint64{100, 300, 50, 30, 7, 6000, 5} {
		payload = binary.LittleEndian.AppendUint64(payload, x) // one lane's counters
	}
	payload = append(payload, data[lanesAt+4:len(data)-4]...)
	path := filepath.Join(t.TempDir(), "lanes.ckpt")
	if err := os.WriteFile(path, binary.LittleEndian.AppendUint32(payload, crc32.ChecksumIEEE(payload)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil || errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("lane section: err = %v, want a corrupt-checkpoint error", err)
	}
}

func TestLoadCheckpointRejectsWrongMagic(t *testing.T) {
	// A CSR graph file shares the CRC-trailer convention but not the
	// magic; it must be refused as a checkpoint.
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.csr")
	if err := gen.Star(20).SaveCSR(gpath); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(gpath); err == nil {
		t.Fatal("CSR graph accepted as checkpoint")
	}
}

func TestFingerprintDistinguishesRuns(t *testing.T) {
	g1 := gen.BarabasiAlbert(100, 3, 1)
	g2 := gen.BarabasiAlbert(100, 3, 2)
	mk := func(p *pattern.Pattern) *plan.Plan {
		po := pattern.SymmetryBreaking(p)
		pl, err := plan.Compile(p, po, plan.ConnectedOrders(p, po)[0], plan.ModeLIGHT)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	tri, p4 := mk(pattern.Triangle()), mk(pattern.P4())
	base := Fingerprint(g1, tri)
	if base == 0 {
		t.Fatal("zero fingerprint")
	}
	if Fingerprint(g1, tri) != base {
		t.Fatal("fingerprint not deterministic")
	}
	if Fingerprint(g2, tri) == base {
		t.Fatal("different graph, same fingerprint")
	}
	if Fingerprint(g1, p4) == base {
		t.Fatal("different pattern, same fingerprint")
	}
}
