package supervise

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"

	"light/internal/engine"
	"light/internal/faultpoint"
	"light/internal/graph"
	"light/internal/plan"
)

// Checkpoint file format (little-endian, version 4):
//
//	u32 magic "LCKP", u32 version
//	u64 fingerprint   (plan+graph binding, see Fingerprint)
//	u64 cursor        (root cursor at capture, informational)
//	u8  complete      (0 or 1)
//	u64 matches, u64 nodes, u64 intersections, u64 galloping,
//	u64 elements, u64 comps, u64 bitmapProbes
//	u32 nLanes        (always 0)
//	u32 nDone,  then nDone × (u32 lo, u32 hi)
//	u32 CRC32 (IEEE) of everything above
//
// Version 4 is version 3 without its frame section: a run's only units
// are root chunks, so the committed root ranges and the base result are
// the whole resumable state. A lane run cannot checkpoint, so nLanes is
// written as 0 and any other value is rejected as corrupt; the field
// stays so that every version-4 file this program wrote still loads.
// Files of any other version are rejected with ErrCheckpointVersion.
const (
	ckptMagic   = 0x4c434b50 // "LCKP"
	ckptVersion = 4
)

// ErrCheckpointVersion is returned by LoadCheckpoint for a checkpoint
// file whose format version this build does not read.
var ErrCheckpointVersion = errors.New("supervise: unsupported checkpoint version")

// RootRange is a half-open range [Lo, Hi) of root vertex ids whose
// enumeration is committed: every match rooted in the range is already
// reflected in the checkpoint's Base result.
type RootRange struct {
	Lo, Hi uint32
}

// Checkpoint is the resumable state of an interrupted parallel run:
// the results committed so far and which root ranges produced them.
// Resuming enumerates exactly the roots outside those ranges, so the
// combined match count equals an uninterrupted run's.
type Checkpoint struct {
	// Fingerprint binds the checkpoint to one (graph, plan) pair;
	// resuming under a different pattern, order, or graph is rejected.
	Fingerprint uint64
	// Cursor is the root cursor when the checkpoint was captured
	// (informational; Done is authoritative for what remains).
	Cursor int64
	// Complete marks a checkpoint written after a finished run;
	// resuming it returns Base with no further work.
	Complete bool
	// Base is the result committed from the Done ranges.
	Base engine.Result
	// Done lists the committed root ranges.
	Done []RootRange
}

// Fingerprint hashes the identity of a (graph, plan) pair — graph
// shape, pattern adjacency, enumeration order π, execution order σ,
// and COMP operands — so a checkpoint can refuse to resume against a
// different run. Engine options that do not change the match set
// (the kernel, DegreeFilter) are deliberately excluded.
func Fingerprint(g *graph.Graph, pl *plan.Plan) uint64 {
	h := fnv.New64a()
	var b [8]byte
	w := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:]) //lightvet:ignore hygiene -- fnv.Write cannot fail
	}
	w(uint64(g.NumVertices()))
	w(uint64(g.NumEdges()))
	w(uint64(g.MaxDegree()))
	n := pl.Pattern.NumVertices()
	w(uint64(n))
	for u := 0; u < n; u++ {
		w(uint64(pl.Pattern.NeighborMask(u)))
	}
	for _, u := range pl.Pi {
		w(uint64(u))
	}
	for _, op := range pl.Sigma {
		w(uint64(op.Mode)<<32 | uint64(uint32(op.Vertex)))
	}
	for _, ops := range pl.Ops {
		w(uint64(len(ops.K1))<<32 | uint64(len(ops.K2)))
		for _, u := range ops.K1 {
			w(uint64(u))
		}
		for _, u := range ops.K2 {
			w(uint64(u))
		}
	}
	return h.Sum64()
}

// encoder accumulates the little-endian checkpoint payload.
type encoder struct {
	buf []byte
}

func (e *encoder) u8(x uint8)   { e.buf = append(e.buf, x) }
func (e *encoder) u32(x uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, x) }
func (e *encoder) u64(x uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, x) }

func (c *Checkpoint) encode() []byte {
	e := &encoder{buf: make([]byte, 0, 1024)}
	e.u32(ckptMagic)
	e.u32(ckptVersion)
	e.u64(c.Fingerprint)
	e.u64(uint64(c.Cursor))
	if c.Complete {
		e.u8(1)
	} else {
		e.u8(0)
	}
	e.u64(c.Base.Matches)
	e.u64(c.Base.Nodes)
	e.u64(c.Base.Stats.Intersections)
	e.u64(c.Base.Stats.Galloping)
	e.u64(c.Base.Stats.Elements)
	e.u64(c.Base.Comps)
	e.u64(c.Base.Stats.BitmapProbes)
	e.u32(0) // lanes: a lane run cannot checkpoint
	e.u32(uint32(len(c.Done)))
	for _, r := range c.Done {
		e.u32(r.Lo)
		e.u32(r.Hi)
	}
	e.u32(crc32.ChecksumIEEE(e.buf))
	return e.buf
}

// Save writes the checkpoint to path atomically: the encoded,
// CRC-trailed payload goes to a temp file in the same directory, is
// synced, and is renamed over path, so a crash mid-write can never
// leave a truncated checkpoint that looks valid.
func (c *Checkpoint) Save(path string) error {
	if err := faultpoint.Hit(faultpoint.PointCheckpointWrite); err != nil {
		return fmt.Errorf("supervise: checkpoint write: %w", err)
	}
	data := c.encode()
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("supervise: checkpoint write: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()        //lightvet:ignore hygiene -- already failing; best-effort cleanup
		os.Remove(tmpName) //lightvet:ignore hygiene -- already failing; best-effort cleanup
		return fmt.Errorf("supervise: checkpoint write: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName) //lightvet:ignore hygiene -- already failing; best-effort cleanup
		return fmt.Errorf("supervise: checkpoint write: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName) //lightvet:ignore hygiene -- already failing; best-effort cleanup
		return fmt.Errorf("supervise: checkpoint write: %w", err)
	}
	return nil
}

// decoder walks the checkpoint payload with bounds checks; every read
// validates against the remaining bytes, so a corrupt length field can
// neither over-read nor trigger an oversized allocation.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("supervise: corrupt checkpoint: truncated %s", what)
	}
}

func (d *decoder) u8(what string) uint8 {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.fail(what)
		return 0
	}
	x := d.buf[d.off]
	d.off++
	return x
}

func (d *decoder) u32(what string) uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.fail(what)
		return 0
	}
	x := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return x
}

func (d *decoder) u64(what string) uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail(what)
		return 0
	}
	x := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return x
}

// count reads a u32 length and rejects values that cannot fit in the
// remaining payload at width bytes per element.
func (d *decoder) count(what string, width int) int {
	n := d.u32(what)
	if d.err == nil && int64(n)*int64(width) > int64(len(d.buf)-d.off) {
		d.err = fmt.Errorf("supervise: corrupt checkpoint: %s length %d exceeds payload", what, n)
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// LoadCheckpoint reads and verifies a checkpoint written by Save:
// magic, version, CRC32 trailer, and internal length consistency. The
// caller must still bind it to a run via Fingerprint before resuming.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := decodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// decodeCheckpoint is LoadCheckpoint's decoder. Whatever it accepts,
// encode turns back into the same bytes.
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < 12 {
		return nil, fmt.Errorf("supervise: corrupt checkpoint: %d bytes", len(data))
	}
	payload, trailer := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(payload); got != trailer {
		return nil, fmt.Errorf("supervise: corrupt checkpoint: CRC %#x, want %#x", got, trailer)
	}
	d := &decoder{buf: payload}
	if magic := d.u32("magic"); magic != ckptMagic {
		return nil, fmt.Errorf("supervise: not a checkpoint (magic %#x)", magic)
	}
	if version := d.u32("version"); version != ckptVersion {
		return nil, fmt.Errorf("%w %d (this build reads %d)", ErrCheckpointVersion, version, ckptVersion)
	}
	c := &Checkpoint{}
	c.Fingerprint = d.u64("fingerprint")
	c.Cursor = int64(d.u64("cursor"))
	switch complete := d.u8("complete"); complete {
	case 0, 1:
		c.Complete = complete == 1
	default:
		return nil, fmt.Errorf("supervise: corrupt checkpoint: complete flag %d", complete)
	}
	c.Base.Matches = d.u64("matches")
	c.Base.Nodes = d.u64("nodes")
	c.Base.Stats.Intersections = d.u64("intersections")
	c.Base.Stats.Galloping = d.u64("galloping")
	c.Base.Stats.Elements = d.u64("elements")
	c.Base.Comps = d.u64("comps")
	c.Base.Stats.BitmapProbes = d.u64("bitmap probes")
	if nLanes := d.u32("lanes"); nLanes != 0 {
		return nil, fmt.Errorf("supervise: corrupt checkpoint: %d lanes (lane runs do not checkpoint)", nLanes)
	}
	nDone := d.count("done ranges", 8)
	for i := 0; i < nDone && d.err == nil; i++ {
		r := RootRange{Lo: d.u32("range lo"), Hi: d.u32("range hi")}
		if d.err == nil && r.Hi < r.Lo {
			return nil, fmt.Errorf("supervise: corrupt checkpoint: inverted range [%d,%d)", r.Lo, r.Hi)
		}
		c.Done = append(c.Done, r)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(payload) {
		return nil, fmt.Errorf("supervise: corrupt checkpoint: %d trailing bytes", len(payload)-d.off)
	}
	return c, nil
}
