package graph

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"strings"

	"light/internal/faultpoint"
)

// ReadEdgeList parses a whitespace-separated edge-list stream: one
// "u v" pair per line, '#' or '%' starting a comment line. Vertex IDs are
// non-negative integers. Duplicate edges, reversed duplicates, and
// self-loops are tolerated and deduplicated.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	b := NewBuilder(0)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want at least two fields, got %q", lineNo, line)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad vertex %q: %v", lineNo, fields[0], err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad vertex %q: %v", lineNo, fields[1], err)
		}
		b.AddEdge(VertexID(u), VertexID(v)) //lightvet:ignore indexsafety -- ParseUint bitSize 32 bounds both values
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return b.Build(), nil
}

// csrMagic identifies the binary CSR format. Version 2 appends a CRC32
// (IEEE) trailer over everything before it; version 1 files (no
// trailer) are still accepted for compatibility with old gengraph
// output.
const (
	csrMagic   = 0x4c494748 // "LIGH"
	csrVersion = 2
)

// WriteCSR serializes the graph in a compact little-endian binary format:
// magic, version, N, then N+1 offsets (uint64), 2M neighbor IDs
// (uint32), and a CRC32 trailer over all preceding bytes.
func (g *Graph) WriteCSR(w io.Writer) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<20)
	hdr := [4]uint64{csrMagic, csrVersion, uint64(g.NumVertices()), uint64(len(g.adj))}
	for _, x := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, x); err != nil {
			return err
		}
	}
	for _, off := range g.offsets {
		if err := binary.Write(bw, binary.LittleEndian, uint64(off)); err != nil {
			return err
		}
	}
	// Write adjacency in chunks to avoid reflection overhead per element.
	const chunk = 1 << 16
	buf := make([]byte, 4*chunk)
	for i := 0; i < len(g.adj); i += chunk {
		end := i + chunk
		if end > len(g.adj) {
			end = len(g.adj)
		}
		n := 0
		for _, v := range g.adj[i:end] {
			binary.LittleEndian.PutUint32(buf[n:], v)
			n += 4
		}
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
	}
	// The trailer must not feed the CRC writer, so flush the buffered
	// payload through the MultiWriter first and write the sum directly.
	if err := bw.Flush(); err != nil {
		return err
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc.Sum32())
	_, err := w.Write(trailer[:])
	return err
}

// ReadCSR deserializes a graph written by WriteCSR, verifying the CRC32
// trailer on version-2 files (version 1 has none and is accepted as
// legacy). The CRC runs over the payload bytes as they are parsed, so
// verification is streaming — corruption detection costs no extra pass
// or whole-file buffering.
func ReadCSR(r io.Reader) (*Graph, error) {
	if err := faultpoint.Hit(faultpoint.PointCSRRead); err != nil {
		return nil, fmt.Errorf("graph: reading CSR: %w", err)
	}
	crc := crc32.NewIEEE()
	br := bufio.NewReaderSize(r, 1<<20)
	var hdr [4]uint64
	var hdrBytes [32]byte
	if _, err := io.ReadFull(br, hdrBytes[:]); err != nil {
		return nil, fmt.Errorf("graph: reading CSR header: %w", err)
	}
	crc.Write(hdrBytes[:]) //lightvet:ignore hygiene -- crc32 Write cannot fail
	for i := range hdr {
		hdr[i] = binary.LittleEndian.Uint64(hdrBytes[8*i:])
	}
	if hdr[0] != csrMagic {
		return nil, fmt.Errorf("graph: bad CSR magic %#x", hdr[0])
	}
	if hdr[1] != 1 && hdr[1] != csrVersion {
		return nil, fmt.Errorf("graph: unsupported CSR version %d", hdr[1])
	}
	// Sanity-cap the header sizes before converting to int, so a
	// corrupted header can neither overflow the conversions below nor
	// trigger a multi-terabyte allocation before the payload read fails.
	const maxEntries = 1 << 31
	if hdr[2] > maxEntries || hdr[3] > maxEntries || hdr[3]%2 != 0 {
		return nil, fmt.Errorf("graph: implausible CSR header (N=%d, 2M=%d)", hdr[2], hdr[3])
	}
	n, m2 := int(hdr[2]), int(hdr[3]) //lightvet:ignore indexsafety -- bounded by the maxEntries check above
	// Grow the arrays as payload actually arrives instead of trusting the
	// header: a 40-byte corrupt stream claiming 2^31 vertices must fail on
	// its first short read, not allocate gigabytes up front.
	buf := make([]byte, 8*(1<<13))
	g := &Graph{}
	initialCap := n + 1
	if initialCap > 1<<16 {
		initialCap = 1 << 16
	}
	g.offsets = make([]int64, 0, initialCap)
	for remaining := n + 1; remaining > 0; {
		cnt := remaining
		if cnt > len(buf)/8 {
			cnt = len(buf) / 8
		}
		if _, err := io.ReadFull(br, buf[:8*cnt]); err != nil {
			return nil, fmt.Errorf("graph: reading CSR offsets: %w", err)
		}
		crc.Write(buf[:8*cnt]) //lightvet:ignore hygiene -- crc32 Write cannot fail
		for j := 0; j < cnt; j++ {
			x := binary.LittleEndian.Uint64(buf[8*j:])
			g.offsets = append(g.offsets, int64(x)) //lightvet:ignore indexsafety -- Validate below rejects negative or out-of-range offsets
		}
		remaining -= cnt
	}
	adjCap := m2
	if adjCap > 1<<16 {
		adjCap = 1 << 16
	}
	g.adj = make([]VertexID, 0, adjCap)
	for remaining := m2; remaining > 0; {
		cnt := remaining
		if cnt > len(buf)/4 {
			cnt = len(buf) / 4
		}
		if _, err := io.ReadFull(br, buf[:4*cnt]); err != nil {
			return nil, fmt.Errorf("graph: reading CSR adjacency: %w", err)
		}
		crc.Write(buf[:4*cnt]) //lightvet:ignore hygiene -- crc32 Write cannot fail
		for j := 0; j < cnt; j++ {
			g.adj = append(g.adj, binary.LittleEndian.Uint32(buf[4*j:]))
		}
		remaining -= cnt
	}
	if hdr[1] == csrVersion {
		var trailer [4]byte
		if _, err := io.ReadFull(br, trailer[:]); err != nil {
			return nil, fmt.Errorf("graph: reading CSR trailer: %w", err)
		}
		if got, want := crc.Sum32(), binary.LittleEndian.Uint32(trailer[:]); got != want {
			return nil, fmt.Errorf("graph: corrupt CSR payload: CRC %#x, want %#x", got, want)
		}
	}
	// Validate before finalize: finalize slices adjacency through the
	// offsets (degree stats, hub bitmaps), so corrupt offsets must be
	// rejected first — a version-1 file has no CRC to catch them.
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: corrupt CSR payload: %w", err)
	}
	g.finalize()
	return g, nil
}

// SaveCSR writes the graph to path in the binary CSR format.
func (g *Graph) SaveCSR(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := g.WriteCSR(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// LoadCSR reads a binary CSR graph from path. Gzipped files are
// transparently decompressed — detected by the gzip magic bytes, not
// the file name, so both graph.csr.gz and oddly-named compressed
// snapshots load.
func LoadCSR(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var r io.Reader = br
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		defer zr.Close()
		r = zr
	}
	g, err := ReadCSR(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}
