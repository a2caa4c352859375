package supervise

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzCheckpointLoad feeds arbitrary bytes to LoadCheckpoint's decoder,
// which reads files from outside the program: it must never panic, and
// whatever it accepts must encode back to the identical bytes, so no
// field is read and then silently dropped or normalized. Each input is
// tried as a whole file and as a payload sealed with its CRC, so the
// fuzzer reaches the fields behind the CRC check too; the seeds are the
// payloads of a v4 checkpoint, a complete one, one whose complete byte
// is 2, and a v3 one.
func FuzzCheckpointLoad(f *testing.F) {
	for _, file := range [][]byte{sampleCheckpoint().encode(), (&Checkpoint{Complete: true}).encode(), encodeV3()} {
		f.Add(file[:len(file)-4])
	}
	flag := sampleCheckpoint().encode()
	flag[24] = 2 // the complete byte follows magic, version, fingerprint and cursor
	f.Add(flag[:len(flag)-4])
	f.Fuzz(func(t *testing.T, data []byte) {
		sealed := binary.LittleEndian.AppendUint32(bytes.Clone(data), crc32.ChecksumIEEE(data))
		for _, file := range [][]byte{data, sealed} {
			c, err := decodeCheckpoint(file)
			if err != nil {
				continue
			}
			if got := c.encode(); !bytes.Equal(got, file) {
				t.Fatalf("accepted %d bytes re-encode differently:\n in  %x\n out %x", len(file), file, got)
			}
		}
	})
}
