package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/stream"
)

// FuzzDecodeSnapshot feeds arbitrary bytes to the snapshot decoder, which
// covers the snapshot header and the CSR codec (bipartite.ReadCSR) in one
// target: it must never panic, and every graph it does return must pass
// (*bipartite.Graph).Validate, so a corrupt file can fail recovery but
// never hand a malformed CSR to the detector.
func FuzzDecodeSnapshot(f *testing.F) {
	dir := f.TempDir()
	for i, edges := range [][]bipartite.Edge{
		nil,
		{{U: 0, V: 0}},
		{{U: 0, V: 1}, {U: 2, V: 0}, {U: 2, V: 1}, {U: 5, V: 3}},
	} {
		bld := bipartite.NewBuilder()
		for _, e := range edges {
			bld.AddEdge(e.U, e.V)
		}
		path, err := writeSnapshotFile(dir, bld.Build(), uint64(i+1), stream.WindowMark{Version: 1, Wall: 7}, 42, 3)
		if err != nil {
			f.Fatal(err)
		}
		snap, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(snap)
		f.Add(append([]byte(nil), snap[:len(snap)-3]...))
		f.Add(append([]byte(nil), snap[:60]...)) // header only
		for _, at := range []int{10, 30, len(snap) / 2, len(snap) - 1} {
			flipped := append([]byte(nil), snap...)
			flipped[at] ^= 0x40
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, _, err := decodeSnapshot(bytes.NewReader(data), "fuzz")
		if err != nil {
			if g != nil {
				t.Fatal("decoder returned a graph alongside an error")
			}
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid graph: %v", err)
		}
	})
}

// oldFormatSnapshot lays g out in a retired snapshot header shape: format 1
// (magic, format, graph version), format 2 (plus watermark and written-at),
// or any other number behind the current 52-byte header. The header CRC is
// valid, so only the format number can be the reason for a refusal.
func oldFormatSnapshot(t *testing.T, format uint32, g *bipartite.Graph, version uint64) []byte {
	t.Helper()
	hdrLen := snapHeaderBytes
	switch format {
	case 1:
		hdrLen = 20
	case 2:
		hdrLen = 44
	}
	hdr := make([]byte, hdrLen+4)
	copy(hdr, snapMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], format)
	binary.LittleEndian.PutUint64(hdr[12:], version)
	binary.LittleEndian.PutUint32(hdr[hdrLen:], crc32.Checksum(hdr[:hdrLen], castagnoli))
	var buf bytes.Buffer
	buf.Write(hdr)
	if err := bipartite.WriteCSR(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeSnapshotRefusesOtherFormats: the decoder reads format 3 only;
// every other format number — including the two retired header shapes — is
// refused with an error naming the source and the format.
func TestDecodeSnapshotRefusesOtherFormats(t *testing.T) {
	g := bipartite.NewBuilder().Build()
	for _, format := range []uint32{1, 2, 4} {
		_, _, err := decodeSnapshot(bytes.NewReader(oldFormatSnapshot(t, format, g, 9)), "snap-x")
		want := fmt.Sprintf("snapshot snap-x: unsupported format %d (want 3)", format)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("format %d: err = %v, want %q", format, err, want)
		}
	}
}

// TestRecoveryRefusesOldFormatSnapshotWithoutWAL: a snapshot in a retired
// format is unreadable like any corrupt one, so when the WAL no longer
// covers its versions recovery refuses with the data-loss remedy rather
// than booting without them.
func TestRecoveryRefusesOldFormatSnapshotWithoutWAL(t *testing.T) {
	for _, format := range []uint32{1, 2} {
		dir := t.TempDir()
		st, g, _ := openDurable(t, dir, 2, Options{Fsync: FsyncAlways})
		for _, b := range randomBatches(23, 5, 20) {
			g.Append(b)
		}
		if err := st.Snapshot(); err != nil { // truncates the WAL to version 5
			t.Fatal(err)
		}
		g.Append(edgesN(900, 3)) // version 6, the only WAL record left
		snaps := listSnapshots(filepath.Join(dir, "snap"))
		if len(snaps) != 1 || snaps[0].version != 5 {
			t.Fatalf("format %d: want one snapshot at version 5, got %+v", format, snaps)
		}
		snapG, _, err := readSnapshotFile(snaps[0].path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(snaps[0].path, oldFormatSnapshot(t, format, snapG, 5), 0o644); err != nil {
			t.Fatal(err)
		}

		st2, err := Open(dir, Options{Fsync: FsyncAlways, Logf: testLogf(t)})
		if err != nil {
			t.Fatal(err)
		}
		_, err = st2.Recover(stream.NewSharded(2))
		if err == nil || !strings.Contains(err.Error(), "would lose versions 1..5") {
			t.Fatalf("format %d: err = %v, want the would-lose-versions refusal", format, err)
		}
		st2.Close()
	}
}

// TestSnapshotWriteErrorIsReported: a snapshot whose bytes cannot reach the
// disk must fail the write and never be published — the caller truncates
// the WAL on success, so a silently dropped write error loses data. The
// temp file is pointed at /dev/full, where every write fails with ENOSPC.
func TestSnapshotWriteErrorIsReported(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	dir := t.TempDir()
	if err := os.Symlink("/dev/full", snapPath(dir, 1)+".tmp"); err != nil {
		t.Fatal(err)
	}
	g := bipartite.NewBuilder()
	g.AddEdge(0, 0)
	if _, err := writeSnapshotFile(dir, g.Build(), 1, stream.WindowMark{}, 0, 0); err == nil {
		t.Fatal("snapshot write to a full device reported success")
	}
	if snaps := listSnapshots(dir); len(snaps) != 0 {
		t.Fatalf("failed snapshot was published: %+v", snaps)
	}
}
