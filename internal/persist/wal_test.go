package persist

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ensemfdet/internal/bipartite"
)

func testLogf(t *testing.T) func(string, ...any) {
	return func(format string, args ...any) { t.Logf(format, args...) }
}

func edgesN(start, n int) []bipartite.Edge {
	out := make([]bipartite.Edge, n)
	for i := range out {
		out[i] = bipartite.Edge{U: uint32(start + i), V: uint32(start + i + 1)}
	}
	return out
}

func TestWALAppendScanRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, recs, torn, err := openWAL(dir, 1<<20, true, testLogf(t), nil)
	if err != nil || len(recs) != 0 || torn {
		t.Fatalf("fresh openWAL: recs=%d torn=%v err=%v", len(recs), torn, err)
	}
	batches := [][]bipartite.Edge{edgesN(0, 3), edgesN(10, 1), edgesN(20, 7)}
	for i, b := range batches {
		if _, err := w.append(walRecord{kind: recEdges, version: uint64(i + 1), edges: b}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	_, recs, torn, err = openWAL(dir, 1<<20, true, testLogf(t), nil)
	if err != nil || torn {
		t.Fatalf("reopen: torn=%v err=%v", torn, err)
	}
	if len(recs) != len(batches) {
		t.Fatalf("scanned %d records, want %d", len(recs), len(batches))
	}
	for i, r := range recs {
		if r.version != uint64(i+1) || !reflect.DeepEqual(r.edges, batches[i]) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

func TestWALSegmentRotationAndTruncation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every batch after the first rotates.
	w, _, _, err := openWAL(dir, 48, true, testLogf(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= 5; v++ {
		if _, err := w.append(walRecord{kind: recEdges, version: v, edges: edgesN(int(v)*10, 2)}); err != nil {
			t.Fatal(err)
		}
	}
	if segs, _ := w.diskStats(); segs < 3 {
		t.Fatalf("48-byte segments after 5 batches: %d segments, want rotation", segs)
	}

	// Truncating to version 3 must drop every segment fully covered by it
	// and keep all records above it.
	if err := w.truncateTo(3); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	_, recs, torn, err := openWAL(dir, 48, true, testLogf(t), nil)
	if err != nil || torn {
		t.Fatalf("reopen after truncate: torn=%v err=%v", torn, err)
	}
	keptVersions := map[uint64]bool{}
	for _, r := range recs {
		keptVersions[r.version] = true
	}
	if !keptVersions[4] || !keptVersions[5] {
		t.Fatalf("records above the watermark were dropped: %v", keptVersions)
	}
	if keptVersions[1] || keptVersions[2] || keptVersions[3] {
		t.Fatalf("covered records survived truncation: %v", keptVersions)
	}
}

// lastRecordRange locates the byte range of the final record in the only WAL
// segment, from the decoded record sizes.
func lastRecordRange(t *testing.T, data []byte) (start, end int) {
	t.Helper()
	off := 0
	if len(data) >= len(walMagic) && [8]byte(data[:8]) == walMagic {
		off = len(walMagic)
	}
	for off < len(data) {
		_, n, ok := decodeRecord(data[off:])
		if !ok {
			t.Fatalf("pristine WAL does not decode at offset %d", off)
		}
		start, end = off, off+n
		off += n
	}
	if end != len(data) {
		t.Fatalf("pristine WAL has trailing bytes: %d != %d", end, len(data))
	}
	return start, end
}

// TestWALTornTailByteByByte is the crash matrix: for every truncation point
// and every flipped byte inside the final record, recovery must come back
// with exactly the fully-acknowledged prefix, warn, and stay appendable —
// never refuse to start.
func TestWALTornTailByteByByte(t *testing.T) {
	dir := t.TempDir()
	w, _, _, err := openWAL(dir, 1<<20, true, testLogf(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	const full = 4
	for v := uint64(1); v <= full; v++ {
		if _, err := w.append(walRecord{kind: recEdges, version: v, edges: edgesN(int(v)*100, 3)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	seg := segPath(dir, 1)
	pristine, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	start, end := lastRecordRange(t, pristine)

	check := func(name string, content []byte) {
		t.Helper()
		if err := os.WriteFile(seg, content, 0o644); err != nil {
			t.Fatal(err)
		}
		w, recs, torn, err := openWAL(dir, 1<<20, true, testLogf(t), nil)
		if err != nil {
			t.Fatalf("%s: recovery refused to start: %v", name, err)
		}
		if !torn {
			t.Fatalf("%s: torn tail not reported", name)
		}
		if len(recs) != full-1 {
			t.Fatalf("%s: recovered %d records, want the %d acknowledged ones", name, len(recs), full-1)
		}
		for i, r := range recs {
			if r.version != uint64(i+1) {
				t.Fatalf("%s: record %d has version %d", name, i, r.version)
			}
		}
		// The log must remain appendable after truncation.
		if _, err := w.append(walRecord{kind: recEdges, version: uint64(full), edges: edgesN(999, 1)}); err != nil {
			t.Fatalf("%s: append after truncation: %v", name, err)
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
	}

	for cut := start + 1; cut < end; cut++ {
		check("truncate", append([]byte(nil), pristine[:cut]...))
	}
	for i := start; i < end; i++ {
		mut := append([]byte(nil), pristine...)
		mut[i] ^= 0x5a
		check("flip", mut)
	}

	// A clean cut exactly at a record boundary is not torn.
	if err := os.WriteFile(seg, pristine[:start], 0o644); err != nil {
		t.Fatal(err)
	}
	_, recs, torn, err := openWAL(dir, 1<<20, true, testLogf(t), nil)
	if err != nil || torn || len(recs) != full-1 {
		t.Fatalf("boundary cut: recs=%d torn=%v err=%v", len(recs), torn, err)
	}
}

// TestWALRefusesSealedCorruption pins the other half of the policy: a
// corrupt record in a sealed (non-final) segment holds acknowledged data and
// must refuse recovery rather than silently dropping it.
func TestWALRefusesSealedCorruption(t *testing.T) {
	dir := t.TempDir()
	w, _, _, err := openWAL(dir, 40, true, testLogf(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= 3; v++ {
		if _, err := w.append(walRecord{kind: recEdges, version: v, edges: edgesN(int(v)*10, 2)}); err != nil {
			t.Fatal(err)
		}
	}
	if segs, _ := w.diskStats(); segs < 2 {
		t.Fatalf("setup needs multiple segments, got %d", segs)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	first := segPath(dir, 1)
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = openWAL(dir, 40, true, testLogf(t), nil)
	if err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("sealed-segment corruption: err = %v, want refusal", err)
	}
}

func TestWALRejectsMalformedSegmentName(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-zz.wal"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := openWAL(dir, 1<<20, true, testLogf(t), nil); err == nil {
		t.Fatal("malformed segment name must error, not be silently skipped")
	}
}

// TestTruncateToleratesMissingSegment: a covered segment already gone from
// disk counts as removed; the survivor metadata must stay consistent.
func TestTruncateToleratesMissingSegment(t *testing.T) {
	dir := t.TempDir()
	w, _, _, err := openWAL(dir, 40, true, testLogf(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= 4; v++ {
		if _, err := w.append(walRecord{kind: recEdges, version: v, edges: edgesN(int(v)*10, 2)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(segPath(dir, 1)); err != nil { // externally deleted
		t.Fatal(err)
	}
	if err := w.truncateTo(3); err != nil {
		t.Fatalf("truncate over a missing covered segment: %v", err)
	}
	segs, _ := w.diskStats()
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	_, recs, torn, err := openWAL(dir, 40, true, testLogf(t), nil)
	if err != nil || torn {
		t.Fatalf("reopen: torn=%v err=%v", torn, err)
	}
	if len(recs) != 1 || recs[0].version != 4 {
		t.Fatalf("survivors = %+v, want only version 4", recs)
	}
	if segs < 1 {
		t.Fatalf("diskStats inconsistent after tolerant truncation: %d segments", segs)
	}
}

// TestWALRefusesSegmentsWithoutMagic pins the one-format contract of the
// segment scanner: a segment that does not open with the magic is refused
// and left byte-for-byte intact — never decoded as some other framing and
// truncated — unless it is the final segment and holds a strict prefix of
// the magic, the signature of a crash mid header write, which is truncated
// as torn and stays appendable.
func TestWALRefusesSegmentsWithoutMagic(t *testing.T) {
	// acked writes a WAL of five acknowledged records, rotating every two
	// records, and returns the directory and its segment paths in order.
	acked := func(t *testing.T) (string, []string) {
		dir := t.TempDir()
		w, _, _, err := openWAL(dir, 100, true, testLogf(t), nil)
		if err != nil {
			t.Fatal(err)
		}
		for v := uint64(1); v <= 5; v++ {
			if _, err := w.append(walRecord{kind: recEdges, version: v, edges: edgesN(int(v)*10, 2)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
		if err != nil || len(segs) < 2 {
			t.Fatalf("setup wants several segments, got %v (%v)", segs, err)
		}
		return dir, segs
	}
	refused := func(t *testing.T, dir, path string, content []byte) {
		t.Helper()
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, _, err := openWAL(dir, 100, true, testLogf(t), nil)
		if err == nil || !strings.Contains(err.Error(), "unsupported format") || !strings.Contains(err.Error(), filepath.Base(path)) {
			t.Fatalf("err = %v, want an unsupported-format refusal naming %s", err, filepath.Base(path))
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(after) != string(content) {
			t.Fatalf("refused segment was modified: %d -> %d bytes", len(content), len(after))
		}
	}

	t.Run("flipped magic bit in the final segment", func(t *testing.T) {
		dir, segs := acked(t)
		final := segs[len(segs)-1]
		pristine, err := os.ReadFile(final)
		if err != nil {
			t.Fatal(err)
		}
		for bit := 0; bit < 8*len(walMagic); bit++ {
			mut := append([]byte(nil), pristine...)
			mut[bit/8] ^= 1 << (bit % 8)
			refused(t, dir, final, mut)
		}
	})

	t.Run("torn header in the final segment", func(t *testing.T) {
		for k := 1; k < len(walMagic); k++ {
			dir, segs := acked(t)
			// A rotation created the next segment and crashed after k bytes
			// of its header reached the disk.
			next := segPath(dir, uint64(len(segs)+1))
			if err := os.WriteFile(next, walMagic[:k], 0o644); err != nil {
				t.Fatal(err)
			}
			w, recs, torn, err := openWAL(dir, 100, true, testLogf(t), nil)
			if err != nil || !torn || len(recs) != 5 {
				t.Fatalf("k=%d: recs=%d torn=%v err=%v, want the 5 acknowledged records and a torn tail", k, len(recs), torn, err)
			}
			if w.active.path != next || w.active.records != 0 || w.active.bytes != 0 {
				t.Fatalf("k=%d: active segment %+v, want the torn one, emptied", k, w.active)
			}
			if _, err := w.append(walRecord{kind: recEdges, version: 6, edges: edgesN(60, 2)}); err != nil {
				t.Fatalf("k=%d: append after torn header: %v", k, err)
			}
			if err := w.close(); err != nil {
				t.Fatal(err)
			}
			_, recs, torn, err = openWAL(dir, 100, true, testLogf(t), nil)
			if err != nil || torn || len(recs) != 6 || recs[5].version != 6 {
				t.Fatalf("k=%d: reopen: recs=%d torn=%v err=%v, want 6 records ending at version 6", k, len(recs), torn, err)
			}
		}
	})

	t.Run("sealed segment without magic", func(t *testing.T) {
		dir, segs := acked(t)
		data, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		refused(t, dir, segs[0], data[len(walMagic):]) // the records, headerless
	})
}
