package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/stream"
)

// snapOf cuts g's current bipartite snapshot, discarding the version.
func snapOf(g *stream.Graph) *bipartite.Graph {
	s, _ := g.Snapshot()
	return s
}

// writeSegment lays recs out as one WAL segment file at path.
func writeSegment(t *testing.T, path string, recs ...walRecord) []byte {
	t.Helper()
	data := append([]byte(nil), walMagic[:]...)
	var scratch []byte
	for _, r := range recs {
		data = append(data, encodeRecord(&scratch, r)...)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return data
}

// TestMixedFormatRecoveryPreEpochDir pins recovery of a directory written
// before any failover: no fence file, a snapshot at version 5 and epoch 0,
// and segments holding edge batches and a tombstone but no fence record. It
// must recover into the epoch-aware store at epoch 0 with ingest owned (the
// single-primary behaviour), byte-identical to an in-memory replay, without
// rewriting the sealed segments. Promotion must then layer the first fence
// on top of that history, and survive a reboot.
//
// The snapshotV1 and snapshotV2 rows hold the snapshot in a retired header
// shape: it is refused as unreadable, and since the WAL still covers its
// versions, recovery replays the whole log instead. The snapshotV3 row
// seeds recovery from the current-format snapshot.
func TestMixedFormatRecoveryPreEpochDir(t *testing.T) {
	for _, tc := range []struct {
		name   string
		format uint32
	}{
		{"snapshotV1", 1},
		{"snapshotV2", 2},
		{"snapshotV3", snapFormat},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			walDir := filepath.Join(dir, "wal")
			for _, sub := range []string{"snap", "wal"} {
				if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
					t.Fatal(err)
				}
			}

			// The reference run: what an uninterrupted pre-epoch primary held
			// in memory after the same batches, retirement, and version bumps.
			batches := randomBatches(11, 8, 40)
			ref := stream.New()
			for _, b := range batches[:5] {
				ref.Append(b)
			}
			snapG, snapVer := ref.Snapshot()
			if snapVer != 5 {
				t.Fatalf("reference snapshot at version %d, want 5", snapVer)
			}
			snapDir := filepath.Join(dir, "snap")
			if tc.format == snapFormat {
				if _, err := writeSnapshotFile(snapDir, snapG, snapVer, stream.WindowMark{Version: 3, Wall: 111}, 222, 0); err != nil {
					t.Fatal(err)
				}
			} else if err := os.WriteFile(snapPath(snapDir, snapVer), oldFormatSnapshot(t, tc.format, snapG, snapVer), 0o644); err != nil {
				t.Fatal(err)
			}

			// Segment 1 (sealed): the batches the snapshot covers, versions
			// 1-5. Segment 2 (sealed): edge batches at versions 6-7.
			// Segment 3: an edge batch then a tombstone. No epoch fences
			// anywhere.
			var covered []walRecord
			for i, b := range batches[:5] {
				covered = append(covered, walRecord{version: uint64(i + 1), kind: recEdges, edges: b})
			}
			sealed := map[string][]byte{
				segPath(walDir, 1): writeSegment(t, segPath(walDir, 1), covered...),
				segPath(walDir, 2): writeSegment(t, segPath(walDir, 2),
					walRecord{version: 6, kind: recEdges, edges: batches[5]},
					walRecord{version: 7, kind: recEdges, edges: batches[6]}),
			}
			retired := batches[0][:5]
			mark := stream.WindowMark{Version: 6, Wall: 333}
			writeSegment(t, segPath(walDir, 3),
				walRecord{version: 8, kind: recEdges, edges: batches[7]},
				walRecord{version: 9, kind: recTombstone, mark: mark, edges: retired})

			for _, b := range batches[5:] {
				ref.Append(b)
			}
			ref.Remove(retired)
			ref.AdvanceMarkTo(mark)
			ref.AdvanceVersionTo(9)

			// Recover into a different shard layout than the reference, the
			// way every crash-recovery pin in this package does.
			st, g, rec := openDurable(t, dir, 3, Options{Fsync: FsyncNever})
			if epoch, start, owned := st.Epoch(); epoch != 0 || start != 0 || !owned {
				t.Fatalf("pre-epoch dir recovered to epoch %d start %d owned %v, want 0/0/owned", epoch, start, owned)
			}
			wantSnap, wantReplayed := uint64(5), 4
			if tc.format != snapFormat {
				wantSnap, wantReplayed = 0, 9
			}
			if rec.SnapshotVersion != wantSnap || rec.ReplayedRecords != wantReplayed {
				t.Fatalf("recovery stats %+v, want snapshot %d and %d replayed records", rec, wantSnap, wantReplayed)
			}
			if g.Version() != 9 {
				t.Fatalf("recovered version %d, want 9", g.Version())
			}
			if !bytes.Equal(csrBytes(t, snapOf(g)), csrBytes(t, snapOf(ref))) {
				t.Fatal("recovered graph differs from the reference replay")
			}

			// Recovery leaves the sealed segments' bytes untouched.
			for path, want := range sealed {
				after, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(after, want) {
					t.Fatalf("recovery rewrote the sealed WAL segment %s", filepath.Base(path))
				}
			}

			// The epoch-aware store keeps serving the pre-epoch history:
			// ingest continues, and a promotion layers the first fence on top.
			ref.Append(batches[0])
			if res := g.Append(batches[0]); res.Err != nil {
				t.Fatalf("ingest on recovered pre-epoch store: %v", res.Err)
			}
			if g.Version() != 10 {
				t.Fatalf("post-recovery ingest version %d, want 10", g.Version())
			}
			if err := st.PromoteEpoch(1, g.Version()+1); err != nil {
				t.Fatalf("promoting on top of pre-epoch history: %v", err)
			}
			g.AdvanceVersionTo(g.Version() + 1)
			ref.AdvanceVersionTo(11)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			// The reboot replays the fence record and fence file together.
			st2, g2, _ := openDurable(t, dir, 2, Options{Fsync: FsyncNever})
			defer st2.Close()
			if epoch, start, owned := st2.Epoch(); epoch != 1 || start != 11 || !owned {
				t.Fatalf("rebooted epoch %d start %d owned %v, want 1/11/owned", epoch, start, owned)
			}
			if g2.Version() != 11 {
				t.Fatalf("rebooted version %d, want 11", g2.Version())
			}
			if !bytes.Equal(csrBytes(t, snapOf(g2)), csrBytes(t, snapOf(ref))) {
				t.Fatal("rebooted graph differs from the reference replay")
			}
		})
	}
}

// TestBitFlipsInWALPayloadAreRejected pins the checksum guarantee the fuzz
// target probes at random: flipping any single bit of a frame's
// CRC-protected region (the checksum itself, or the payload) makes the
// decoder reject the frame — a corrupt record is never applied.
func TestBitFlipsInWALPayloadAreRejected(t *testing.T) {
	var scratch []byte
	frames := [][]byte{
		append([]byte(nil), encodeRecord(&scratch, walRecord{version: 1, kind: recEdges, edges: edgesN(0, 3)})...),
		append([]byte(nil), encodeRecord(&scratch, walRecord{version: 2, kind: recTombstone, mark: stream.WindowMark{Version: 1, Wall: 99}, edges: edgesN(3, 2)})...),
		append([]byte(nil), encodeRecord(&scratch, walRecord{version: 3, kind: recEpochFence, epoch: 7})...),
	}
	for fi, frame := range frames {
		for bit := 32; bit < 8*len(frame); bit++ { // skip the uncovered length word
			mut := append([]byte(nil), frame...)
			mut[bit/8] ^= 1 << (bit % 8)
			if _, _, ok := decodeRecord(mut); ok {
				t.Fatalf("frame %d: decoder accepted a flip at bit %d", fi, bit)
			}
		}
	}
}

// FuzzDecodeRecord hammers the WAL frame decoder with arbitrary bytes: it
// must never panic, never accept a zero version or an edge-carrying fence,
// never claim to have consumed more input than exists, and every frame it
// does accept must re-encode byte-identically — so a decode-modify cycle can
// never silently corrupt a segment.
func FuzzDecodeRecord(f *testing.F) {
	var scratch []byte
	seeds := [][]byte{
		append([]byte(nil), encodeRecord(&scratch, walRecord{version: 1, kind: recEdges, edges: edgesN(0, 3)})...),
		append([]byte(nil), encodeRecord(&scratch, walRecord{version: 2, kind: recTombstone, mark: stream.WindowMark{Version: 5, Wall: 42}, edges: edgesN(4, 2)})...),
		append([]byte(nil), encodeRecord(&scratch, walRecord{version: 3, kind: recEpochFence, epoch: 9})...),
		append([]byte(nil), encodeRecord(&scratch, walRecord{version: 4, kind: recTombstone})...),
	}
	for _, s := range seeds {
		f.Add(s)
		torn := append([]byte(nil), s[:len(s)-3]...)
		f.Add(torn)
		flipped := append([]byte(nil), s...)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, ok := decodeRecord(data)
		if !ok {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decoder consumed %d of %d bytes", n, len(data))
		}
		if rec.version == 0 {
			t.Fatal("decoder accepted a zero version")
		}
		if rec.kind == recEpochFence && len(rec.edges) != 0 {
			t.Fatal("decoder accepted an edge-carrying fence")
		}
		var buf []byte
		if !bytes.Equal(encodeRecord(&buf, rec), data[:n]) {
			t.Fatal("decode/encode round-trip is not byte-identical")
		}
	})
}

// FuzzDecodeFence feeds arbitrary bytes to the fence decoder: it must never
// panic, and every fence it accepts must re-encode to the input's first
// fenceHdrBytes+4 bytes — so the ownership a node boots with is exactly
// what some fence write put on disk.
func FuzzDecodeFence(f *testing.F) {
	for _, fs := range []fenceState{
		{epoch: 1, start: 11, owned: true},
		{epoch: 7, start: 0, owned: false},
		{},
	} {
		enc := encodeFence(fs)
		f.Add(enc[:])
		f.Add(append([]byte(nil), enc[:len(enc)-1]...))
		f.Add(append([]byte(nil), enc[:12]...))
		for _, at := range []int{3, 10, 20, 28, len(enc) - 1} {
			flipped := enc
			flipped[at] ^= 0x01
			f.Add(flipped[:])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fs, err := decodeFence(data)
		if err != nil {
			return
		}
		if enc := encodeFence(fs); !bytes.Equal(enc[:], data[:len(enc)]) {
			t.Fatalf("decoded %+v re-encodes to %x, input began %x", fs, enc, data[:len(enc)])
		}
	})
}
