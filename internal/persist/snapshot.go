package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/stream"
)

// Snapshot file layout, little-endian (format 3, the only one read or
// written; any other format number is refused):
//
//	[8]byte  magic "EFDSNAP1"
//	uint32   format version (3)
//	uint64   graph version
//	uint64   window watermark: version  (stream.WindowMark.Version)
//	int64    window watermark: wall     (stream.WindowMark.Wall, unix ns)
//	int64    written-at wall time (unix ns; recovery stamps restored edges)
//	uint64   epoch (failover term the snapshot was written under)
//	uint32   crc32c over the 52 header bytes above
//	[]byte   bipartite CSR codec blob (self-checksummed)
//
// The watermark is captured atomically with the CSR cut
// (stream.SnapshotWithMark), so a recovered graph adopts expiry progress
// consistent with the recovered edge set — combined with WAL tombstone
// replay for post-snapshot retires, no restart can resurrect an expired
// edge.
//
// Files are written to a .tmp sibling, synced, renamed into place, and the
// directory synced, so a crash mid-write leaves either the old set of
// snapshots or the new one — never a half-visible file. After a successful
// write, older snapshot files are deleted.

var snapMagic = [8]byte{'E', 'F', 'D', 'S', 'N', 'A', 'P', '1'}

const (
	snapFormat      = uint32(3)
	snapHeaderBytes = 52 // magic through epoch; the header CRC32C follows
)

// SnapshotHeader is the decoded metadata of one snapshot file or stream.
type SnapshotHeader struct {
	// Version is the graph version the snapshot captures.
	Version uint64
	// Mark is the window expiry watermark at the cut.
	Mark stream.WindowMark
	// WrittenAt is the wall time of the write, unix ns.
	WrittenAt int64
	// Epoch is the failover term the snapshot was written under.
	Epoch uint64
}

func snapPath(dir string, version uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", version))
}

// writeSnapshotFile durably writes g at the given graph version with its
// window watermark and epoch, and removes older snapshots. It returns the
// final path.
func writeSnapshotFile(dir string, g *bipartite.Graph, version uint64, mark stream.WindowMark, writtenAt int64, epoch uint64) (string, error) {
	path := snapPath(dir, version)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", fmt.Errorf("persist: creating snapshot: %w", err)
	}
	defer os.Remove(tmp) // no-op after the rename succeeds

	bw := bufio.NewWriterSize(f, 1<<20)
	var hdr [snapHeaderBytes + 4]byte
	copy(hdr[:8], snapMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], snapFormat)
	binary.LittleEndian.PutUint64(hdr[12:], version)
	binary.LittleEndian.PutUint64(hdr[20:], mark.Version)
	binary.LittleEndian.PutUint64(hdr[28:], uint64(mark.Wall))
	binary.LittleEndian.PutUint64(hdr[36:], uint64(writtenAt))
	binary.LittleEndian.PutUint64(hdr[44:], epoch)
	binary.LittleEndian.PutUint32(hdr[snapHeaderBytes:], crc32.Checksum(hdr[:snapHeaderBytes], castagnoli))
	_, err = bw.Write(hdr[:])
	if err == nil {
		err = bipartite.WriteCSR(bw, g)
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("persist: writing snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", fmt.Errorf("persist: publishing snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return "", fmt.Errorf("persist: syncing snapshot dir: %w", err)
	}
	// The new snapshot is durable; older ones are now redundant.
	for _, old := range listSnapshots(dir) {
		if old.version != version {
			//ensemfdet:durability-ok superseded snapshots: the newer one is already fsynced and published
			os.Remove(old.path)
		}
	}
	return path, nil
}

// readSnapshotFile decodes and validates one snapshot file.
func readSnapshotFile(path string) (g *bipartite.Graph, hdr SnapshotHeader, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, hdr, fmt.Errorf("persist: opening snapshot: %w", err)
	}
	defer f.Close()
	return decodeSnapshot(f, filepath.Base(path))
}

// decodeSnapshot reads one snapshot from r; label names the source in
// errors (a file's base name, or "stream" for a shipped body).
func decodeSnapshot(r io.Reader, label string) (g *bipartite.Graph, out SnapshotHeader, err error) {
	br := bufio.NewReaderSize(r, 1<<20)

	var hdr [snapHeaderBytes + 4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, out, fmt.Errorf("persist: snapshot %s: reading header: %w", label, err)
	}
	if [8]byte(hdr[:8]) != snapMagic {
		return nil, out, fmt.Errorf("persist: snapshot %s: bad magic", label)
	}
	if format := binary.LittleEndian.Uint32(hdr[8:]); format != snapFormat {
		return nil, out, fmt.Errorf("persist: snapshot %s: unsupported format %d (want %d)", label, format, snapFormat)
	}
	if crc32.Checksum(hdr[:snapHeaderBytes], castagnoli) != binary.LittleEndian.Uint32(hdr[snapHeaderBytes:]) {
		return nil, out, fmt.Errorf("persist: snapshot %s: header checksum mismatch", label)
	}
	out.Version = binary.LittleEndian.Uint64(hdr[12:])
	out.Mark.Version = binary.LittleEndian.Uint64(hdr[20:])
	out.Mark.Wall = int64(binary.LittleEndian.Uint64(hdr[28:]))
	out.WrittenAt = int64(binary.LittleEndian.Uint64(hdr[36:]))
	out.Epoch = binary.LittleEndian.Uint64(hdr[44:])
	g, err = bipartite.ReadCSR(br)
	if err != nil {
		return nil, out, fmt.Errorf("persist: snapshot %s: %w", label, err)
	}
	return g, out, nil
}

// snapFile names one on-disk snapshot.
type snapFile struct {
	path    string
	version uint64
}

// listSnapshots returns the snapshots in dir, newest version first. Files
// that do not parse as snapshot names (including .tmp leftovers) are ignored.
func listSnapshots(dir string) []snapFile {
	names, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil {
		return nil
	}
	out := make([]snapFile, 0, len(names))
	for _, name := range names {
		v, err := parseIndexedName(filepath.Base(name), "snap-", ".snap")
		if err != nil {
			continue
		}
		out = append(out, snapFile{path: name, version: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].version > out[j].version })
	return out
}
