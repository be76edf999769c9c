package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/safari-repro/hbmrh/internal/failpoint"
	"github.com/safari-repro/hbmrh/internal/results"
)

// Failpoint sites covering every durability step of the journal
// protocol: the header commit, the atomic chunk-artifact write
// (writeFileSync's write/sync/rename triple, shared with the shard
// output), and the record append + sync. The torture harness kills or
// tears each one and asserts the resumed run stays byte-identical
// (DESIGN.md §13).
var (
	fpHeaderWrite = failpoint.Register("fleet/journal/header-write")
	fpHeaderSync  = failpoint.Register("fleet/journal/header-sync")
	fpRecordWrite = failpoint.Register("fleet/journal/record-write")
	fpRecordSync  = failpoint.Register("fleet/journal/record-sync")
	fpFileWrite   = failpoint.Register("fleet/write/payload")
	fpFileSync    = failpoint.Register("fleet/write/sync")
	fpFileRename  = failpoint.Register("fleet/write/rename")
)

// The worker journal: an append-only record of which job slices of a
// shard have been measured and sealed, written so that a worker killed at
// any instruction can resume exactly where it died.
//
// Layout (one directory per worker):
//
//	journal                  header line + one record line per chunk
//	chunk-<lo>-<hi>.json     sealed slice artifact, artifact file form
//
// Chunk files hold the artifact file form (results.Artifact.AppendIndented),
// as the shard a worker writes from them does. A chunk is verified
// against the SHA-256 of its file bytes, not re-encoded, and Decode
// accepts any whitespace, so the layout a chunk was sealed in does not
// matter to a resume; a journal from an earlier build is refused by its
// code version in any case.
//
// The journal file is JSONL. Line 1 is the header — the run identity a
// resume must match (journal format version, experiment, config hash,
// code version, params, the shard's job slice). Every later line records
// one completed chunk: its job slice, its artifact file, and the
// artifact's SHA-256. A record is appended only after its chunk file is
// fully written, synced and atomically renamed into place, so the journal
// never references a partially-written artifact.
//
// Failure semantics on read:
//
//   - A torn final line (the write the kill interrupted, recognizable by
//     the missing trailing newline) is discarded: the chunk it would have
//     described simply reruns.
//   - Any other damage — an unparsable line, a version or identity
//     mismatch, out-of-order or non-contiguous chunk slices, a missing or
//     hash-mismatched chunk file — is rejected with ErrJournal. Silent
//     acceptance could double-count or drop jobs and break the
//     byte-identity contract, so the worker refuses and the coordinator
//     decides (it wipes the worker directory and restarts the shard
//     fresh).

// JournalVersion is the on-disk journal format version. Readers refuse
// journals of any other version; bump it on incompatible changes to the
// header or record schema.
const JournalVersion = 1

// journalMagic guards against pointing the reader at an arbitrary JSONL
// file.
const journalMagic = "hbmrh-fleet-journal"

// ErrJournal tags journal validation failures. A worker that fails with
// it exits with code ExitJournal, telling the coordinator the journal
// (not the measurement) is the problem and a fresh start is required.
var ErrJournal = fmt.Errorf("fleet: unusable journal")

// JournalHeader is the run identity stamped on line 1. Two header values
// must be equal field for field for a resume to proceed.
type JournalHeader struct {
	Journal string `json:"journal"`
	Version int    `json:"version"`
	// Experiment, ConfigHash, CodeVersion and Params pin what is being
	// measured; Lo/Hi pin the shard's job slice. A mismatch means the
	// journal belongs to a different run and resuming would merge
	// incompatible chunks.
	Experiment  string            `json:"experiment"`
	ConfigHash  string            `json:"config_hash"`
	CodeVersion string            `json:"code_version"`
	Params      map[string]string `json:"params,omitempty"`
	Lo          int               `json:"lo"`
	Hi          int               `json:"hi"`
}

// equal reports whether two headers describe the same run.
func (h JournalHeader) equal(o JournalHeader) bool {
	if h.Journal != o.Journal || h.Version != o.Version ||
		h.Experiment != o.Experiment || h.ConfigHash != o.ConfigHash ||
		h.CodeVersion != o.CodeVersion || h.Lo != o.Lo || h.Hi != o.Hi ||
		len(h.Params) != len(o.Params) {
		return false
	}
	for k, v := range h.Params {
		if o.Params[k] != v {
			return false
		}
	}
	return true
}

// ChunkRecord is one completed job slice: the half-open job range, the
// sealed artifact's file name (relative to the journal directory) and its
// SHA-256 over the exact bytes on disk.
type ChunkRecord struct {
	Lo     int    `json:"lo"`
	Hi     int    `json:"hi"`
	File   string `json:"file"`
	SHA256 string `json:"sha256"`
}

// Journal is an open worker journal positioned for appends.
type Journal struct {
	dir    string
	f      *os.File
	header JournalHeader
	done   []ChunkRecord
	// sealed holds, for each record of a resumed journal, the chunk bytes
	// OpenJournal read and hash-checked, until Resume folds them.
	sealed [][]byte
	// mode is the journal file's permission bits, which the worker's
	// chunk and shard files get too.
	mode os.FileMode
	// buf is the encode buffer Append reuses from chunk to chunk.
	buf []byte
}

// journalPath returns the journal file path for a worker directory.
func journalPath(dir string) string { return filepath.Join(dir, "journal") }

// chunkFileName names a sealed chunk artifact within the journal
// directory.
func chunkFileName(lo, hi int) string { return fmt.Sprintf("chunk-%d-%d.json", lo, hi) }

// OpenJournal opens (resuming) or creates (fresh) the journal in dir for
// the run described by want. On resume it validates the header against
// want, the record sequence for contiguity from want.Lo, and every
// referenced chunk file's presence and hash; any damage beyond a torn
// final line returns an error wrapping ErrJournal. The returned journal
// is positioned to append the next chunk, Done lists the chunks that
// need not rerun, and Resume folds the chunk bytes the check verified.
func OpenJournal(dir string, want JournalHeader) (*Journal, error) {
	want.Journal, want.Version = journalMagic, JournalVersion
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := journalPath(dir)
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		return createJournal(dir, want)
	case err != nil:
		return nil, err
	}
	done, sealed, err := validateJournal(dir, want, data)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return newJournal(dir, f, want, done, sealed)
}

// newJournal wraps an open journal file, recording its permission bits.
func newJournal(dir string, f *os.File, hdr JournalHeader, done []ChunkRecord, sealed [][]byte) (*Journal, error) {
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{dir: dir, f: f, header: hdr, done: done, sealed: sealed, mode: fi.Mode().Perm()}, nil
}

// createJournal starts a fresh journal: header line written, synced, and
// ready for chunk records.
func createJournal(dir string, hdr JournalHeader) (*Journal, error) {
	f, err := os.OpenFile(journalPath(dir), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(hdr)
	if err != nil {
		f.Close()
		return nil, err
	}
	if _, err := fpHeaderWrite.Write(f, append(line, '\n')); err != nil {
		f.Close()
		return nil, err
	}
	if err := fpHeaderSync.Inject(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return newJournal(dir, f, hdr, nil, nil)
}

// validateJournal parses and checks journal bytes against the expected
// header, returning the usable chunk records and the verified bytes of
// each record's chunk file. A torn final line (no trailing newline) is
// dropped; everything else must be pristine.
func validateJournal(dir string, want JournalHeader, data []byte) ([]ChunkRecord, [][]byte, error) {
	if len(data) == 0 {
		return nil, nil, fmt.Errorf("%w: %s: empty journal (header never committed)", ErrJournal, journalPath(dir))
	}
	// A torn tail is the final write the kill interrupted: drop it. Every
	// line before it was followed by a synced write, so damage there is
	// real corruption, not a crash artifact.
	torn := data[len(data)-1] != '\n'
	lines := bytes.Split(data, []byte("\n"))
	if lines[len(lines)-1] == nil || len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1] // trailing newline yields one empty split
	} else if torn {
		lines = lines[:len(lines)-1]
	}
	if len(lines) == 0 {
		return nil, nil, fmt.Errorf("%w: %s: header line torn", ErrJournal, journalPath(dir))
	}
	var hdr JournalHeader
	if err := strictUnmarshal(lines[0], &hdr); err != nil {
		return nil, nil, fmt.Errorf("%w: %s: bad header: %v", ErrJournal, journalPath(dir), err)
	}
	if hdr.Journal != journalMagic || hdr.Version != JournalVersion {
		return nil, nil, fmt.Errorf("%w: %s: journal %q version %d, this build writes %q version %d",
			ErrJournal, journalPath(dir), hdr.Journal, hdr.Version, journalMagic, JournalVersion)
	}
	if !hdr.equal(want) {
		return nil, nil, fmt.Errorf("%w: %s: journal belongs to a different run (experiment/config/code/params/slice mismatch)",
			ErrJournal, journalPath(dir))
	}
	var done []ChunkRecord
	var sealed [][]byte
	next := hdr.Lo
	for i, line := range lines[1:] {
		var rec ChunkRecord
		if err := strictUnmarshal(line, &rec); err != nil {
			return nil, nil, fmt.Errorf("%w: %s: record %d: %v", ErrJournal, journalPath(dir), i+1, err)
		}
		if rec.Lo != next || rec.Hi <= rec.Lo || rec.Hi > hdr.Hi {
			return nil, nil, fmt.Errorf("%w: %s: record %d covers [%d,%d), want a slice starting at %d within [%d,%d)",
				ErrJournal, journalPath(dir), i+1, rec.Lo, rec.Hi, next, hdr.Lo, hdr.Hi)
		}
		// The file name re-derives from the slice, so a corrupted Lo/Hi (or
		// File) cannot pair a valid record with the wrong chunk artifact:
		// without this, a bit-flipped Hi on the final record would pass the
		// hash check against the old file and silently skip jobs on resume.
		if rec.File != chunkFileName(rec.Lo, rec.Hi) {
			return nil, nil, fmt.Errorf("%w: %s: record %d names file %q for slice [%d,%d), want %q",
				ErrJournal, journalPath(dir), i+1, rec.File, rec.Lo, rec.Hi, chunkFileName(rec.Lo, rec.Hi))
		}
		chunk, err := readChunkFile(dir, rec)
		if err != nil {
			return nil, nil, err
		}
		done = append(done, rec)
		sealed = append(sealed, chunk)
		next = rec.Hi
	}
	return done, sealed, nil
}

// strictUnmarshal parses one journal line, rejecting unknown fields so a
// record truncated into another record's prefix cannot pass.
func strictUnmarshal(line []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after record")
	}
	return nil
}

// readChunkFile reads a record's artifact file and checks that it hashes
// to the journaled digest, returning the verified bytes.
func readChunkFile(dir string, rec ChunkRecord) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(dir, rec.File))
	if err != nil {
		return nil, fmt.Errorf("%w: chunk [%d,%d): %v", ErrJournal, rec.Lo, rec.Hi, err)
	}
	if sum := sha256Hex(data); sum != rec.SHA256 {
		return nil, fmt.Errorf("%w: chunk file %s corrupt: sha256 %s, journal records %s",
			ErrJournal, filepath.Join(dir, rec.File), sum, rec.SHA256)
	}
	return data, nil
}

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Done returns the validated chunk records, in ascending contiguous
// order starting at the header's Lo.
func (j *Journal) Done() []ChunkRecord { return j.done }

// Resumed returns the first job index not yet covered by a journaled
// chunk.
func (j *Journal) Resumed() int {
	if len(j.done) == 0 {
		return j.header.Lo
	}
	return j.done[len(j.done)-1].Hi
}

// Append seals one completed chunk: the artifact is encoded in the file
// form into a buffer the journal reuses from chunk to chunk, written to a
// temporary file, synced, renamed to its canonical name, and only then
// recorded (and synced) in the journal. A kill between any two of those
// steps leaves the journal pointing only at complete artifacts.
func (j *Journal) Append(a *results.Artifact, lo, hi int) error {
	data, err := a.AppendIndented(j.buf[:0])
	if err != nil {
		return err
	}
	j.buf = data
	name := chunkFileName(lo, hi)
	if err := writeFileSync(filepath.Join(j.dir, name), data, j.mode); err != nil {
		return err
	}
	rec := ChunkRecord{Lo: lo, Hi: hi, File: name, SHA256: sha256Hex(data)}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := fpRecordWrite.Write(j.f, append(line, '\n')); err != nil {
		return err
	}
	if err := fpRecordSync.Inject(); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.done = append(j.done, rec)
	return nil
}

// Resume decodes the chunks a resumed journal sealed and hands each to
// fold, in record order. It decodes the bytes OpenJournal read and
// hash-checked, so no chunk file is read or hashed twice, and releases
// them as it goes; a second call folds nothing. A chunk that is intact
// but does not decode — one an earlier build sealed in another artifact
// format, under the same unstamped "dev" code version — makes the
// journal unusable (ErrJournal), so the shard restarts fresh.
func (j *Journal) Resume(fold func(rec ChunkRecord, a *results.Artifact) error) error {
	for i, data := range j.sealed {
		rec := j.done[i]
		j.sealed[i] = nil
		a, err := results.Decode(data)
		if err != nil {
			return fmt.Errorf("%w: %s: %v", ErrJournal, filepath.Join(j.dir, rec.File), err)
		}
		if err := fold(rec, a); err != nil {
			return err
		}
	}
	j.sealed = nil
	return nil
}

// Close releases the journal file handle.
func (j *Journal) Close() error { return j.f.Close() }

// writeFileSync writes data to path atomically with permission bits
// perm: temp file in the same directory, sync, rename. Each of the three
// durability steps carries a failpoint site; a kill between any two
// leaves either no file or the complete old/new file, never a torn
// visible one — which the torture harness proves by crashing at each
// site in turn.
func writeFileSync(path string, data []byte, perm os.FileMode) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	// CreateTemp makes the file 0600 whatever the umask.
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return err
	}
	if _, err := fpFileWrite.Write(tmp, data); err != nil {
		tmp.Close()
		return err
	}
	if err := fpFileSync.Inject(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fpFileRename.Inject(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
