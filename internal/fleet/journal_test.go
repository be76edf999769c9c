package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/safari-repro/hbmrh/internal/experiments"
	"github.com/safari-repro/hbmrh/internal/results"
)

// testJournal seals the first `chunks` single-job chunks of the test
// study into a fresh journal in dir and closes it, returning the header.
// (testing.TB so the fuzz harness can share it.)
func testJournal(t testing.TB, dir string, chunks int) JournalHeader {
	t.Helper()
	s := testStudy()
	opts, err := s.Options(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	info, err := experiments.Describe(s.Experiment, opts)
	if err != nil {
		t.Fatal(err)
	}
	hdr := JournalHeader{
		Experiment:  s.Experiment,
		ConfigHash:  info.ConfigHash,
		CodeVersion: results.CodeVersion(),
		Params:      info.Params,
		Lo:          0,
		Hi:          info.Jobs,
	}
	j, err := OpenJournal(dir, hdr)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for c := 0; c < chunks; c++ {
		a, err := experiments.RunSlice(s.Experiment, opts, c, c+1)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(a, c, c+1); err != nil {
			t.Fatal(err)
		}
	}
	return hdr
}

func reopen(t *testing.T, dir string, hdr JournalHeader) (*Journal, error) {
	t.Helper()
	j, err := OpenJournal(dir, hdr)
	if err == nil {
		t.Cleanup(func() { j.Close() })
	}
	return j, err
}

// TestJournalResume pins the happy path: sealed chunks are recovered and
// the resume point is the first unsealed job.
func TestJournalResume(t *testing.T) {
	dir := t.TempDir()
	hdr := testJournal(t, dir, 2)
	j, err := reopen(t, dir, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Done()) != 2 || j.Resumed() != 2 {
		t.Fatalf("resumed journal: %d chunks, resume at %d; want 2 chunks, resume at 2", len(j.Done()), j.Resumed())
	}
	var folded []ChunkRecord
	if err := j.Resume(func(rec ChunkRecord, _ *results.Artifact) error {
		folded = append(folded, rec)
		return nil
	}); err != nil {
		t.Fatalf("reading sealed chunks: %v", err)
	}
	if !reflect.DeepEqual(folded, j.Done()) {
		t.Fatalf("resume folded %+v, journal records %+v", folded, j.Done())
	}
}

// TestJournalTornTailTolerated kills the worker mid-record: a final line
// without its newline is the interrupted write, dropped on resume; the
// chunk it described simply reruns.
func TestJournalTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	hdr := testJournal(t, dir, 1)
	f, err := os.OpenFile(journalPath(dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"lo":1,"hi":2,"file":"chunk-1-2.js`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	j, err := reopen(t, dir, hdr)
	if err != nil {
		t.Fatalf("torn tail must be tolerated, got %v", err)
	}
	if len(j.Done()) != 1 || j.Resumed() != 1 {
		t.Fatalf("after torn tail: %d chunks, resume at %d; want 1 chunk, resume at 1", len(j.Done()), j.Resumed())
	}
}

// TestJournalCorruptRecordRejected damages a committed (newline-
// terminated) record: unlike a torn tail this is real corruption and
// must be refused with ErrJournal.
func TestJournalCorruptRecordRejected(t *testing.T) {
	dir := t.TempDir()
	hdr := testJournal(t, dir, 2)
	path := journalPath(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines[1] = strings.Replace(lines[1], `"file"`, `"fi!e"`, 1)
	corrupt := strings.Join(lines, "")
	if corrupt == string(data) {
		t.Fatal("corruption target not found")
	}
	if err := os.WriteFile(path, []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reopen(t, dir, hdr); !errors.Is(err, ErrJournal) {
		t.Fatalf("got %v, want ErrJournal", err)
	}
}

// TestJournalTruncationRejected removes a committed record from the
// middle of the sequence (journal truncated/rewritten): the remaining
// records are no longer contiguous from the header's Lo and must be
// refused.
func TestJournalTruncationRejected(t *testing.T) {
	dir := t.TempDir()
	hdr := testJournal(t, dir, 2)
	path := journalPath(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	// Drop the first chunk record, keeping header and second record.
	truncated := lines[0] + lines[2]
	if err := os.WriteFile(path, []byte(truncated), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reopen(t, dir, hdr); !errors.Is(err, ErrJournal) {
		t.Fatalf("got %v, want ErrJournal", err)
	}
}

// TestJournalChunkCorruptionRejected flips a byte in a sealed chunk
// artifact: the journaled SHA-256 no longer matches and the journal is
// refused rather than silently merging damaged measurements.
func TestJournalChunkCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	hdr := testJournal(t, dir, 1)
	chunk := filepath.Join(dir, chunkFileName(0, 1))
	data, err := os.ReadFile(chunk)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(chunk, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reopen(t, dir, hdr); !errors.Is(err, ErrJournal) {
		t.Fatalf("got %v, want ErrJournal", err)
	}
}

// TestJournalEarlierFormatChunkRejected resumes a journal whose sealed
// chunk an earlier build wrote at artifact format 4, under a header this
// build accepts (two unstamped builds share the "dev" code version). The
// chunk is intact, so the journal opens, but Resume must refuse it with
// ErrJournal, which restarts the shard fresh, and name the version.
func TestJournalEarlierFormatChunkRejected(t *testing.T) {
	dir := t.TempDir()
	hdr := testJournal(t, dir, 1)
	chunk := filepath.Join(dir, chunkFileName(0, 1))
	data, err := os.ReadFile(chunk)
	if err != nil {
		t.Fatal(err)
	}
	current := fmt.Sprintf(`"format": %d,`, results.FormatVersion)
	old := bytes.Replace(data, []byte(current), []byte(`"format": 4,`), 1)
	if bytes.Equal(old, data) {
		t.Fatalf("chunk has no %s member", current)
	}
	if err := os.WriteFile(chunk, old, 0o644); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	journal = bytes.Replace(journal, []byte(sha256Hex(data)), []byte(sha256Hex(old)), 1)
	if err := os.WriteFile(journalPath(dir), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := reopen(t, dir, hdr)
	if err != nil {
		t.Fatalf("an intact chunk of another format must open: %v", err)
	}
	err = j.Resume(func(ChunkRecord, *results.Artifact) error { return nil })
	if !errors.Is(err, ErrJournal) || !strings.Contains(err.Error(), "format version 4") {
		t.Fatalf("got %v, want ErrJournal naming format version 4", err)
	}
}

// TestJournalRecordFileMismatchRejected pins the Lo/Hi↔File cross-check:
// a committed record whose slice was corrupted to a different — but
// still contiguous and in-range — slice would pass the hash check
// against the old chunk file and silently skip the jobs in between on
// resume. The file name re-derives from the slice, so the forgery must
// be refused.
func TestJournalRecordFileMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	hdr := testJournal(t, dir, 1)
	path := journalPath(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	widened := strings.Replace(string(data), `"lo":0,"hi":1`, `"lo":0,"hi":2`, 1)
	if widened == string(data) {
		t.Fatal("record slice not found")
	}
	if err := os.WriteFile(path, []byte(widened), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reopen(t, dir, hdr); !errors.Is(err, ErrJournal) {
		t.Fatalf("got %v, want ErrJournal", err)
	}
}

// TestJournalHeaderMismatchRejected resumes against a journal written
// for a different run (different hammer budget → different params): the
// identity check must refuse it.
func TestJournalHeaderMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	hdr := testJournal(t, dir, 1)
	other := hdr
	other.Params = map[string]string{"hammers": "123"}
	if _, err := reopen(t, dir, other); !errors.Is(err, ErrJournal) {
		t.Fatalf("got %v, want ErrJournal", err)
	}
	// And a different slice of the same run.
	shifted := hdr
	shifted.Hi = hdr.Hi - 1
	if _, err := reopen(t, dir, shifted); !errors.Is(err, ErrJournal) {
		t.Fatalf("slice mismatch: got %v, want ErrJournal", err)
	}
}

// TestJournalVersionRejected pins the versioning gate: a journal written
// by a future format version must be refused, not misparsed.
func TestJournalVersionRejected(t *testing.T) {
	dir := t.TempDir()
	hdr := testJournal(t, dir, 1)
	path := journalPath(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bumped := strings.Replace(string(data), `"version":1`, `"version":2`, 1)
	if bumped == string(data) {
		t.Fatal("version field not found in header")
	}
	if err := os.WriteFile(path, []byte(bumped), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reopen(t, dir, hdr); !errors.Is(err, ErrJournal) {
		t.Fatalf("got %v, want ErrJournal", err)
	}
}
