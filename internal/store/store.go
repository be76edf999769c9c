// Package store is the artifact system of record behind the query
// service: a content-addressed, append-only store of shard artifacts
// with incrementally maintained merged views.
//
// Every ingested artifact is decoded exactly once, re-encoded to its
// canonical bytes and addressed by their SHA-256 — re-ingesting a shard
// is an idempotent no-op, and nothing in the store is ever rewritten in
// place. A corpus member keeps the decoded artifact, never mutated; the
// persisted object is the durable copy. Artifacts group into corpora
// keyed by (tool, config hash): the shards of one fleet scan or sharded
// study land in one corpus, and ingest holds an arriving shard to the
// rule results.Merge applies — CompatibleWith (format/build/axis/params
// skew) and results.Disjoint (overlapping job slices or job keys,
// duplicate chip seeds) against every member — so a corpus can always
// merge. After each accepted ingest the corpus's merged view advances
// incrementally: when the accepted shard extends the already-merged
// contiguous prefix, only that shard is folded into a clone of the
// running view (amortized O(1) work per ingest); a full re-merge of
// member clones via results.MergeShards — the exact merge path
// `characterize merge` uses — runs only when ordering demands it. Both
// paths perform the identical left fold in canonical shard order, so
// query renders stay byte-identical to single-process renders (pinned by
// a differential test over randomized arrival orders). The new view is
// sealed (read-only quantile paths) and swapped in atomically, so
// concurrent readers always hold either the old complete view or the new
// one, never a torn intermediate.
//
// Shards may arrive out of order: a shard that is compatible and
// conflict-free but not yet adjacent to the merged prefix is accepted
// as pending and folded in once the gap closes. Generations (one global,
// one per corpus) bump on every accepted ingest; the query layer keys
// its response cache on them for incremental invalidation.
//
// With a directory, accepted objects persist under objects/<sha256>.json
// and Open replays them: objects are decoded on GOMAXPROCS goroutines and
// admitted strictly in hash order, so a parallel replay reaches the same
// state as a serial one. A file's name is its address: replay
// quarantines an object whose canonical bytes hash to anything else, and
// one of another format version, which an earlier build wrote. With an
// empty path the store is purely in-memory (tests, one-shot queries).
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/safari-repro/hbmrh/internal/failpoint"
	"github.com/safari-repro/hbmrh/internal/results"
)

// Ingest error classes, matched with errors.Is. ErrMalformed marks bytes
// that do not decode to a valid, encodable artifact; ErrConflict marks an
// artifact the merge gate refuses against its corpus (provenance or
// structure skew, overlapping job slices or job keys, duplicate chips,
// or a refused merge). Any other ingest error — a failed persist, an
// injected fault — is neither.
var (
	ErrMalformed = errors.New("store: malformed artifact")
	ErrConflict  = errors.New("store: artifact conflicts with its corpus")
)

// classified tags an error with its ingest class while keeping its
// message, so quarantine reasons and HTTP error bodies read unchanged.
type classified struct{ class, err error }

func (e *classified) Error() string   { return e.err.Error() }
func (e *classified) Unwrap() []error { return []error{e.class, e.err} }

func malformed(err error) error { return &classified{ErrMalformed, err} }
func conflict(err error) error  { return &classified{ErrConflict, err} }

// Failpoint sites on the write path: the ingest gate (before any state
// changes, so an injected failure must leave store and generations
// untouched), the object persist (tear-able, so a crash mid-write leaves
// a corrupt objects/*.json for Open's quarantine to absorb), and the
// merge step after a successful persist (a failure there must leave the
// previous sealed view served and the accepted object quarantined, never
// a torn corpus).
var (
	fpStoreIngest = failpoint.Register("store/ingest")
	fpStoreMerge  = failpoint.Register("store/merge")
	fpStoreWrite  = failpoint.Register("store/object/write")
)

// Store is the artifact store. All methods are safe for concurrent use.
type Store struct {
	dir string // "" = in-memory

	mu          sync.RWMutex
	gen         uint64
	corpora     map[string]*corpus
	ordered     []string // corpus IDs, sorted
	quarantined []QuarantinedObject
}

// QuarantinedObject records one object file Open moved aside instead of
// replaying: the store runs degraded (that shard's data is absent until
// re-ingested) but it runs.
type QuarantinedObject struct {
	// File is the object file name (within objects/, now under
	// objects/quarantine/).
	File string
	// Reason is the replay failure that condemned it.
	Reason string
}

// corpus is the shard set of one (tool, config hash) pair.
type corpus struct {
	id      string
	gen     uint64
	members []*member // canonical order: JobFirst
	byHash  map[string]*member

	// merged is the sealed union of the contiguous member prefix
	// [0, mergedCount); nil only while the corpus has no members. It is
	// replaced (never mutated) on ingest — incrementally advanced via a
	// clone, or fully rebuilt — so published pointers stay valid for
	// readers across later ingests.
	merged      *results.Artifact
	mergedCount int
	// mergedBytes is the largest canonical object size among the merged
	// members (Snapshot.ObjectBytes).
	mergedBytes int
}

// member is one accepted shard: its object address, its canonical
// object size in bytes, and the artifact its one decode produced. The
// artifact is shared by every later fold and conflict check and is never
// mutated — folds read it, and anything that writes takes a Clone first.
// The object file is the durable copy.
type member struct {
	hash string
	size int
	art  *results.Artifact
}

// prepared is an artifact made ready for admit without touching store
// state: decoded, re-encoded to its canonical bytes, and hashed. canon
// holds those bytes only when admit is to persist them.
type prepared struct {
	art    *results.Artifact
	canon  []byte
	size   int // len of the canonical bytes, held or not
	hash   string
	corpus string
}

// IngestResult reports what one ingest did.
type IngestResult struct {
	// Corpus is the ID of the corpus the artifact landed in.
	Corpus string
	// Hash is the object address (SHA-256 of the canonical bytes).
	Hash string
	// Duplicate is true when the object was already present; nothing
	// changed and no generation advanced.
	Duplicate bool
	// Gen / StoreGen are the corpus and store generations after the
	// ingest.
	Gen, StoreGen uint64
	// Pending counts accepted members not yet adjacent to the merged
	// prefix; Complete is true when every member is merged.
	Pending  int
	Complete bool
}

// Snapshot is an immutable view of one corpus. Merged is sealed and must
// be treated as read-only; renders (SummaryCSV/SummaryJSON/View) are
// safe from any number of goroutines.
type Snapshot struct {
	Corpus   string
	Gen      uint64
	StoreGen uint64
	Meta     results.Meta
	Merged   *results.Artifact
	// ObjectBytes is the largest canonical object size, in bytes, among
	// the members Merged folds. Merged carries the same groups as each of
	// them plus all their records, so it encodes to about that much and
	// more; it sizes the buffer Merged is encoded into.
	ObjectBytes int
	Members     int
	Pending     int
	Complete    bool
}

// Open opens the store at dir, replaying any persisted objects; dir ""
// opens an empty in-memory store. The directory is created if missing.
//
// An object that cannot be replayed — unreadable, torn by a crash
// mid-write, of another format version, filed under a name that is not
// the hash of its canonical bytes, or conflicting with already-replayed
// members — does not fail the open: it is moved to objects/quarantine/
// and recorded, and replay continues with the rest. One corrupt file
// costs one shard (its data returns on the next ingest of those bytes),
// not the whole store; Quarantined reports the damage and the query
// service surfaces it as a degraded /healthz.
func Open(dir string) (*Store, error) {
	s := &Store{dir: dir, corpora: map[string]*corpus{}}
	if dir == "" {
		return s, nil
	}
	objects := filepath.Join(dir, "objects")
	if err := os.MkdirAll(objects, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	entries, err := os.ReadDir(objects)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	if err := s.replay(objects, names); err != nil {
		return nil, err
	}
	return s, nil
}

// replay reads and prepares the named objects on GOMAXPROCS goroutines
// and admits them strictly in names order (ReadDir's name = hash order):
// deterministic, and admit tolerates any arrival order via the pending
// set. Admission hands out work at most 2×GOMAXPROCS objects ahead of
// itself, which bounds the decoded artifacts held in flight. Each worker
// reads and canonically encodes every object it prepares into its own
// two buffers (a decoded artifact shares no memory with its bytes, and
// the canonical bytes are only hashed), so a replay allocates them once
// per worker, not once per object. Quarantine decisions happen at admit
// time in the same order, so the outcome is exactly that of a serial
// replay. No goroutine outlives the return.
func (s *Store) replay(objects string, names []string) error {
	type outcome struct {
		p   *prepared
		err error
	}
	workers := runtime.GOMAXPROCS(0)
	window := 2 * workers
	done := make([]chan outcome, len(names))
	for i := range done {
		done[i] = make(chan outcome, 1)
	}
	// Sized to the lookahead window, so handing out work never blocks.
	jobs := make(chan int, window)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var b replayBuffers
			for i := range jobs {
				p, err := b.prepareObject(objects, names[i])
				done[i] <- outcome{p, err}
			}
		}()
	}
	defer func() {
		close(jobs)
		for range jobs {
			// An early return discards the lookahead not yet started.
		}
		wg.Wait()
	}()
	next := 0
	for i, name := range names {
		for ; next < len(names) && next < i+window; next++ {
			jobs <- next
		}
		o := <-done[i]
		err := o.err
		if err == nil {
			_, err = s.admit(o.p, false)
		}
		if err != nil {
			if qerr := s.quarantine(objects, name, err); qerr != nil {
				return qerr
			}
		}
	}
	return nil
}

// replayBuffers are one replay worker's read and canonical-encode
// buffers, reused for every object it prepares.
type replayBuffers struct{ data, canon []byte }

// prepareObject reads and prepares one object file. The file name is
// the object's address, so an object whose canonical bytes hash to
// anything else is ErrMalformed: a renamed or mis-copied file must not
// be admitted under an address it does not have.
func (b *replayBuffers) prepareObject(objects, name string) (p *prepared, err error) {
	if b.data, err = readFile(filepath.Join(objects, name), b.data[:0]); err != nil {
		return nil, err
	}
	p, b.canon, err = prepare(b.data, b.canon)
	if err != nil {
		return nil, err
	}
	if want := strings.TrimSuffix(name, ".json"); p.hash != want {
		return nil, malformed(fmt.Errorf("store: object %s has canonical hash %s", want, p.hash))
	}
	return p, nil
}

// readFile appends the contents of the named file to buf, failing as
// os.ReadFile does.
func readFile(name string, buf []byte) ([]byte, error) {
	f, err := os.Open(name)
	if err != nil {
		return buf, err
	}
	defer f.Close()
	// One allocation for the whole file, and room to read the EOF.
	if info, err := f.Stat(); err == nil && int64(int(info.Size())) == info.Size() {
		buf = slices.Grow(buf, int(info.Size())+1)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// quarantine moves one condemned object file into objects/quarantine/
// and records why, so replay can continue past it.
func (s *Store) quarantine(objects, name string, cause error) error {
	qdir := filepath.Join(objects, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("store: quarantining %s: %w", name, err)
	}
	if err := os.Rename(filepath.Join(objects, name), filepath.Join(qdir, name)); err != nil {
		return fmt.Errorf("store: quarantining %s: %w", name, err)
	}
	s.quarantined = append(s.quarantined, QuarantinedObject{File: name, Reason: cause.Error()})
	return nil
}

// Quarantined reports the objects Open moved aside, in replay order. A
// non-empty result means the store is serving a degraded view.
func (s *Store) Quarantined() []QuarantinedObject {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]QuarantinedObject(nil), s.quarantined...)
}

// Dir returns the store's directory ("" for in-memory).
func (s *Store) Dir() string { return s.dir }

// Generation returns the global generation: it advances on every
// accepted ingest into any corpus.
func (s *Store) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// Corpora returns the sorted corpus IDs.
func (s *Store) Corpora() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.ordered...)
}

// CorpusID derives the corpus an artifact with this provenance belongs
// to: "<tool>-<config hash>".
func CorpusID(m *results.Meta) string {
	return m.Tool + "-" + m.ConfigHash
}

// Ingest decodes, conflict-checks and stores one artifact given its
// encoded bytes. Rejections (skewed provenance, overlapping ranges,
// duplicate chips — the results.Merge conflict matrix) return an error
// and leave the store unchanged; re-ingesting identical bytes is an
// idempotent no-op reported via IngestResult.Duplicate. Errors carry
// their class: ErrMalformed, ErrConflict, or neither.
func (s *Store) Ingest(data []byte) (IngestResult, error) {
	// Live ingests only (replay is exempt: an injected replay failure
	// would quarantine a pristine object). Firing before any work is the
	// point — an ingest that fails here must be indistinguishable from one
	// that never arrived.
	if err := fpStoreIngest.Inject(); err != nil {
		return IngestResult{}, err
	}
	// The canonical encoding is about as long as data when data arrives
	// in the file form, as shards and fleet chunks do.
	p, canon, err := prepare(data, make([]byte, 0, len(data)))
	if err != nil {
		return IngestResult{}, err
	}
	if s.dir != "" {
		p.canon = canon
	}
	return s.admit(p, true)
}

// IngestFiles ingests each path (files, globs or directories, expanded
// like `characterize merge` arguments), failing on the first rejection.
func (s *Store) IngestFiles(args ...string) ([]IngestResult, error) {
	paths, err := results.ExpandShardArgs(args)
	if err != nil {
		return nil, err
	}
	out := make([]IngestResult, 0, len(paths))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return out, fmt.Errorf("store: %w", err)
		}
		r, err := s.Ingest(data)
		if err != nil {
			return out, fmt.Errorf("store: ingesting %s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// prepare is everything ingest does before it needs the store: the
// shard's one decode, its canonical encoding and address, and its corpus
// ID. It touches no state, so Open runs it on many objects at once. The
// canonical bytes are written over canon's contents and returned, grown
// as needed, beside the prepared artifact, which does not hold them.
// Failures are ErrMalformed.
func prepare(data, canon []byte) (*prepared, []byte, error) {
	a, err := results.Decode(data)
	if err != nil {
		return nil, canon, malformed(err)
	}
	// Canonicalize: the object's address is the hash of its deterministic
	// encoding, so semantically identical artifacts (whatever whitespace
	// they arrived with) dedup to one object.
	canon, err = a.AppendIndented(canon[:0])
	if err != nil {
		return nil, canon, malformed(err)
	}
	sum := sha256.Sum256(canon)
	return &prepared{art: a, size: len(canon), hash: hex.EncodeToString(sum[:]), corpus: CorpusID(&a.Meta)}, canon, nil
}

// admit runs the locked half of ingest on a prepared artifact: the
// duplicate and conflict gate, the persist (live ingests only), the
// canonical insert and the merged-view refresh.
func (s *Store) admit(p *prepared, persist bool) (IngestResult, error) {
	id, hash := p.corpus, p.hash
	m := &member{hash: hash, size: p.size, art: p.art}

	s.mu.Lock()
	defer s.mu.Unlock()

	c := s.corpora[id]
	if c != nil {
		if _, ok := c.byHash[hash]; ok {
			return IngestResult{
				Corpus: id, Hash: hash, Duplicate: true,
				Gen: c.gen, StoreGen: s.gen,
				Pending:  len(c.members) - c.mergedCount,
				Complete: c.mergedCount == len(c.members),
			}, nil
		}
		if err := c.checkConflicts(m); err != nil {
			return IngestResult{}, conflict(err)
		}
	} else {
		c = &corpus{id: id, byHash: map[string]*member{}}
	}

	// Accept: persist first so a crash between write and index rebuild
	// just replays the object on the next Open. A crash mid-write instead
	// leaves a torn objects/*.json that the next Open quarantines — either
	// way the accepted state is recoverable, which the torture harness
	// pins by tearing this exact write.
	if persist && s.dir != "" {
		path := filepath.Join(s.dir, "objects", hash+".json")
		if err := writeObject(path, p.canon); err != nil {
			return IngestResult{}, fmt.Errorf("store: %w", err)
		}
	}
	c.members = append(c.members, m)
	c.byHash[hash] = m
	sort.SliceStable(c.members, func(i, j int) bool {
		return c.members[i].art.Meta.JobFirst < c.members[j].art.Meta.JobFirst
	})
	if err := c.refresh(m, persist); err != nil {
		// The conflict precheck applies Merge's own rule, and the fold
		// merges only contiguous members, so a merge failure means the
		// rule has a hole (or an injected fault). Degrade rather than
		// risk a torn corpus: drop the member, quarantine the
		// just-persisted object so replay cannot resurrect it unchecked,
		// and keep serving the previous sealed view — exactly the
		// contract Open's quarantine gives a corrupt object file.
		delete(c.byHash, hash)
		for i, mm := range c.members {
			if mm.hash == hash {
				c.members = append(c.members[:i], c.members[i+1:]...)
				break
			}
		}
		if persist {
			if s.dir != "" {
				if qerr := s.quarantine(filepath.Join(s.dir, "objects"), hash+".json", err); qerr != nil {
					return IngestResult{}, fmt.Errorf("store: ingest failed to merge (%v) and to quarantine: %w", err, qerr)
				}
			} else {
				s.quarantined = append(s.quarantined, QuarantinedObject{File: hash + ".json", Reason: err.Error()})
			}
		}
		return IngestResult{}, fmt.Errorf("store: ingest conflicts on merge (precheck gap); previous view still served: %w", err)
	}
	if s.corpora[id] == nil {
		s.corpora[id] = c
		s.ordered = append(s.ordered, id)
		sort.Strings(s.ordered)
	}
	c.gen++
	s.gen++
	return IngestResult{
		Corpus: id, Hash: hash,
		Gen: c.gen, StoreGen: s.gen,
		Pending:  len(c.members) - c.mergedCount,
		Complete: c.mergedCount == len(c.members),
	}, nil
}

// writeObject persists one object file through the tear-able failpoint
// site: the payload, then sync, so what a crash leaves behind is exactly
// the prefix that reached the disk.
func writeObject(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := fpStoreWrite.Write(f, data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkConflicts holds the candidate to the rule results.Merge applies,
// against every member, without mutating anything: CompatibleWith the
// merged view, which every member is compatible with, and
// results.Disjoint from each member. The merged view stands for the
// members it folds, since its job slice, job keys and chips are their
// union, so one call covers the merged prefix and one more per pending
// member covers the rest.
func (c *corpus) checkConflicts(m *member) error {
	if err := c.merged.CompatibleWith(m.art); err != nil {
		return err
	}
	if err := results.Disjoint(c.merged, m.art); err != nil {
		return err
	}
	for _, o := range c.members[c.mergedCount:] {
		if err := results.Disjoint(o.art, m.art); err != nil {
			return err
		}
	}
	return nil
}

// refresh brings the corpus's merged view up to date after m was
// inserted into the member order. The fast path folds forward from the
// published view; when the new member landed inside the already-merged
// prefix, i.e. it sorts below the lowest member merged so far, the fold
// restarts from an empty view instead. Live ingests pass through the
// store/merge failpoint so the degraded error path above is
// torture-testable. A merge the results layer refuses is ErrConflict.
func (c *corpus) refresh(m *member, live bool) error {
	if live {
		if err := fpStoreMerge.Inject(); err != nil {
			return err
		}
	}
	for p, mm := range c.members {
		if mm == m {
			if p >= c.mergedCount {
				return c.advance(c.merged, c.mergedCount)
			}
			break
		}
	}
	return c.advance(nil, 0)
}

// advance folds members[n:] into view, the merge of members[:n], for as
// long as they stay contiguous with the running view, and publishes the
// result. From the published view each shard is merged exactly once over
// the corpus's life — amortized O(1) work per ingest; from (nil, 0) it
// re-derives the view from scratch. Neither the published view nor any
// member is mutated: the first fold into a non-empty view clones it, the
// first fold into an empty one clones the member, the clone absorbs the
// shards and is sealed, and a single pointer swap publishes it — only on
// success, so a refused merge leaves the previous view for its readers.
//
// Byte-identity with results.MergeShards over the contiguous member
// prefix (what `characterize merge` computes) is structural, not
// incidental: MergeShards is a stable sort by JobFirst
// followed by a left fold of results.Merge, c.members is maintained in
// exactly that order, and stats.Stream merges are exact (Shewchuk sums),
// so folding the suffix into the previous fold's result IS the same left
// fold. TestStoreIncrementalMatchesFullRebuild pins this after every
// ingest of randomized arrival orders.
func (c *corpus) advance(view *results.Artifact, n int) error {
	var working *results.Artifact // clone under construction; nil until the first fold
	for ; n < len(c.members); n++ {
		a := c.members[n].art
		if view == nil {
			working = a.Clone()
		} else {
			if a.Meta.JobFirst != view.Meta.JobFirst+view.Meta.JobCount {
				break
			}
			if working == nil {
				working = view.Clone()
			}
			if err := results.Merge(working, a); err != nil {
				return conflict(err)
			}
		}
		view = working
	}
	if working != nil {
		working.Seal()
		c.merged, c.mergedCount = working, n
		c.mergedBytes = 0
		for _, m := range c.members[:n] {
			c.mergedBytes = max(c.mergedBytes, m.size)
		}
	}
	return nil
}

// Snapshot returns an immutable view of one corpus by exact ID.
func (s *Store) Snapshot(id string) (*Snapshot, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.corpora[id]
	if !ok {
		return nil, false
	}
	return s.snapshotLocked(c), true
}

// Resolve returns the corpus matching key: the sole corpus for the empty
// key, an exact ID match, or a unique ID prefix. Ambiguous or unknown
// keys return an error listing the candidates.
func (s *Store) Resolve(key string) (*Snapshot, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.resolveLocked(key)
}

func (s *Store) resolveLocked(key string) (*Snapshot, error) {
	if key == "" {
		if len(s.ordered) == 1 {
			return s.snapshotLocked(s.corpora[s.ordered[0]]), nil
		}
		return nil, fmt.Errorf("store: key required; corpora: %s", strings.Join(s.ordered, ", "))
	}
	if c, ok := s.corpora[key]; ok {
		return s.snapshotLocked(c), nil
	}
	var hits []string
	for _, id := range s.ordered {
		if strings.HasPrefix(id, key) {
			hits = append(hits, id)
		}
	}
	switch len(hits) {
	case 1:
		return s.snapshotLocked(s.corpora[hits[0]]), nil
	case 0:
		return nil, fmt.Errorf("store: no corpus matches %q; corpora: %s", key, strings.Join(s.ordered, ", "))
	default:
		return nil, fmt.Errorf("store: key %q is ambiguous: %s", key, strings.Join(hits, ", "))
	}
}

// ResolveID resolves key to a corpus ID and that corpus's current
// generation without materializing a Snapshot — the query service's hot
// path, which must not allocate on a cache hit. Resolution rules match
// Resolve exactly: sole corpus for the empty key, exact ID, or unique ID
// prefix.
func (s *Store) ResolveID(key string) (id string, gen uint64, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if key == "" {
		if len(s.ordered) == 1 {
			c := s.corpora[s.ordered[0]]
			return c.id, c.gen, nil
		}
		return "", 0, fmt.Errorf("store: key required; corpora: %s", strings.Join(s.ordered, ", "))
	}
	if c, ok := s.corpora[key]; ok {
		return c.id, c.gen, nil
	}
	hit, hits := "", 0
	for _, cid := range s.ordered {
		if strings.HasPrefix(cid, key) {
			hit = cid
			hits++
		}
	}
	if hits == 1 {
		c := s.corpora[hit]
		return c.id, c.gen, nil
	}
	// Ambiguous/unknown: defer to Resolve for the detailed error.
	_, err = s.resolveLocked(key)
	return "", 0, err
}

func (s *Store) snapshotLocked(c *corpus) *Snapshot {
	return &Snapshot{
		Corpus:      c.id,
		Gen:         c.gen,
		StoreGen:    s.gen,
		Meta:        c.merged.Meta,
		Merged:      c.merged,
		ObjectBytes: c.mergedBytes,
		Members:     len(c.members),
		Pending:     len(c.members) - c.mergedCount,
		Complete:    c.mergedCount == len(c.members),
	}
}
