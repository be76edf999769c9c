// Package query is the read side of the artifact store: an HTTP/JSON
// service exposing merged fleet results — distribution summaries,
// per-channel BER/HCfirst quantiles, TRR fingerprints and safe guard
// thresholds — with responses rendered by exactly the code paths the
// CLI uses, so a query against a store built from N fleet shards returns
// byte-identical CSV/JSON to a single-process `characterize` run.
//
// Responses are cached per (corpus, corpus generation, endpoint,
// canonical parameters). An ingest bumps the corpus generation, which
// retires that corpus's cache bucket on the next read while other
// corpora keep serving their cached bytes — invalidation is incremental,
// not global. Concurrent misses on one key collapse to a single render
// (hand-rolled single-flight): the first request renders while the rest
// wait on its result, so a burst of identical queries costs one
// derivation. Store snapshots are immutable and sealed, which is what
// makes the render paths safe to run from any number of goroutines.
//
// Cache entries are sealed response variants (DESIGN.md §14): the
// identity body, its gzip encoding and a strong ETag (SHA-256 content
// hash) are materialized once at render time, along with every header
// value the hit path needs. A cache hit therefore does no per-request
// work beyond routing: the canonical cache key is assembled in pooled
// scratch (no url.Values), the corpus resolves without materializing a
// snapshot, conditional requests (If-None-Match) return 304 without
// touching the body, and Accept-Encoding: gzip is served from the
// pre-compressed bytes — ≤2 allocs per hit, pinned by
// TestQueryHotPathAllocs and exercised at volume by the benchmark's
// serve workloads (bench/README.md).
package query

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/safari-repro/hbmrh/internal/defense"
	"github.com/safari-repro/hbmrh/internal/failpoint"
	"github.com/safari-repro/hbmrh/internal/report"
	"github.com/safari-repro/hbmrh/internal/results"
	"github.com/safari-repro/hbmrh/internal/store"
)

// Failpoint sites on the serving path: render (a failed render must
// return 500 without poisoning the cache — the next request re-renders
// and succeeds) and ingest (a failed POST must leave store and cache
// generations untouched).
var (
	fpQueryRender = failpoint.Register("query/render")
	fpQueryIngest = failpoint.Register("query/ingest")
)

// MaxIngestBytes bounds a POST /v1/ingest body.
const MaxIngestBytes = 256 << 20

// DefaultCacheEntries bounds one corpus generation's cache bucket.
const DefaultCacheEntries = 256

// keysBucket is the cache-bucket ID of the store-wide /v1/keys listing.
// Corpus IDs are "<tool>-<config hash>", so a NUL-prefixed name can never
// collide with one.
const keysBucket = "\x00keys"

// Server serves query endpoints over one Store. Create with New; all
// methods are safe for concurrent use.
type Server struct {
	st *store.Store

	mu      sync.Mutex
	buckets map[string]*bucket // corpus ID (or keysBucket) -> current-generation bucket
	hits    uint64
	misses  uint64
	maxPer  int

	scratch sync.Pool // *keyScratch, reused across hot-path requests
}

// bucket caches rendered responses for one corpus at one generation.
type bucket struct {
	gen     uint64
	entries map[string]*entry
}

// entry is a single-flight render slot: done closes when v/err are final.
type entry struct {
	done chan struct{}
	v    *variant
	err  error
}

// variant is a sealed, immutable response: the identity and gzip bodies
// rendered and compressed once at cache-fill time, with every header
// value — the strong ETag (quoted SHA-256 of the identity body), the
// content lengths, type and corpus provenance — pre-materialized as the
// []string values http.Header stores, so serving a cache hit assigns
// slices into the header map instead of allocating through Header.Set.
type variant struct {
	body   []byte
	gzbody []byte
	etag   string // quoted, also etagHdr[0]

	ctype    []string
	etagHdr  []string
	length   []string
	gzlength []string
	corpus   []string // nil for store-wide responses (/v1/keys)
	gen      []string
}

// Shared immutable header values; never mutated after init.
var (
	varyHeader = []string{"Accept-Encoding"}
	gzipHeader = []string{"gzip"}
)

// gzipWriters recycles the compressors of cache fills: a gzip writer
// holds several hundred kilobytes of deflate state, which a fresh one per
// fill allocated every time. Reset makes a pooled writer write exactly
// the bytes a new one would; it also clears that state, so a fill resets
// its writer once, onto its own buffer.
var gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}

// newVariant seals one rendered body into its served form.
func newVariant(corpus string, gen uint64, body []byte, ctype string) *variant {
	sum := sha256.Sum256(body)
	etag := `"` + hex.EncodeToString(sum[:]) + `"`
	var zbuf bytes.Buffer
	zw := gzipWriters.Get().(*gzip.Writer)
	zw.Reset(&zbuf)
	zw.Write(body) // writes to a bytes.Buffer cannot fail
	zw.Close()
	gzipWriters.Put(zw)
	v := &variant{
		body:     body,
		gzbody:   zbuf.Bytes(),
		etag:     etag,
		ctype:    []string{ctype},
		etagHdr:  []string{etag},
		length:   []string{strconv.Itoa(len(body))},
		gzlength: []string{strconv.Itoa(zbuf.Len())},
		gen:      []string{strconv.FormatUint(gen, 10)},
	}
	if corpus != "" {
		v.corpus = []string{corpus}
	}
	return v
}

// serve writes the variant: 304 when If-None-Match revalidates the ETag
// (RFC 7232 weak comparison — a substring scan suffices because ETags
// here are opaque fixed-length quoted hashes), the pre-compressed bytes
// when the client accepts gzip, the identity bytes otherwise. Header
// keys are written in their canonical spelling so the direct map
// assignments and client-side Header.Get agree.
func (v *variant) serve(w http.ResponseWriter, r *http.Request) {
	h := w.Header()
	h["Vary"] = varyHeader
	h["Etag"] = v.etagHdr
	if v.corpus != nil {
		h["X-Corpus"] = v.corpus
	}
	h["X-Generation"] = v.gen
	if inm := r.Header.Get("If-None-Match"); inm != "" &&
		(inm == "*" || strings.Contains(inm, v.etag)) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h["Content-Type"] = v.ctype
	if strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
		h["Content-Encoding"] = gzipHeader
		h["Content-Length"] = v.gzlength
		w.Write(v.gzbody)
		return
	}
	h["Content-Length"] = v.length
	w.Write(v.body)
}

// CacheStats reports cache effectiveness (for tests and benchmarks).
type CacheStats struct{ Hits, Misses uint64 }

// New returns a Server over st.
func New(st *store.Store) *Server {
	s := &Server{st: st, buckets: map[string]*bucket{}, maxPer: DefaultCacheEntries}
	s.scratch.New = func() any { return &keyScratch{} }
	return s
}

// Stats returns the cache hit/miss counters.
func (s *Server) Stats() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return CacheStats{Hits: s.hits, Misses: s.misses}
}

// Handler returns the HTTP handler serving the endpoint catalog
// (DESIGN.md §11): /healthz, /v1/keys, /v1/summary, /v1/csv,
// /v1/render, /v1/artifact, /v1/distributions, /v1/safety, /v1/trr and
// POST /v1/ingest.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.healthz)
	mux.HandleFunc("/v1/keys", s.keys)
	mux.HandleFunc("/v1/ingest", s.ingest)
	for path, render := range map[string]renderFunc{
		"/v1/summary":       renderSummary,
		"/v1/csv":           renderCSV,
		"/v1/render":        renderText,
		"/v1/artifact":      renderArtifact,
		"/v1/distributions": renderDistributions,
		"/v1/safety":        renderSafety,
		"/v1/trr":           renderTRR,
	} {
		mux.HandleFunc(path, s.cached(path, render))
	}
	return mux
}

// renderFunc renders one endpoint's body from an immutable snapshot. A
// returned *httpError sets the status; any other error is a 500.
type renderFunc func(snap *store.Snapshot, params url.Values) (body []byte, ctype string, err error)

type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// writeError maps a render error to its HTTP status (500 unless the
// render returned an *httpError).
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var he *httpError
	if errors.As(err, &he) {
		status = he.status
	}
	http.Error(w, err.Error(), status)
}

// cached wraps a renderFunc with corpus resolution, the generation-keyed
// variant cache and single-flight render dedup. The hit path is built to
// not allocate: the canonical cache key is assembled into pooled scratch
// straight from the raw query (no url.Values), the key bytes index the
// entry map directly (the compiler elides the string conversion in a map
// lookup), and the sealed variant serves itself. Only a miss — or a raw
// query needing full URL decoding — takes the allocating slow path.
func (s *Server) cached(path string, render renderFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		raw := r.URL.RawQuery
		var (
			ks        *keyScratch
			params    url.Values
			corpusKey string
		)
		// %-escapes, '+' and ';' need net/url's decoding; everything the
		// endpoints' parameter grammar produces stays on the fast path, and
		// both paths canonicalize to identical keys.
		fast := !strings.ContainsAny(raw, "%+;")
		if fast {
			ks = s.scratch.Get().(*keyScratch)
			corpusKey = ks.build(path, raw)
		} else {
			params = r.URL.Query()
			corpusKey = params.Get("key")
		}
		id, gen, err := s.st.ResolveID(corpusKey)
		if err != nil {
			if ks != nil {
				s.scratch.Put(ks)
			}
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		if err := fpQueryRender.Inject(); err != nil {
			if ks != nil {
				s.scratch.Put(ks)
			}
			writeError(w, err)
			return
		}
		if fast {
			s.mu.Lock()
			if b := s.buckets[id]; b != nil && b.gen == gen {
				if e, ok := b.entries[string(ks.key)]; ok {
					s.hits++
					s.mu.Unlock()
					s.scratch.Put(ks)
					<-e.done
					if e.err != nil {
						writeError(w, e.err)
						return
					}
					e.v.serve(w, r)
					return
				}
			}
			s.mu.Unlock()
		}
		// Miss (or escaped query): materialize the key string and params,
		// snapshot the corpus, and go through the single-flight fill.
		var key string
		if fast {
			key = string(ks.key)
			s.scratch.Put(ks)
			params = r.URL.Query()
		} else {
			key = cacheKey(path, params)
		}
		snap, ok := s.st.Snapshot(id)
		if !ok { // resolved above; only a concurrent store wipe could race
			http.Error(w, "corpus not found", http.StatusNotFound)
			return
		}
		s.cacheServe(w, r, id, snap.Gen, snap.Corpus, key, func() ([]byte, string, error) {
			return render(snap, params)
		})
	}
}

// cacheServe serves one request from bucket bucketID at generation gen
// under key; on a miss the leader renders while concurrent requests for
// the same key wait on its entry, and the sealed variant is cached.
// corpus is the X-Corpus header value ("" omits it).
func (s *Server) cacheServe(w http.ResponseWriter, r *http.Request, bucketID string, gen uint64, corpus, key string, render func() ([]byte, string, error)) {
	s.mu.Lock()
	b := s.buckets[bucketID]
	if b == nil || b.gen < gen {
		// First read at this generation: retire the stale bucket (the
		// incremental invalidation — only this bucket's entries go).
		b = &bucket{gen: gen, entries: map[string]*entry{}}
		s.buckets[bucketID] = b
	}
	if b.gen > gen {
		// Our snapshot lost a race with an ingest; render this one
		// uncached rather than poisoning the newer bucket.
		s.misses++
		s.mu.Unlock()
		body, ctype, err := render()
		if err != nil {
			writeError(w, err)
			return
		}
		newVariant(corpus, gen, body, ctype).serve(w, r)
		return
	}
	if e, ok := b.entries[key]; ok {
		s.hits++
		s.mu.Unlock()
		<-e.done
		if e.err != nil {
			writeError(w, e.err)
			return
		}
		e.v.serve(w, r)
		return
	}
	s.misses++
	// Evict completed entries until there is room; in-flight ones have
	// waiters and stay. Only a bucket of in-flight renders can outgrow
	// maxPer.
	for k, e := range b.entries {
		if len(b.entries) < s.maxPer {
			break
		}
		select {
		case <-e.done:
			delete(b.entries, k)
		default:
		}
	}
	e := &entry{done: make(chan struct{})}
	b.entries[key] = e
	s.mu.Unlock()

	body, ctype, err := render()
	if err == nil {
		e.v = newVariant(corpus, gen, body, ctype)
	}
	e.err = err
	close(e.done)
	if err != nil {
		// Failed renders are not worth caching; let a later request retry.
		s.mu.Lock()
		if cur := s.buckets[bucketID]; cur != nil && cur.entries[key] == e {
			delete(cur.entries, key)
		}
		s.mu.Unlock()
		writeError(w, err)
		return
	}
	e.v.serve(w, r)
}

// qpair is one decoded query parameter; on the fast path both strings
// are substrings of the raw query, so parsing allocates nothing.
type qpair struct{ k, v string }

// keyScratch is pooled per-request scratch for canonical cache keys.
type keyScratch struct {
	pairs []qpair
	key   []byte
}

// build assembles the canonical cache key — path, then each k=v pair
// NUL-prefixed in stable key-sorted order, byte-identical to cacheKey's
// output for the same decoded parameters — into ks.key, and returns the
// corpus `key` parameter's first value. Callers guarantee rawQuery
// contains no %-escapes, '+' or ';' (the fast-path gate), so substrings
// of it ARE the decoded values.
func (ks *keyScratch) build(path, rawQuery string) (corpusKey string) {
	ks.pairs = ks.pairs[:0]
	sawCorpus := false
	for raw := rawQuery; raw != ""; {
		var seg string
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			seg, raw = raw[:i], raw[i+1:]
		} else {
			seg, raw = raw, ""
		}
		if seg == "" {
			continue
		}
		p := qpair{k: seg}
		if i := strings.IndexByte(seg, '='); i >= 0 {
			p.k, p.v = seg[:i], seg[i+1:]
		}
		ks.pairs = append(ks.pairs, p)
		if p.k == "key" && !sawCorpus {
			corpusKey, sawCorpus = p.v, true
		}
	}
	// Insertion sort, stable in k (url.Values preserves the arrival order
	// of a repeated key's values, and so must the canonical form).
	for i := 1; i < len(ks.pairs); i++ {
		for j := i; j > 0 && ks.pairs[j].k < ks.pairs[j-1].k; j-- {
			ks.pairs[j], ks.pairs[j-1] = ks.pairs[j-1], ks.pairs[j]
		}
	}
	ks.key = append(ks.key[:0], path...)
	for _, p := range ks.pairs {
		ks.key = append(ks.key, 0)
		ks.key = append(ks.key, p.k...)
		ks.key = append(ks.key, '=')
		ks.key = append(ks.key, p.v...)
	}
	return corpusKey
}

// cacheKey canonicalizes the endpoint and its parameters: sorted keys,
// so equivalent URLs share one entry. The corpus and generation live in
// the bucket, not the key. This is the slow-path twin of
// keyScratch.build; the two must produce identical keys for equivalent
// requests.
func cacheKey(path string, params url.Values) string {
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString(path)
	for _, k := range keys {
		for _, v := range params[k] {
			sb.WriteByte(0)
			sb.WriteString(k)
			sb.WriteByte('=')
			sb.WriteString(v)
		}
	}
	return sb.String()
}

// groupByParam parses the group-by parameter, defaulting to the
// snapshot's stored axis.
func groupByParam(snap *store.Snapshot, params url.Values) (results.GroupBy, error) {
	v := params.Get("group-by")
	if v == "" {
		v = snap.Meta.GroupBy
	}
	gb, err := results.ParseGroupBy(v)
	if err != nil {
		return 0, badRequest("%v", err)
	}
	return gb, nil
}

// --- endpoint renders ------------------------------------------------

// healthz reports liveness plus the store's degradation state: "ok"
// with a healthy store, "degraded" (still HTTP 200 — the service is up
// and serving what it has) when Open quarantined objects, with the
// quarantined files listed so an operator knows which shards to
// re-ingest.
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	q := s.st.Quarantined()
	status := "ok"
	files := make([]string, 0, len(q))
	for _, o := range q {
		files = append(files, o.File)
	}
	if len(q) > 0 {
		status = "degraded"
	}
	writeJSON(w, struct {
		Status      string   `json:"status"`
		Corpora     int      `json:"corpora"`
		StoreGen    uint64   `json:"store_generation"`
		Quarantined int      `json:"quarantined"`
		Files       []string `json:"quarantined_files,omitempty"`
	}{status, len(s.st.Corpora()), s.st.Generation(), len(q), files})
}

// keys lists the store's corpora with their snapshot state. It serves
// through the same variant cache and single-flight as the corpus
// endpoints, keyed on the store-wide generation (any ingest anywhere
// changes the listing), so a keys-polling dashboard revalidates by ETag
// instead of becoming a per-request marshal loop.
func (s *Server) keys(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	s.cacheServe(w, r, keysBucket, s.st.Generation(), "", "/v1/keys", func() ([]byte, string, error) {
		return renderKeys(s.st)
	})
}

// renderKeys marshals the corpus listing (the /v1/keys body).
func renderKeys(st *store.Store) ([]byte, string, error) {
	type corpusJSON struct {
		Corpus   string `json:"corpus"`
		Gen      uint64 `json:"generation"`
		Tool     string `json:"tool"`
		GroupBy  string `json:"group_by"`
		Seeds    int    `json:"seed_count"`
		Chips    int    `json:"chips"`
		Members  int    `json:"members"`
		Pending  int    `json:"pending"`
		Complete bool   `json:"complete"`
	}
	out := struct {
		StoreGen uint64       `json:"store_generation"`
		Corpora  []corpusJSON `json:"corpora"`
	}{Corpora: []corpusJSON{}}
	for _, id := range st.Corpora() {
		snap, ok := st.Snapshot(id)
		if !ok {
			continue
		}
		out.StoreGen = snap.StoreGen
		out.Corpora = append(out.Corpora, corpusJSON{
			Corpus: snap.Corpus, Gen: snap.Gen,
			Tool: snap.Meta.Tool, GroupBy: snap.Meta.GroupBy,
			Seeds: snap.Meta.SeedCount, Chips: len(snap.Merged.Chips),
			Members: snap.Members, Pending: snap.Pending, Complete: snap.Complete,
		})
	}
	return marshalJSON(out)
}

// ingest accepts one artifact per POST body and feeds it to the store;
// the generation bump implicitly retires the corpus's cache bucket. A
// rejection answers by class: 400 for a malformed body, 409 for a
// conflict with the corpus, 413 for a body over MaxIngestBytes, 503 for
// anything transient (a failed persist, an injected fault).
func (s *Server) ingest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if err := fpQueryIngest.Inject(); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, MaxIngestBytes+1))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(data) > MaxIngestBytes {
		http.Error(w, "artifact exceeds ingest size limit", http.StatusRequestEntityTooLarge)
		return
	}
	res, err := s.st.Ingest(data)
	if err != nil {
		status := http.StatusServiceUnavailable // persist failures, injected faults
		switch {
		case errors.Is(err, store.ErrMalformed):
			status = http.StatusBadRequest
		case errors.Is(err, store.ErrConflict):
			status = http.StatusConflict
		}
		http.Error(w, err.Error(), status)
		return
	}
	writeJSON(w, struct {
		Corpus    string `json:"corpus"`
		Hash      string `json:"hash"`
		Duplicate bool   `json:"duplicate"`
		Gen       uint64 `json:"generation"`
		StoreGen  uint64 `json:"store_generation"`
		Pending   int    `json:"pending"`
		Complete  bool   `json:"complete"`
	}{res.Corpus, res.Hash, res.Duplicate, res.Gen, res.StoreGen, res.Pending, res.Complete})
}

// renderSummary is the JSON export: byte-identical to `characterize`'s
// -json output for the same merged artifact and axis.
func renderSummary(snap *store.Snapshot, params url.Values) ([]byte, string, error) {
	gb, err := groupByParam(snap, params)
	if err != nil {
		return nil, "", err
	}
	body, err := snap.Merged.SummaryJSON(gb)
	if err != nil {
		return nil, "", badRequest("%v", err)
	}
	return body, "application/json", nil
}

// renderCSV is the CSV export: byte-identical to `characterize`'s -csv
// output (same SummaryCSV rows through the same report.WriteCSV).
func renderCSV(snap *store.Snapshot, params url.Values) ([]byte, string, error) {
	gb, err := groupByParam(snap, params)
	if err != nil {
		return nil, "", err
	}
	headers, rows, err := snap.Merged.SummaryCSV(gb)
	if err != nil {
		return nil, "", badRequest("%v", err)
	}
	var buf bytes.Buffer
	if err := report.WriteCSV(&buf, headers, rows); err != nil {
		return nil, "", err
	}
	return buf.Bytes(), "text/csv; charset=utf-8", nil
}

// renderText is the fleet-report text render of the distributions.
func renderText(snap *store.Snapshot, params url.Values) ([]byte, string, error) {
	gb, err := groupByParam(snap, params)
	if err != nil {
		return nil, "", err
	}
	groups, err := snap.Merged.View(gb)
	if err != nil {
		return nil, "", badRequest("%v", err)
	}
	text := results.RenderGroups(groups, func(name string) string { return name }, nil)
	return []byte(text), "text/plain; charset=utf-8", nil
}

// renderArtifact returns the merged artifact file itself — accumulator
// state, not summaries — so a client can merge further or re-host it.
// It encodes into a buffer presized from the members' object bytes,
// with a quarter on top for the records and sample counts the other
// members add (a 32-shard one-seed multichip corpus encodes to 1.14
// times its largest member), so the encoder does not grow it from empty.
func renderArtifact(snap *store.Snapshot, params url.Values) ([]byte, string, error) {
	body, err := snap.Merged.AppendIndented(make([]byte, 0, snap.ObjectBytes+snap.ObjectBytes/4))
	if err != nil {
		return nil, "", err
	}
	return body, "application/json", nil
}

// renderDistributions returns quantile curves per group for one metric:
// the HTTP form of the paper's per-channel BER/HCfirst distribution
// figures. `points` samples the quantile function evenly in [0,1];
// quantile_tolerance carries the sketch resolution (0 = exact).
func renderDistributions(snap *store.Snapshot, params url.Values) ([]byte, string, error) {
	metric := params.Get("metric")
	if metric == "" {
		return nil, "", badRequest("query: metric parameter required (e.g. wcdp_ber)")
	}
	gb, err := groupByParam(snap, params)
	if err != nil {
		return nil, "", err
	}
	points := 9
	if v := params.Get("points"); v != "" {
		points, err = strconv.Atoi(v)
		if err != nil || points < 2 || points > 4096 {
			return nil, "", badRequest("query: points must be an integer in [2, 4096]")
		}
	}
	groups, err := snap.Merged.View(gb)
	if err != nil {
		return nil, "", badRequest("%v", err)
	}
	type qpoint struct {
		Q float64 `json:"q"`
		V float64 `json:"v"`
	}
	type distJSON struct {
		Region            string   `json:"region,omitempty"`
		Channel           *int     `json:"channel,omitempty"`
		Point             string   `json:"point,omitempty"`
		N                 int      `json:"n"`
		Mean              float64  `json:"mean"`
		QuantileTolerance float64  `json:"quantile_tolerance,omitempty"`
		Quantiles         []qpoint `json:"quantiles"`
	}
	out := struct {
		Metric string     `json:"metric"`
		Groups []distJSON `json:"groups"`
	}{Metric: metric, Groups: []distJSON{}}
	found := false
	for _, g := range groups {
		for _, m := range g.Metrics {
			if m.Name != metric {
				continue
			}
			found = true
			if m.Stream.N() == 0 {
				continue
			}
			d := distJSON{
				Region: g.Key.Region, Point: g.Key.Point,
				N: m.Stream.N(), Mean: m.Stream.Mean(),
				QuantileTolerance: m.Stream.QuantileTolerance(),
			}
			if g.Key.Channel != results.NoChannel {
				ch := g.Key.Channel
				d.Channel = &ch
			}
			for i := 0; i < points; i++ {
				q := float64(i) / float64(points-1)
				d.Quantiles = append(d.Quantiles, qpoint{Q: q, V: m.Stream.Quantile(q)})
			}
			out.Groups = append(out.Groups, d)
		}
	}
	if !found {
		return nil, "", badRequest("query: metric %q not in this corpus", metric)
	}
	return marshalJSON(out)
}

// renderSafety maps each channel's measured minimum HCfirst to the guard
// threshold defense.SafetyFromHCFirst derives — the lookup a memory
// controller configuring the adaptive policy performs.
func renderSafety(snap *store.Snapshot, params url.Values) ([]byte, string, error) {
	metric := params.Get("metric")
	if metric == "" {
		metric = "wcdp_hc_first"
	}
	groups, err := snap.Merged.View(results.ByChannel)
	if err != nil {
		return nil, "", badRequest("query: safety needs a channel view: %v", err)
	}
	type chanJSON struct {
		Channel        int `json:"channel"`
		N              int `json:"n"`
		MinHCFirst     int `json:"min_hc_first"`
		GuardThreshold int `json:"guard_threshold"`
	}
	out := struct {
		Metric        string     `json:"metric"`
		Channels      []chanJSON `json:"channels"`
		MinHCFirst    int        `json:"min_hc_first"`
		UniformGuardT int        `json:"uniform_guard_threshold"`
		ChipsMinHC    int        `json:"chips_min_hc_first,omitempty"`
		ChipsObserved int        `json:"chips,omitempty"`
	}{Metric: metric, Channels: []chanJSON{}}
	globalMin := 0
	for _, g := range groups {
		for _, m := range g.Metrics {
			if m.Name != metric || m.Stream.N() == 0 {
				continue
			}
			minHC := int(m.Stream.Min())
			out.Channels = append(out.Channels, chanJSON{
				Channel: g.Key.Channel, N: m.Stream.N(),
				MinHCFirst: minHC, GuardThreshold: defense.SafetyFromHCFirst(minHC),
			})
			if globalMin == 0 || minHC < globalMin {
				globalMin = minHC
			}
		}
	}
	if len(out.Channels) == 0 {
		return nil, "", badRequest("query: no %q samples in this corpus", metric)
	}
	out.MinHCFirst = globalMin
	out.UniformGuardT = defense.SafetyFromHCFirst(globalMin)
	for _, c := range snap.Merged.Chips {
		if c.MinHCFirst > 0 && (out.ChipsMinHC == 0 || c.MinHCFirst < out.ChipsMinHC) {
			out.ChipsMinHC = c.MinHCFirst
		}
	}
	out.ChipsObserved = len(snap.Merged.Chips)
	return marshalJSON(out)
}

// renderTRR reports the per-chip TRR fingerprints (the uncovered
// mitigation periods) and their population counts.
func renderTRR(snap *store.Snapshot, params url.Values) ([]byte, string, error) {
	type chipJSON struct {
		Seed      uint64 `json:"seed"`
		TRRPeriod int    `json:"trr_period"`
	}
	type periodJSON struct {
		Period int `json:"period"`
		Chips  int `json:"chips"`
	}
	out := struct {
		Chips   []chipJSON   `json:"chips"`
		Periods []periodJSON `json:"periods"`
	}{Chips: []chipJSON{}, Periods: []periodJSON{}}
	counts := map[int]int{}
	for _, c := range snap.Merged.Chips {
		out.Chips = append(out.Chips, chipJSON{Seed: c.Seed, TRRPeriod: c.TRRPeriod})
		counts[c.TRRPeriod]++
	}
	sort.Slice(out.Chips, func(i, j int) bool { return out.Chips[i].Seed < out.Chips[j].Seed })
	periods := make([]int, 0, len(counts))
	for p := range counts {
		periods = append(periods, p)
	}
	sort.Ints(periods)
	for _, p := range periods {
		out.Periods = append(out.Periods, periodJSON{Period: p, Chips: counts[p]})
	}
	return marshalJSON(out)
}

func marshalJSON(v any) ([]byte, string, error) {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, "", err
	}
	return append(buf, '\n'), "application/json", nil
}

func writeJSON(w http.ResponseWriter, v any) {
	body, ctype, err := marshalJSON(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", ctype)
	w.Write(body)
}
