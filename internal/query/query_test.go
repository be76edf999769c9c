package query

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/safari-repro/hbmrh/internal/failpoint"
	"github.com/safari-repro/hbmrh/internal/report"
	"github.com/safari-repro/hbmrh/internal/results"
	"github.com/safari-repro/hbmrh/internal/stats"
	"github.com/safari-repro/hbmrh/internal/store"
)

// shard fabricates a region×channel fleet shard over a seed range, with
// chip records carrying HCfirst and TRR fingerprints: job s is the chip
// of seed s.
func shard(seedFirst uint64, seedCount int) *results.Artifact {
	regions := []string{"first", "middle", "last"}
	const channels = 4
	a := &results.Artifact{
		Meta: results.Meta{
			Format:      results.FormatVersion,
			Tool:        "multichip",
			CodeVersion: "test-build",
			ConfigHash:  "deadbeef",
			GroupBy:     results.ByRegionChannel.String(),
			ShardCount:  1,
			JobAxis:     results.AxisSeed,
			JobFirst:    int(seedFirst),
			JobCount:    seedCount,
			Params:      map[string]string{"rows": "4"},
		},
	}
	for _, r := range regions {
		for ch := 0; ch < channels; ch++ {
			a.Groups = append(a.Groups, results.Group{
				Key: results.Key{Region: r, Channel: ch},
				Metrics: []results.Metric{
					{Name: "wcdp_ber", Stream: stats.NewStream(0, 1)},
					{Name: "wcdp_hc_first", Stream: stats.NewStream(0, 100000)},
				},
			})
		}
	}
	for s := seedFirst; s < seedFirst+uint64(seedCount); s++ {
		rng := rand.New(rand.NewSource(int64(s)))
		for gi := range a.Groups {
			for k := 0; k < 5; k++ {
				a.Groups[gi].Metrics[0].Stream.Add(rng.Float64())
				a.Groups[gi].Metrics[1].Stream.Add(10000 + rng.Float64()*50000)
			}
		}
		a.Chips = append(a.Chips, results.ChipRecord{
			Seed: s, MinHCFirst: 10000 + int(s)*100, TRRPeriod: int(s%3) * 2048,
		})
		a.Meta.JobKeys = append(a.Meta.JobKeys, fmt.Sprintf("seed:%#x", s))
	}
	return a
}

// ingestArtifact ingests a's file form, as ingesting its shard file does.
func ingestArtifact(st *store.Store, a *results.Artifact) (store.IngestResult, error) {
	data, err := a.MarshalIndented()
	if err != nil {
		return store.IngestResult{}, err
	}
	return st.Ingest(data)
}

func newServer(t *testing.T, shards ...*results.Artifact) (*Server, *store.Store) {
	t.Helper()
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range shards {
		if _, err := ingestArtifact(st, a); err != nil {
			t.Fatal(err)
		}
	}
	return New(st), st
}

func get(t *testing.T, h http.Handler, url string) (int, []byte) {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil))
	return w.Code, w.Body.Bytes()
}

func TestQueryByteIdentityWithDirectRenders(t *testing.T) {
	// The acceptance invariant: /v1/summary and /v1/csv for a store built
	// from 4 shards return the same bytes `characterize` renders from the
	// single-process merge of those shards.
	s, _ := newServer(t, shard(0, 2), shard(2, 3), shard(5, 1), shard(6, 2))
	h := s.Handler()
	direct, err := results.MergeShards(
		[]*results.Artifact{shard(0, 2), shard(2, 3), shard(5, 1), shard(6, 2)},
		[]string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	for _, gb := range []results.GroupBy{results.ByRegion, results.ByChannel, results.ByRegionChannel} {
		wantJSON, err := direct.SummaryJSON(gb)
		if err != nil {
			t.Fatal(err)
		}
		code, gotJSON := get(t, h, "/v1/summary?group-by="+gb.String())
		if code != http.StatusOK {
			t.Fatalf("%v: summary status %d: %s", gb, code, gotJSON)
		}
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Errorf("%v: /v1/summary differs from characterize render", gb)
		}

		headers, rows, err := direct.SummaryCSV(gb)
		if err != nil {
			t.Fatal(err)
		}
		var wantCSV bytes.Buffer
		if err := report.WriteCSV(&wantCSV, headers, rows); err != nil {
			t.Fatal(err)
		}
		code, gotCSV := get(t, h, "/v1/csv?group-by="+gb.String())
		if code != http.StatusOK {
			t.Fatalf("%v: csv status %d: %s", gb, code, gotCSV)
		}
		if !bytes.Equal(wantCSV.Bytes(), gotCSV) {
			t.Errorf("%v: /v1/csv differs from characterize render", gb)
		}
	}
	// The artifact endpoint returns the canonical merged artifact file.
	wantArt, err := direct.MarshalIndented()
	if err != nil {
		t.Fatal(err)
	}
	if code, gotArt := get(t, h, "/v1/artifact"); code != http.StatusOK || !bytes.Equal(wantArt, gotArt) {
		t.Errorf("/v1/artifact status %d, bytes equal %v", code, bytes.Equal(wantArt, gotArt))
	}
}

func TestQueryEndpoints(t *testing.T) {
	s, _ := newServer(t, shard(0, 4))
	h := s.Handler()

	code, body := get(t, h, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d %q", code, body)
	}
	var health struct {
		Status      string `json:"status"`
		Corpora     int    `json:"corpora"`
		Quarantined int    `json:"quarantined"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Corpora != 1 || health.Quarantined != 0 {
		t.Fatalf("healthz: %+v, want ok with 1 corpus and nothing quarantined", health)
	}

	code, body = get(t, h, "/v1/keys")
	if code != http.StatusOK {
		t.Fatalf("keys: %d %s", code, body)
	}
	var keys struct {
		StoreGen uint64 `json:"store_generation"`
		Corpora  []struct {
			Corpus   string `json:"corpus"`
			Jobs     int    `json:"jobs"`
			Chips    int    `json:"chips"`
			Complete bool   `json:"complete"`
		} `json:"corpora"`
	}
	if err := json.Unmarshal(body, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys.Corpora) != 1 || keys.Corpora[0].Corpus != "multichip-deadbeef" ||
		keys.Corpora[0].Jobs != 4 || keys.Corpora[0].Chips != 4 || !keys.Corpora[0].Complete {
		t.Fatalf("keys: %+v", keys)
	}

	code, body = get(t, h, "/v1/distributions?metric=wcdp_ber&group-by=channel&points=5")
	if code != http.StatusOK {
		t.Fatalf("distributions: %d %s", code, body)
	}
	var dist struct {
		Metric string `json:"metric"`
		Groups []struct {
			Channel   *int `json:"channel"`
			N         int  `json:"n"`
			Quantiles []struct{ Q, V float64 }
		} `json:"groups"`
	}
	if err := json.Unmarshal(body, &dist); err != nil {
		t.Fatal(err)
	}
	if len(dist.Groups) != 4 || len(dist.Groups[0].Quantiles) != 5 {
		t.Fatalf("distributions: %d groups, %d points", len(dist.Groups), len(dist.Groups[0].Quantiles))
	}
	if code, body = get(t, h, "/v1/distributions?metric=nope"); code != http.StatusBadRequest {
		t.Fatalf("unknown metric: %d %s", code, body)
	}

	code, body = get(t, h, "/v1/safety")
	if code != http.StatusOK {
		t.Fatalf("safety: %d %s", code, body)
	}
	var safety struct {
		Channels []struct {
			Channel        int `json:"channel"`
			MinHCFirst     int `json:"min_hc_first"`
			GuardThreshold int `json:"guard_threshold"`
		} `json:"channels"`
		MinHCFirst    int `json:"min_hc_first"`
		UniformGuardT int `json:"uniform_guard_threshold"`
	}
	if err := json.Unmarshal(body, &safety); err != nil {
		t.Fatal(err)
	}
	if len(safety.Channels) != 4 {
		t.Fatalf("safety channels: %+v", safety)
	}
	for _, c := range safety.Channels {
		if c.GuardThreshold != c.MinHCFirst/2 {
			t.Fatalf("channel %d: threshold %d for HCfirst %d (want SafetyFromHCFirst)",
				c.Channel, c.GuardThreshold, c.MinHCFirst)
		}
		if c.MinHCFirst < safety.MinHCFirst {
			t.Fatalf("global min %d above channel %d's %d", safety.MinHCFirst, c.Channel, c.MinHCFirst)
		}
	}

	code, body = get(t, h, "/v1/trr")
	if code != http.StatusOK {
		t.Fatalf("trr: %d %s", code, body)
	}
	var trr struct {
		Chips   []struct{ Seed, TRRPeriod int }
		Periods []struct{ Period, Chips int }
	}
	if err := json.Unmarshal(body, &trr); err != nil {
		t.Fatal(err)
	}
	if len(trr.Chips) != 4 {
		t.Fatalf("trr chips: %+v", trr)
	}
	total := 0
	for _, p := range trr.Periods {
		total += p.Chips
	}
	if total != 4 {
		t.Fatalf("trr period counts sum to %d", total)
	}

	if code, _ = get(t, h, "/v1/render?group-by=channel"); code != http.StatusOK {
		t.Fatalf("render: %d", code)
	}
	if code, _ = get(t, h, "/v1/summary?key=nope"); code != http.StatusNotFound {
		t.Fatalf("unknown key: %d", code)
	}
	if code, _ = get(t, h, "/v1/summary?group-by=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad axis: %d", code)
	}
}

// TestQueryHealthzDegraded opens a store whose directory holds one
// corrupt object: /healthz must stay HTTP 200 (the service is up and
// serving what survived) but report "degraded" with the quarantine
// details, so probes and dashboards see the damage.
func TestQueryHealthzDegraded(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ingestArtifact(st, shard(0, 2)); err != nil {
		t.Fatal(err)
	}
	objects, err := filepath.Glob(filepath.Join(dir, "objects", "*.json"))
	if err != nil || len(objects) != 1 {
		t.Fatalf("objects: %v (err %v), want 1", objects, err)
	}
	if err := os.WriteFile(objects[0], []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err = store.Open(dir); err != nil {
		t.Fatal(err)
	}
	h := New(st).Handler()

	code, body := get(t, h, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("degraded healthz must stay 200, got %d %q", code, body)
	}
	var health struct {
		Status           string   `json:"status"`
		Quarantined      int      `json:"quarantined"`
		QuarantinedFiles []string `json:"quarantined_files"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || health.Quarantined != 1 {
		t.Fatalf("healthz: %+v, want degraded with 1 quarantined", health)
	}
	if len(health.QuarantinedFiles) != 1 || health.QuarantinedFiles[0] != filepath.Base(objects[0]) {
		t.Fatalf("quarantined_files %v, want the torn object's name", health.QuarantinedFiles)
	}
}

func TestQueryCacheHitsAndInvalidation(t *testing.T) {
	s, st := newServer(t, shard(0, 2))
	h := s.Handler()

	_, first := get(t, h, "/v1/summary?group-by=channel")
	if stats := s.Stats(); stats.Misses != 1 || stats.Hits != 0 {
		t.Fatalf("after first read: %+v", stats)
	}
	// Same query, different parameter spelling/order: one cache entry.
	_, second := get(t, h, "/v1/summary?group-by=channel")
	if !bytes.Equal(first, second) {
		t.Fatal("cached read returned different bytes")
	}
	if stats := s.Stats(); stats.Hits != 1 || stats.Misses != 1 {
		t.Fatalf("after cached read: %+v", stats)
	}

	// Ingest bumps the generation: next read misses and re-renders over
	// the extended corpus.
	if _, err := ingestArtifact(st, shard(2, 2)); err != nil {
		t.Fatal(err)
	}
	_, third := get(t, h, "/v1/summary?group-by=channel")
	if bytes.Equal(first, third) {
		t.Fatal("read after ingest served stale bytes")
	}
	if stats := s.Stats(); stats.Misses != 2 {
		t.Fatalf("after invalidation: %+v", stats)
	}
	want, err := results.MergeShards(
		[]*results.Artifact{shard(0, 2), shard(2, 2)}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := want.SummaryJSON(results.ByChannel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, third) {
		t.Fatal("post-ingest render differs from direct merge of both shards")
	}
}

func TestQueryIngestEndpoint(t *testing.T) {
	s, _ := newServer(t, shard(0, 2))
	h := s.Handler()

	post := func(a *results.Artifact) (int, []byte) {
		buf, err := a.MarshalIndented()
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(buf)))
		return w.Code, w.Body.Bytes()
	}
	code, body := post(shard(2, 2))
	if code != http.StatusOK {
		t.Fatalf("ingest: %d %s", code, body)
	}
	var res struct {
		Duplicate bool   `json:"duplicate"`
		Gen       uint64 `json:"generation"`
		Complete  bool   `json:"complete"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Duplicate || !res.Complete || res.Gen != 2 {
		t.Fatalf("ingest result: %+v", res)
	}
	// Conflicting shard (seed overlap) is refused with 409.
	if code, body = post(shard(1, 2)); code != http.StatusConflict {
		t.Fatalf("conflicting ingest: %d %s", code, body)
	}
	// A body that is not an artifact is refused with 400.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(`{"meta": garbage`)))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("garbage ingest: %d %s", w.Code, w.Body.Bytes())
	}
	// Re-posting the same shard is an idempotent duplicate.
	code, body = post(shard(2, 2))
	if code != http.StatusOK {
		t.Fatalf("duplicate ingest: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Duplicate {
		t.Fatal("re-posted shard not reported as duplicate")
	}
}

// TestQueryIngestContentLength posts one shard under a Content-Length
// that is honest, short, long or absent. Each ingests: the bytes that
// arrive are the body. The header only sizes the buffer: an honest one
// reads into a single allocation, and a lying one reserves no more than
// ingestPrealloc beyond what growth with the received bytes would.
func TestQueryIngestContentLength(t *testing.T) {
	buf, err := shard(0, 2).MarshalIndented()
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(buf))
	for _, tc := range []struct {
		name     string
		declared int64
	}{{"honest", n}, {"short", n / 2}, {"long", 1 << 40}, {"absent", -1}} {
		s, _ := newServer(t)
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(buf))
		req.ContentLength = tc.declared
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("%s Content-Length: ingest %d %s", tc.name, w.Code, w.Body.Bytes())
		}
		data, err := readIngestBody(bytes.NewReader(buf), tc.declared, MaxIngestBytes)
		if err != nil || !bytes.Equal(data, buf) {
			t.Fatalf("%s Content-Length: read %d of %d bytes, err %v", tc.name, len(data), n, err)
		}
		if c := cap(data); c > max(2*len(buf), ingestPrealloc)+bytes.MinRead {
			t.Errorf("%s Content-Length: %d-byte buffer for a %d-byte body", tc.name, c, n)
		}
		if tc.declared == n && cap(data) != len(buf)+bytes.MinRead {
			t.Errorf("honest Content-Length: buffer grew to %d for a %d-byte body", cap(data), n)
		}
	}
	// Over the limit, limit+1 bytes come back whatever the header says,
	// which the handler answers with 413.
	for _, declared := range []int64{-1, 10, 100, 1 << 40} {
		data, err := readIngestBody(bytes.NewReader(buf), declared, 100)
		if err != nil || len(data) != 101 || !bytes.Equal(data, buf[:101]) {
			t.Errorf("Content-Length %d over a 100-byte limit: read %d bytes, err %v", declared, len(data), err)
		}
	}
}

// TestQueryIngestPersistFailureIs503 pins the transient ingest error
// class: a well-formed, conflict-free shard whose object write fails, or
// whose POST meets an injected fault, is the server's fault, not the
// client's — 503, and a retry succeeds.
func TestQueryIngestPersistFailureIs503(t *testing.T) {
	for _, spec := range []string{"store/object/write=error@1", "query/ingest=error@1"} {
		t.Run(spec[:strings.IndexByte(spec, '=')], func(t *testing.T) {
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			h := New(st).Handler()
			buf, err := shard(0, 2).MarshalIndented()
			if err != nil {
				t.Fatal(err)
			}
			post := func() *httptest.ResponseRecorder {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(buf)))
				return w
			}
			if err := failpoint.Arm(spec); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(failpoint.Reset)
			if w := post(); w.Code != http.StatusServiceUnavailable {
				t.Fatalf("ingest under %s: %d %s", spec, w.Code, w.Body.Bytes())
			}
			if w := post(); w.Code != http.StatusOK {
				t.Fatalf("retry after %s: %d %s", spec, w.Code, w.Body.Bytes())
			}
		})
	}
}

// TestQueryConcurrentReadsAndIngest drives many readers against the full
// endpoint catalog while shards stream in concurrently. Run under
// -race (the repo's test target does), this is the no-torn-views proof:
// every response must equal the direct render of SOME contiguous shard
// prefix — never a mix of two generations.
func TestQueryConcurrentReadsAndIngest(t *testing.T) {
	// Pre-render the channel-view JSON for every reachable shard prefix;
	// any response must match one of them exactly.
	valid := map[string]int{}
	fresh := func(i int) *results.Artifact {
		switch i {
		case 0:
			return shard(0, 2)
		case 1:
			return shard(2, 3)
		case 2:
			return shard(5, 1)
		default:
			return shard(6, 2)
		}
	}
	for n := 1; n <= 4; n++ {
		arts := make([]*results.Artifact, n)
		paths := make([]string, n)
		for i := 0; i < n; i++ {
			arts[i], paths[i] = fresh(i), fmt.Sprint(i)
		}
		m, err := results.MergeShards(arts, paths)
		if err != nil {
			t.Fatal(err)
		}
		js, err := m.SummaryJSON(results.ByChannel)
		if err != nil {
			t.Fatal(err)
		}
		valid[string(js)] = n
	}

	s, st := newServer(t, fresh(0))
	h := s.Handler()

	var wg sync.WaitGroup
	start := make(chan struct{})
	errc := make(chan error, 64)

	// Writers: ingest the remaining shards concurrently with the readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 1; i < 4; i++ {
			if _, err := ingestArtifact(st, fresh(i)); err != nil {
				errc <- err
				return
			}
		}
	}()

	paths := []string{
		"/v1/summary?group-by=channel",
		"/v1/csv?group-by=region",
		"/v1/distributions?metric=wcdp_ber&group-by=channel",
		"/v1/safety",
		"/v1/trr",
		"/v1/keys",
		"/v1/artifact",
	}
	const readers = 16
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			for i := 0; i < 40; i++ {
				url := paths[(r+i)%len(paths)]
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil))
				if w.Code != http.StatusOK {
					errc <- fmt.Errorf("%s: status %d: %s", url, w.Code, w.Body.String())
					return
				}
				if url == "/v1/summary?group-by=channel" {
					if _, ok := valid[w.Body.String()]; !ok {
						errc <- fmt.Errorf("torn view: summary matches no shard prefix")
						return
					}
				}
			}
		}(r)
	}
	close(start)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Settled state: the final render equals the full 4-shard merge.
	_, body := get(t, h, "/v1/summary?group-by=channel")
	if n := valid[string(body)]; n != 4 {
		t.Fatalf("settled summary covers %d shards, want 4", n)
	}
}

// TestQueryHotCacheConcurrency hammers one cached endpoint from 1k
// concurrent readers (the acceptance load) and checks single-flight
// collapsed the renders: at most a handful of misses, identical bytes
// everywhere.
func TestQueryHotCacheConcurrency(t *testing.T) {
	s, _ := newServer(t, shard(0, 2), shard(2, 2))
	h := s.Handler()
	_, want := get(t, h, "/v1/summary?group-by=channel")

	const readers = 1000
	var wg sync.WaitGroup
	start := make(chan struct{})
	bad := make(chan string, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/summary?group-by=channel", nil))
			if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want) {
				bad <- fmt.Sprintf("status %d, len %d", w.Code, w.Body.Len())
			}
		}()
	}
	close(start)
	wg.Wait()
	close(bad)
	for msg := range bad {
		t.Error(msg)
	}
	if stats := s.Stats(); stats.Misses != 1 || stats.Hits != readers {
		t.Fatalf("cache stats after %d hot reads: %+v", readers, stats)
	}
}

// TestQueryETagConditional pins the response-variant contract: strong
// ETags stable across identical reads, If-None-Match revalidation via
// 304 with no body, and a new ETag once an ingest changes the corpus.
func TestQueryETagConditional(t *testing.T) {
	s, st := newServer(t, shard(0, 2))
	h := s.Handler()

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/summary?group-by=channel", nil))
	etag := w.Header().Get("ETag")
	if w.Code != http.StatusOK || len(etag) < 4 || !strings.HasPrefix(etag, `"`) || !strings.HasSuffix(etag, `"`) {
		t.Fatalf("first read: status %d, ETag %q (want a quoted strong ETag)", w.Code, etag)
	}
	if got := w.Header().Get("Content-Length"); got != strconv.Itoa(w.Body.Len()) {
		t.Fatalf("Content-Length %q for a %d-byte body", got, w.Body.Len())
	}
	if got := w.Header().Get("Vary"); got != "Accept-Encoding" {
		t.Fatalf("Vary %q, want Accept-Encoding", got)
	}
	body := append([]byte(nil), w.Body.Bytes()...)

	// Identical read: identical ETag (content-hash, not per-response).
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/summary?group-by=channel", nil))
	if got := w.Header().Get("ETag"); got != etag {
		t.Fatalf("ETag changed across identical reads: %q then %q", etag, got)
	}

	// Revalidation: matching If-None-Match gets 304 with no body and no
	// Content-Length, but keeps the ETag (and cache provenance headers).
	for _, inm := range []string{etag, "*", `W/"stale", ` + etag} {
		req := httptest.NewRequest(http.MethodGet, "/v1/summary?group-by=channel", nil)
		req.Header.Set("If-None-Match", inm)
		w = httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusNotModified || w.Body.Len() != 0 {
			t.Fatalf("If-None-Match %q: status %d, %d body bytes, want 304 with none", inm, w.Code, w.Body.Len())
		}
		if got := w.Header().Get("ETag"); got != etag {
			t.Fatalf("304 carries ETag %q, want %q", got, etag)
		}
		if got := w.Header().Get("Content-Length"); got != "" {
			t.Fatalf("304 carries Content-Length %q", got)
		}
	}

	// A stale validator gets the full body.
	req := httptest.NewRequest(http.MethodGet, "/v1/summary?group-by=channel", nil)
	req.Header.Set("If-None-Match", `"0000"`)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), body) {
		t.Fatalf("stale validator: status %d, bytes equal %v", w.Code, bytes.Equal(w.Body.Bytes(), body))
	}

	// Ingest: the same validator must now miss and see fresh bytes.
	if _, err := ingestArtifact(st, shard(2, 2)); err != nil {
		t.Fatal(err)
	}
	req = httptest.NewRequest(http.MethodGet, "/v1/summary?group-by=channel", nil)
	req.Header.Set("If-None-Match", etag)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK || w.Header().Get("ETag") == etag {
		t.Fatalf("post-ingest conditional read: status %d, ETag %q (want fresh 200)", w.Code, w.Header().Get("ETag"))
	}
}

// TestQueryGzipVariant pins the pre-compressed encoding: a gzip-accepting
// client gets the pre-sealed gzip bytes (correct Content-Encoding and
// Content-Length) that decompress to exactly the identity body.
func TestQueryGzipVariant(t *testing.T) {
	s, _ := newServer(t, shard(0, 4))
	h := s.Handler()
	for _, path := range []string{"/v1/summary?group-by=channel", "/v1/csv", "/v1/keys"} {
		_, identity := get(t, h, path)

		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.Header.Set("Accept-Encoding", "gzip, br")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK || w.Header().Get("Content-Encoding") != "gzip" {
			t.Fatalf("%s: status %d, Content-Encoding %q", path, w.Code, w.Header().Get("Content-Encoding"))
		}
		if got := w.Header().Get("Content-Length"); got != strconv.Itoa(w.Body.Len()) {
			t.Fatalf("%s: gzip Content-Length %q for %d bytes", path, got, w.Body.Len())
		}
		zr, err := gzip.NewReader(bytes.NewReader(w.Body.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		plain, err := io.ReadAll(zr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plain, identity) {
			t.Fatalf("%s: gzip body decompresses to different bytes", path)
		}

		// The two encodings share one ETag (content hash of the identity
		// body): a conditional gzip request revalidates against it.
		req = httptest.NewRequest(http.MethodGet, path, nil)
		req.Header.Set("Accept-Encoding", "gzip")
		req.Header.Set("If-None-Match", w.Header().Get("ETag"))
		w = httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusNotModified {
			t.Fatalf("%s: conditional gzip read: %d", path, w.Code)
		}
	}
}

// TestQueryKeysCached pins satellite coverage for /v1/keys: it must ride
// the same generation-keyed cache + single-flight as the corpus
// endpoints (one marshal per store generation, not per poll) and
// invalidate on any ingest.
func TestQueryKeysCached(t *testing.T) {
	s, st := newServer(t, shard(0, 2))
	h := s.Handler()

	_, first := get(t, h, "/v1/keys")
	if cs := s.Stats(); cs.Misses != 1 || cs.Hits != 0 {
		t.Fatalf("after first keys read: %+v", cs)
	}
	_, second := get(t, h, "/v1/keys")
	if !bytes.Equal(first, second) {
		t.Fatal("cached keys read returned different bytes")
	}
	if cs := s.Stats(); cs.Misses != 1 || cs.Hits != 1 {
		t.Fatalf("after cached keys read: %+v", cs)
	}

	// Polling dashboards: concurrent keys reads collapse to the cache.
	const readers = 100
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/keys", nil))
		}()
	}
	wg.Wait()
	if cs := s.Stats(); cs.Misses != 1 || cs.Hits != 1+readers {
		t.Fatalf("after %d concurrent keys reads: %+v", readers, cs)
	}

	// Any ingest (store-wide generation) invalidates the listing.
	if _, err := ingestArtifact(st, shard(2, 2)); err != nil {
		t.Fatal(err)
	}
	_, third := get(t, h, "/v1/keys")
	if bytes.Equal(first, third) {
		t.Fatal("keys read after ingest served the stale listing")
	}
	if cs := s.Stats(); cs.Misses != 2 {
		t.Fatalf("after invalidation: %+v", cs)
	}
}

// nullResponseWriter is a reusable ResponseWriter for alloc and
// throughput measurements: the header map persists across requests
// (reset between them), writes are counted and dropped.
type nullResponseWriter struct {
	h      http.Header
	status int
	n      int
}

func newNullResponseWriter() *nullResponseWriter {
	return &nullResponseWriter{h: make(http.Header, 16)}
}

func (w *nullResponseWriter) Header() http.Header { return w.h }

func (w *nullResponseWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

func (w *nullResponseWriter) WriteHeader(code int) { w.status = code }

func (w *nullResponseWriter) reset() {
	for k := range w.h {
		delete(w.h, k)
	}
	w.status, w.n = 0, 0
}

// TestVariantGzipMatchesFreshWriter pins that the pooled gzip writers
// change no byte: each cache fill's gzip body equals what a fresh
// gzip.NewWriter writes for the same identity body, over fills of
// different sizes in a row, so later fills reuse writers earlier ones
// left in the pool.
func TestVariantGzipMatchesFreshWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	large := make([]byte, 200<<10)
	for i := range large {
		large[i] = "0123456789,\n"[rng.Intn(12)]
	}
	for round := 0; round < 2; round++ {
		for _, body := range [][]byte{large, nil, []byte("ok\n"), large[:70<<10]} {
			var want bytes.Buffer
			zw := gzip.NewWriter(&want)
			zw.Write(body)
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
			if v := newVariant("c", 1, body, "text/plain"); !bytes.Equal(v.gzbody, want.Bytes()) {
				t.Fatalf("round %d, %d-byte body: pooled gzip body differs from a fresh writer's", round, len(body))
			}
		}
	}
}

// TestQueryHotPathAllocs pins the serving data plane's hot path at ≤2
// allocs per cache hit (identity, gzip and 304 alike) — the budget
// ISSUE 10 sets for line-rate serving. Uses testing.AllocsPerRun like
// the core harness's steady-state pin, so it holds under -race too.
func TestQueryHotPathAllocs(t *testing.T) {
	s, _ := newServer(t, shard(0, 2), shard(2, 2))
	h := s.Handler()

	warm := httptest.NewRecorder()
	h.ServeHTTP(warm, httptest.NewRequest(http.MethodGet, "/v1/summary?group-by=channel", nil))
	if warm.Code != http.StatusOK {
		t.Fatalf("warmup: %d", warm.Code)
	}
	etag := warm.Header().Get("ETag")

	identity := httptest.NewRequest(http.MethodGet, "/v1/summary?group-by=channel", nil)
	gzipReq := httptest.NewRequest(http.MethodGet, "/v1/summary?group-by=channel", nil)
	gzipReq.Header.Set("Accept-Encoding", "gzip")
	conditional := httptest.NewRequest(http.MethodGet, "/v1/summary?group-by=channel", nil)
	conditional.Header.Set("If-None-Match", etag)

	for _, tc := range []struct {
		name   string
		req    *http.Request
		status int
	}{
		{"identity", identity, http.StatusOK},
		{"gzip", gzipReq, http.StatusOK},
		{"conditional", conditional, http.StatusNotModified},
	} {
		w := newNullResponseWriter()
		probe := func() {
			w.reset()
			h.ServeHTTP(w, tc.req)
		}
		probe() // warm the pool and the header map
		if tc.status == http.StatusOK && (w.status != 0 || w.n == 0) {
			t.Fatalf("%s probe: status %d, %d bytes", tc.name, w.status, w.n)
		}
		if tc.status == http.StatusNotModified && (w.status != http.StatusNotModified || w.n != 0) {
			t.Fatalf("%s probe: status %d, %d bytes, want a bodyless 304", tc.name, w.status, w.n)
		}
		if allocs := testing.AllocsPerRun(100, probe); allocs > 2 {
			t.Errorf("%s cache hit: %.1f allocs/op, budget is 2", tc.name, allocs)
		}
	}
}

// TestQueryReadersDuringIncrementalIngest extends the torn-view proof to
// the incremental merge path (ISSUE 10 satellite): readers hammer
// /v1/summary — plain and conditional — while shards arrive OUT OF
// ORDER, so the store exercises pending acceptance, the incremental
// advance AND the gap-closing multi-shard fold mid-flight. Every 200
// body must be the render of a publishable contiguous prefix (1, 3 or 4
// shards — 2 is never publishable because shard 2 arrives before shard
// 1), and every 304 must confirm exactly the validator the reader sent.
func TestQueryReadersDuringIncrementalIngest(t *testing.T) {
	fresh := func(i int) *results.Artifact {
		switch i {
		case 0:
			return shard(0, 2)
		case 1:
			return shard(2, 3)
		case 2:
			return shard(5, 1)
		default:
			return shard(6, 2)
		}
	}
	valid := map[string]int{}
	for _, n := range []int{1, 3, 4} {
		arts := make([]*results.Artifact, n)
		paths := make([]string, n)
		for i := 0; i < n; i++ {
			arts[i], paths[i] = fresh(i), fmt.Sprint(i)
		}
		m, err := results.MergeShards(arts, paths)
		if err != nil {
			t.Fatal(err)
		}
		js, err := m.SummaryJSON(results.ByChannel)
		if err != nil {
			t.Fatal(err)
		}
		valid[string(js)] = n
	}

	s, st := newServer(t, fresh(0))
	h := s.Handler()

	var wg sync.WaitGroup
	start := make(chan struct{})
	errc := make(chan error, 64)

	// Writer: shard 2 lands before shard 1 (pending), then the gap closes
	// (advance folds two members at once), then shard 3 extends the view.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for _, i := range []int{2, 1, 3} {
			if _, err := ingestArtifact(st, fresh(i)); err != nil {
				errc <- err
				return
			}
		}
	}()

	const readers = 16
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			lastETag := ""
			for i := 0; i < 50; i++ {
				req := httptest.NewRequest(http.MethodGet, "/v1/summary?group-by=channel", nil)
				if lastETag != "" && i%2 == 1 {
					req.Header.Set("If-None-Match", lastETag)
				}
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				switch w.Code {
				case http.StatusOK:
					if _, ok := valid[w.Body.String()]; !ok {
						errc <- fmt.Errorf("torn view: summary matches no publishable shard prefix")
						return
					}
					lastETag = w.Header().Get("ETag")
				case http.StatusNotModified:
					if w.Body.Len() != 0 || w.Header().Get("ETag") != lastETag {
						errc <- fmt.Errorf("304 with body or foreign ETag (%q vs %q)", w.Header().Get("ETag"), lastETag)
						return
					}
				default:
					errc <- fmt.Errorf("status %d: %s", w.Code, w.Body.String())
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	_, body := get(t, h, "/v1/summary?group-by=channel")
	if n := valid[string(body)]; n != 4 {
		t.Fatalf("settled summary covers %d shards, want 4", n)
	}
}

// Single-flight under a cold cache: concurrent identical misses must
// collapse to one render.
func TestQuerySingleFlight(t *testing.T) {
	s, _ := newServer(t, shard(0, 4))
	h := s.Handler()
	const n = 64
	var wg sync.WaitGroup
	start := make(chan struct{})
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/distributions?metric=wcdp_hc_first", nil))
			bodies[i] = w.Body.Bytes()
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("reader %d saw different bytes", i)
		}
	}
	if stats := s.Stats(); stats.Misses != 1 {
		t.Fatalf("%d concurrent cold reads caused %d renders, want 1", n, stats.Misses)
	}
}

// A full bucket must evict a finished entry whenever one exists, even
// when the map hands it an in-flight one first: with room for two, one
// render parked and one finished, a third key must leave two entries.
// Map order is random, so the trials cover both iteration orders.
func TestQueryCacheBucketBoundWithInFlightRender(t *testing.T) {
	s, _ := newServer(t)
	s.maxPer = 2
	serve := func(key string, render func() ([]byte, string, error)) {
		s.cacheServe(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil),
			"bucket", 1, "", key, render)
	}
	done := func() ([]byte, string, error) { return []byte("ok"), "text/plain", nil }
	for trial := 0; trial < 32; trial++ {
		s.mu.Lock()
		delete(s.buckets, "bucket")
		s.mu.Unlock()
		started, release, finished := make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() {
			defer close(finished)
			serve("parked", func() ([]byte, string, error) {
				close(started)
				<-release
				return done()
			})
		}()
		<-started
		serve("finished", done)
		serve("third", done)
		s.mu.Lock()
		n := len(s.buckets["bucket"].entries)
		s.mu.Unlock()
		close(release)
		<-finished
		if n > s.maxPer {
			t.Fatalf("trial %d: bucket holds %d entries, bound is %d", trial, n, s.maxPer)
		}
	}
}

// FuzzCacheKey is the differential check between the two cache-key
// builders: for any raw query that passes the fast-path gate (no
// %-escapes, '+' or ';'), keyScratch.build must produce the same key
// bytes as cacheKey over net/url's parse of the same query, and the same
// corpus key as its Get("key"). Seeds follow the serve mix's endpoints
// and parameters.
func FuzzCacheKey(f *testing.F) {
	for _, seed := range [][2]string{
		{"/v1/summary", ""},
		{"/v1/csv", ""},
		{"/v1/distributions", "metric=wcdp_ber"},
		{"/v1/safety", "key=abc"},
		{"/v1/render", "group-by=region&key=abc"},
		{"/v1/artifact", "key=abc&group-by=channel"},
		{"/v1/keys", "b=2&a=1&b=1&a"},
		{"/v1/summary", "&&key=&key=x&=v&k=="},
	} {
		f.Add(seed[0], seed[1])
	}
	var ks keyScratch
	f.Fuzz(func(t *testing.T, path, raw string) {
		if strings.ContainsAny(raw, "%+;") {
			return
		}
		params, _ := url.ParseQuery(raw) // what the slow path's URL.Query sees
		corpusKey := ks.build(path, raw)
		if want := cacheKey(path, params); string(ks.key) != want {
			t.Fatalf("build(%q, %q) key %q, cacheKey %q", path, raw, ks.key, want)
		}
		if want := params.Get("key"); corpusKey != want {
			t.Fatalf("build(%q, %q) corpus key %q, Get(\"key\") %q", path, raw, corpusKey, want)
		}
	})
}
