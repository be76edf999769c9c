package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/safari-repro/hbmrh/internal/query"
	"github.com/safari-repro/hbmrh/internal/store"
)

// spinWindow is how close to a scheduled send the pacer stops sleeping
// and spin-yields: time.Sleep overshoots by up to a millisecond, which
// would swamp a microsecond-scale data plane.
const spinWindow = 2 * time.Millisecond

// mix64 is splitmix64's finalizer: request i's endpoint and variant are a
// pure function of (seed, i).
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func frac24(h uint64) float64 { return float64(h&0xffffff) / float64(1<<24) }

// respWriter is a reusable ResponseWriter that counts body bytes and
// drops them.
type respWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *respWriter) Header() http.Header         { return w.h }
func (w *respWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }
func (w *respWriter) WriteHeader(code int)        { w.status = code }

func (w *respWriter) reset() {
	clear(w.h)
	w.status, w.n = http.StatusOK, 0
}

// loadClient issues the read mix from one goroutine and checks every
// response's protocol.
type loadClient struct {
	h     http.Handler
	seed  uint64
	w     respWriter
	plain []*http.Request
	gz    []*http.Request
	etag  []string
	// srv, when set, attributes cache misses to requests; only a client
	// that is the server's sole reader may set it.
	srv *query.Server

	all, late hist
	byEP      [7]hist
	byVariant [3]hist
	coldMs    []float64
	attempted int
	failed    int
	failures  []string
}

func newLoadClient(h http.Handler, seed uint64, etags []string) *loadClient {
	lc := &loadClient{h: h, seed: seed, w: respWriter{h: make(http.Header, 16)}, etag: append([]string(nil), etags...)}
	for _, ep := range queryEndpoints {
		lc.plain = append(lc.plain, httptest.NewRequest(http.MethodGet, ep.path, nil))
		g := httptest.NewRequest(http.MethodGet, ep.path, nil)
		g.Header.Set("Accept-Encoding", "gzip")
		lc.gz = append(lc.gz, g)
	}
	return lc
}

func (lc *loadClient) fail(format string, a ...any) {
	lc.failed++
	if len(lc.failures) < 10 {
		lc.failures = append(lc.failures, fmt.Sprintf(format, a...))
	}
}

// do issues request i of the mix and records its latency from sched.
func (lc *loadClient) do(i uint64, sched time.Time) {
	d := mix64(lc.seed ^ i)
	ep := int(d % uint64(len(queryEndpoints)))
	wantGzip := frac24(d>>8) < gzipFraction
	req := lc.plain[ep]
	if wantGzip {
		req = lc.gz[ep]
	}
	conditional := frac24(d>>32) < condFraction && lc.etag[ep] != ""
	if conditional {
		req.Header.Set("If-None-Match", lc.etag[ep])
	}
	var misses uint64
	if lc.srv != nil {
		misses = lc.srv.Stats().Misses
	}
	lc.w.reset()
	lc.h.ServeHTTP(&lc.w, req)
	lat := time.Since(sched).Nanoseconds()
	if conditional {
		req.Header.Del("If-None-Match")
	}
	if lc.srv != nil && lc.srv.Stats().Misses != misses {
		lc.coldMs = append(lc.coldMs, float64(lat)/1e6)
	}
	lc.attempted++
	lc.all.record(lat)
	lc.byEP[ep].record(lat)
	name := queryEndpoints[ep].name
	switch lc.w.status {
	case http.StatusNotModified:
		lc.byVariant[2].record(lat)
		if !conditional || lc.w.n != 0 {
			lc.fail("%s: 304 with %d body bytes (conditional=%v)", name, lc.w.n, conditional)
		}
	case http.StatusOK:
		gz := lc.w.h.Get("Content-Encoding") == "gzip"
		if gz {
			lc.byVariant[1].record(lat)
		} else {
			lc.byVariant[0].record(lat)
		}
		if gz != wantGzip || lc.w.n == 0 {
			lc.fail("%s: gzip=%v for Accept-Encoding gzip=%v, %d body bytes", name, gz, wantGzip, lc.w.n)
		}
		if et := lc.w.h.Get("ETag"); et != "" {
			lc.etag[ep] = et
		} else {
			lc.fail("%s: 200 without an ETag", name)
		}
	default:
		lc.fail("%s: status %d", name, lc.w.status)
	}
}

// openLoop sends n requests, indexes first.., on a fixed schedule at rps
// and times each from when it was due, so a stall also charges the
// requests queued behind it. before, if set, runs ahead of each
// request's pacing with its due time.
func (lc *loadClient) openLoop(first uint64, n int, rps float64, before func(due time.Time)) {
	interval := time.Duration(float64(time.Second) / rps)
	t0 := time.Now()
	for k := 0; k < n; k++ {
		sched := t0.Add(time.Duration(k) * interval)
		if before != nil {
			before(sched)
		}
		if wait := time.Until(sched); wait > spinWindow {
			time.Sleep(wait - spinWindow)
		}
		for time.Now().Before(sched) {
			runtime.Gosched()
		}
		lc.late.record(time.Since(sched).Nanoseconds())
		lc.do(first+uint64(k), sched)
	}
}

// report folds the client's accounting into the run result; with
// latencies set, its histograms become the serve and query latency
// metrics.
func (c *child) report(lc *loadClient, latencies bool) {
	c.res.Attempted += lc.attempted
	c.res.Failed += lc.failed
	for _, f := range lc.failures {
		if len(c.res.Failures) < 20 {
			c.res.Failures = append(c.res.Failures, f)
		}
	}
	if !latencies {
		return
	}
	c.res.ReadTail = lc.all.tail()
	us := func(ns float64) float64 { return ns / 1e3 }
	c.res.Layer["serve.lat_p50_us"] = us(lc.all.quantile(0.5))
	c.res.Layer["serve.lat_p99_us"] = us(lc.all.quantile(0.99))
	c.res.Layer["bench.lat_p999_us"] = us(lc.all.quantile(0.999))
	c.res.Layer["bench.gen_late_p99_us"] = us(lc.late.quantile(0.99))
	for i, ep := range queryEndpoints {
		c.res.Layer["query."+ep.name+".p50_us"] = us(lc.byEP[i].quantile(0.5))
		c.res.Layer["query."+ep.name+".p99_us"] = us(lc.byEP[i].quantile(0.99))
	}
	for i, v := range responseVariants {
		c.res.Layer["query."+v+".p50_us"] = us(lc.byVariant[i].quantile(0.5))
	}
}

// warm serves every endpoint once per variant — identity, gzip and a
// conditional revalidation — checking each against the others, and
// returns the ETags. The summary must hash to expect. Latencies of cache
// misses are appended to cold.
func (c *child) warm(h http.Handler, srv *query.Server, expect string, cold *[]float64) []string {
	span := c.tr.open("bench.warm", 0)
	defer c.tr.close(span)
	get := func(ep int, hdr, val string) *httptest.ResponseRecorder {
		rs := c.tr.open("query."+queryEndpoints[ep].name, span)
		req := httptest.NewRequest(http.MethodGet, queryEndpoints[ep].path, nil)
		if hdr != "" {
			req.Header.Set(hdr, val)
		}
		misses := srv.Stats().Misses
		t := time.Now()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		ms := float64(time.Since(t).Nanoseconds()) / 1e6
		c.tr.close(rs)
		if srv.Stats().Misses != misses {
			*cold = append(*cold, ms)
		}
		c.res.Attempted++
		return rec
	}
	etags := make([]string, len(queryEndpoints))
	for i, ep := range queryEndpoints {
		plain := get(i, "", "")
		body := plain.Body.Bytes()
		etags[i] = plain.Header().Get("ETag")
		if plain.Code != http.StatusOK || etags[i] == "" || len(body) == 0 {
			c.fail("warm %s: status %d, etag %q, %d bytes", ep.name, plain.Code, etags[i], len(body))
			continue
		}
		if ep.name == "summary" && sha256Hex(body) != expect {
			c.fail("warm summary: body does not match the merge of the store's shards")
		}
		gz := get(i, "Accept-Encoding", "gzip")
		if dec, err := gunzip(gz.Body.Bytes()); gz.Code != http.StatusOK || gz.Header().Get("Content-Encoding") != "gzip" || err != nil || !bytes.Equal(dec, body) {
			c.fail("warm %s: gzip variant (status %d) does not decode to the identity body", ep.name, gz.Code)
		}
		nm := get(i, "If-None-Match", etags[i])
		if nm.Code != http.StatusNotModified || nm.Body.Len() != 0 {
			c.fail("warm %s: revalidation gave status %d with %d body bytes", ep.name, nm.Code, nm.Body.Len())
		}
	}
	return etags
}

func gunzip(b []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr)
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkSummary compares the store's final /v1/summary with the expected
// merge render.
func (c *child) checkSummary(h http.Handler, expect string) {
	span := c.tr.open("bench.check", 0)
	defer c.tr.close(span)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/summary", nil))
	c.res.Attempted++
	if rec.Code != http.StatusOK || sha256Hex(rec.Body.Bytes()) != expect {
		c.fail("final /v1/summary (status %d) differs from results.MergeShards over every shard", rec.Code)
	}
}

func (c *child) queryStats(srv *query.Server, base query.CacheStats, cold []float64) {
	s := srv.Stats()
	hits, misses := float64(s.Hits-base.Hits), float64(s.Misses-base.Misses)
	c.res.Layer["query.hits"] = hits
	c.res.Layer["query.misses"] = misses
	if hits+misses > 0 {
		c.res.Layer["query.hit_ratio"] = hits / (hits + misses)
	}
	c.res.Layer["query.cold_render_ms"] = median(cold)
}

// serveRead opens the readShards-shard store, warms every variant, drives the
// read mix open-loop on one goroutine, then closed-loop on nproc.
func (c *child) serveRead() error {
	so := c.tr.open("store.open", 0)
	st, err := store.Open(filepath.Join(c.inputs, "store-read"))
	c.tr.close(so)
	if err != nil {
		return err
	}
	srv := query.New(st)
	h := srv.Handler()
	var cold []float64
	etags := c.warm(h, srv, c.expect.initial, &cold)
	c.ready()

	base := srv.Stats()
	lc := newLoadClient(h, c.seed, etags)
	lc.srv = srv
	ol := c.tr.open("serve.open_loop", 0)
	lc.openLoop(0, readOpenLoop, readRPS, nil)
	c.tr.close(ol)
	c.report(lc, true)
	cold = append(cold, lc.coldMs...)

	cl := c.tr.open("serve.closed_loop", 0)
	p := runtime.NumCPU()
	clients := make([]*loadClient, p)
	var wg sync.WaitGroup
	t := time.Now()
	for g := range clients {
		clients[g] = newLoadClient(h, c.seed, etags)
		wg.Add(1)
		go func(lc *loadClient, g int) {
			defer wg.Done()
			for i := g; i < readClosedLoop; i += p {
				lc.do(uint64(readOpenLoop+i), time.Now())
			}
		}(clients[g], g)
	}
	wg.Wait()
	elapsed := time.Since(t)
	c.tr.close(cl)
	for _, lc := range clients {
		c.report(lc, false)
	}
	c.res.Layer["serve.sat_rps"] = float64(readClosedLoop) / elapsed.Seconds()
	c.queryStats(srv, base, cold)
	c.checkSummary(h, c.expect.final)
	return nil
}

// arrivalOrder is serve-ingest's seeded near-in-order arrival of the
// shards after the base: each window of ingestWindow consecutive shards
// arrives in a random order.
func arrivalOrder(seed uint64) []int {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	var order []int
	for lo := ingestBase; lo < serveShards; lo += ingestWindow {
		w := make([]int, 0, ingestWindow)
		for i := lo; i < min(lo+ingestWindow, serveShards); i++ {
			w = append(w, i)
		}
		rng.Shuffle(len(w), func(i, j int) { w[i], w[j] = w[j], w[i] })
		order = append(order, w...)
	}
	return order
}

func shardFile(inputs string, i int) string {
	return filepath.Join(inputs, "shards", fmt.Sprintf("shard-%03d.json", i))
}

// ingester POSTs shards to /v1/ingest on a fixed schedule.
type ingester struct {
	h      http.Handler
	tr     *tracer
	parent int
	blobs  [][]byte
	t0     time.Time
	next   int

	latMs      []float64
	pendingMax int
	attempted  int
	failed     int
	failures   []string
}

func (in *ingester) due(k int) time.Time {
	return in.t0.Add(time.Duration(k) * time.Second / ingestRate)
}

// post sends shard k, timed from when it was due.
func (in *ingester) post(k int) {
	sched := in.due(k)
	start := in.tr.since()
	rec := httptest.NewRecorder()
	in.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(in.blobs[k])))
	in.latMs = append(in.latMs, float64(time.Since(sched).Nanoseconds())/1e6)
	in.tr.add("query.ingest", in.parent, start, in.tr.since())
	in.attempted++
	var res struct {
		Duplicate bool `json:"duplicate"`
		Pending   int  `json:"pending"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); rec.Code != http.StatusOK || err != nil || res.Duplicate {
		in.failed++
		if len(in.failures) < 10 {
			in.failures = append(in.failures, fmt.Sprintf("ingest %d: status %d, duplicate=%v: %s", k, rec.Code, res.Duplicate, bytes.TrimSpace(rec.Body.Bytes())))
		}
		return
	}
	in.pendingMax = max(in.pendingMax, res.Pending)
}

// postDue posts every shard due by t.
func (in *ingester) postDue(t time.Time) {
	for in.next < len(in.blobs) && !in.due(in.next).After(t) {
		in.post(in.next)
		in.next++
	}
}

// serveIngest reads the mix open-loop while a writer POSTs the remaining
// shards near in order; every accepted ingest invalidates the cache.
func (c *child) serveIngest() error {
	ld := c.tr.open("bench.load", 0)
	order := arrivalOrder(c.seed)
	blobs := make([][]byte, len(order))
	for k, i := range order {
		b, err := os.ReadFile(shardFile(c.inputs, i))
		if err != nil {
			return err
		}
		blobs[k] = b
	}
	c.tr.close(ld)
	so := c.tr.open("store.open", 0)
	st, err := store.Open(filepath.Join(c.dir, "store"))
	c.tr.close(so)
	if err != nil {
		return err
	}
	srv := query.New(st)
	h := srv.Handler()
	var cold []float64
	etags := c.warm(h, srv, c.expect.initial, &cold)
	gen0 := st.Generation()
	c.ready()

	base := srv.Stats()
	mixed := c.tr.open("serve.mixed", 0)
	lc := newLoadClient(h, c.seed, etags)
	lc.srv = srv
	in := &ingester{h: h, tr: c.tr, parent: mixed, blobs: blobs, t0: time.Now()}
	reads := ingestReadRPS * len(blobs) / ingestRate
	// With one CPU the writer shares the reader's goroutine, posting each
	// shard when due, so load goroutines never outnumber CPUs.
	if runtime.NumCPU() < 2 {
		lc.openLoop(0, reads, ingestReadRPS, in.postDue)
		in.postDue(in.due(len(blobs)))
	} else {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range blobs {
				time.Sleep(time.Until(in.due(k)))
				in.post(k)
			}
		}()
		lc.openLoop(0, reads, ingestReadRPS, nil)
		wg.Wait()
	}
	c.tr.close(mixed)

	c.report(lc, true)
	c.res.Attempted += in.attempted
	c.res.Failed += in.failed
	c.res.Failures = append(c.res.Failures, in.failures...)
	c.res.IngestMs = in.latMs
	c.res.Layer["store.pending_max"] = float64(in.pendingMax)
	c.res.Layer["store.generations"] = float64(st.Generation() - gen0)
	c.queryStats(srv, base, append(cold, lc.coldMs...))
	c.checkSummary(h, c.expect.final)
	if snap, err := st.Resolve(""); err != nil || !snap.Complete || snap.Pending != 0 {
		c.fail("serve-ingest: corpus not complete after every shard arrived (%v)", err)
	}
	return nil
}
